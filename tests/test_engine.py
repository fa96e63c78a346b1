import pytest

from flipcheck.bwb import GradedDims
from flipcheck.collections import (
    Block,
    Collection,
    KClassMismatch,
    NoRuleMatch,
    NotSimple,
    OpaqueEntryError,
    VanishingFalse,
    VanishingNotEstablished,
    check_semiorthogonal,
    count_objects,
    exchange,
    expand_block,
    insert_opaque,
    mutate_block_left,
    mutate_left,
    mutate_right,
    promote,
    serre_twist,
)
from flipcheck.collections import engine
from flipcheck.collections.engine import Entry, ScriptError
from flipcheck.collections.scriptgen import Sim
from flipcheck.flagx import EObject, ExtResult
from flipcheck.verify import _expected_pair


def col_of(n_amb, *objs):
    return Collection(n_amb, [Entry.pure(o) for o in objs])


def test_exchange_requires_vanishing():
    c = col_of(5, EObject.line(), EObject.line())
    with pytest.raises(VanishingFalse):
        exchange(c, 0)


def test_exchange_certified():
    # Hom(O, O(-H+h)) = 0 = Hom(O(-H+h), O) at N = 5: the pair may transpose
    c = col_of(5, EObject.line(), EObject.line(-1, 1))
    exchange(c, 0)
    assert c.pure_objects() == [EObject.line(-1, 1), EObject.line()]


def test_exchange_strict_checks_backward():
    # forward Hom(O, O(-h)) = 0, backward Hom(O(-h), O) = C^N != 0
    c = col_of(5, EObject.line(), EObject.line(0, -1))
    with pytest.raises(VanishingFalse):
        exchange(c, 0)


def test_exchange_bounded_backward_is_not_established(monkeypatch):
    zero = ExtResult("zero", GradedDims(), GradedDims())
    bounded = ExtResult("bounded", GradedDims(((0, 1),)), GradedDims(((1, 1),)))
    a, b = EObject.line(), EObject.line(-1, 1)
    monkeypatch.setattr(engine, "x_vanishes", lambda x, y, n: x == a)
    monkeypatch.setattr(engine, "x_ext", lambda x, y, n: zero if x == a else bounded)
    with pytest.raises(VanishingNotEstablished):
        exchange(col_of(5, a, b), 0)


def test_mutate_left_rule1():
    k, n_amb = 2, 7
    c = col_of(n_amb, EObject.schur(k - 1, 1, -1), EObject.schur(k))
    mutate_left(c, 0)
    assert c.pure_objects() == [EObject.line(0, k), EObject.schur(k - 1, 1, -1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rule_table_holds_under_uniform_twists(n):
    # each rule lands on verify's independent statement of it, twisted by
    # the same O(cH + dh) as the start pair
    n_amb = 2 * n + 1
    for k in range(1, n):
        for rule in (1, 2, 3):
            start, expected = _expected_pair(rule, k)
            for c, d in ((0, 0), (1, -1), (-2, 3), (3, 1)):
                col = col_of(n_amb, *(o.twisted(c, d) for o in start))
                (mutate_left if rule == 1 else mutate_right)(col, 0)
                assert col.pure_objects() == [o.twisted(c, d) for o in expected]


def test_former_inverse_patterns_match_no_rule():
    # mutating a rule's result back through its mutator is not in the table
    n_amb = 7
    for k in (1, 2):
        rule1_out = col_of(n_amb, EObject.line(0, k), EObject.schur(k - 1, 1, -1))
        rule3_out = col_of(n_amb, EObject.schur(k - 1, 0, 1), EObject.line(k, -k))
        for move, col in (
            (mutate_right, rule1_out),  # R_{S^{k-1}Uv(H-h)} O(kh)
            (mutate_left, rule1_out),  # L_{O(kh)} S^{k-1}Uv(H-h)
            (mutate_left, rule3_out),  # L_{S^{k-1}Uv(h)} O(k(H-h))
        ):
            with pytest.raises(NoRuleMatch, match="matches no rule"):
                move(col, 0)


def test_mutate_right_rule3_twisted():
    # R through S^{k-1}Uv(H-h) of S^kUv(H-2h): the third induction's move
    k, n_amb = 2, 9
    c = col_of(n_amb, EObject.schur(k, 1, -2), EObject.schur(k - 1, 1, -1))
    mutate_right(c, 0)
    assert c.pure_objects() == [
        EObject.schur(k - 1, 1, -1),
        EObject.line(k + 1, -(k + 2)),
    ]


def test_mutate_rejects_zero_rhom():
    c = col_of(7, EObject.line(1, -1), EObject.line())
    with pytest.raises(NotSimple):
        mutate_left(c, 0)


def test_mutate_rejects_unmatched_pattern():
    # RHom(O, O(h)) = C^N: not one-dimensional either
    c = col_of(7, EObject.line(), EObject.line(0, 1))
    with pytest.raises(NotSimple):
        mutate_left(c, 0)


def test_mutate_range_guard():
    n_amb = 7
    c = col_of(n_amb, EObject.schur(2, 1, -1), EObject.schur(3))
    with pytest.raises(NoRuleMatch):
        mutate_left(c, 0)  # k = 3 = n: outside 1..n-1
    # RHom(O, O) = C[0], and the target O has k = 0: refused before rule (2)
    # would build S^{-1}Uv(H-h)
    with pytest.raises(NoRuleMatch):
        mutate_right(col_of(n_amb, EObject.line(), EObject.line()), 0)


def test_mutations_restore_semiorthogonality():
    # L_E b lands in E-perp and R_E b in perp-E: the new pair is an SOD pair
    n_amb = 9
    for k in (1, 2, 3):
        left = col_of(n_amb, EObject.schur(k - 1, 1, -1), EObject.schur(k))
        right2 = col_of(n_amb, EObject.schur(k), EObject.line(0, k))
        right3 = col_of(n_amb, EObject.schur(k), EObject.schur(k - 1, 0, 1))
        mutate_left(left, 0)
        mutate_right(right2, 0)
        mutate_right(right3, 0)
        for c in (left, right2, right3):
            assert check_semiorthogonal(c) == []


def test_serre_twist_block_arithmetic():
    n_amb = 7  # n = 3: K_X|_E = O(-5H - h)
    objs = [EObject.schur(1, 2 * 3 - 1, 0)]  # Uv((2n-1)H)
    assert serre_twist(objs, n_amb) == [EObject.schur(1, 0, -1)]  # Uv(-h)
    objs = [EObject.schur(1, 2 * 3, 0)]
    assert serre_twist(objs, n_amb) == [EObject.schur(1, 1, -1)]  # Uv(H-h)


def test_serre_twist_staircase():
    # S' = S (x) O(-1, 1-2n): cells O(x, y) -> O(x-1, y+1-2n)
    n_amb = 9
    cell = EObject.line(5, 2)
    (twisted,) = serre_twist([cell], n_amb)
    assert twisted == EObject.line(5 - (n_amb - 2), 1)


def test_opaque_entries_block_mutations():
    c = col_of(5, EObject.line())
    insert_opaque(c, "D", 0)
    with pytest.raises(OpaqueEntryError):
        exchange(c, 0)
    out = col_of(5, EObject.line())
    insert_opaque(out, "D", 1)
    promote(out, 1, "D2")
    assert out.entries[0].name == "D2"


def test_check_semiorthogonal_remark_list():
    # the N=4 Remark: six pure objects, pairwise semiorthogonal
    objs = [
        EObject.schur(1, -1, -1),
        EObject.line(0, -1),
        EObject.line(),
        EObject.line(0, 1),
        EObject.line(1, -1),
        EObject.line(1, 0),
    ]
    assert check_semiorthogonal(col_of(4, *objs)) == []


def test_check_semiorthogonal_directions():
    # <O(-h), O> is an SOD pair; <O, O(-h)> is not (Hom = C^N forward)
    ok = check_semiorthogonal(col_of(5, EObject.line(0, -1), EObject.line()))
    assert ok == []
    bad = check_semiorthogonal(col_of(5, EObject.line(), EObject.line(0, -1)))
    assert [(c.later, c.earlier, c.status) for c in bad] == [(1, 0, "fail")]


def test_check_semiorthogonal_self_fails():
    checks = check_semiorthogonal(col_of(5, EObject.line(), EObject.line()))
    assert checks[0].status == "fail"


def test_count_objects():
    assert count_objects(Collection(5)) == 0
    c = col_of(5, EObject.line(), EObject.line(0, 1))
    insert_opaque(c, "D", 0)
    assert count_objects(c) == 2


def test_mutate_block_left_produces_cone():
    # the n=3 chessboard red cell: L through the corner O(2h+3H)
    n_amb = 7
    c = col_of(n_amb, EObject.line(3, 2), EObject.line(4, -4))
    mutate_block_left(c, 0, 0)
    assert c.entries[0].kind == "cone"
    assert c.entries[0].kclass is not None
    assert c.entries[1].obj == EObject.line(3, 2)


def test_mutate_block_left_rejects_an_empty_block():
    # i > j would solve an empty Gram system and turn entry j+1 into a cone
    # with no Ext checked.
    c = Collection(7)
    expand_block(c, Block("A"), 0)
    with pytest.raises(ScriptError, match=r"mutlblock 2\.\.1: empty block"):
        mutate_block_left(c, 2, 1)


def test_mutate_block_left_rejects_non_unitriangular_gram():
    # chi_X(O, O) = 1 sits below the diagonal of the block [O, O]
    c = col_of(5, EObject.line(), EObject.line(), EObject.schur(1))
    with pytest.raises(KClassMismatch, match=r"not unitriangular at \(1,0\)"):
        mutate_block_left(c, 0, 1)


def _valid_blocks(n: int, parity: str):
    yield "A", ()
    for l in range(n + 1):
        yield "Au", (l,)
    for l in range(n - 1):
        yield "B", (l,)
        yield "C", (l,)
        yield "F", (l,)
    for l in range(1, n - 1):
        yield "E", (l,)
    yield "H", ()
    if parity == "even":
        yield "Hp", ()
        for l in range(n - 2):
            yield "Fp", (l,)
    if parity == "odd":
        for k in range(n - 1):
            yield "S", (k,)
        yield "row", (1,)


@pytest.mark.parametrize("n,parity", [(2, "odd"), (3, "odd"), (3, "even")])
def test_every_block_is_an_exceptional_sequence(n, parity):
    from flipcheck.collections import make_block
    from flipcheck.flagx import x_ext

    n_amb = 2 * n + (1 if parity == "odd" else 0)
    for name, params in _valid_blocks(n, parity):
        objs = make_block(name, params, n_amb)
        col = col_of(n_amb, *objs)
        assert check_semiorthogonal(col) == [], (name, params)
        for t in objs:
            r = x_ext(t, t, n_amb)
            assert r.kind == "exact" and r.total().dims == ((0, 1),), (name, params)


def test_sim_applies_moves_by_verb():
    sim = Sim(Collection(5))
    sim.do("opaque", "D", 0)
    sim.do("expand", Block("A"), 1)
    sim.do("promote", 0, "D2")
    assert [e.kind for e in sim.col.entries] == ["opaque", "pure", "pure"]
    assert sim.lines == ["opaque D at 0", "expand A at 1", "promote 0 as D2"]
