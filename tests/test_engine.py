import pytest

from flipcheck.bwb import GradedDims
from flipcheck.collections import (
    Collection,
    KClassMismatch,
    NoRuleMatch,
    NotSimple,
    OpaqueEntryError,
    VanishingFalse,
    VanishingNotEstablished,
    apply_move,
    check_semiorthogonal,
    count_objects,
    exchange,
    insert_opaque,
    mutate_block_left,
    mutate_left,
    mutate_right,
    promote,
    serre_twist,
)
from flipcheck.collections import engine
from flipcheck.collections.engine import Entry, ScriptError
from flipcheck.flagx import EObject, ExtResult


def col_of(n_amb, *objs):
    return Collection(n_amb, tuple(Entry.pure(o) for o in objs))


def test_exchange_requires_vanishing():
    c = col_of(5, EObject.line(), EObject.line())
    with pytest.raises(VanishingFalse):
        exchange(c, 0)


def test_exchange_certified():
    # Hom(O, O(-H+h)) = 0 = Hom(O(-H+h), O) at N = 5: the pair may transpose
    c = col_of(5, EObject.line(), EObject.line(-1, 1))
    out = exchange(c, 0)
    assert out.pure_objects() == [EObject.line(-1, 1), EObject.line()]


def test_exchange_strict_checks_backward():
    # forward Hom(O, O(-h)) = 0, backward Hom(O(-h), O) = C^N != 0
    c = col_of(5, EObject.line(), EObject.line(0, -1))
    with pytest.raises(VanishingFalse):
        exchange(c, 0)


def test_exchange_bounded_backward_is_not_established(monkeypatch):
    zero = ExtResult("zero", GradedDims(), GradedDims())
    bounded = ExtResult("bounded", GradedDims(((0, 1),)), GradedDims(((1, 1),)))
    a, b = EObject.line(), EObject.line(-1, 1)
    monkeypatch.setattr(engine, "x_ext", lambda x, y, n: zero if x == a else bounded)
    with pytest.raises(VanishingNotEstablished):
        exchange(col_of(5, a, b), 0)


def test_mutate_left_rule1():
    k, n_amb = 2, 7
    c = col_of(n_amb, EObject.schur(k - 1, 1, -1), EObject.schur(k))
    out = mutate_left(c, 0)
    assert out.pure_objects() == [EObject.line(0, k), EObject.schur(k - 1, 1, -1)]


def test_mutl_and_mutr_are_mutually_inverse():
    n_amb = 7
    for k in (1, 2):
        # rule (1) then its inverse (through the degree-1 extension class)
        c = col_of(n_amb, EObject.schur(k - 1, 1, -1), EObject.schur(k))
        assert mutate_right(mutate_left(c, 0), 0).pure_objects() == c.pure_objects()
        # rule (2) round trip
        c = col_of(n_amb, EObject.schur(k), EObject.line(0, k))
        assert mutate_left(mutate_right(c, 0), 0).pure_objects() == c.pure_objects()
        # rule (3) round trip
        c = col_of(n_amb, EObject.schur(k), EObject.schur(k - 1, 0, 1))
        assert mutate_left(mutate_right(c, 0), 0).pure_objects() == c.pure_objects()


def test_mutate_right_rule3_twisted():
    # R through S^{k-1}Uv(H-h) of S^kUv(H-2h): the third induction's move
    k, n_amb = 2, 9
    c = col_of(n_amb, EObject.schur(k, 1, -2), EObject.schur(k - 1, 1, -1))
    out = mutate_right(c, 0)
    assert out.pure_objects() == [
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
    # degree-0 target never matches the table
    n_amb = 7
    c = col_of(n_amb, EObject.schur(2, 1, -1), EObject.schur(3))
    with pytest.raises(NoRuleMatch):
        mutate_left(c, 0)  # k = 3 = n: outside 1..n-1


def test_mutations_restore_semiorthogonality():
    # L_E b lands in E-perp and R_E b in perp-E: the new pair is an SOD pair
    n_amb = 9
    for k in (1, 2, 3):
        left = mutate_left(
            col_of(n_amb, EObject.schur(k - 1, 1, -1), EObject.schur(k)), 0
        )
        right2 = mutate_right(col_of(n_amb, EObject.schur(k), EObject.line(0, k)), 0)
        right3 = mutate_right(
            col_of(n_amb, EObject.schur(k), EObject.schur(k - 1, 0, 1)), 0
        )
        for c in (left, right2, right3):
            assert all(p.status == "pass" for p in check_semiorthogonal(c))


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
    c = insert_opaque(col_of(5, EObject.line()), "D", 0)
    with pytest.raises(OpaqueEntryError):
        exchange(c, 0)
    out = promote(insert_opaque(col_of(5, EObject.line()), "D", 1), 1, "D2")
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
    checks = check_semiorthogonal(col_of(4, *objs))
    assert all(c.status == "pass" for c in checks)


def test_check_semiorthogonal_directions():
    # <O(-h), O> is an SOD pair; <O, O(-h)> is not (Hom = C^N forward)
    ok = check_semiorthogonal(col_of(5, EObject.line(0, -1), EObject.line()))
    assert [c.status for c in ok] == ["pass"]
    bad = check_semiorthogonal(col_of(5, EObject.line(), EObject.line(0, -1)))
    assert [c.status for c in bad] == ["fail"]


def test_check_semiorthogonal_self_fails():
    checks = check_semiorthogonal(col_of(5, EObject.line(), EObject.line()))
    assert checks[0].status == "fail"


def test_count_objects():
    assert count_objects(Collection.empty(5)) == 0
    c = insert_opaque(col_of(5, EObject.line(), EObject.line(0, 1)), "D", 0)
    assert count_objects(c) == 2


def test_mutate_block_left_produces_cone():
    # the n=3 chessboard red cell: L through the corner O(2h+3H)
    n_amb = 7
    c = col_of(n_amb, EObject.line(3, 2), EObject.line(4, -4))
    out = mutate_block_left(c, 0, 0)
    assert out.entries[0].kind == "cone"
    assert out.entries[0].kclass is not None
    assert out.entries[1].obj == EObject.line(3, 2)


def test_mutate_block_left_rejects_non_unitriangular_gram():
    # chi_X(O, O) = 1 sits below the diagonal of the block [O, O]
    c = col_of(5, EObject.line(), EObject.line(), EObject.schur(1))
    with pytest.raises(KClassMismatch, match=r"not unitriangular at \(1,0\)"):
        mutate_block_left(c, 0, 1)
    # unchecked, the block is not validated and the cone has no K-class
    assert mutate_block_left(c, 0, 1, check=False).entries[0].kclass is None


def _valid_blocks(n: int, parity: str):
    yield "A", ()
    for l in range(n + 1):
        yield "Au", (l,)
        yield "Al", (l,)
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
        assert all(c.status == "pass" for c in check_semiorthogonal(col)), (
            name,
            params,
        )
        for t in objs:
            r = x_ext(t, t, n_amb)
            assert r.kind == "exact" and r.total().dims == ((0, 1),), (name, params)


def test_apply_move_parses_all_verbs():
    c = Collection.empty(5)
    c = apply_move(c, "opaque D at 0")
    c = apply_move(c, "expand A at 1")
    c = apply_move(c, "promote 0 as D2")
    assert [e.kind for e in c.entries] == ["opaque", "pure", "pure"]
    with pytest.raises(ScriptError):
        apply_move(c, "frobnicate 3")
