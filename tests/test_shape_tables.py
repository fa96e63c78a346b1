"""The move engine's fast paths against the obvious routes.

Exchanges and the final check ask ``x_vanishes`` of every pair and run
``x_ext`` only on a pair that does not vanish; ``gram_solve`` reads chi_X
from a table keyed by p and packed twist difference.  Each is checked
against an unshared route that calls ``x_ext`` (or ``x_euler``) on every
pair; a wrong answer on one shape must surface at the same first pair with
the same detail either way.
"""

import random

import pytest

import flipcheck.collections.engine as engine
from flipcheck.bwb import GradedDims
from flipcheck.collections import (
    Collection,
    make_block,
    EngineError,
    KClassMismatch,
    PairCheck,
    check_semiorthogonal,
    exchange,
    notation,
    run_script,
)
from flipcheck.collections.engine import Entry, gram_solve
from flipcheck.flagx import EObject, ExtResult, x_euler, x_ext, x_vanishes
from flipcheck.weights import Weight

from reference import shifted


def _obj(p, k, d, s=0, m=1) -> EObject:
    """m copies of S^p U^vee (kH)(dh)[s], one term."""
    return EObject(((Weight(p + k, k), d, s, m),))


# Shifts and multiplicities vary too, so every component of the key matters.
MIXED = [
    _obj(p, k, d, s, m)
    for p in range(3)
    for k in range(2)
    for d in (-1, 0, 1)
    for s in (0, 1)
    for m in (1, 2)
]


def _mixed_collection(n_amb: int, size: int = 22) -> Collection:
    """A seeded sample of MIXED with an opaque entry and a two-term object."""
    rng = random.Random(n_amb)
    entries = [Entry.pure(o) for o in rng.sample(MIXED, size)]
    entries.insert(rng.randrange(size), Entry.opaque("D"))
    two_term = EObject.line() + shifted(EObject.schur(1, 0, 1), 1)
    entries.insert(rng.randrange(size), Entry.pure(two_term))
    return Collection(n_amb, entries)


def _twist_normal(a: EObject, b: EObject) -> tuple:
    """Both objects twisted so that a's one term sits at H- and h-twist 0:
    a key built from the objects, not from the engine's ints."""
    ((w, d, _, _),) = a.terms
    return a.twisted(-w.b, -d), b.twisted(-w.b, -d)


def _unshared_pairs(col: Collection, ext=x_ext) -> list[PairCheck]:
    """check_semiorthogonal by the obvious route: x_ext on every pair, with
    the passing and skipped pairs kept."""
    out = []
    for j, ej in enumerate(col.entries):
        for i, ei in enumerate(col.entries[:j]):
            if ej.kind != "pure" or ei.kind != "pure":
                out.append(PairCheck(j, i, "skipped-opaque", ""))
                continue
            r = ext(ej.obj, ei.obj, col.n_amb)
            if r.is_zero():
                out.append(PairCheck(j, i, "pass", ""))
            elif r.kind == "bounded":
                detail = f"front={r.front.dims} back={r.back.dims}"
                out.append(PairCheck(j, i, "indeterminate", detail))
            else:
                detail = f"Hom({ej.label()}, {ei.label()}) = {r.total().dims}"
                out.append(PairCheck(j, i, "fail", detail))
    return out


def _non_passing(checks: list[PairCheck]) -> list[PairCheck]:
    """The pairs that ``check_semiorthogonal`` returns: fail and indeterminate."""
    return [c for c in checks if c.status in ("fail", "indeterminate")]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EngineError as exc:
        return type(exc).__name__, str(exc)


def _exchanged(col: Collection) -> Collection:
    """The collection after ``exchange(col, 0)``."""
    exchange(col, 0)
    return col


@pytest.mark.parametrize("n_amb", range(3, 18))
def test_check_semiorthogonal_matches_the_unshared_route(n_amb):
    col = _mixed_collection(n_amb)
    unshared = _unshared_pairs(col)
    assert check_semiorthogonal(col) == _non_passing(unshared)
    assert {c.status for c in unshared} >= {"pass", "fail", "skipped-opaque"}


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_final_sod_check_matches_the_unshared_route(n, parity):
    res = run_script(parity, "full", n)
    assert res.ok
    assert check_semiorthogonal(res.final) == _non_passing(_unshared_pairs(res.final))


def _exchanged_by_x_ext(a: EObject, b: EObject, n_amb: int):
    """The outcome of exchanging (a, b), read from x_ext in both directions."""
    for x, y in ((a, b), (b, a)):
        r = x_ext(x, y, n_amb)
        hom = f"exchange 0: Hom({notation(x)}, {notation(y)})"
        if r.kind == "bounded":
            return "VanishingNotEstablished", f"{hom} bounded"
        if not r.is_zero():
            return "VanishingFalse", f"{hom} = {r.total().dims} != 0"
    return Collection(n_amb, [Entry.pure(b), Entry.pure(a)])


@pytest.mark.parametrize("n_amb", range(3, 18))
def test_exchange_and_gram_solve_match_the_unshared_route(n_amb):
    rng = random.Random(-n_amb)
    pure = rng.sample(MIXED, 16)
    blocks = [(rng.sample(pure, rng.randint(1, 4)), rng.choice(pure)) for _ in range(12)]
    blocks.append((pure[:1] * 2, pure[1]))  # equal shapes, not unitriangular
    a_block = list(make_block("A", (), n_amb))  # an exceptional sequence
    blocks += [(a_block, t) for t in pure[:4] + a_block]

    exchanged = [
        _outcome(_exchanged, Collection(n_amb, [Entry.pure(a), Entry.pure(b)]))
        for a in pure
        for b in pure
    ]
    assert exchanged == [_exchanged_by_x_ext(a, b, n_amb) for a in pure for b in pure]
    assert any(isinstance(o, Collection) for o in exchanged)
    assert any(isinstance(o, tuple) for o in exchanged)

    shared = [_outcome(gram_solve, block, target, n_amb) for block, target in blocks]
    per_entry = [_outcome(_per_entry_gram, block, target, n_amb) for block, target in blocks]
    assert shared == per_entry
    assert any(isinstance(o, list) for o in shared)


def _per_entry_gram(block: list[EObject], target: EObject, n_amb: int) -> list[int]:
    """gram_solve by the obvious route: the whole Gram matrix first, one
    ``x_euler`` per entry (looked up in the engine, so a fault injected there
    reaches both routes), then the checks and the back-substitution."""
    chi = engine.x_euler
    m = len(block)
    gram = [[chi(a, b, n_amb) for b in block] for a in block]
    for i in range(m):
        if gram[i][i] != 1:
            raise KClassMismatch(f"Gram diagonal chi = {gram[i][i]} != 1 at {i}")
        for j in range(i):
            if gram[i][j] != 0:
                raise KClassMismatch(f"Gram not unitriangular at ({i},{j})")
    coeff = [0] * m
    for i in range(m - 1, -1, -1):
        rest = sum(gram[i][j] * coeff[j] for j in range(i + 1, m))
        coeff[i] = chi(block[i], target, n_amb) - rest
    return coeff


def _gram_cases(n_amb: int) -> list[tuple[list[EObject], EObject]]:
    """Blocks and targets: one class with and without a shift and a
    multiplicity, mixed classes, two-term members and targets, the zero
    object, and blocks that are not unitriangular."""
    rng = random.Random(n_amb)
    cells = [EObject.line(l, 2 - 2 * l) for l in range(3)]  # one class: S^2's cells
    a_block = list(make_block("A", (), n_amb))  # classes p = 0..n-1
    two_term = EObject.line() + shifted(EObject.schur(1, 0, 1), 1)
    cases = [(cells, EObject.schur(2)), (cells, EObject.line(1, -1))]
    cases.append((a_block, EObject.line(1, 1)))
    for s, m in ((1, 1), (0, 2), (3, 3)):

        def lift(o, s=s, m=m):
            ((w, d, _, _),) = o.terms
            return EObject(((w, d, s, m),))

        lifted = [lift(o) for o in cells]
        cases += [(lifted, EObject.schur(2)), (lifted, shifted(EObject.schur(2), s))]
        cases.append((lifted, lift(EObject.line(1, -1))))
    cases += [(a_block, two_term), (a_block[:1] + [two_term], EObject.line())]
    cases += [([EObject(), EObject.line()], EObject.line()), (cells, EObject())]
    cases += [(cells[::-1], EObject.line()), (cells + cells[:1], EObject.schur(1))]
    cases += [(a_block[::-1], EObject.schur(1)), (a_block[:1] * 2, EObject.line())]
    for _ in range(10):
        block = rng.sample(MIXED, rng.randint(1, 5))
        cases.append((block, rng.choice(MIXED)))
    return cases


@pytest.mark.parametrize("n_amb", range(3, 12))
def test_gram_solve_matches_the_per_entry_gram(n_amb):
    # Each case alone and all of them through one table, as the blocks of a
    # run share their Collection's: the same coefficients or the same
    # KClassMismatch message as one x_euler per entry.
    cases = _gram_cases(n_amb)
    expected = [_outcome(_per_entry_gram, block, target, n_amb) for block, target in cases]
    assert [_outcome(gram_solve, b, t, n_amb) for b, t in cases] == expected
    table: dict = {}
    assert [_outcome(gram_solve, b, t, n_amb, table) for b, t in cases] == expected
    assert {type(o) for o in expected} == {list, tuple}


def _ints(o: EObject) -> tuple[int, int, int, int, int]:
    ((w, d, s, m),) = o.terms
    return w.a - w.b, w.b, d, s, m


def _chi_shape(a: EObject, b: EObject) -> tuple[int, int, int, int]:
    """(p, q, dk, dd): the class pair and twist difference of one-term a, b."""
    pa, ka, da, _, _ = _ints(a)
    pb, kb, db, _, _ = _ints(b)
    return pa, pb, kb - ka, db - da


def _chi_off_by_one_on(shape):
    """x_euler plus one on every one-term pair of one (class pair,
    difference), scaled by the shift sign and the multiplicities as chi_X
    is, so every route that is right about chi_X sees the same wrong value."""

    def faulty(a, b, n_amb):
        v = x_euler(a, b, n_amb)
        if len(a.terms) == len(b.terms) == 1 and _chi_shape(a, b) == shape:
            *_, sa, ma = _ints(a)
            *_, sb, mb = _ints(b)
            v += (-1) ** (sb - sa) * ma * mb
        return v

    return faulty


@pytest.mark.parametrize("n_amb", [5, 7, 9])
def test_a_wrong_chi_on_one_shape_fails_the_same_first_entry(n_amb, monkeypatch):
    cases = [(b, t) for b, t in _gram_cases(n_amb) if all(len(o.terms) == 1 for o in b + [t])]
    shapes = list(dict.fromkeys(
        _chi_shape(a, b) for block, t in cases[:8] for a in block for b in block + [t]
    ))
    assert len(shapes) > 10
    for shape in shapes[:: max(1, len(shapes) // 12)]:
        monkeypatch.setattr(engine, "x_euler", _chi_off_by_one_on(shape))
        expected = [_outcome(_per_entry_gram, b, t, n_amb) for b, t in cases]
        table: dict = {}
        assert [_outcome(gram_solve, b, t, n_amb, table) for b, t in cases] == expected
        assert [_outcome(gram_solve, b, t, n_amb) for b, t in cases] == expected


def test_chi_table_belongs_to_its_run():
    # A chessboard run at N = 9 after one at N = 7, in one process, gives the
    # bytes of a fresh run (the pinned digest): no chi value outlives its run.
    import hashlib
    import json
    import pathlib

    from flipcheck.cli import emit_report
    from flipcheck.verify import verify_chessboard, verify_suite

    pins = json.loads(
        (pathlib.Path(__file__).parents[1] / "scripts" / "report_digests.json").read_text()
    )
    verify_chessboard(3)
    text = emit_report(verify_suite(4, "odd", "all"), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == pins["n4/odd"]
    chessboard = run_script("odd", "chessboard", 4)
    assert chessboard.ok and chessboard.final.chi
    assert Collection(9).chi == {}


def _on_shape(a: EObject, b: EObject, shape) -> bool:
    return len(a.terms) == len(b.terms) == 1 and _twist_normal(a, b) == shape


def _faulty_on(shape):
    """x_ext with a nonzero Hom on every pair of one twist shape."""
    wrong = ExtResult("exact", GradedDims(), GradedDims(((0, 1),)))

    def faulty(a, b, n_amb):
        return wrong if _on_shape(a, b, shape) else x_ext(a, b, n_amb)

    return faulty


def _inject(monkeypatch, shape):
    """Give the engine a nonzero Hom on every pair of one twist shape, in
    x_vanishes and x_ext alike; returns the faulty x_ext."""
    faulty = _faulty_on(shape)
    monkeypatch.setattr(engine, "x_ext", faulty)
    monkeypatch.setattr(
        engine,
        "x_vanishes",
        lambda a, b, n_amb: not _on_shape(a, b, shape) and x_vanishes(a, b, n_amb),
    )
    return faulty


def _pure_pair_shapes(col: Collection) -> list[tuple]:
    pure = [e.obj for e in col.entries if e.kind == "pure"]
    shapes = [_twist_normal(b, a) for i, a in enumerate(pure) for b in pure[i + 1 :]]
    return list(dict.fromkeys(shapes))


def _first_fail(checks):
    return next((c for c in checks if c.status == "fail"), None)


@pytest.mark.parametrize("pick", [0, 1, 7, -1])
def test_a_wrong_ext_on_one_shape_fails_the_same_first_pair(pick, monkeypatch):
    final = run_script("odd", "full", 3).final
    shape = _pure_pair_shapes(final)[pick]
    expected = _non_passing(_unshared_pairs(final, _inject(monkeypatch, shape)))
    got = check_semiorthogonal(final)
    assert got == expected
    first = _first_fail(got)
    assert first is not None and first == _first_fail(expected)


@pytest.mark.parametrize("step", ["step1", "step4", "full"])
def test_a_wrong_ext_on_an_exchanged_shape_refuses_the_same_move(step, monkeypatch):
    shapes = []

    def record(verb, args, old, new, col):
        if verb == "exchange":
            a, b = (e.obj for e in old)
            shapes.append(_twist_normal(b, a))

    assert run_script("odd", step, 4, on_move=record).ok
    for shape in (shapes[0], shapes[len(shapes) // 2], shapes[-1]):
        faulty = _inject(monkeypatch, shape)
        fast = run_script("odd", step, 4)
        with monkeypatch.context() as m:
            # The unshared route: x_ext decides every vanishing.
            m.setattr(engine, "x_vanishes", lambda a, b, n_amb: faulty(a, b, n_amb).is_zero())
            unshared = run_script("odd", step, 4)
        assert not fast.ok
        assert (fast.moves_applied, fast.failed_line, fast.error) == (
            unshared.moves_applied,
            unshared.failed_line,
            unshared.error,
        )
        assert fast.final == unshared.final


@pytest.mark.parametrize("parity,step", [("odd", "full"), ("even", "full"), ("odd", "chessboard")])
def test_x_ext_runs_only_on_pairs_that_do_not_vanish(parity, step, monkeypatch):
    # Every exchange of a passing run vanishes both ways, so x_ext runs once
    # per mutl/mutr move, for the degree the move reads, and the final check
    # of the run asks it nothing.
    calls = []
    verbs = []

    def counted(a, b, n_amb):
        calls.append((a, b))
        return x_ext(a, b, n_amb)

    monkeypatch.setattr(engine, "x_ext", counted)
    res = run_script(parity, step, 4, on_move=lambda verb, *rest: verbs.append(verb))
    assert res.ok and "exchange" in verbs
    assert len(calls) == sum(1 for v in verbs if v in ("mutl", "mutr"))
    del calls[:]
    assert check_semiorthogonal(res.final) == []
    assert calls == []
