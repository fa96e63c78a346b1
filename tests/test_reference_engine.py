"""The in-place move engine against the slow reference engine.

``Sim`` edits one collection and hands each move's replaced and written
slots (old, new) to its hook, from which the tracked count is kept running.
``reference.RefSim`` builds a new tuple per move, asks ``x_ext`` about every
pair and counts in full.  Both must give the same lines, refusals, per-move
counts and entries.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

import flipcheck.collections.engine as engine
import reference
from flipcheck.bwb import GradedDims
from flipcheck.collections import (
    Block,
    Collection,
    EngineError,
    KClassMismatch,
    NoRuleMatch,
    NotSimple,
    OpaqueEntryError,
    ScriptError,
    VanishingFalse,
)
from flipcheck.collections.scriptgen import GENERATORS, Sim, _O
from flipcheck.flagx import ExtResult
from reference import RefSim, tracked


def _n_amb(parity: str, n: int) -> int:
    return 2 * n + (parity == "odd")


def _counted_sim(n_amb: int) -> tuple[Sim, list[int]]:
    """A Sim and the tracked count after each of its moves, kept running
    from the (old, new) slots of each move."""
    counts: list[int] = []

    def hook(verb, args, old, new, col):
        counts.append((counts[-1] if counts else 0) + tracked(new) - tracked(old))

    return Sim(Collection(n_amb), hook), counts


def _drive(sim, key: tuple[str, str], n: int):
    """Run a generator on ``sim``: the refused line and error class, or None."""
    try:
        GENERATORS[key](sim, n)
    except EngineError as exc:
        return sim.refused, type(exc)
    return None


def _same_run(sim: Sim, counts: list[int], ref: RefSim) -> None:
    assert sim.lines == ref.lines
    assert counts == ref.counts
    assert sim.col.entries == list(ref.col.entries)


@pytest.mark.parametrize("parity,step", sorted(GENERATORS))
def test_every_generator_matches_the_reference_engine(parity, step):
    for n in range(2, 9):
        sim, counts = _counted_sim(_n_amb(parity, n))
        ref = RefSim(_n_amb(parity, n))
        assert _drive(sim, (parity, step), n) is None
        assert _drive(ref, (parity, step), n) is None
        _same_run(sim, counts, ref)


def test_a_nonzero_hom_is_refused_the_same_way_by_the_reference(monkeypatch):
    # The second exchange of (odd, step1, 3) sees a nonzero Hom, as in
    # test_scripts' refused-move test: both engines stop at the same line
    # and keep the same entries.
    pairs = []

    def record(verb, args, old, new, col):
        if verb == "exchange":
            pairs.append((old[1].obj, old[0].obj))

    GENERATORS[("odd", "step1")](Sim(Collection(7), record), 3)
    x_ext_real, x_vanishes_real = reference.x_ext, engine.x_vanishes

    def nonzero_hom(a, b, n_amb):
        if (a, b) == pairs[1]:
            return ExtResult("exact", GradedDims(), GradedDims(((0, 1),)))
        return x_ext_real(a, b, n_amb)

    def vanishes(a, b, n_amb):
        return (a, b) != pairs[1] and x_vanishes_real(a, b, n_amb)

    monkeypatch.setattr(engine, "x_vanishes", vanishes)
    monkeypatch.setattr(engine, "x_ext", nonzero_hom)
    monkeypatch.setattr(reference, "x_ext", nonzero_hom)
    sim, counts = _counted_sim(7)
    ref = RefSim(7)
    refused = ("exchange 3", VanishingFalse)
    assert _drive(sim, ("odd", "step1"), 3) == refused
    assert _drive(ref, ("odd", "step1"), 3) == refused
    _same_run(sim, counts, ref)


def test_a_failed_lookup_ends_the_run_the_same_way_as_the_reference(monkeypatch):
    # The generator's own lookup finds no copy after two applied moves: both
    # engines raise ScriptError with no refused line and keep both blocks.
    def lost(sim, n):
        sim.expand(_A)
        sim.expand(_A_H)
        sim.move_right(_O(5), 1)

    monkeypatch.setitem(GENERATORS, ("odd", "step1"), lost)
    sim, counts = _counted_sim(7)
    ref = RefSim(7)
    assert _drive(sim, ("odd", "step1"), 3) == (None, ScriptError)
    assert _drive(ref, ("odd", "step1"), 3) == (None, ScriptError)
    _same_run(sim, counts, ref)
    assert (sim.applied, len(sim.col)) == (2, 6)


# ------------------------------------------------------------ random moves

# Runs on N = 5..9 whose recorded moves give each random sequence its start.
_RUNS = [
    (parity, step, n)
    for parity, step in sorted(GENERATORS)
    for n in (2, 3, 4)
    if 5 <= _n_amb(parity, n) <= 9
]
_A, _A_H = Block("A"), Block("A", (), (1, 0))
# Blocks that expand, one that expands to nothing and two that are refused
# (B(l) takes 0 <= l <= n-2, and n <= 4 here).
_BLOCKS = [
    _A,
    _A_H,
    Block("Aseg", (0, 1), (1, -1)),
    Block("Aseg", (1, 1)),
    Block("row", (1,)),
    Block("Aseg", (3, 1)),
    Block("B", (3,)),
    Block("B", (-1,)),
]


@functools.lru_cache(maxsize=None)
def _recorded(parity: str, step: str, n: int) -> tuple:
    moves = []

    def record(verb, args, old, new, col):
        moves.append((verb, args))

    sim = Sim(Collection(_n_amb(parity, n)), record)
    GENERATORS[(parity, step)](sim, n)
    return tuple(moves)


def _random_move(length: int):
    """One move; each index is drawn evenly from -1 .. length + 1."""
    i = st.sampled_from(range(-1, length + 2))
    tail_end = st.sampled_from([length - 1, length])
    return st.one_of(
        st.tuples(st.sampled_from(["exchange", "mutl", "mutr"]), st.tuples(i)),
        st.tuples(st.just("serre"), st.tuples(i, tail_end)),
        st.tuples(st.just("expand"), st.tuples(st.sampled_from(_BLOCKS), i)),
        st.tuples(st.just("opaque"), st.tuples(st.just("D"), i)),
        st.tuples(st.just("promote"), st.tuples(i, st.just("P"))),
        # j = i - 1 is an empty block; a block of equal objects fails its Gram
        # check.
        i.flatmap(
            lambda a: st.tuples(
                st.just("mutlblock"), st.tuples(st.just(a), st.sampled_from(range(a - 1, a + 4)))
            )
        ),
    )


def _check_index(sim: Sim) -> None:
    """Sim's position index, where it holds one, is a full scan; every
    lookup gives the scanned position or refuses a duplicate."""
    scan: dict = {}
    twice = set()
    for i, e in enumerate(sim.col.entries):
        if e.kind == "pure":
            if e.obj in scan:
                twice.add(e.obj)
            scan[e.obj] = i
    if sim._pos is not None:
        assert not twice and sim._pos == scan
    for obj, i in scan.items():
        if obj in twice:
            with pytest.raises(ScriptError, match="copies"):
                sim.idx(obj)
        else:
            assert sim.idx(obj) == i


def _apply(sim: Sim, counts: list[int], ref: RefSim, verb: str, args: tuple):
    """Apply one move to both engines and compare them; the error class of a
    refusal, or None."""
    before = list(sim.col.entries)
    got = want = None
    try:
        sim.do(verb, *args)
    except EngineError as exc:
        got = type(exc)
    try:
        ref.do(verb, *args)
    except EngineError as exc:
        want = type(exc)
    assert got == want, (verb, args)
    if got is not None:
        assert sim.col.entries == before, (verb, args)
    assert sim.col.entries == list(ref.col.entries), (verb, args)
    assert len(sim.lines) == len(ref.lines) and sim.lines[-1:] == ref.lines[-1:]
    assert len(counts) == len(ref.counts) and counts[-1:] == ref.counts[-1:]
    _check_index(sim)
    return got


@pytest.mark.parametrize(
    "moves,error",
    [
        ([("expand", _A, 0), ("exchange", -1)], ScriptError),
        ([("expand", _A, 0), ("opaque", "D", 1), ("exchange", 0)], OpaqueEntryError),
        ([("expand", _A, 0), ("exchange", 0)], VanishingFalse),
        ([("expand", _A, 0), ("mutl", 0)], NotSimple),
        # RHom(O, O) = C[0], but the target O is S^0 Uv: no rule applies.
        ([("expand", Block("O"), 0), ("expand", Block("O"), 0), ("mutr", 0)], NoRuleMatch),
        ([("expand", _A, 0), ("mutlblock", 1, 0)], ScriptError),
        # chi_X(O, O(H)) != 0 sits below the diagonal of [A(1H), O].
        ([("expand", _A, 0), ("expand", _A_H, 0), ("mutlblock", 0, 3)], KClassMismatch),
    ],
    ids=["negative", "opaque", "nonvanishing", "not-simple", "no-rule", "empty-block", "gram"],
)
def test_refused_moves_match_the_reference_engine(moves, error):
    sim, counts = _counted_sim(7)
    ref = RefSim(7)
    *setup, refused = moves
    for verb, *args in setup:
        assert _apply(sim, counts, ref, verb, tuple(args)) is None
    verb, *args = refused
    assert _apply(sim, counts, ref, verb, tuple(args)) is error
    # The run goes on from the unchanged collection.
    assert _apply(sim, counts, ref, "opaque", ("D2", 0)) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_moves_match_the_reference_engine(data):
    parity, step, n = data.draw(st.sampled_from(_RUNS))
    recorded = _recorded(parity, step, n)
    start = len(recorded) * data.draw(st.integers(0, 8)) // 8
    sim, counts = _counted_sim(_n_amb(parity, n))
    ref = RefSim(_n_amb(parity, n))
    for verb, args in recorded[:start]:
        _apply(sim, counts, ref, verb, args)
    for _ in range(data.draw(st.integers(1, 12))):
        verb, args = data.draw(_random_move(len(sim.col)))
        _apply(sim, counts, ref, verb, args)
