"""Move scripts: generated and certified in one pass.

Each generator drives a ``Sim``: ``sim.do(verb, *args)`` calls the engine's
checked move named by ``verb`` and records it as one line of text.  The
lines are the record of the run, never parsed back; the test suite pins
each script's sha256 for n = 2..5 and one digest per generator over n = 6..9.

Each run edits one ``Collection`` in place: every move writes the slots it
changes and returns them as (old, new), which ``Sim`` hands to its hook.
An exchange asks ``flagx.x_vanishes`` of both directions and runs
``x_ext`` only on a pair that does not vanish (see the engine docstring).

Objects are located by value during generation, which is safe because every
collection of a run is multiplicity-free.  ``Sim`` keeps a position
index that each exchange and mutation updates from the two slots it
changed, so a lookup costs one dict read instead of a scan of the
collection; only the other moves (expand, serre, promote, ...) make the
next lookup rebuild it.  A lookup that finds zero copies or two still
raises ``ScriptError``.

A run ends in one place, ``run_script``: a move the engine refuses raises
its own error, with its line noted as ``Sim.refused``, and a lookup's
``ScriptError`` raises as it is; ``run_script`` turns either into the
failed ``ReplayResult``; nothing else stops them.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple, Optional

from ..flagx import EObject
from .blocks import Block
from .engine import _MOVES, Collection, EngineError, ScriptError


# Object shorthands, shared with the verifiers.  No field of an EObject can
# be assigned, so each is built once and shared: the verifiers ask for the
# same few objects on every instance.


@cache
def _S(k: int, c: int = 0, d: int = 0) -> EObject:
    return EObject.schur(k, c, d)


@cache
def _O(c: int = 0, d: int = 0) -> EObject:
    return EObject.line(c, d)


class ReplayResult(NamedTuple):
    final: Collection  # the run's collection; a refused move wrote nothing
    moves_applied: int
    failed_line: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Sim:
    """Applies moves by verb through ``engine._MOVES`` to its one collection
    ``col``, records their lines and calls ``on_move(verb, args, old, new,
    col)`` after each, where ``old`` and ``new`` are the entries the move
    replaced and wrote.  A refused move notes its line as ``refused`` and
    re-raises the engine's own error; ``run_script`` ends the run there.

    ``idx`` reads a position index of the pure objects.  An exchange swaps
    two of its slots and ``mutl``/``mutr`` replace two; any other move, or a
    duplicate, drops it, and the next lookup rebuilds it with one scan.
    """

    def __init__(self, col: Collection, on_move=None):
        self.col = col
        self.lines: list[str] = []
        self.applied = 0
        self.on_move = on_move
        self._pos: Optional[dict[EObject, int]] = None
        self.refused: Optional[str] = None  # the line of the refused move

    def do(self, verb: str, *args) -> None:
        move, text = _MOVES[verb]
        line = f"{verb} {text.format(*args)}"
        try:
            old, new = move(self.col, *args)
        except EngineError:
            self.refused = line
            raise
        self.lines.append(line)
        self.applied += 1
        self._update_index(verb, args, old, new)
        if self.on_move is not None:
            self.on_move(verb, args, old, new, self.col)

    def _update_index(self, verb: str, args: tuple, old: list, new: list) -> None:
        pos = self._pos
        if pos is None or verb not in ("exchange", "mutl", "mutr"):
            self._pos = None
            return
        (i,) = args
        for e in old:
            del pos[e.obj]
        for k, e in enumerate(new):
            if e.obj in pos:
                self._pos = None  # a second copy: rebuild, and find both
                return
            pos[e.obj] = i + k

    def _index(self) -> dict[EObject, int]:
        """Position of each pure object; -1 for an object held twice or more."""
        pos: dict[EObject, int] = {}
        for i, e in enumerate(self.col.entries):
            if e.kind == "pure":
                pos[e.obj] = -1 if e.obj in pos else i
        if -1 not in pos.values():
            self._pos = pos
        return pos

    def note(self, text: str) -> None:
        self.lines.append(f"# {text}")

    def expand(self, block: Block) -> None:
        self.do("expand", block, len(self.col))

    def idx(self, obj: EObject) -> int:
        pos = self._pos if self._pos is not None else self._index()
        i = pos.get(obj)
        if i is None or i < 0:
            copies = sum(
                1 for e in self.col.entries if e.kind == "pure" and e.obj == obj
            )
            raise ScriptError(f"object lookup found {copies} copies")
        return i

    def opaque_idx(self) -> int:
        hits = [i for i, e in enumerate(self.col.entries) if e.kind == "opaque"]
        if len(hits) != 1:
            raise ScriptError("expected exactly one opaque entry")
        return hits[0]

    def move_left(self, obj: EObject, count: int) -> None:
        if count > 0:
            i = self.idx(obj)
            for j in range(i - 1, i - 1 - count, -1):
                self.do("exchange", j)

    def move_right(self, obj: EObject, count: int) -> None:
        if count > 0:
            i = self.idx(obj)
            for j in range(i, i + count):
                self.do("exchange", j)

    def mutl_at(self, mutator: EObject) -> None:
        self.do("mutl", self.idx(mutator))

    def mutr_at(self, target: EObject) -> None:
        self.do("mutr", self.idx(target))


# ---------------------------------------------------------------- odd/even steps


def _step1_moves(sim: Sim, n: int, odd: bool) -> None:
    """<A?(H-h), A> -> <O, B_0..B_{n-2} (, S^{n-1}Uv(H-h) if odd)>."""
    top = n if odd else n - 1
    for i in range(1, top + 1):
        s = _S(top - i, 1, -1)
        sim.move_right(s, top - i + 1)
        if top - i + 1 <= n - 1:
            sim.mutl_at(s)


def _step2_moves(sim: Sim, n: int, odd: bool) -> None:
    """<A?_1(-h), O, B_0..B_{n-2}> -> <C_0.., A^?(H-h), B tail>."""
    hi = n - 1 if odd else n - 2  # (-h)-objects are S^1..S^hi
    if hi < 1:
        return
    sim.move_left(_O(), hi - 1)
    sim.mutr_at(_S(1, 0, -1))
    for k in range(1, hi):
        sim.move_left(_O(0, k), (k - 1) + (hi - k - 1))
        sim.mutr_at(_S(k + 1, 0, -1))


def _step3_moves(sim: Sim, n: int, odd: bool) -> None:
    """<C_1..C_m, A-segment(H-h)> -> <E_1..E_m>."""
    m = n - 2 if odd else n - 3
    for k in range(1, m + 1):
        s = _S(k - 1, 1, -1)
        sim.move_left(s, 2 * (m - k))
        sim.mutr_at(_S(k, 1, -2))


def _step3b_moves(sim: Sim, n: int) -> None:
    """Odd only: <S^{n-1}Uv(H-h), A^1(H)> -> <A^2(H), F_{n-2}>."""
    s = _S(n - 1, 1, -1)
    sim.move_right(s, n - 2)
    sim.mutr_at(s)


def _move_pair_right(sim: Sim, x: EObject, y: EObject, count: int) -> None:
    """Move the adjacent pair x, y (x first) ``count`` places right."""
    if count > 0:
        iy, ix = sim.idx(y), sim.idx(x)
        for _ in range(count):
            sim.do("exchange", iy)
            sim.do("exchange", ix)
            iy, ix = iy + 1, ix + 1


def _step4_moves_odd(sim: Sim, n: int) -> None:
    """<E_1..E_{n-2}, B_{n-2}, A^2(H)> -> <E_1, O(lh)_{2..n-1}, F_0..F_{n-3}>."""
    if n < 3:
        return
    s = _S(n - 2, 1, -1)
    sim.move_right(s, n - 3)
    sim.mutr_at(s)
    for k in range(1, n - 2):
        x = _S(n - 2 - k, 1, -1)
        y = _O(n - k, -(n - k + 1))
        _move_pair_right(sim, x, y, k + (n - k - 3))
        sim.do("exchange", sim.idx(y))
        sim.mutr_at(x)


def _step4_moves_even(sim: Sim, n: int) -> None:
    """Even analogue, feeding F'_l; E_1 and the H'-members stay behind."""
    if n >= 3:
        s = _S(n - 2, 1, -1)
        sim.move_right(s, n - 3)
        sim.mutr_at(s)
    if n >= 4:
        s = _S(n - 3, 1, -1)
        sim.move_right(s, 1 + (n - 4))
        sim.mutr_at(s)
    for l in range(n - 3, 1, -1):
        x = _S(l - 1, 1, -1)
        y = _O(l + 1, -(l + 2))
        _move_pair_right(sim, x, y, (n - 1 - l) + (l - 2))
        sim.do("exchange", sim.idx(y))
        sim.mutr_at(x)


def _regroup_moves(sim: Sim, n: int) -> None:
    """Slot the O(lh) line bundles together ahead of the H-block members."""
    for l in range(1, n):
        target = _O(0, l)
        gap = sim.idx(target) - sim.idx(_O(0, l - 1)) - 1
        sim.move_left(target, gap)


def _collect_tail(sim: Sim, tail: list[EObject]) -> None:
    """Exchange the given objects to the end, preserving all relative orders."""
    marked = set(tail)
    for t in reversed(tail):
        i = sim.idx(t)
        count = sum(
            1
            for e in sim.col.entries[i + 1 :]
            if not (e.kind == "pure" and e.obj in marked)
        )
        sim.move_right(t, count)


# ---------------------------------------------------------------- odd scripts


def gen_odd_step1(sim: Sim, n: int) -> None:
    sim.expand(Block("Aseg", (0, n - 1), (1, -1)))
    sim.expand(Block("A"))
    _step1_moves(sim, n, odd=True)


def gen_odd_step2(sim: Sim, n: int) -> None:
    sim.expand(Block("Aseg", (1, n - 1), (0, -1)))
    sim.expand(Block("O"))
    for l in range(n - 1):
        sim.expand(Block("B", (l,)))
    _step2_moves(sim, n, odd=True)


def gen_odd_step3(sim: Sim, n: int) -> None:
    if n < 3:
        sim.note("vacuous for n=2 (empty C-range)")
        return
    for l in range(1, n - 1):
        sim.expand(Block("C", (l,)))
    sim.expand(Block("Aseg", (0, n - 3), (1, -1)))
    _step3_moves(sim, n, odd=True)


def gen_odd_step3b(sim: Sim, n: int) -> None:
    sim.expand(Block("Aseg", (n - 1, n - 1), (1, -1)))
    sim.expand(Block("Aseg", (0, n - 2), (1, 0)))
    _step3b_moves(sim, n)


def gen_odd_step4(sim: Sim, n: int) -> None:
    if n < 3:
        sim.note("vacuous for n=2 (empty E-range)")
        return
    for l in range(1, n - 1):
        sim.expand(Block("E", (l,)))
    sim.expand(Block("B", (n - 2,)))
    sim.expand(Block("Aseg", (0, n - 3), (1, 0)))
    _step4_moves_odd(sim, n)


def gen_odd_full(sim: Sim, n: int) -> None:
    """Grassmannian-side SOD, expanded, through to its mutated form."""
    sim.do("opaque", "pi2*D(X2)", 0)
    for k in range(2 * n + 1):
        sim.expand(Block("A", (), (k, 0)))
    first_tail = sim.idx(_S(0, 2 * n - 1))
    sim.do("serre", first_tail, len(sim.col) - 1)
    sim.do("promote", sim.opaque_idx(), "D")
    _step1_moves(sim, n, odd=True)
    _step2_moves(sim, n, odd=True)
    _step3_moves(sim, n, odd=True)
    _step3b_moves(sim, n)
    _step4_moves_odd(sim, n)
    _regroup_moves(sim, n)


def mutated_gr_sod(n: int) -> list[Block]:
    """The blocks after D of the mutated Gr-side SOD (odd, N = 2n + 1): the
    layout that ``gen_odd_full`` ends at and ``gen_odd_regions`` starts from."""
    return (
        [Block("cell", (l, 0)) for l in range(-1, n)]
        + [Block("H")]
        + [Block("F", (l,)) for l in range(n - 1)]
        + [Block("Aseg", (n - 1, n - 1), (1, 0))]
        + [Block("A", (), (k, 0)) for k in range(2, 2 * n - 1)]
    )


def gen_odd_regions(sim: Sim, n: int) -> None:
    """From the mutated Gr-side SOD to <D_2, group (1), group (2)>."""
    sim.do("opaque", "D", 0)
    for block in mutated_gr_sod(n):
        sim.expand(block)
    r = (n - 1) // 2
    tail: list[EObject] = []
    for l in range(r + 1):
        tail.extend(_S(a, n + l, 0) for a in range(n - 2 * l - 1, n))
    for l in range(n + 1 + r, 2 * n - 1):
        tail.extend(_S(a, l, 0) for a in range(n))
    _collect_tail(sim, tail)
    sim.do("serre", len(sim.col) - len(tail), len(sim.col) - 1)
    sim.do("promote", sim.opaque_idx(), "D2")


def gen_odd_chessboard(sim: Sim, n: int) -> None:
    """Projective-side row layout through the staircase moves to the final SOD."""
    sim.do("opaque", "pi1*D(X1)", 0)
    for y in range(2 * n - 1):
        sim.expand(Block("row", (y,)))
    corner = _O(n, n - 1)
    for k in range(1, n - 1):
        red = _O(n + k, -1 - n)
        i = sim.idx(corner)
        j = sim.idx(red) - 1
        if j - i + 1 != k * k:
            raise ScriptError("staircase accumulation out of step")
        sim.do("mutlblock", i, j)
        for a in range(-n, n - 2 * k - 1):
            sim.move_left(_O(n + k, a), k * k)
    sim.do("serre", sim.idx(corner), len(sim.col) - 1)
    sim.do("promote", sim.opaque_idx(), "D1")


# ---------------------------------------------------------------- even scripts


def _even_step_moves(sim: Sim, n: int) -> None:
    """Even steps 1-3 and the regrouping, from <A^1(-h), A^1(H-h), A, A(H)>."""
    _step1_moves(sim, n, odd=False)
    _step2_moves(sim, n, odd=False)
    _step3_moves(sim, n, odd=False)
    _step4_moves_even(sim, n)
    _regroup_moves(sim, n)


def gen_even_step2(sim: Sim, n: int) -> None:
    """Standalone even step 2: <A^1(-h), A^1(H-h), A, A(H)> -> its stated RHS."""
    sim.expand(Block("Aseg", (0, n - 2), (0, -1)))
    sim.expand(Block("Aseg", (0, n - 2), (1, -1)))
    sim.expand(Block("A"))
    sim.expand(Block("A", (), (1, 0)))
    _even_step_moves(sim, n)


def gen_even_full(sim: Sim, n: int) -> None:
    """Even pipeline: setup plus steps 1-3, ending at the mutated SOD."""
    sim.do("opaque", "pi2*D(X2)", 0)
    for k in range(n):
        sim.expand(Block("A", (), (k, 0)))
    for k in range(n, 2 * n):
        sim.expand(Block("Aseg", (0, n - 2), (k, 0)))
    first_tail = sim.idx(_S(0, 2 * n - 2))
    sim.do("serre", first_tail, len(sim.col) - 1)
    sim.do("promote", sim.opaque_idx(), "D'")
    _even_step_moves(sim, n)
    # step 3: collect the far-left candidates, Serre-twist, promote.
    rp = (n - 1) // 2 - 1
    tail: list[EObject] = [_S(n - 1, n - 1, 0)]
    for l in range(rp + 1):
        tail.extend(_S(a, n + l, 0) for a in range(n - 2 * l - 3, n - 1))
    for l in range(rp + 1, n - 2):
        tail.extend(_S(a, n + l, 0) for a in range(n - 1))
    _collect_tail(sim, tail)
    sim.do("serre", len(sim.col) - len(tail), len(sim.col) - 1)
    sim.do("promote", sim.opaque_idx(), "D2'")


GENERATORS = {
    ("odd", "step1"): gen_odd_step1,
    ("odd", "step2"): gen_odd_step2,
    ("odd", "step3"): gen_odd_step3,
    ("odd", "step3b"): gen_odd_step3b,
    ("odd", "step4"): gen_odd_step4,
    ("odd", "full"): gen_odd_full,
    ("odd", "regions"): gen_odd_regions,
    ("odd", "chessboard"): gen_odd_chessboard,
    ("even", "step2"): gen_even_step2,
    ("even", "full"): gen_even_full,
}


def _start(parity: str, step: str, n: int, on_move=None) -> tuple[Callable, Sim]:
    """The (parity, step) generator and a new ``Sim`` for its run; an unknown
    pair raises ``ScriptError``."""
    try:
        gen = GENERATORS[(parity, step)]
    except KeyError:
        raise ScriptError(f"no generator for ({parity}, {step})")
    return gen, Sim(Collection(2 * n + (parity == "odd")), on_move)


def _generate(parity: str, step: str, n: int, on_move=None) -> Sim:
    """Run the (parity, step, n) generator; a refusal or a ``ScriptError``
    of the generator's own propagates as raised."""
    gen, sim = _start(parity, step, n, on_move)
    gen(sim, n)
    return sim


def run_script(parity: str, step: str, n: int, on_move=None) -> ReplayResult:
    """Generate the (parity, step, n) script with every move certified.

    This is where a run ends.  An ``EngineError`` out of the generator
    stops it and becomes the failed result: a refused move gives its line,
    ``Sim.refused``, and its error; a ``ScriptError`` of the generator's own
    (a lookup that found no copy, say) gives its error and no line.
    """
    gen, sim = _start(parity, step, n, on_move)
    try:
        gen(sim, n)
    except EngineError as exc:
        return ReplayResult(sim.col, sim.applied, sim.refused, str(exc))
    return ReplayResult(sim.col, sim.applied)
