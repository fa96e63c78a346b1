"""Generators for the mutation move scripts.

Each generator simulates the collection structurally (oracle checks off) and
emits concrete index-based moves.  ``load_script`` calls them on demand; the
test suite pins each script's sha256 for n = 2..5 and one digest per
generator over n = 6..9.

Objects are located by value during generation, which is safe because every
collection in the replay is multiplicity-free.  A run of exchanges looks its
object up once: each exchange moves it by exactly one place.
"""

from __future__ import annotations

from ..flagx import EObject
from .engine import Collection, ScriptError, apply_move


# Object shorthands, shared with the verifiers.


def _S(k: int, c: int = 0, d: int = 0) -> EObject:
    return EObject.schur(k, c, d)


def _O(c: int = 0, d: int = 0) -> EObject:
    return EObject.line(c, d)


class Sim:
    """Structural simulator that records the lines it applies."""

    def __init__(self, n_amb: int):
        self.col = Collection.empty(n_amb)
        self.lines: list[str] = []

    def do(self, line: str) -> None:
        self.col = apply_move(self.col, line, check=False)
        self.lines.append(line)

    def note(self, text: str) -> None:
        self.lines.append(f"# {text}")

    def expand(self, spec: str, at: int | None = None) -> None:
        if at is None:
            at = len(self.col)
        self.do(f"expand {spec} at {at}")

    def idx(self, obj: EObject) -> int:
        hits = [
            i
            for i, e in enumerate(self.col.entries)
            if e.kind == "pure" and e.obj == obj
        ]
        if len(hits) != 1:
            raise ScriptError(f"object lookup found {len(hits)} copies")
        return hits[0]

    def opaque_idx(self) -> int:
        hits = [i for i, e in enumerate(self.col.entries) if e.kind == "opaque"]
        if len(hits) != 1:
            raise ScriptError("expected exactly one opaque entry")
        return hits[0]

    def move_left(self, obj: EObject, count: int) -> None:
        if count > 0:
            i = self.idx(obj)
            for j in range(i - 1, i - 1 - count, -1):
                self.do(f"exchange {j}")

    def move_right(self, obj: EObject, count: int) -> None:
        if count > 0:
            i = self.idx(obj)
            for j in range(i, i + count):
                self.do(f"exchange {j}")

    def mutl_at(self, mutator: EObject) -> None:
        self.do(f"mutl {self.idx(mutator)}")

    def mutr_at(self, target: EObject) -> None:
        self.do(f"mutr {self.idx(target)}")


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
            sim.do(f"exchange {iy}")
            sim.do(f"exchange {ix}")
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
        sim.do(f"exchange {sim.idx(y)}")
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
        sim.do(f"exchange {sim.idx(y)}")
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


def gen_odd_step1(n: int) -> list[str]:
    sim = Sim(2 * n + 1)
    sim.expand(f"Aseg(0,{n-1})@(1H-1h)")
    sim.expand("A")
    _step1_moves(sim, n, odd=True)
    return sim.lines


def gen_odd_step2(n: int) -> list[str]:
    sim = Sim(2 * n + 1)
    sim.expand(f"Aseg(1,{n-1})@(-1h)")
    sim.expand("O")
    for l in range(n - 1):
        sim.expand(f"B({l})")
    _step2_moves(sim, n, odd=True)
    return sim.lines


def gen_odd_step3(n: int) -> list[str]:
    sim = Sim(2 * n + 1)
    if n < 3:
        sim.note("vacuous for n=2 (empty C-range)")
        return sim.lines
    for l in range(1, n - 1):
        sim.expand(f"C({l})")
    sim.expand(f"Aseg(0,{n-3})@(1H-1h)")
    _step3_moves(sim, n, odd=True)
    return sim.lines


def gen_odd_step3b(n: int) -> list[str]:
    sim = Sim(2 * n + 1)
    sim.expand(f"Aseg({n-1},{n-1})@(1H-1h)")
    sim.expand(f"Aseg(0,{n-2})@(1H)")
    _step3b_moves(sim, n)
    return sim.lines


def gen_odd_step4(n: int) -> list[str]:
    sim = Sim(2 * n + 1)
    if n < 3:
        sim.note("vacuous for n=2 (empty E-range)")
        return sim.lines
    for l in range(1, n - 1):
        sim.expand(f"E({l})")
    sim.expand(f"B({n-2})")
    sim.expand(f"Aseg(0,{n-3})@(1H)")
    _step4_moves_odd(sim, n)
    return sim.lines


def gen_odd_full(n: int) -> list[str]:
    """Grassmannian-side SOD, expanded, through to its mutated form."""
    sim = Sim(2 * n + 1)
    sim.do("opaque pi2*D(X2) at 0")
    for k in range(2 * n + 1):
        sim.expand(f"A@({k}H)" if k else "A")
    first_tail = sim.idx(_S(0, 2 * n - 1))
    sim.do(f"serre {first_tail}..{len(sim.col) - 1}")
    sim.do(f"promote {sim.opaque_idx()} as D")
    _step1_moves(sim, n, odd=True)
    _step2_moves(sim, n, odd=True)
    _step3_moves(sim, n, odd=True)
    _step3b_moves(sim, n)
    _step4_moves_odd(sim, n)
    _regroup_moves(sim, n)
    return sim.lines


def gen_odd_regions(n: int) -> list[str]:
    """From the mutated Gr-side SOD to <D_2, group (1), group (2)>."""
    sim = Sim(2 * n + 1)
    sim.do("opaque D at 0")
    for l in range(-1, n):
        sim.expand(f"cell({l},0)")
    sim.expand("H")
    for l in range(n - 1):
        sim.expand(f"F({l})")
    sim.expand(f"Aseg({n-1},{n-1})@(1H)")
    for k in range(2, 2 * n - 1):
        sim.expand(f"A@({k}H)")
    r = (n - 1) // 2
    tail: list[EObject] = []
    for l in range(r + 1):
        tail.extend(_S(a, n + l, 0) for a in range(n - 2 * l - 1, n))
    for l in range(n + 1 + r, 2 * n - 1):
        tail.extend(_S(a, l, 0) for a in range(n))
    _collect_tail(sim, tail)
    sim.do(f"serre {len(sim.col) - len(tail)}..{len(sim.col) - 1}")
    sim.do(f"promote {sim.opaque_idx()} as D2")
    return sim.lines


def gen_odd_chessboard(n: int) -> list[str]:
    """Projective-side row layout through the staircase moves to the final SOD."""
    sim = Sim(2 * n + 1)
    sim.do("opaque pi1*D(X1) at 0")
    for y in range(2 * n - 1):
        sim.expand(f"row({y})")
    corner = _O(n, n - 1)
    for k in range(1, n - 1):
        red = _O(n + k, -1 - n)
        i = sim.idx(corner)
        j = sim.idx(red) - 1
        if j - i + 1 != k * k:
            raise ScriptError("staircase accumulation out of step")
        sim.do(f"mutlblock {i}..{j}")
        for a in range(-n, n - 2 * k - 1):
            sim.move_left(_O(n + k, a), k * k)
    sim.do(f"serre {sim.idx(corner)}..{len(sim.col) - 1}")
    sim.do(f"promote {sim.opaque_idx()} as D1")
    return sim.lines


# ---------------------------------------------------------------- even scripts


def gen_even_step2(n: int) -> list[str]:
    """Standalone even step 2: <A^1(-h), A^1(H-h), A, A(H)> -> its stated RHS."""
    sim = Sim(2 * n)
    sim.expand(f"Aseg(0,{n-2})@(-1h)")
    sim.expand(f"Aseg(0,{n-2})@(1H-1h)")
    sim.expand("A")
    sim.expand("A@(1H)")
    _step1_moves(sim, n, odd=False)
    _step2_moves(sim, n, odd=False)
    _step3_moves(sim, n, odd=False)
    _step4_moves_even(sim, n)
    _regroup_moves(sim, n)
    return sim.lines


def gen_even_full(n: int) -> list[str]:
    """Even pipeline: setup plus steps 1-3, ending at the mutated SOD."""
    sim = Sim(2 * n)
    sim.do("opaque pi2*D(X2) at 0")
    for k in range(n):
        sim.expand(f"A@({k}H)" if k else "A")
    for k in range(n, 2 * n):
        sim.expand(f"Aseg(0,{n-2})@({k}H)")
    first_tail = sim.idx(_S(0, 2 * n - 2))
    sim.do(f"serre {first_tail}..{len(sim.col) - 1}")
    sim.do(f"promote {sim.opaque_idx()} as D'")
    _step1_moves(sim, n, odd=False)
    _step2_moves(sim, n, odd=False)
    _step3_moves(sim, n, odd=False)
    _step4_moves_even(sim, n)
    _regroup_moves(sim, n)
    # step 3: collect the far-left candidates, Serre-twist, promote.
    rp = (n - 1) // 2 - 1
    tail: list[EObject] = [_S(n - 1, n - 1, 0)]
    for l in range(rp + 1):
        tail.extend(_S(a, n + l, 0) for a in range(n - 2 * l - 3, n - 1))
    for l in range(rp + 1, n - 2):
        tail.extend(_S(a, n + l, 0) for a in range(n - 1))
    _collect_tail(sim, tail)
    sim.do(f"serre {len(sim.col) - len(tail)}..{len(sim.col) - 1}")
    sim.do(f"promote {sim.opaque_idx()} as D2'")
    return sim.lines


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


def generate(parity: str, step: str, n: int) -> list[str]:
    try:
        gen = GENERATORS[(parity, step)]
    except KeyError:
        raise ScriptError(f"no generator for ({parity}, {step})")
    return gen(n)
