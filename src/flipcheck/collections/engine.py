"""Ordered collections of objects on X and the oracle-checked mutation moves.

A ``Collection`` is an ordered list of entries: ``pure`` entries carry a
single object of E (regarded as its pushforward to X), ``opaque`` entries are
inert complement placeholders (no Ext queries allowed), and ``cone`` entries
record a left mutation whose result is not a pure object (kept only as a name
plus its K-theory class).

Moves return new collections:

    exchange i            transpose entries i, i+1 (Hom must vanish both ways)
    mutl i                (E, b) -> (L_E b, E) through the rule table
    mutr i                (b, E) -> (E, R_E b) through the rule table
    serre i..j            twist the tail i..j by K_X|_E = O(-(N-2)H - h) and
                          move it to the front (mutation through the whole
                          complement)
    expand SPEC at i      insert the objects of a named block
    opaque NAME at i      insert an opaque placeholder
    promote i as NAME     move an opaque entry to the front, renaming it
                          (left mutation of an opaque through everything)
    mutlblock i..j        left-mutate entry j+1 through the pure block i..j;
                          the result is a cone entry with a Gram-solved
                          K-class

Rule table (uniform twists by any line bundle T = O(aH + bh) allowed),
valid for 1 <= k <= n-1 with n = N // 2::

    (1)  L_{S^{k-1}U^vee(H-h)} S^k U^vee = O(kh)
    (2)  R_{O(kh)} S^k U^vee = S^{k-1} U^vee (H-h)
    (3)  R_{S^{k-1}U^vee(h)} S^k U^vee = O(k(H-h))

together with their inverses through the same mutator (one-dimensional
degree-1 extension classes), which makes mutl and mutr mutually inverse on
rule-table pairs.  Rule (3) carries the corrected mutator twist (+h); see
verify_mut's reading audit for the displayed (-h) variant, which the oracle
refutes.

Every checked mutation demands an Exact one-dimensional RHom concentrated in
a single degree and verifies the K-class identity
[result] = [b] - (-1)^deg [E].
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..flagx import (
    EObject,
    ExtResult,
    k_class,
    k_sub,
    x_ext,
    x_euler,
)
from ..weights import Weight
from .blocks import make_block, notation, parse_block_spec


class EngineError(Exception):
    pass


class OpaqueEntryError(EngineError):
    pass


class VanishingFalse(EngineError):
    pass


class VanishingNotEstablished(EngineError):
    pass


class NotSimple(EngineError):
    pass


class NoRuleMatch(EngineError):
    pass


class KClassMismatch(EngineError):
    pass


class ScriptError(EngineError):
    pass


@dataclass(frozen=True)
class Entry:
    kind: str  # "pure" | "opaque" | "cone"
    obj: Optional[EObject] = None
    name: str = ""
    kclass: Optional[tuple[int, ...]] = None

    @staticmethod
    def pure(obj: EObject) -> "Entry":
        return Entry("pure", obj=obj)

    @staticmethod
    def opaque(name: str) -> "Entry":
        return Entry("opaque", name=name)

    def label(self) -> str:
        if self.kind == "pure":
            return notation(self.obj)
        return self.name


@dataclass(frozen=True)
class Collection:
    n_amb: int
    entries: tuple[Entry, ...] = ()

    @staticmethod
    def empty(n_amb: int) -> "Collection":
        return Collection(n_amb)

    def __len__(self) -> int:
        return len(self.entries)

    def pure_objects(self) -> list[EObject]:
        return [e.obj for e in self.entries if e.kind == "pure"]

    def labels(self) -> list[str]:
        return [e.label() for e in self.entries]

    def _with(self, entries: Iterable[Entry]) -> "Collection":
        return Collection(self.n_amb, tuple(entries))


def count_objects(col: Collection) -> int:
    """Number of pure entries (the fullness proxy conserved by moves)."""
    return sum(1 for e in col.entries if e.kind == "pure")


def count_tracked(col: Collection) -> int:
    """Pure entries plus cone entries: one object each, opaques excluded."""
    return sum(1 for e in col.entries if e.kind != "opaque")


def _require_pure(col: Collection, i: int, what: str) -> EObject:
    if not 0 <= i < len(col):
        raise ScriptError(f"{what}: index {i} out of range")
    e = col.entries[i]
    if e.kind != "pure":
        raise OpaqueEntryError(f"{what}: entry {i} ({e.label()}) is {e.kind}")
    return e.obj


def _require_vanishing(a: EObject, b: EObject, n_amb: int, i: int) -> None:
    r = x_ext(a, b, n_amb)
    if r.kind == "bounded":
        raise VanishingNotEstablished(
            f"exchange {i}: Hom({notation(a)}, {notation(b)}) bounded"
        )
    if not r.is_zero():
        raise VanishingFalse(
            f"exchange {i}: Hom({notation(a)}, {notation(b)}) = "
            f"{r.total().dims} != 0"
        )


def exchange(col: Collection, i: int, check: bool = True) -> Collection:
    """Swap entries i, i+1; legal when the pair is mutually semiorthogonal,
    Hom_X(e_i, e_{i+1}) = 0 = Hom_X(e_{i+1}, e_i).  A bounded Hom in either
    direction is not a vanishing (VanishingNotEstablished)."""
    a = _require_pure(col, i, "exchange")
    b = _require_pure(col, i + 1, "exchange")
    if check:
        _require_vanishing(a, b, col.n_amb, i)
        _require_vanishing(b, a, col.n_amb, i)
    ent = list(col.entries)
    ent[i], ent[i + 1] = ent[i + 1], ent[i]
    return col._with(ent)


def _simple_degree(r: ExtResult, who: str) -> int:
    if r.kind == "bounded":
        raise NotSimple(f"{who}: RHom bounded (connecting map unresolved)")
    total = r.total()
    if total.total() != 1:
        raise NotSimple(f"{who}: RHom = {total.dims}, not one-dimensional")
    return total.dims[0][0]


def _match_rule(
    mutator: EObject, target: EObject, n_amb: int, right: bool
) -> EObject:
    """Resolve the mutation of ``target`` through ``mutator`` via the table.

    Besides the three stated rules (degree-0 RHom; the short exact sequences
    read forwards) the inverse patterns are admitted: mutating the sequence's
    outer term back through the same mutator reconstitutes S^k U^vee via the
    one-dimensional degree-1 extension class, so mutl and mutr are mutually
    inverse on rule-table pairs.
    """
    wb, db = target.single_term()
    we, de = mutator.single_term()
    n = n_amb // 2
    matches: list[EObject] = []

    def schur_kct(w: Weight, dh: int) -> tuple[int, int, int]:
        """Read an object as S^k U^vee (x) O(cH + dh.h)."""
        return (w.a - w.b, w.b, dh)

    # Each candidate extracts (k, c, d) with T = O(cH + d.h) from one of the
    # pair's members and demands the other member take the matching shape.
    k, c, d = schur_kct(wb, db)
    if 1 <= k <= n - 1:
        if not right and (we, de) == (Weight(k + c, c + 1), d - 1):
            # (1) L_{S^{k-1}Uv(H-h)} S^k Uv = O(kh)
            matches.append(EObject.line(c, d + k))
        if right and (we, de) == (Weight(c, c), d + k):
            # (2) R_{O(kh)} S^k Uv = S^{k-1}Uv(H-h)
            matches.append(EObject.schur(k - 1, c + 1, d - 1))
        if right and (we, de) == (Weight(k - 1 + c, c), d + 1):
            # (3) R_{S^{k-1}Uv(h)} S^k Uv = O(k(H-h))
            matches.append(EObject.line(c + k, d - k))

    # inverse of (1): R_{S^{k-1}Uv(H-h)} O(kh) = S^k Uv
    km, cm, dm = we.a - we.b + 1, we.b - 1, de + 1
    if right and 1 <= km <= n - 1 and (wb, db) == (Weight(cm, cm), dm + km):
        matches.append(EObject.schur(km, cm, dm))
    # inverse of (2): L_{O(kh)} S^{k-1}Uv(H-h) = S^k Uv
    kt, ct, dt = wb.a - wb.b + 1, wb.b - 1, db + 1
    if not right and 1 <= kt <= n - 1 and (we, de) == (Weight(ct, ct), dt + kt):
        matches.append(EObject.schur(kt, ct, dt))
    # inverse of (3): L_{S^{k-1}Uv(h)} O(k(H-h)) = S^k Uv
    km, cm, dm = we.a - we.b + 1, we.b, de - 1
    if (
        not right
        and 1 <= km <= n - 1
        and (wb, db) == (Weight(km + cm, km + cm), dm - km)
    ):
        matches.append(EObject.schur(km, cm, dm))

    matches = list(dict.fromkeys(matches))
    if len(matches) > 1:
        raise NoRuleMatch(
            f"ambiguous rule match for {notation(mutator)} / {notation(target)}"
        )
    if not matches:
        side = "R" if right else "L"
        raise NoRuleMatch(
            f"{side}_{notation(mutator)}({notation(target)}) matches no rule"
        )
    return matches[0]


def _check_kclass(
    result: EObject, target: EObject, mutator: EObject, degree: int, n_amb: int
) -> None:
    sign = -1 if degree % 2 else 1
    expect = k_sub(
        k_class(target, n_amb),
        tuple(sign * v for v in k_class(mutator, n_amb)),
    )
    got = k_class(result, n_amb)
    if got != expect:
        raise KClassMismatch(
            f"[{notation(result)}] != [{notation(target)}] - "
            f"({sign})[{notation(mutator)}]"
        )


def mutate_left(col: Collection, i: int, check: bool = True) -> Collection:
    """(E, b) at (i, i+1) becomes (L_E b, E)."""
    mutator = _require_pure(col, i, "mutl")
    target = _require_pure(col, i + 1, "mutl")
    degree = 0
    if check:
        degree = _simple_degree(x_ext(mutator, target, col.n_amb), f"mutl {i}")
    result = _match_rule(mutator, target, col.n_amb, right=False)
    if check:
        _check_kclass(result, target, mutator, degree, col.n_amb)
    ent = list(col.entries)
    ent[i], ent[i + 1] = Entry.pure(result), Entry.pure(mutator)
    return col._with(ent)


def mutate_right(col: Collection, i: int, check: bool = True) -> Collection:
    """(b, E) at (i, i+1) becomes (E, R_E b)."""
    target = _require_pure(col, i, "mutr")
    mutator = _require_pure(col, i + 1, "mutr")
    degree = 0
    if check:
        degree = _simple_degree(x_ext(target, mutator, col.n_amb), f"mutr {i}")
    result = _match_rule(mutator, target, col.n_amb, right=True)
    if check:
        _check_kclass(result, target, mutator, degree, col.n_amb)
    ent = list(col.entries)
    ent[i], ent[i + 1] = Entry.pure(mutator), Entry.pure(result)
    return col._with(ent)


def serre_twist(objs: list[EObject], n_amb: int) -> list[EObject]:
    """Tensor by K_X|_E = O(-(N-2)H - h); dim-X shift is even, so K-classes
    are unaffected."""
    return [o.twisted(-(n_amb - 2), -1) for o in objs]


def serre_tail(col: Collection, i: int, j: int) -> Collection:
    """Mutate the tail i..j (j = last index) through its whole complement."""
    if j != len(col) - 1:
        raise ScriptError(f"serre {i}..{j}: tail must end the collection")
    tail = [_require_pure(col, t, "serre") for t in range(i, j + 1)]
    twisted = [Entry.pure(o) for o in serre_twist(tail, col.n_amb)]
    ent = twisted + list(col.entries[:i])
    return col._with(ent)


def expand_block(col: Collection, spec: str, at: int) -> Collection:
    name, params, twist = parse_block_spec(spec)
    objs = make_block(name, params, col.n_amb, twist)
    ent = list(col.entries)
    ent[at:at] = [Entry.pure(o) for o in objs]
    return col._with(ent)


def insert_opaque(col: Collection, name: str, at: int) -> Collection:
    ent = list(col.entries)
    ent.insert(at, Entry.opaque(name))
    return col._with(ent)


def promote(col: Collection, i: int, name: str) -> Collection:
    """Move the opaque entry i to the front under a new name."""
    e = col.entries[i]
    if e.kind != "opaque":
        raise OpaqueEntryError(f"promote {i}: entry is {e.kind}, not opaque")
    ent = list(col.entries)
    del ent[i]
    ent.insert(0, Entry.opaque(name))
    return col._with(ent)


def gram_solve(block: list[EObject], target: EObject, n_amb: int) -> list[int]:
    """Solve Gram c = chi(block_j, target) by back-substitution.

    The chi_X Gram matrix of an exceptional sequence is upper-unitriangular
    in collection order; validated here before solving (KClassMismatch if
    not).
    """
    m = len(block)
    gram = [[x_euler(block[i], block[j], n_amb) for j in range(m)] for i in range(m)]
    for i in range(m):
        if gram[i][i] != 1:
            raise KClassMismatch(f"Gram diagonal chi = {gram[i][i]} != 1 at {i}")
        for j in range(i):
            if gram[i][j] != 0:
                raise KClassMismatch(f"Gram not unitriangular at ({i},{j})")
    rhs = [x_euler(block[j], target, n_amb) for j in range(m)]
    coeff = [0] * m
    for i in range(m - 1, -1, -1):
        coeff[i] = rhs[i] - sum(gram[i][j] * coeff[j] for j in range(i + 1, m))
    return coeff


def mutate_block_left(col: Collection, i: int, j: int, check: bool = True) -> Collection:
    """Left-mutate entry j+1 through the pure block i..j; result is a cone.

    The cone is not materialized (no rule pattern applies); its K-class
    [b] - sum c_l [s_l] is recorded, with c the Gram-system projection
    coefficients.
    """
    block = [_require_pure(col, t, "mutlblock") for t in range(i, j + 1)]
    target = _require_pure(col, j + 1, "mutlblock")
    kclass = None
    if check:
        coeff = gram_solve(block, target, col.n_amb)
        kc = k_class(target, col.n_amb)
        for c, s in zip(coeff, block):
            kc = k_sub(kc, tuple(c * v for v in k_class(s, col.n_amb)))
        kclass = kc
    cone = Entry(
        "cone",
        name=f"L[{j - i + 1}]({notation(target)})",
        kclass=kclass,
    )
    ent = list(col.entries)
    del ent[j + 1]
    ent.insert(i, cone)
    return col._with(ent)


@dataclass(frozen=True)
class PairCheck:
    later: int
    earlier: int
    status: str  # "pass" | "fail" | "indeterminate" | "skipped-opaque"
    detail: str = ""


def check_semiorthogonal(col: Collection) -> list[PairCheck]:
    """Hom_X(entry_j, entry_i) for every j > i must vanish."""
    out = []
    for j in range(len(col)):
        for i in range(j):
            ej, ei = col.entries[j], col.entries[i]
            if ej.kind != "pure" or ei.kind != "pure":
                out.append(PairCheck(j, i, "skipped-opaque"))
                continue
            r = x_ext(ej.obj, ei.obj, col.n_amb)
            if r.is_zero():
                out.append(PairCheck(j, i, "pass"))
            elif r.kind == "bounded":
                out.append(
                    PairCheck(j, i, "indeterminate", f"front={r.front.dims} back={r.back.dims}")
                )
            else:
                out.append(
                    PairCheck(
                        j,
                        i,
                        "fail",
                        f"Hom({ej.label()}, {ei.label()}) = {r.total().dims}",
                    )
                )
    return out


_MOVE_RES: list[tuple[re.Pattern, str]] = [
    (re.compile(r"^exchange (\d+)$"), "exchange"),
    (re.compile(r"^mutl (\d+)$"), "mutl"),
    (re.compile(r"^mutr (\d+)$"), "mutr"),
    (re.compile(r"^serre (\d+)\.\.(\d+)$"), "serre"),
    (re.compile(r"^expand (\S+) at (\d+)$"), "expand"),
    (re.compile(r"^opaque (\S+) at (\d+)$"), "opaque"),
    (re.compile(r"^promote (\d+) as (\S+)$"), "promote"),
    (re.compile(r"^mutlblock (\d+)\.\.(\d+)$"), "mutlblock"),
]


def apply_move(col: Collection, line: str, check: bool = True) -> Collection:
    """Apply one script line to the collection."""
    line = line.strip()
    for rx, kind in _MOVE_RES:
        m = rx.match(line)
        if not m:
            continue
        if kind == "exchange":
            return exchange(col, int(m.group(1)), check=check)
        if kind == "mutl":
            return mutate_left(col, int(m.group(1)), check=check)
        if kind == "mutr":
            return mutate_right(col, int(m.group(1)), check=check)
        if kind == "serre":
            return serre_tail(col, int(m.group(1)), int(m.group(2)))
        if kind == "expand":
            return expand_block(col, m.group(1), int(m.group(2)))
        if kind == "opaque":
            return insert_opaque(col, m.group(1), int(m.group(2)))
        if kind == "promote":
            return promote(col, int(m.group(1)), m.group(2))
        if kind == "mutlblock":
            return mutate_block_left(col, int(m.group(1)), int(m.group(2)), check=check)
    raise ScriptError(f"unparseable move {line!r}")


@dataclass
class ReplayResult:
    final: Collection
    moves_applied: int
    failed_line: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def replay(
    col: Collection,
    lines: Iterable[str],
    on_move: Optional[Callable[[str, Collection, Collection], None]] = None,
) -> ReplayResult:
    """Execute a move script with every move certified, failing fast on the
    first refused move."""
    applied = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        before = col
        try:
            col = apply_move(col, line)
        except EngineError as exc:
            return ReplayResult(col, applied, failed_line=line, error=str(exc))
        applied += 1
        if on_move is not None:
            on_move(line, before, col)
    return ReplayResult(col, applied)
