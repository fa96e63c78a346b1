"""Ordered collections of objects on X and the oracle-checked mutation moves.

A ``Collection`` is an ordered list of entries: ``pure`` entries carry a
single object of E (regarded as its pushforward to X), ``opaque`` entries are
inert complement placeholders (no Ext queries allowed), and ``cone`` entries
record a left mutation whose result is not a pure object (kept only as a name
plus the torus character of its K-theory class).

Moves edit the collection in place.  Each move validates everything first
and then writes once, through ``_splice``, which replaces one slice of the
entry list and returns the pair (old, new) of replaced and written entries;
the move returns that pair.  A refused move has written nothing, so the
collection is as it was before it.  ``_MOVES`` names each move by a verb;
``scriptgen.Sim.do(verb, *args)`` calls it and records it as the line shown
here.  The arguments are values (ints, names and ``Block``s); the line
shows each by ``str``.  The lines are the run's record and are never
parsed back:

    exchange i            transpose entries i, i+1 (Hom must vanish both ways)
    mutl i                (E, b) -> (L_E b, E) through the rule table
    mutr i                (b, E) -> (E, R_E b) through the rule table
    serre i..j            twist the tail i..j by K_X|_E = O(-(N-2)H - h) and
                          move it to the front (mutation through the whole
                          complement)
    expand BLOCK at i     insert the objects of a ``blocks.Block``
    opaque NAME at i      insert an opaque placeholder
    promote i as NAME     move an opaque entry to the front, renaming it
                          (left mutation of an opaque through everything)
    mutlblock i..j        left-mutate entry j+1 through the pure block i..j;
                          the result is a cone entry with a Gram-solved
                          K-class

Rule table ``_RULES``, stated for the target S^k U^vee and applied under
any uniform twist T = O(cH + dh) of both members, with n = N // 2::

    (1)  L_{S^{k-1}U^vee(H-h)} S^k U^vee = O(kh)
    (2)  R_{O(kh)} S^k U^vee = S^{k-1} U^vee (H-h)
    (3)  R_{S^{k-1}U^vee(h)} S^k U^vee = O(k(H-h))

A rule applies only for 1 <= k <= n-1; any other k matches nothing.  Rule
(3) carries the corrected mutator twist (+h); see verify_mut's reading
audit for the displayed (-h) variant, which the oracle refutes.

Every mutation demands an Exact one-dimensional RHom concentrated in a
single degree and verifies the K-class identity
[result] = [b] - (-1)^deg [E] with ``flagx._kclass_zero``: a zero torus
character proves it, and otherwise the reduced Chern character decides.

Every vanishing the engine demands, in an exchange and in the final
``check_semiorthogonal``, is asked of ``flagx.x_vanishes``, an O(1)
interval test per pair of terms.  ``x_ext`` runs only on a pair that does
not vanish, to tell a Bounded outcome from a nonzero one and to write the
refusal or the failure detail, and on the mutl/mutr pairs, whose degree
the move reads.

chi_X is read from one table per run, not per call: a ``Collection`` holds
it as ``chi``, and every ``mutlblock`` of the run's ``gram_solve`` reads and
fills it, so a block reuses the entries of the blocks before it.  A
one-term object is read as its ints (p, shift, multiplicity, packed
twist), and chi_X is invariant under a common twist, so for the members of
one class the table holds one value per p and packed twist difference
(see ``gram_solve``).  The table goes with its collection; no chi value
lives in module state.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from ..flagx import (
    EObject,
    ExtResult,
    _character,
    _kclass_zero,
    x_euler,
    x_ext,
    x_vanishes,
)
from .blocks import Block, BlockRangeError, make_block, notation


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


class Entry(NamedTuple):
    kind: str  # "pure" | "opaque" | "cone"
    obj: Optional[EObject] = None
    name: str = ""
    # A cone's K-class as its sparse torus character: sorted
    # ((i, j), coefficient) pairs of x1^i x2^j (see ``flagx._character``).
    kclass: Optional[tuple[tuple[tuple[int, int], int], ...]] = None

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


# {p: {packed (dk, dd): chi_X(S^p U^vee, S^p U^vee (dk.H + dd.h))}}
ChiTable = dict[int, dict[int, int]]


class Collection:
    """One script run's collection; equal by (n_amb, entries).

    ``chi`` is the run's chi_X table, which ``mutate_block_left`` hands to
    ``gram_solve``; it plays no part in equality.
    """

    def __init__(self, n_amb: int, entries: Optional[list[Entry]] = None):
        self.n_amb = n_amb
        # Written only through ``_splice``.
        self.entries = [] if entries is None else entries
        self.chi: ChiTable = {}

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is Collection
        return same and self.n_amb == other.n_amb and self.entries == other.entries

    def __len__(self) -> int:
        return len(self.entries)

    def pure_objects(self) -> list[EObject]:
        return [e.obj for e in self.entries if e.kind == "pure"]

    def labels(self) -> list[str]:
        return [e.label() for e in self.entries]


Spliced = tuple[list[Entry], list[Entry]]


def _splice(col: Collection, at: int, stop: int, new: list[Entry]) -> Spliced:
    """Replace ``col.entries[at:stop]`` by ``new``, the one write of a move.

    Returns (old, new): the entries replaced and the entries written.
    """
    old = col.entries[at:stop]
    col.entries[at:stop] = new
    return old, new


def count_objects(col: Collection) -> int:
    """Number of pure entries (the fullness proxy conserved by moves)."""
    return sum(1 for e in col.entries if e.kind == "pure")


def _tracked(entries: Sequence[Entry]) -> int:
    return sum(1 for e in entries if e.kind != "opaque")


def count_tracked(col: Collection) -> int:
    """Pure entries plus cone entries: one object each, opaques excluded."""
    return _tracked(col.entries)


def _require_pure(col: Collection, i: int, what: str) -> EObject:
    if not 0 <= i < len(col):
        raise ScriptError(f"{what}: index {i} out of range")
    e = col.entries[i]
    if e.kind != "pure":
        raise OpaqueEntryError(f"{what}: entry {i} ({e.label()}) is {e.kind}")
    return e.obj


def _require_vanishing(col: Collection, a: EObject, b: EObject, i: int) -> None:
    if x_vanishes(a, b, col.n_amb):
        return
    r = x_ext(a, b, col.n_amb)
    if r.kind == "bounded":
        raise VanishingNotEstablished(
            f"exchange {i}: Hom({notation(a)}, {notation(b)}) bounded"
        )
    raise VanishingFalse(
        f"exchange {i}: Hom({notation(a)}, {notation(b)}) = {r.total().dims} != 0"
    )


def exchange(col: Collection, i: int) -> Spliced:
    """Swap entries i, i+1; legal when the pair is mutually semiorthogonal,
    Hom_X(e_i, e_{i+1}) = 0 = Hom_X(e_{i+1}, e_i).  A bounded Hom in either
    direction is not a vanishing (VanishingNotEstablished)."""
    a = _require_pure(col, i, "exchange")
    b = _require_pure(col, i + 1, "exchange")
    _require_vanishing(col, a, b, i)
    _require_vanishing(col, b, a, i)
    return _splice(col, i, i + 2, [col.entries[i + 1], col.entries[i]])


def _simple_degree(r: ExtResult, who: str) -> int:
    if r.kind == "bounded":
        raise NotSimple(f"{who}: RHom bounded (connecting map unresolved)")
    total = r.total()
    if total.total() != 1:
        raise NotSimple(f"{who}: RHom = {total.dims}, not one-dimensional")
    return total.dims[0][0]


# (side, mutator, result) at degree k for the target S^k U^vee; the rules of
# the module docstring, in order.
_RULES: tuple[tuple[str, Callable[[int], EObject], Callable[[int], EObject]], ...] = (
    ("L", lambda k: EObject.schur(k - 1, 1, -1), lambda k: EObject.line(0, k)),
    ("R", lambda k: EObject.line(0, k), lambda k: EObject.schur(k - 1, 1, -1)),
    ("R", lambda k: EObject.schur(k - 1, 0, 1), lambda k: EObject.line(k, -k)),
)


def _match_rule(mutator: EObject, target: EObject, n_amb: int, side: str) -> EObject:
    """Resolve the ``side`` ("L" or "R") mutation of ``target`` through
    ``mutator`` via ``_RULES``.

    The target is read as S^k U^vee (x) T with T = O(cH + dh).  Rules are
    tried only for 1 <= k <= n-1, before any rule object is built (at k = 0
    rule (1)'s mutator is no bundle).  Each rule of the side whose mutator,
    twisted by T, is ``mutator`` gives its result twisted by T.  At k = 1
    rules (2) and (3) coincide and give one result.
    """
    w, d = target.single_term()
    k, c = w.a - w.b, w.b
    results: set[EObject] = set()
    if 1 <= k <= n_amb // 2 - 1:
        for rule_side, rule_mutator, rule_result in _RULES:
            if rule_side == side and rule_mutator(k).twisted(c, d) == mutator:
                results.add(rule_result(k).twisted(c, d))
    if len(results) > 1:
        raise NoRuleMatch(
            f"ambiguous rule match for {notation(mutator)} / {notation(target)}"
        )
    if not results:
        raise NoRuleMatch(
            f"{side}_{notation(mutator)}({notation(target)}) matches no rule"
        )
    return results.pop()


def _check_kclass(
    result: EObject, target: EObject, mutator: EObject, degree: int, n_amb: int
) -> None:
    sign = -1 if degree % 2 else 1
    if not _kclass_zero([(1, result), (-1, target), (sign, mutator)], n_amb):
        raise KClassMismatch(
            f"[{notation(result)}] != [{notation(target)}] - "
            f"({sign})[{notation(mutator)}]"
        )


def _mutate(col: Collection, i: int, side: str) -> Spliced:
    """Mutate the pair at (i, i+1): its first member through the second
    (side "R") or the second through the first (side "L")."""
    what = "mut" + side.lower()
    first = _require_pure(col, i, what)
    second = _require_pure(col, i + 1, what)
    mutator, target = (first, second) if side == "L" else (second, first)
    degree = _simple_degree(x_ext(first, second, col.n_amb), f"{what} {i}")
    result = _match_rule(mutator, target, col.n_amb, side)
    _check_kclass(result, target, mutator, degree, col.n_amb)
    pair = (result, mutator) if side == "L" else (mutator, result)
    return _splice(col, i, i + 2, [Entry.pure(o) for o in pair])


def mutate_left(col: Collection, i: int) -> Spliced:
    """(E, b) at (i, i+1) becomes (L_E b, E)."""
    return _mutate(col, i, "L")


def mutate_right(col: Collection, i: int) -> Spliced:
    """(b, E) at (i, i+1) becomes (E, R_E b)."""
    return _mutate(col, i, "R")


def serre_twist(objs: list[EObject], n_amb: int) -> list[EObject]:
    """Tensor by K_X|_E = O(-(N-2)H - h); dim-X shift is even, so K-classes
    are unaffected."""
    return [o.twisted(-(n_amb - 2), -1) for o in objs]


def serre_tail(col: Collection, i: int, j: int) -> Spliced:
    """Mutate the tail i..j (j = last index) through its whole complement."""
    if j != len(col) - 1 or i > j:
        raise ScriptError(f"serre {i}..{j}: not a nonempty tail of the collection")
    tail = [_require_pure(col, t, "serre") for t in range(i, j + 1)]
    twisted = [Entry.pure(o) for o in serre_twist(tail, col.n_amb)]
    return _splice(col, 0, len(col), twisted + col.entries[:i])


def expand_block(col: Collection, block: Block, at: int) -> Spliced:
    if not 0 <= at <= len(col):
        raise ScriptError(f"expand: position {at} out of range")
    try:
        objs = make_block(block.name, block.params, col.n_amb, block.twist)
    except BlockRangeError as exc:
        raise ScriptError(f"expand {block}: {exc}") from exc
    return _splice(col, at, at, [Entry.pure(o) for o in objs])


def insert_opaque(col: Collection, name: str, at: int) -> Spliced:
    if not 0 <= at <= len(col):
        raise ScriptError(f"opaque: position {at} out of range")
    return _splice(col, at, at, [Entry.opaque(name)])


def promote(col: Collection, i: int, name: str) -> Spliced:
    """Move the opaque entry i to the front under a new name."""
    if not 0 <= i < len(col):
        raise ScriptError(f"promote: index {i} out of range")
    e = col.entries[i]
    if e.kind != "opaque":
        raise OpaqueEntryError(f"promote {i}: entry is {e.kind}, not opaque")
    return _splice(col, 0, i + 1, [Entry.opaque(name)] + col.entries[:i])


# A one-term member packs its twist O(kH + dh) into the int k * _PACK + d, so
# the difference of two packed ints is the packed difference of the twists.
# It decodes while every |d| is below _PACK // 4; a member past that is read
# as a whole object, as a multi-term one is.
_PACK = 1 << 64
_HALF = _PACK >> 1


def _member_ints(o: EObject) -> Optional[tuple[tuple[int, int, int], int]]:
    """((p, shift, multiplicity), packed twist) of a one-term object
    S^p U^vee (kH)(dh)[s]; None for any other."""
    if len(o.terms) != 1:
        return None
    ((w, d, s, m),) = o.terms
    if not -_HALF < 2 * d < _HALF:
        return None
    return (w.a - w.b, s, m), w.b * _PACK + d


def _chi_at(inner: dict[int, int], p: int, diff: int, n_amb: int) -> int:
    """chi_X(S^p U^vee, S^p U^vee (dk.H + dd.h)) for the packed ``diff``,
    read from ``inner``, the table of p, or computed with one ``x_euler``
    and stored."""
    v = inner.get(diff)
    if v is None:
        dk, dd = divmod(diff + _HALF, _PACK)
        b = EObject.schur(p, dk, dd - _HALF)
        v = inner[diff] = x_euler(EObject.schur(p), b, n_amb)
    return v


def gram_solve(
    block: list[EObject], target: EObject, n_amb: int, chi: Optional[ChiTable] = None
) -> list[int]:
    """Solve Gram c = chi(block_j, target) by back-substitution.

    The chi_X Gram matrix of an exceptional sequence is upper-unitriangular
    in collection order; each row is validated as it is built, diagonal
    first (KClassMismatch if not).  ``chi`` is the table read and filled,
    a run's ``Collection.chi`` or the one the staircase Propositions of an
    n share; without one the call has its own.

    Each member's ints are read once.  When every member is one-term with
    the same p and shift and multiplicity 1, as in every chessboard block,
    chi_X of two members depends only on the difference of their twists
    (chi_X is invariant under a common twist, and equal shifts cancel): an
    entry is one lookup by packed int difference in the table of p, and a
    row is one list of lookups.  So is the right-hand side when the target
    is of the same class.  Any other block (mixed classes, a multiple, a
    multi-term member; no caller passes one) and any other target run one
    ``x_euler`` per entry.
    """
    if chi is None:
        chi = {}
    ints = [_member_ints(o) for o in block]
    m = len(block)
    cls = ints[0][0] if ints and ints[0] else None
    one_class = cls is not None and cls[2] == 1 and all(t and t[0] == cls for t in ints)
    if one_class:
        p = cls[0]
        inner = chi.setdefault(p, {})
        packed = [t[1] for t in ints]
    gram = []
    for i in range(m):
        if one_class:
            vi = packed[i]
            try:
                row = [inner[v - vi] for v in packed]
            except KeyError:
                row = [_chi_at(inner, p, v - vi, n_amb) for v in packed]
        else:
            row = [x_euler(block[i], b, n_amb) for b in block]
        if row[i] != 1:
            raise KClassMismatch(f"Gram diagonal chi = {row[i]} != 1 at {i}")
        if any(row[:i]):
            j = next(j for j, v in enumerate(row) if v)
            raise KClassMismatch(f"Gram not unitriangular at ({i},{j})")
        gram.append(row)
    it = _member_ints(target)
    if one_class and it is not None and it[0] == cls:
        rhs = [_chi_at(inner, p, it[1] - v, n_amb) for v in packed]
    else:
        rhs = [x_euler(b, target, n_amb) for b in block]
    coeff = [0] * m
    for i in range(m - 1, -1, -1):
        coeff[i] = rhs[i] - sum(map(mul, gram[i][i + 1 :], coeff[i + 1 :]))
    return coeff


def mutate_block_left(col: Collection, i: int, j: int) -> Spliced:
    """Left-mutate entry j+1 through the pure block i..j; result is a cone.

    The cone is not materialized (no rule pattern applies); its K-class
    [b] - sum c_l [s_l] is recorded as its sparse torus character, with c
    the Gram-system projection coefficients.
    """
    if i > j:
        raise ScriptError(f"mutlblock {i}..{j}: empty block")
    block = [_require_pure(col, t, "mutlblock") for t in range(i, j + 1)]
    target = _require_pure(col, j + 1, "mutlblock")
    coeff = gram_solve(block, target, col.n_amb, col.chi)
    char = _character([(1, target)] + [(-c, s) for c, s in zip(coeff, block)])
    cone = Entry(
        "cone",
        name=f"L[{j - i + 1}]({notation(target)})",
        kclass=tuple(sorted(char.items())),
    )
    return _splice(col, i, j + 2, [cone] + col.entries[i : j + 1])


class PairCheck(NamedTuple):
    """A pure pair of the final check whose Hom does not vanish."""

    later: int
    earlier: int
    status: str  # "fail" | "indeterminate"
    detail: str


def check_semiorthogonal(col: Collection) -> list[PairCheck]:
    """Hom_X(entry_j, entry_i) for every j > i must vanish.

    The pure pairs are asked of ``x_vanishes`` in (j, i) order; ``x_ext``
    runs only on a pair that does not vanish.  Returns those pairs, in that
    order; opaque and cone entries are skipped.  A passing collection gives
    ``[]``.
    """
    n_amb = col.n_amb
    pure = [(j, e) for j, e in enumerate(col.entries) if e.kind == "pure"]
    out = []
    for t, (j, ej) in enumerate(pure):
        for i, ei in pure[:t]:
            if x_vanishes(ej.obj, ei.obj, n_amb):
                continue
            r = x_ext(ej.obj, ei.obj, n_amb)
            if r.kind == "bounded":
                detail = f"front={r.front.dims} back={r.back.dims}"
                out.append(PairCheck(j, i, "indeterminate", detail))
            else:
                detail = f"Hom({ej.label()}, {ei.label()}) = {r.total().dims}"
                out.append(PairCheck(j, i, "fail", detail))
    return out


# verb -> (move, argument text).  ``scriptgen.Sim.do(verb, *args)`` calls
# the move and records the line "verb " + text.format(*args).
_MOVES: dict[str, tuple[Callable[..., Spliced], str]] = {
    "exchange": (exchange, "{}"),
    "mutl": (mutate_left, "{}"),
    "mutr": (mutate_right, "{}"),
    "serre": (serre_tail, "{}..{}"),
    "expand": (expand_block, "{} at {}"),
    "opaque": (insert_opaque, "{} at {}"),
    "promote": (promote, "{} as {}"),
    "mutlblock": (mutate_block_left, "{}..{}"),
}
