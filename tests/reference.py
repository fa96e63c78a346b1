"""Reference routes that the tests check the package against.

Not collected by pytest (the name has no ``test_`` prefix).  Ext on
Gr(2, N) is built here the obvious way, as the formal Hom object
a^vee (x) b of Clebsch-Gordan terms, whose cohomology is taken term by term;
for it the package gives only data types and the BWB oracle
``bwb.cohomology``, never the Ext kernel in ``flagx`` or the CLI.

K-classes on E are fingerprinted here by Euler pairing against the full
exceptional collection <p2^* T_i, p2^* T_i (x) O(h)> of D(E), the route
``flagx._kclass_zero`` is checked against.  It pairs by ``flagx.e_euler``,
an independent computation from the Chern character that decides there.
The pairing matrix is validated upper-unitriangular once per N: the check
reads every entry on and below the diagonal, row by row, and none above it.
chi_E is invariant under twisting both arguments by one line bundle, so the
entry for S^p U^vee (kH)(eh) against S^q U^vee (lH)(dh) depends only on the
shape (p, q, l-k, d-e).  A table local to the build, keyed by those ints,
computes one chi_E per shape: 2,135 instead of 44,100 at N = 15.
``k_class`` uses the same invariance: by bilinearity a K-class is a signed
sum, over the terms of the object, of the pairings of each basis object
with one twisted Schur bundle, each read from a table per N keyed by its
shape (q, p, k-l, e-d).

The move engine has a slow twin here, ``RefSim``: immutable tuples, a new
collection per move, every move's preconditions checked by ``x_ext`` and
``x_euler`` on each pair (no table), the rule table restated as start and
result pairs, K-class identities by the pairing route above, and the
tracked count taken in full after every move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from flipcheck.bwb import GradedDims, cohomology
from flipcheck.collections import (
    Block,
    BlockRangeError,
    EngineError,
    KClassMismatch,
    NoRuleMatch,
    NotSimple,
    OpaqueEntryError,
    ScriptError,
    VanishingFalse,
    VanishingNotEstablished,
    make_block,
    notation,
)
from flipcheck.collections.engine import Entry
from flipcheck.collections.scriptgen import Sim
from flipcheck.flagx import _character, _shapes, e_euler, gr_collection, x_ext, x_euler
from flipcheck.verify import Claim, Report
from flipcheck.weights import EObject, Weight


# ------------------------------------------------------------------ weights


def dual(w: Weight) -> Weight:
    """(Sigma^{a,b} U^vee)^vee = Sigma^{-b,-a} U^vee."""
    return Weight(-w.b, -w.a)


def rank(w: Weight) -> int:
    """Rank of Sigma^{a,b} U^vee as a bundle: a - b + 1."""
    return w.a - w.b + 1


def shifted(x: EObject, k: int) -> EObject:
    """x[k]: every term's shift raised by k.  A uniform translation keeps the
    terms distinct and in order, so no renormalization is needed."""
    return EObject(tuple((w, dh, s + k, m) for w, dh, s, m in x.terms))


def dual_object(x: EObject) -> EObject:
    """Termwise dual; h-twists and shifts change sign."""
    return EObject.of((dual(w), -dh, -s, m) for w, dh, s, m in x)


def cg_tensor(w1: Weight, w2: Weight) -> EObject:
    """Clebsch-Gordan decomposition of Sigma^{w1} tensor Sigma^{w2} in rank 2.

    Sigma^{a1,b1} (x) Sigma^{a2,b2} = (+)_{t=0}^{m} Sigma^{a1+a2-t, b1+b2+t}
    with m = min(a1-b1, a2-b2); every summand occurs once.
    """
    m = min(w1.a - w1.b, w2.a - w2.b)
    return EObject.of(
        (Weight(w1.a + w2.a - t, w1.b + w2.b + t), 0, 0, 1) for t in range(m + 1)
    )


def tensor(x: EObject, y: EObject) -> EObject:
    """Bilinear extension of cg_tensor; h-twists and shifts add,
    multiplicities multiply."""
    out: list[tuple[Weight, int, int, int]] = []
    for w1, d1, s1, m1 in x:
        for w2, d2, s2, m2 in y:
            for w, _, _, _ in cg_tensor(w1, w2):
                out.append((w, d1 + d2, s1 + s2, m1 * m2))
    return EObject.of(out)


def hom_object(a: EObject, b: EObject) -> EObject:
    """Formal RHom object a^vee (x) b; term h-twists and shifts are those of
    b minus those of a."""
    return tensor(dual_object(a), b)


def push_p2(d_h: int) -> EObject:
    """Rp2* O(d_h.h) on Gr(2, N), per the projection-formula trichotomy."""
    if d_h >= 0:
        return EObject.of_weight(Weight(d_h, 0))
    if d_h == -1:
        return EObject()
    return shifted(EObject.of_weight(Weight(-1, d_h + 1)), -1)


def omega_e(n_amb: int) -> tuple[int, int]:
    """Twist (c_H, d_h) of the canonical bundle omega_E = O((1-N)H - 2h)."""
    return (1 - n_amb, -2)


def k_sub(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Entrywise difference of two K-class vectors."""
    return tuple(p - q for p, q in zip(x, y))


# ------------------------------------------------------- K-classes on E


_basis_cache: dict[int, tuple[EObject, ...]] = {}


class BasisValidationError(RuntimeError):
    """The Euler pairing matrix of the K-theory basis failed unitriangularity."""


def _lower_gram(basis: tuple[EObject, ...], n_amb: int) -> Iterator[tuple[int, int, int]]:
    """(i, j, chi_E(b_i, b_j)) for every i >= j, row by row.

    Twisting both arguments by one O(cH + eh) leaves every pushed term of
    ``_degrees`` as it is, so the entry for b_i = S^p U^vee (kH)(eh)
    and b_j = S^q U^vee (lH)(dh) depends only on the shape (p, q, l-k, d-e).
    ``e_euler`` runs once per shape, on the first pair that has it; the
    table is read by ints and dropped with the generator.
    """
    shapes = _shapes(basis)
    table: dict[tuple[int, int, int, int], int] = {}
    for i, (p, k, e) in enumerate(shapes):
        for j in range(i + 1):
            q, l, d = shapes[j]
            key = (p, q, l - k, d - e)
            chi = table.get(key)
            if chi is None:
                chi = table[key] = e_euler(basis[i], basis[j], n_amb)
            yield i, j, chi


def _basis_objects(n_amb: int) -> tuple[EObject, ...]:
    """The objects of ``euler_basis``, in its order, not validated."""
    gr_objs = gr_collection(n_amb)
    return gr_objs + tuple(o.twisted(0, 1) for o in gr_objs)


def euler_basis(n_amb: int) -> tuple[EObject, ...]:
    """Full exceptional collection <p2^* T_i, p2^* T_i (x) O(h)> of D(E).

    Validated once per N: the chi_E pairing matrix must be unitriangular
    (ones on the diagonal, zeros below), which makes pairing against it an
    injective K_0(E) fingerprint.  Every entry on and below the diagonal is
    checked, row by row, as ``_lower_gram`` yields it (one chi_E per twist
    shape); the entries above it are never computed.
    """
    hit = _basis_cache.get(n_amb)
    if hit is not None:
        return hit
    basis = _basis_objects(n_amb)
    for i, j, chi in _lower_gram(basis, n_amb):
        if i == j and chi != 1:
            raise BasisValidationError(f"chi(b_{i}, b_{i}) = {chi} != 1")
        if i > j and chi != 0:
            raise BasisValidationError(f"chi(b_{i}, b_{j}) = {chi} != 0 below diagonal")
    _basis_cache[n_amb] = basis
    return basis


_kclass_cache: dict[tuple[int, EObject], tuple[int, ...]] = {}

# Per N: the basis shapes and the shape table (q, p, k-l, e-d) -> chi of
# k_class.
_kchi_tables: dict[int, tuple[list[tuple[int, int, int]], dict[tuple[int, int, int, int], int]]] = {}


def k_class(a: EObject, n_amb: int) -> tuple[int, ...]:
    """K_0(E) class of ``a`` as the vector of chi_E(basis_j, a).

    chi_E is bilinear, so entry j is the sum over the terms (w, e, s, mult)
    of ``a`` of (-1)^s mult chi_E(b_j, S^p U^vee (kH)(eh)) with p = w.a - w.b
    and k = w.b.  For b_j = S^q U^vee (lH)(dh) that chi depends only on the
    shape (q, p, k-l, e-d): a table per N, keyed by those ints, computes one
    ``e_euler`` per shape, on the first pair that has it.  Vectors are
    memoized per object.
    """
    key = (n_amb, a)
    hit = _kclass_cache.get(key)
    if hit is not None:
        return hit
    basis = euler_basis(n_amb)
    tables = _kchi_tables.get(n_amb)
    if tables is None:
        tables = _kchi_tables[n_amb] = (_shapes(basis), {})
    shapes, table = tables
    vec = [0] * len(basis)
    for w, e, s, mult in a.terms:
        p, k = w.a - w.b, w.b
        sign = -mult if s % 2 else mult
        term = None
        for j, (q, l, d) in enumerate(shapes):
            shape = (q, p, k - l, e - d)
            chi = table.get(shape)
            if chi is None:
                if term is None:
                    term = EObject.of_weight(w, e)
                chi = table[shape] = e_euler(basis[j], term, n_amb)
            vec[j] += sign * chi
    hit = _kclass_cache[key] = tuple(vec)
    return hit



# ---------------------------------------------------------- graded dimensions


def dim_at(g: GradedDims, deg: int) -> int:
    """The dimension in degree ``deg``; 0 outside the support."""
    return dict(g.dims).get(deg, 0)


def shifted_dims(g: GradedDims, k: int) -> GradedDims:
    """Degrees raised by k (homological shift [-k])."""
    return GradedDims(tuple((d + k, v) for d, v in g.dims))


def degrees(g: GradedDims) -> tuple[int, ...]:
    return tuple(d for d, _ in g.dims)


# ------------------------------------------------------------- BWB on Gr(2,N)


def weyl_dim(nu: Sequence[int]) -> int:
    """Dimension of the irreducible GL(N) representation of highest weight nu.

    prod_{i<j} (nu_i - nu_j + j - i) / (j - i), evaluated exactly: the
    numerator is always divisible by the denominator.
    """
    if any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
        raise ValueError(f"weight {tuple(nu)} is not nonincreasing")
    num = 1
    den = 1
    n = len(nu)
    for i in range(n):
        for j in range(i + 1, n):
            num *= nu[i] - nu[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("Weyl dimension formula produced a non-integer")
    return q


def sum_cohomology(s: EObject, n_amb: int) -> GradedDims:
    """Cohomology of an object on Gr(2, N); a term Sigma^w[k] lands in
    degrees j - k.  A term with an h-twist is not on Gr(2, N): ValueError."""
    out: list[tuple[int, int]] = []
    for w, dh, shift, mult in s:
        if dh:
            raise ValueError(f"term {w} has h-twist {dh}; not on Gr(2,N)")
        for deg, dim in cohomology(w, n_amb).dims:
            out.append((deg - shift, dim * mult))
    return GradedDims.of(out)


def gr_ext(a: EObject, b: EObject, n_amb: int) -> GradedDims:
    """Ext^bullet_{Gr(2,N)}(a, b) = H^bullet of the Hom object.

    The Hom object must have h-twist 0 (``sum_cohomology`` raises otherwise).
    """
    return sum_cohomology(hom_object(a, b), n_amb)


def gr_euler(a: EObject, b: EObject, n_amb: int) -> int:
    """Euler pairing chi(a, b) on Gr(2, N)."""
    return gr_ext(a, b, n_amb).euler()


def ref_x_vanishes(a: EObject, b: EObject, n_amb: int) -> bool:
    """Whether Ext on X vanishes, by listing every pushed weight.

    The Clebsch-Gordan loops of the Ext kernel for c = 0 (back) and c = 1
    (front), each pushed weight Sigma^{x,y} put to the band rule of
    ``bwb.cohomology``: H* = 0 iff 1-N <= x <= -2 or 2-N <= y <= -1.
    """
    if n_amb < 3:
        raise ValueError("need N >= 3")
    lo_x, lo_y = 1 - n_amb, 2 - n_amb
    for c in (0, 1):
        for wa, da, _, _ in a.terms:
            a1, b1 = -wa.b - c, -wa.a - c
            for wb, db, _, _ in b.terms:
                d = db - da - c
                if d == -1:
                    continue
                pa, pb = (d, 0) if d >= 0 else (-1, d + 1)
                for t in range(min(a1 - b1, wb.a - wb.b) + 1):
                    ca, cb = a1 + wb.a - t, b1 + wb.b + t
                    for u in range(min(ca - cb, pa - pb) + 1):
                        x, y = ca + pa - u, cb + pb + u
                        if not (lo_x <= x <= -2 or lo_y <= y <= -1):
                            return False
    return True


# --------------------------------------------------------------- CLI formats


def print_object(obj: EObject) -> str:
    """Object notation of ``obj`` in normal form; ``cli.parse_object`` reads
    it back to ``obj``."""
    parts = []
    for w, dh, s, m in obj:
        t = f"Sigma{{{w.a},{w.b}}}Uv"
        if dh:
            t += f"({dh}h)"
        if s:
            t += f"[{s}]"
        parts.extend([t] * m)
    return "+".join(parts) if parts else "0"


def parse_report(text: str) -> Report:
    """Inverse of the CLI's JSON report emission."""
    data = json.loads(text)
    n_amb = data["run"]["N"]
    parity = data["run"]["parity"]
    report = Report(n_amb // 2, parity)
    for c in data["claims"]:
        report.claims.append(
            Claim(c["id"], c["statement"], c["status"], c.get("detail"))
        )
    return report


# --------------------------------------------------------------- move engine


@dataclass(frozen=True)
class RefCollection:
    n_amb: int
    entries: tuple[Entry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


def tracked(entries: Sequence[Entry]) -> int:
    """Pure and cone entries, counted one by one."""
    return sum(1 for e in entries if e.kind in ("pure", "cone"))


def _pure(col: RefCollection, i: int) -> EObject:
    if i < 0 or i >= len(col.entries):
        raise ScriptError(f"index {i} out of range")
    if col.entries[i].kind != "pure":
        raise OpaqueEntryError(f"entry {i} is {col.entries[i].kind}")
    return col.entries[i].obj


def _replaced(
    col: RefCollection, at: int, stop: int, new: Sequence[Entry]
) -> RefCollection:
    return RefCollection(col.n_amb, col.entries[:at] + tuple(new) + col.entries[stop:])


def ref_exchange(col: RefCollection, i: int) -> RefCollection:
    a, b = _pure(col, i), _pure(col, i + 1)
    for x, y in ((a, b), (b, a)):
        r = x_ext(x, y, col.n_amb)
        if r.kind == "bounded":
            raise VanishingNotEstablished(f"Hom({notation(x)}, {notation(y)}) bounded")
        if not r.is_zero():
            raise VanishingFalse(f"Hom({notation(x)}, {notation(y)}) != 0")
    return _replaced(col, i, i + 2, (col.entries[i + 1], col.entries[i]))


def _rules(k: int) -> tuple:
    """(side, start pair, result pair) of rules (1)-(3) at degree k."""
    S, O = EObject.schur, EObject.line
    return (
        ("L", (S(k - 1, 1, -1), S(k)), (O(0, k), S(k - 1, 1, -1))),
        ("R", (S(k), O(0, k)), (O(0, k), S(k - 1, 1, -1))),
        ("R", (S(k), S(k - 1, 0, 1)), (S(k - 1, 0, 1), O(k, -k))),
    )


def _ref_mutate(col: RefCollection, i: int, side: str) -> RefCollection:
    pair = (_pure(col, i), _pure(col, i + 1))
    r = x_ext(pair[0], pair[1], col.n_amb)
    if r.kind == "bounded" or r.total().total() != 1:
        raise NotSimple(f"RHom of the pair at {i} is not one-dimensional")
    degree = r.total().dims[0][0]
    mutator, target = pair if side == "L" else pair[::-1]
    w, d = target.single_term()
    k, c = w.a - w.b, w.b
    results = set()
    if 1 <= k <= col.n_amb // 2 - 1:
        for rule_side, start, result in _rules(k):
            if rule_side == side and tuple(o.twisted(c, d) for o in start) == pair:
                results.add(tuple(o.twisted(c, d) for o in result))
    if len(results) != 1:
        raise NoRuleMatch(f"{len(results)} rules match the pair at {i}")
    (out,) = results
    result = out[0] if side == "L" else out[1]
    sign = -1 if degree % 2 else 1
    kt, km = k_class(target, col.n_amb), k_class(mutator, col.n_amb)
    if list(k_class(result, col.n_amb)) != [t - sign * m for t, m in zip(kt, km)]:
        raise KClassMismatch(f"K-class identity fails at {i}")
    return _replaced(col, i, i + 2, [Entry.pure(o) for o in out])


def ref_serre(col: RefCollection, i: int, j: int) -> RefCollection:
    if j != len(col) - 1 or i > j:
        raise ScriptError(f"{i}..{j} is not a nonempty tail")
    tail = [_pure(col, t) for t in range(i, j + 1)]
    twisted = tuple(Entry.pure(o.twisted(2 - col.n_amb, -1)) for o in tail)
    return RefCollection(col.n_amb, twisted + col.entries[:i])


def ref_expand(col: RefCollection, block: Block, at: int) -> RefCollection:
    if at < 0 or at > len(col):
        raise ScriptError(f"position {at} out of range")
    try:
        objs = make_block(block.name, block.params, col.n_amb, block.twist)
    except BlockRangeError as exc:
        raise ScriptError(str(exc)) from exc
    return _replaced(col, at, at, [Entry.pure(o) for o in objs])


def ref_opaque(col: RefCollection, name: str, at: int) -> RefCollection:
    if at < 0 or at > len(col):
        raise ScriptError(f"position {at} out of range")
    return _replaced(col, at, at, [Entry.opaque(name)])


def ref_promote(col: RefCollection, i: int, name: str) -> RefCollection:
    if i < 0 or i >= len(col):
        raise ScriptError(f"index {i} out of range")
    if col.entries[i].kind != "opaque":
        raise OpaqueEntryError(f"entry {i} is {col.entries[i].kind}")
    rest = col.entries[:i] + col.entries[i + 1 :]
    return RefCollection(col.n_amb, (Entry.opaque(name),) + rest)


def ref_mutlblock(col: RefCollection, i: int, j: int) -> RefCollection:
    if i > j:
        raise ScriptError(f"empty block {i}..{j}")
    block = [_pure(col, t) for t in range(i, j + 1)]
    target = _pure(col, j + 1)
    m = len(block)
    gram = [[x_euler(a, b, col.n_amb) for b in block] for a in block]
    if any(gram[r][r] != 1 for r in range(m)):
        raise KClassMismatch("Gram diagonal is not 1")
    if any(gram[r][q] for r in range(m) for q in range(r)):
        raise KClassMismatch("Gram not unitriangular")
    coeff = [0] * m
    for r in reversed(range(m)):
        rest = sum(gram[r][q] * coeff[q] for q in range(r + 1, m))
        coeff[r] = x_euler(block[r], target, col.n_amb) - rest
    char = _character([(1, target)] + [(-c, s) for c, s in zip(coeff, block)])
    name = f"L[{m}]({notation(target)})"
    cone = Entry("cone", name=name, kclass=tuple(sorted(char.items())))
    ent = col.entries
    return RefCollection(col.n_amb, ent[:i] + (cone,) + ent[i : j + 1] + ent[j + 2 :])


REF_MOVES = {
    "exchange": (ref_exchange, "{}"),
    "mutl": (lambda col, i: _ref_mutate(col, i, "L"), "{}"),
    "mutr": (lambda col, i: _ref_mutate(col, i, "R"), "{}"),
    "serre": (ref_serre, "{}..{}"),
    "expand": (ref_expand, "{} at {}"),
    "opaque": (ref_opaque, "{} at {}"),
    "promote": (ref_promote, "{} as {}"),
    "mutlblock": (ref_mutlblock, "{}..{}"),
}


class RefSim:
    """The reference of ``scriptgen.Sim``: each move builds a new
    ``RefCollection``; ``counts`` holds the tracked count of the collection
    after every applied move, counted in full; ``idx`` scans.

    A refused move raises the engine's error class and changes nothing.
    The generators' helpers (``move_left``, ``mutr_at``, ...) are ``Sim``'s:
    they only say which moves to make.
    """

    def __init__(self, n_amb: int):
        self.col = RefCollection(n_amb)
        self.lines: list[str] = []
        self.counts: list[int] = []
        self.refused: str | None = None  # the line of the last refused move

    def do(self, verb: str, *args) -> None:
        move, text = REF_MOVES[verb]
        line = f"{verb} {text.format(*args)}"
        try:
            self.col = move(self.col, *args)
        except EngineError:
            self.refused = line
            raise
        self.lines.append(line)
        self.counts.append(tracked(self.col.entries))

    def idx(self, obj: EObject) -> int:
        hits = [
            i for i, e in enumerate(self.col.entries) if e.kind == "pure" and e.obj == obj
        ]
        if len(hits) != 1:
            raise ScriptError(f"object lookup found {len(hits)} copies")
        return hits[0]

    note = Sim.note
    expand = Sim.expand
    opaque_idx = Sim.opaque_idx
    move_left = Sim.move_left
    move_right = Sim.move_right
    mutl_at = Sim.mutl_at
    mutr_at = Sim.mutr_at
