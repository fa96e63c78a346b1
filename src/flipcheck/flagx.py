"""Objects and Ext groups on E = Fl(1,2,N) and on the ambient total space X.

E is the P^1-bundle p2: P(U) -> Gr(2,N) with relative hyperplane class h
(pulled back from the P^{N-1} side).  An ``EObject`` (from ``weights``) is a
formal sum of ``Sigma^{a,b} U^vee (x) O(d.h) [s]`` terms; H-twists are folded
into the weight so every object has a unique normal form.

Ext groups on E reduce to Gr(2,N) through the pushforward of powers of O(h)::

    Rp2* O(d.h) = S^d U^vee              d >= 0
                = 0                      d = -1
                = S^{-d-2} U (x) O(-H) [-1]   d <= -2

One kernel, ``_degrees``, computes Ext on E as a degree -> dimension map.
It runs the Clebsch-Gordan split of a^vee (x) b, times this trichotomy,
split again, as plain int loops, and adds the BWB dimension of each pushed
term, read from ``bwb``'s memo by ints, into its degree.  ``e_ext`` sorts
that map into a ``GradedDims``; ``e_euler`` sums it signed by degree parity.
Every dim and mult is positive, so nothing cancels and both are exact.
Neither builds a formal sum or merges and sorts terms.  Since Rp2* O_E = O,
the same kernel answers Ext on Gr(2,N) for objects with h-twist 0, and
H^bullet(Gr(2,N), F) = Ext(O, F); the CLI's ``cohom`` and ``ext --space gr``
use it so.

For pushforwards to X (total space of O(-H-h) over E, where E sits as the
exceptional divisor) the restriction triangle

    A(H+h)[1] -> Lj^* j_* A -> A

gives a two-term long exact sequence; ``x_ext`` reports the outcome as
Zero, Exact (connecting maps forced to vanish by degree support), or
Bounded (both contributions recorded, dimensions not resolved).  It runs
the kernel twice, for the back term and, with the twist O(H+h) entering as
the int c = 1, for the front term; no twisted object or shifted degree map
is built.  Every zero outcome is one shared ``ExtResult``: it and its
``GradedDims`` are frozen, and a zero outcome carries nothing but its kind,
so no caller can tell it from a fresh one except by identity.

A question that needs only "is Ext on X zero?" goes to ``x_vanishes``.  It
runs the kernel's loops for c = 0 and c = 1 in one body but computes no
dimension: to each pushed weight Sigma^{x,y} it applies ``bwb.cohomology``'s
zero test, the band rule 1-N <= x <= -2 or 2-N <= y <= -1, and it returns
False at the first pushed term outside the band.  It is exact for the same
reason ``x_ext``'s zero test is: every dim and mult is positive, so nothing
cancels, and Ext on X is zero iff neither pass has a pushed term with
nonzero cohomology.  A Bounded pair has nonzero front and back, so the
predicate never turns one into a pass.  The van claims and audits ask it
first and run ``x_ext`` only for the pairs whose outcome they record.  A
twist-shape table, as below and in the move engine, would not help there:
the part 6 pairs (O(ah), O(bH)) never differ by a common twist, so each has
a shape of its own.

Whether a formal sum sum c_i [obj_i] is 0 in K_0(E) is decided by
``_kclass_zero`` in three stages.  The Euler sequence
0 -> O(H-h) -> U^vee -> O(h) -> 0 splits U^vee in K_0(E), so by the
splitting principle the Laurent ring Z[x1, x2, 1/x1, 1/x2] -> K_0(E),
x1 -> [O(h)] and x2 -> [O(H-h)], is a ring map, and it sends the character
(-1)^s m (x1 x2)^b x1^e h_{a-b}(x1, x2) to the class of
Sigma^{a,b} U^vee (eh) [s] with multiplicity m.  First, a sum whose
character is zero has class 0.  The map is not injective: the Koszul sums
sum_i (-1)^i C(N, i) [O(-ih)] have class 0 but character (1 - x1^-1)^N.
So, second, a nonzero character is checked by Euler pairing: chi_E(b, -)
is additive on K_0(E) for any object b, and one basis object with a
nonzero pairing proves the class nonzero, with no validated basis.  Third,
a sum that neither settles falls back to the validated basis and
``k_class`` below.  Every identity the verifiers check holds by its
character or fails by a witness pairing, so no suite builds the basis.

The fallback fingerprints K-theory classes by Euler pairing against the
full exceptional collection <p2^* T_i, p2^* T_i (x) O(h)> of D(E); the
pairing matrix is validated upper-unitriangular once per N.  The check
reads every entry on and below the diagonal, row by row, and none above
it.  chi_E is invariant under twisting both arguments by one line bundle,
so the entry for S^p U^vee (kH)(eh) against S^q U^vee (lH)(dh) depends
only on the shape (p, q, l-k, d-e).  A table local to the build, keyed by those ints, computes
one chi_E per shape: 2,135 instead of 44,100 at N = 15.

``k_class`` uses the same invariance.  By bilinearity a K-class is a signed
sum, over the terms of the object, of the pairings of each basis object with
one twisted Schur bundle, and each such pairing is read from a table per N
keyed by its shape (q, p, k-l, e-d).  Only the first pair of a shape runs
``e_euler``.  The witness stage reads and fills the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import bwb
from .bwb import ZERO, GradedDims
from .weights import EObject, Weight


def pushed_term_bound(a: EObject, b: EObject, c: int) -> int:
    """Upper bound on the number of pushed terms ``_degrees(a, b, n, c)`` reads.

    Per pair of terms, the product of the two ``min(...)`` ranges of its
    Clebsch-Gordan loops, with the inner one taken at its widest (t = 0).
    Read from the weights alone, so a caller can refuse a huge query before
    it starts.
    """
    total = 0
    for wa, da, _, _ in a.terms:
        for wb, db, _, _ in b.terms:
            d = db - da - c
            if d == -1:
                continue
            outer = min(wa.a - wa.b, wb.a - wb.b) + 1
            inner = min(wa.a - wa.b + wb.a - wb.b, d if d >= 0 else -d - 2) + 1
            total += outer * inner
    return total


def _degrees(a: EObject, b: EObject, n_amb: int, c: int) -> dict[int, int]:
    """Ext_E(a (x) O(cH + ch), b) with every degree raised by c, as a
    degree -> dimension map in no particular order.

    For each pair of terms, a^vee (x) b is split by Clebsch-Gordan, tensored
    with Rp2* of the relative h-twist and split again; the twist c of a
    lowers the dual weight and the relative h-twist by c.  A pushed term
    Sigma^{x,y} U^vee [shift] of multiplicity mult adds mult * dim to degree
    deg - shift + c for each H^deg of it, read from the BWB memo by ints
    (``bwb.cohomology`` runs on a miss only).
    """
    memo = bwb._cohomology_cache
    acc: dict[int, int] = {}
    for wa, da, sa, ma in a.terms:
        a1, b1 = -wa.b - c, -wa.a - c  # weight of the dual
        for wb, db, sb, mb in b.terms:
            d = db - da - c
            if d == -1:
                continue
            # Rp2* O(d.h) is Sigma^{d,0} for d >= 0 and Sigma^{-1,d+1}[-1] for d <= -2.
            pa, pb, sp = (d, 0, 0) if d >= 0 else (-1, d + 1, -1)
            off = c - (sb - sa + sp)
            mult = ma * mb
            p, q = a1 - b1, wb.a - wb.b
            for t in range((p if p < q else q) + 1):
                ca, cb = a1 + wb.a - t, b1 + wb.b + t
                p, q = ca - cb, pa - pb
                for u in range((p if p < q else q) + 1):
                    x, y = ca + pa - u, cb + pb + u
                    g = memo.get((n_amb, x, y))
                    if g is None:
                        g = bwb.cohomology(Weight(x, y), n_amb)
                    for deg, dim in g.dims:
                        k = deg + off
                        acc[k] = acc.get(k, 0) + dim * mult
    return acc


def _graded(acc: dict[int, int]) -> GradedDims:
    """A degree map of ``_degrees`` sorted into its normal form.  Every dim
    and mult is positive, so nothing cancels."""
    return GradedDims(tuple(sorted(acc.items())))


def _euler(a: EObject, b: EObject, n_amb: int, c: int) -> int:
    """The Euler characteristic of ``_degrees(a, b, n_amb, c)``: its dims
    signed by the parity of their degree."""
    return sum(-v if k % 2 else v for k, v in _degrees(a, b, n_amb, c).items())


def e_ext(a: EObject, b: EObject, n_amb: int) -> GradedDims:
    """Ext^bullet_E(a, b) = H^bullet(Gr(2, N), Rp2* RHom_E(a, b))."""
    return _graded(_degrees(a, b, n_amb, 0))


def e_euler(a: EObject, b: EObject, n_amb: int) -> int:
    """chi_E(a, b) = e_ext(a, b, n_amb).euler(), without building the Ext."""
    return _euler(a, b, n_amb, 0)


@dataclass(frozen=True)
class ExtResult:
    """Three-valued Ext outcome on X between pushforwards from E.

    ``front`` is the divisor-twisted contribution already shifted up one
    degree; ``back`` is Ext_E(a, b).  ``exact`` means every connecting map
    front^k -> back^{k+1} is forced to vanish by degree support, so the
    total is front (+) back degreewise.
    """

    kind: str  # "zero" | "exact" | "bounded"
    front: GradedDims
    back: GradedDims

    def total(self) -> GradedDims:
        if self.kind == "bounded":
            raise ValueError("bounded Ext has no resolved total")
        return self.front + self.back

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def euler(self) -> int:
        """chi_X; exact across the long exact sequence even when bounded."""
        return self.back.euler() + self.front.euler()


# The one zero outcome (see the module docstring).
_ZERO_EXT = ExtResult("zero", ZERO, ZERO)


def x_ext(a: EObject, b: EObject, n_amb: int) -> ExtResult:
    """Ext^bullet_X(j_* a, j_* b) via the restriction triangle on E.

    Every zero outcome is the one ``_ZERO_EXT``.
    """
    back = _degrees(a, b, n_amb, 0)
    front = _degrees(a, b, n_amb, 1)
    if not front and not back:
        return _ZERO_EXT
    # Connecting maps run Ext^{k-1}_E(a(H+h), b) -> Ext^{k+1}_E(a, b), i.e.
    # front^k -> back^{k+1} in shifted indexing.
    kind = "exact" if all(not back.get(k + 1) for k in front) else "bounded"
    return ExtResult(kind, _graded(front), _graded(back))


def x_vanishes(a: EObject, b: EObject, n_amb: int) -> bool:
    """True iff ``x_ext(a, b, n_amb)`` is zero, without computing a dimension.

    The loops of ``_degrees`` for c = 0 (back) and c = 1 (front); a pushed
    weight Sigma^{x,y} has H* = 0 iff x+N-1 or y+N-2 lies in [0, N-3], the
    zero test of ``bwb.cohomology``.  No memo is read and no map is built.
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
                p, q = a1 - b1, wb.a - wb.b
                for t in range((p if p < q else q) + 1):
                    ca, cb = a1 + wb.a - t, b1 + wb.b + t
                    p, q = ca - cb, pa - pb
                    for u in range((p if p < q else q) + 1):
                        x, y = ca + pa - u, cb + pb + u
                        if not (lo_x <= x <= -2 or lo_y <= y <= -1):
                            return False
    return True


def x_euler(a: EObject, b: EObject, n_amb: int) -> int:
    """chi_X(j_* a, j_* b) = x_ext(a, b, n_amb).euler(): back plus the
    one-degree-shifted front."""
    return e_euler(a, b, n_amb) + _euler(a, b, n_amb, 1)


def gr_collection(n_amb: int) -> tuple[EObject, ...]:
    """The full exceptional collection of D(Gr(2,N)) used throughout.

    Odd N = 2n+1: blocks <S^i U^vee (kH)>_{0<=i<=n-1} for k = 0..N-1.
    Even N = 2n: full blocks for k = 0..n-1, then <S^i>_{i<=n-2} for
    k = n..2n-1 (the count-consistent reading; see the even-case audit).
    """
    n = n_amb // 2
    out: list[EObject] = []
    if n_amb % 2:
        for k in range(n_amb):
            for i in range(n):
                out.append(EObject.of_weight(Weight(i + k, k)))
    else:
        for k in range(n):
            for i in range(n):
                out.append(EObject.of_weight(Weight(i + k, k)))
        for k in range(n, 2 * n):
            for i in range(n - 1):
                out.append(EObject.of_weight(Weight(i + k, k)))
    return tuple(out)


_basis_cache: dict[int, tuple[EObject, ...]] = {}


class BasisValidationError(RuntimeError):
    """The Euler pairing matrix of the K-theory basis failed unitriangularity."""


def _shapes(objs: tuple[EObject, ...]) -> list[tuple[int, int, int]]:
    """(p, k, e) of each single-term object S^p U^vee (kH)(eh), as ints."""
    out = []
    for o in objs:
        w, dh = o.single_term()
        out.append((w.a - w.b, w.b, dh))
    return out


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
# k_class, which the witness stage of ``_kclass_zero`` shares.
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


KSum = Sequence[tuple[int, EObject]]


def _character(terms: KSum) -> dict[tuple[int, int], int]:
    """The torus character of sum c [obj] as {(i, j): coefficient of x1^i x2^j}.

    x1 = [O(h)] and x2 = [O(H-h)] are the Chern roots of U^vee, so the term
    Sigma^{a,b} U^vee (eh) [s] of multiplicity m maps to
    (-1)^s m (x1 x2)^b x1^e h_{a-b}(x1, x2).  Zero coefficients are dropped.
    """
    acc: dict[tuple[int, int], int] = {}
    for c, o in terms:
        for w, e, s, m in o.terms:
            coef = -c * m if s % 2 else c * m
            b, p = w.b, w.a - w.b
            for i in range(p + 1):
                key = (b + e + i, b + p - i)
                acc[key] = acc.get(key, 0) + coef
    return {key: v for key, v in acc.items() if v}


def _witness_pairings(terms: KSum, n_amb: int) -> Iterator[int]:
    """sum c chi_E(b, obj) for each basis object b in turn.

    Each chi is read from the shape table of ``k_class``; a missing shape
    (q, p, k-l, e-d) is computed on its twist-free representative
    (S^q U^vee, S^p U^vee ((k-l)H)((e-d)h)).  The basis is not validated:
    chi_E(b, -) is additive on K_0(E) whatever b is, so a nonzero value
    proves the class nonzero.
    """
    tables = _kchi_tables.get(n_amb)
    if tables is None:
        tables = _kchi_tables[n_amb] = (_shapes(_basis_objects(n_amb)), {})
    shapes, table = tables
    for q, l, d in shapes:
        total = 0
        for c, o in terms:
            for w, e, s, m in o.terms:
                p, k = w.a - w.b, w.b
                shape = (q, p, k - l, e - d)
                chi = table.get(shape)
                if chi is None:
                    chi = table[shape] = e_euler(
                        EObject.schur(q), EObject.schur(p, k - l, e - d), n_amb
                    )
                total += (-c * m if s % 2 else c * m) * chi
        yield total


def _kclass_zero(terms: KSum, n_amb: int) -> bool:
    """Whether sum c [obj] over ``terms`` is 0 in K_0(E).

    1. A zero character is a proof of zero (see the module docstring).
    2. Otherwise one nonzero witness pairing is a proof of nonzero.
    3. Otherwise the sum of the ``k_class`` vectors decides; building the
       validated basis may raise ``BasisValidationError``.
    """
    if not _character(terms):
        return True
    if any(_witness_pairings(terms, n_amb)):
        return False
    vecs = [(c, k_class(o, n_amb)) for c, o in terms]
    return not any(sum(c * v[j] for c, v in vecs) for j in range(len(vecs[0][1])))
