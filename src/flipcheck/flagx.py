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
``GradedDims`` are named tuples, so no field can be assigned, and a zero
outcome carries nothing but its kind, so no caller can tell it from a
fresh one except by identity.

A question that needs only "is Ext on X zero?" goes to ``x_vanishes``.  It
lists no pushed weight and computes no dimension.  For a pair of terms
Sigma^{a1,b1}(d1.h), Sigma^{a2,b2}(d2.h) and c in {0, 1}, put p = a1-b1,
q = a2-b2, d = d2-d1-c (d = -1 pushes to zero) and let w be the width of
Rp2* O(d.h): w = d for d >= 0 and -d-2 below.  The two Clebsch-Gordan
splits of the kernel reach exactly the weights (x0 - s, y0 + s) with
s = t + u, t = 0..min(p, q) from the first and u = 0..min(p+q-2t, w) from
the second, where x0 = a2-b1-c + (d if d >= 0 else -1) and
y0 = b2-a1-c + (0 if d >= 0 else d+1).  These s fill 0..smax without a
gap, smax = min(p+q, w + min(p, q), (p+q+w) // 2).  ``bwb.cohomology``'s zero test, 1-N <= x <= -2 or 2-N <= y <= -1,
is then the union of two ranges of s, [x0+2, x0+N-1] and [2-N-y0, -1-y0],
and the pair is zero iff [0, smax] lies in it: O(1) per pair of terms.  It
is exact for the same reason ``x_ext``'s zero test is: every dim and mult
is positive, so nothing cancels, and Ext on X is zero iff neither pass has
a pushed term with nonzero cohomology.  A Bounded pair has nonzero front
and back, so the predicate never turns one into a pass.  The tests check it
against the listed weights (``tests/reference.py``) and against ``x_ext``.
The van claims and audits, the move engine's exchanges and its final
semiorthogonality check ask it first and run ``x_ext`` only for the pairs
whose outcome they record.  A twist-shape table, as the even collection
audit keeps, would not help there: the part 6 pairs (O(ah), O(bH)) never
differ by a common twist, so each has a shape of its own, and the
predicate costs about what building a shape key does.

``e_vanishes`` is the same band test over the back pass c = 0 alone, so it
answers "is Ext_E(a, b) zero?".  ``_band_test`` makes both functions from
one body, so neither calls the other and ``x_vanishes`` keeps its one frame
and three parameters.  ``verify``'s even collection audit asks it once per
twist shape (p, q, l-k) of its backward pairs.

Whether a formal sum sum c_i [obj_i] is 0 in K_0(E) is decided by
``_kclass_zero`` from its torus character, with ints only.  The Euler
sequence 0 -> O(H-h) -> U^vee -> O(h) -> 0 splits U^vee in K_0(E), so by
the splitting principle the Laurent ring Z[x1, x2, 1/x1, 1/x2] -> K_0(E),
x1 -> [O(h)] and x2 -> [O(H-h)], is a ring map, and it sends the character
(-1)^s m (x1 x2)^b x1^e h_{a-b}(x1, x2) to the class of
Sigma^{a,b} U^vee (eh) [s] with multiplicity m.  A sum whose character is
zero has class 0; most identities the verifiers check end there.  The map
is not injective: the Koszul sums sum_i (-1)^i C(N, i) [O(-ih)] have class
0 but character (1 - x1^-1)^N.  So a nonzero character goes through the
Chern character, an isomorphism K_0(E) (x) Q -> H^ev(E, Q) that is
injective on K_0(E), which is free since D(E) has a full exceptional
collection.  With a = c1 O(h) and b = c1 O(H-h), ch sends x1^i x2^j to
e^{ia + jb}, and Borel's presentation gives

    H^*(E, Q) = Q[a, b] / (h_{N-1}(a, b), h_N(a, b)).

Since h_N = b^N + a h_{N-1}, the ideal is (h_{N-1}, b^N), a Groebner basis
for the lex order with a > b (the leading terms a^{N-1} and b^N are
coprime).  Its standard monomials a^m b^l, m <= N-2 and l <= N-1, number
N(N-1) = rank K_0(E).  ``_ch_rows`` reduces ch one degree d = 0..2N-3 at a
time, scaled by d! so every coefficient is an int: it drops the monomials
with b^N in them and rewrites a^{N-1} as -sum_{i<=N-2} a^i b^{N-1-i}.  Both
relations are homogeneous, so the class is zero iff every reduced row is,
and the first nonzero row proves it nonzero.  No Ext, BWB or table is
involved.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, NamedTuple, Sequence

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


class ExtResult(NamedTuple):
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


def _band_test(passes: tuple[int, ...]):
    """The band test of the module docstring over the passes ``passes`` of
    the restriction triangle (c = 0, the back, and c = 1, the front), as a
    function of (a, b, n_amb).

    ``x_vanishes`` runs both passes and ``e_vanishes`` the back alone; each
    is the function made here, so neither adds a call frame or a parameter
    to the other.
    """

    def vanishes(a: EObject, b: EObject, n_amb: int) -> bool:
        if n_amb < 3:
            raise ValueError("need N >= 3")
        k = n_amb - 2  # the length of each band
        for wa, da, _, _ in a.terms:
            a1, b1 = wa.a, wa.b
            p = a1 - b1
            for wb, db, _, _ in b.terms:
                a2, b2 = wb.a, wb.b
                q = a2 - b2
                top = p + q
                t = p if p < q else q
                for c in passes:
                    d = db - da - c
                    # Rp2* O(d.h) is Sigma^{d,0} for d >= 0 and Sigma^{-1,d+1}[-1]
                    # for d <= -2; w is the width of that weight.
                    if d >= 0:
                        w, x0, y0 = d, a2 - b1 - c + d, b2 - a1 - c
                    elif d == -1:
                        continue
                    else:
                        w, x0, y0 = -d - 2, a2 - b1 - c - 1, b2 - a1 - c + d + 1
                    # The loops of _degrees reach s = t' + u for 0 <= t' <= t and
                    # 0 <= u <= min(top - 2t', w): every s up to this smax.
                    smax = w + t
                    if top < smax:
                        smax = top
                    if (top + w) >> 1 < smax:
                        smax = (top + w) >> 1
                    # lo1 <= lo2 start the two bands; end is the first s past the
                    # run of covered s that starts at 0.  If the first band ends
                    # below 0, the second misses 0 too: the pushed weight at
                    # s = 0 is dominant, x0 >= y0.
                    lo1, lo2 = x0 + 2, -k - y0
                    if lo1 > lo2:
                        lo1, lo2 = lo2, lo1
                    if lo1 > 0:
                        return False
                    end = lo1 + k
                    if lo2 <= end:
                        end = lo2 + k
                    if end <= smax:
                        return False
        return True

    return vanishes


x_vanishes = _band_test((0, 1))
x_vanishes.__name__ = x_vanishes.__qualname__ = "x_vanishes"
x_vanishes.__doc__ = """True iff ``x_ext(a, b, n_amb)`` is zero, without computing a dimension.

For each pair of terms and c = 0 (back) and c = 1 (front), the pushed
weights are (x0 - s, y0 + s) for s = 0..smax, and the pair is zero iff
[0, smax] lies in the two bands of ``bwb.cohomology``'s zero test, read
as ranges of s (see the module docstring).  No memo is read and no
range is built.
"""

e_vanishes = _band_test((0,))
e_vanishes.__name__ = e_vanishes.__qualname__ = "e_vanishes"
e_vanishes.__doc__ = """True iff Ext_E(a, b) = ``e_ext(a, b, n_amb)`` is zero: the c = 0
pass of ``x_vanishes``'s band test, without computing a dimension.
"""


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


def _shapes(objs: tuple[EObject, ...]) -> list[tuple[int, int, int]]:
    """(p, k, e) of each single-term object S^p U^vee (kH)(eh), as ints."""
    out = []
    for o in objs:
        w, dh = o.single_term()
        out.append((w.a - w.b, w.b, dh))
    return out


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


def _ch_rows(char: dict[tuple[int, int], int], n_amb: int) -> Iterator[list[int]]:
    """The Chern character of ``char`` in H^*(E, Q), reduced, one degree at a time.

    For d = 0..2N-3, row m of degree d is d! times the coefficient of
    a^m b^(d-m), m = 0..d, with a = c1 O(h) and b = c1 O(H-h), reduced
    modulo the Groebner basis {h_{N-1}(a, b), b^N}: nonzero only at the
    standard monomials, m <= N-2 and d-m <= N-1.
    """
    monos = list(char.items())
    for d in range(2 * n_amb - 2):  # dim E = 2N-3
        lo = max(0, d - n_amb + 1)  # a^m b^(d-m) with d-m >= N is a multiple of b^N
        row = [0] * (d + 1)
        for m in range(lo, d + 1):
            row[m] = comb(d, m) * sum(c * i**m * j ** (d - m) for (i, j), c in monos)
        # a^m b^(d-m) = -sum_{t=m-N+1}^{m-1} a^t b^(d-t) for m >= N-1, by h_{N-1}
        for m in range(d, n_amb - 2, -1):
            v = row[m]
            if v:
                row[m] = 0
                for t in range(max(lo, m - n_amb + 1), m):
                    row[t] -= v
        yield row


def _kclass_zero(terms: KSum, n_amb: int) -> bool:
    """Whether sum c [obj] over ``terms`` is 0 in K_0(E).

    A zero character is a proof of zero; otherwise the class is zero iff
    every reduced degree row of its Chern character is (see the module
    docstring).  Both relations are homogeneous, so the first nonzero row
    proves the class nonzero.
    """
    char = _character(terms)
    return not char or not any(any(row) for row in _ch_rows(char, n_amb))
