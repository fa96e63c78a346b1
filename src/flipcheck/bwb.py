"""Borel-Weil-Bott cohomology oracle for Gr(2, N).

``cohomology`` computes H^bullet(Gr(2,N), Sigma^{a,b} U^vee) exactly in
closed form.  Padding the weight to lambda = (a, b, 0, ..., 0) and adding
rho = (N-1, ..., 1, 0) gives lambda + rho = (x, y, N-3, ..., 1, 0) with
x = a+N-1 and y = b+N-2; only the first two entries differ from rho.  By
BWB the Euler characteristic is the Weyl dimension polynomial evaluated at
this *unsorted* vector::

    chi = (x-y) * prod_{k=0}^{N-3} (x-k)(y-k) / ((N-1)! (N-2)!)

It vanishes exactly when lambda + rho has a repeated entry.  Otherwise the
cohomology is concentrated in one degree, the inversion count of
lambda + rho, which is #{k in [0, N-3] : k > x} + #{k : k > y} (x > y since
a >= b), and its dimension is |chi|.  Each product over k is (N-2)! times a
binomial coefficient, C(x, N-2) for x >= N-2 and C(N-3-x, N-2) up to sign
for x < 0, so::

    |chi| = (x-y) * C(X, N-2) * C(Y, N-2) / (N-1)

with X = x if x >= 0 else N-3-x, and Y likewise.  ``math.comb`` evaluates
it without building (N-1)! (N-2)!, so a huge N with a small dimension is
fast.  The tests check it against the textbook recipe (sort lambda + rho,
count inversions, Weyl's formula on the sorted weight).

All arithmetic is Python-int exact; dimensions grow combinatorially in N and
must never wrap.  Results are memoized by (N, a, b); the cache is
observationally pure.  ``flagx``'s Ext kernel reads it by those ints and
calls ``cohomology`` on a miss only; every Ext and every cohomology of a
sum, on Gr(2,N) as on E, goes through that kernel.  The zero test is read
twice: here, and in ``flagx.x_vanishes``, which answers "is Ext on X
zero?" without a dimension by asking whether the pushed weights, a run
(x0 - s, y0 + s), all fall in its bands.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .weights import Weight, normalize


class GradedDims(NamedTuple):
    """Finite map degree -> positive dimension; the empty map is zero."""

    dims: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def of(entries: Iterable[tuple[int, int]]) -> "GradedDims":
        return GradedDims(normalize(entries))

    def __bool__(self) -> bool:
        return bool(self.dims)

    def __add__(self, other: "GradedDims") -> "GradedDims":
        return GradedDims.of(self.dims + other.dims)

    def euler(self) -> int:
        return sum(v if d % 2 == 0 else -v for d, v in self.dims)

    def total(self) -> int:
        return sum(v for _, v in self.dims)


ZERO = GradedDims()


_cohomology_cache: dict[tuple[int, int, int], GradedDims] = {}


def cohomology(w: Weight, n_amb: int) -> GradedDims:
    """H^bullet(Gr(2, N), Sigma^{a,b} U^vee) for N = n_amb >= 3, in closed form.

    Zero iff lambda + rho has a repeated entry, that is iff x = a+N-1 or
    y = b+N-2 lies in [0, N-3]; in particular zero on the bands
    1-N <= a <= -2 and 2-N <= b <= -1.  Otherwise concentrated in degree
    (N-2)[x < 0] + (N-2)[y < 0], the inversion count of lambda + rho, with
    dimension |chi| from the binomial form of the unsorted Weyl product (see
    the module docstring).
    """
    if n_amb < 3:
        raise ValueError("need N >= 3")
    key = (n_amb, w.a, w.b)
    hit = _cohomology_cache.get(key)
    if hit is not None:
        return hit
    top = n_amb - 3
    x = w.a + n_amb - 1
    y = w.b + n_amb - 2
    if 0 <= x <= top or 0 <= y <= top:
        result = ZERO
    else:
        xx = x if x >= 0 else top - x
        yy = y if y >= 0 else top - y
        dim, r = divmod(
            (x - y) * math.comb(xx, top + 1) * math.comb(yy, top + 1), n_amb - 1
        )
        if r:
            raise ArithmeticError("Weyl dimension formula produced a non-integer")
        degree = (top + 1) * ((x < 0) + (y < 0))
        result = GradedDims(((degree, dim),))
    _cohomology_cache[key] = result
    return result
