"""Exact weight arithmetic for rank-2 Schur functors on Gr(2, N).

A ``Weight`` (a, b) with a >= b encodes the irreducible homogeneous bundle
``Sigma^{a,b} U^vee`` attached to the tautological rank-2 subbundle U of the
Grassmannian of planes.  Useful special cases::

    Sigma^{a,a} U^vee = O(aH)          (line bundles; H = det U^vee)
    Sigma^{k,0} U^vee = S^k U^vee      (symmetric powers of the dual)
    Sigma^{0,-k} U^vee = S^k U

All arithmetic here is representation-theoretic bookkeeping and is exact:
duals, determinant twists, the rank-2 Clebsch-Gordan (Littlewood-Richardson)
tensor decomposition, and formal Hom objects of graded sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class Weight:
    """Dominant GL(2)-weight (a, b), a >= b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < self.b:
            raise ValueError(f"weight ({self.a},{self.b}) violates a >= b")

    @property
    def rank(self) -> int:
        """Rank of Sigma^{a,b} U^vee as a bundle: a - b + 1."""
        return self.a - self.b + 1

    def dual(self) -> "Weight":
        """(Sigma^{a,b} U^vee)^vee = Sigma^{-b,-a} U^vee."""
        return Weight(-self.b, -self.a)

    def twist(self, c: int) -> "Weight":
        """Tensor with O(cH) = Sigma^{c,c} U^vee."""
        return Weight(self.a + c, self.b + c)


def dual(w: Weight) -> Weight:
    return w.dual()


def det_twist(w: Weight, c: int) -> Weight:
    return w.twist(c)


@dataclass(frozen=True)
class GrSum:
    """Formal finite direct sum of shifted Schur bundles on Gr(2, N).

    A term ``(w, s, m)`` stands for ``Sigma^w U^vee [s]`` with multiplicity
    ``m`` > 0.  Terms are kept merged and in canonical (a, b, shift) order so
    equal sums compare equal; the empty sum is the zero object.
    """

    terms: tuple[tuple[Weight, int, int], ...] = ()

    @staticmethod
    def of(entries: Iterable[tuple[Weight, int, int]]) -> "GrSum":
        merged: dict[tuple[Weight, int], int] = {}
        for w, s, m in entries:
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                merged[(w, s)] = merged.get((w, s), 0) + m
        return GrSum(
            tuple(
                (w, s, merged[(w, s)])
                for (w, s) in sorted(merged, key=lambda k: (k[0].a, k[0].b, k[1]))
            )
        )

    @staticmethod
    def single(w: Weight, shift: int = 0, mult: int = 1) -> "GrSum":
        return GrSum.of([(w, shift, mult)])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self) -> Iterator[tuple[Weight, int, int]]:
        return iter(self.terms)

    def __add__(self, other: "GrSum") -> "GrSum":
        return GrSum.of(self.terms + other.terms)

    def shifted(self, k: int) -> "GrSum":
        return GrSum.of((w, s + k, m) for w, s, m in self.terms)

    def twisted(self, c: int) -> "GrSum":
        return GrSum.of((w.twist(c), s, m) for w, s, m in self.terms)

    def dual(self) -> "GrSum":
        return GrSum.of((w.dual(), -s, m) for w, s, m in self.terms)

    def total_rank(self) -> int:
        return sum(w.rank * m for w, s, m in self.terms)


def cg_tensor(w1: Weight, w2: Weight) -> GrSum:
    """Clebsch-Gordan decomposition of Sigma^{w1} tensor Sigma^{w2} in rank 2.

    Sigma^{a1,b1} (x) Sigma^{a2,b2} = (+)_{t=0}^{m} Sigma^{a1+a2-t, b1+b2+t}
    with m = min(a1-b1, a2-b2); every summand occurs once.
    """
    m = min(w1.a - w1.b, w2.a - w2.b)
    return GrSum.of(
        (Weight(w1.a + w2.a - t, w1.b + w2.b + t), 0, 1) for t in range(m + 1)
    )


def tensor(x: GrSum, y: GrSum) -> GrSum:
    """Bilinear extension of cg_tensor; shifts add, multiplicities multiply."""
    out: list[tuple[Weight, int, int]] = []
    for w1, s1, m1 in x:
        for w2, s2, m2 in y:
            for w, _, _ in cg_tensor(w1, w2):
                out.append((w, s1 + s2, m1 * m2))
    return GrSum.of(out)


def hom_object(a: GrSum, b: GrSum) -> GrSum:
    """Formal RHom object a^vee (x) b; term shifts are shift(b) - shift(a)."""
    return tensor(a.dual(), b)
