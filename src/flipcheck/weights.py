"""Exact weight arithmetic for rank-2 Schur functors on Gr(2, N).

A ``Weight`` (a, b) with a >= b encodes the irreducible homogeneous bundle
``Sigma^{a,b} U^vee`` attached to the tautological rank-2 subbundle U of the
Grassmannian of planes.  Useful special cases::

    Sigma^{a,a} U^vee = O(aH)          (line bundles; H = det U^vee)
    Sigma^{k,0} U^vee = S^k U^vee      (symmetric powers of the dual)
    Sigma^{0,-k} U^vee = S^k U

All arithmetic here is exact: determinant twists of weights, and the
normal form of formal sums.  ``EObject`` is the one formal sum of shifted,
h-twisted Schur bundles, for objects on E = P(U) and on Gr(2, N) alike
(h-twist 0); ``normalize`` is the normal form it shares with
``bwb.GradedDims``.  The rank-2 Clebsch-Gordan split that Ext needs runs
as int loops inside ``flagx``'s kernel.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator


def _frozen(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a value: its fields are set once,
    in ``__init__``, and shared objects can be handed out safely.  So ``copy``
    and ``pickle`` rebuild a value through its ``__reduce__``, by calling the
    class, rather than by setting its slots."""
    raise AttributeError(f"cannot assign to field {name!r}")


@total_ordering
class Weight:
    """Dominant GL(2)-weight (a, b), a >= b.

    Immutable; equal, ordered and hashed by the tuple (a, b), but never equal
    to one.  Slots, not a tuple: the Ext kernels read ``.a`` and ``.b`` on
    every pair of terms, and a tuple's field access is slower.
    """

    __slots__ = ("a", "b")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, a: int, b: int):
        if a < b:
            raise ValueError(f"weight ({a},{b}) violates a >= b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __repr__(self) -> str:
        return f"Weight(a={self.a!r}, b={self.b!r})"

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Weight and self.a == other.a and self.b == other.b

    def __lt__(self, other: "Weight") -> bool:
        if other.__class__ is Weight:
            return (self.a, self.b) < (other.a, other.b)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __reduce__(self) -> tuple:
        return Weight, (self.a, self.b)

    def twist(self, c: int) -> "Weight":
        """Tensor with O(cH) = Sigma^{c,c} U^vee."""
        return Weight(self.a + c, self.b + c)


def normalize(entries: Iterable[tuple]) -> tuple[tuple, ...]:
    """Normal form of a formal sum of ``(*key, count)`` tuples.

    Equal keys merge, zero counts drop, a negative count is a ``ValueError``,
    and the result is sorted by key (a ``Weight`` sorts as (a, b)), so equal
    sums compare equal.
    """
    acc: dict[tuple, int] = {}
    for entry in entries:
        key, count = entry[:-1], entry[-1]
        if count < 0:
            raise ValueError(f"negative count {count} at {key}")
        if count:
            acc[key] = acc.get(key, 0) + count
    return tuple(key + (acc[key],) for key in sorted(acc))


class EObject:
    """Formal sum of (weight, h-twist, shift, multiplicity) terms.

    A term ``(w, dh, s, m)`` stands for m copies of
    ``Sigma^w U^vee (x) O(dh.h) [s]`` on E = P(U); H-twists are folded into
    the weight.  Since Rp2* O_E = O, an object on Gr(2, N) is the same as its
    pullback, an EObject whose terms all have h-twist 0.  Terms are kept in
    ``normalize`` form; the empty sum is the zero object.  Immutable, and
    equal and hashed by its terms.
    """

    __slots__ = ("terms",)
    __setattr__ = __delattr__ = _frozen

    def __init__(self, terms: tuple[tuple[Weight, int, int, int], ...] = ()):
        object.__setattr__(self, "terms", terms)

    def __repr__(self) -> str:
        return f"EObject(terms={self.terms!r})"

    def __eq__(self, other: object) -> bool:
        return other.__class__ is EObject and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.terms,))

    def __reduce__(self) -> tuple:
        return EObject, (self.terms,)

    @staticmethod
    def of(entries: Iterable[tuple[Weight, int, int, int]]) -> "EObject":
        return EObject(normalize(entries))

    @staticmethod
    def line(c_h: int = 0, d_h: int = 0) -> "EObject":
        """The line bundle O(c_h.H + d_h.h)."""
        return EObject(((Weight(c_h, c_h), d_h, 0, 1),))

    @staticmethod
    def schur(k: int, c_h: int = 0, d_h: int = 0) -> "EObject":
        """S^k U^vee (x) O(c_h.H + d_h.h)."""
        return EObject(((Weight(k + c_h, c_h), d_h, 0, 1),))

    @staticmethod
    def of_weight(w: Weight, d_h: int = 0) -> "EObject":
        return EObject(((w, d_h, 0, 1),))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self) -> Iterator[tuple[Weight, int, int, int]]:
        return iter(self.terms)

    def __add__(self, other: "EObject") -> "EObject":
        return EObject.of(self.terms + other.terms)

    def twisted(self, c_h: int = 0, d_h: int = 0) -> "EObject":
        """Tensor with the line bundle O(c_h.H + d_h.h).

        A uniform translation of (a, b, dh) keeps the terms distinct and in
        order, so no renormalization is needed.
        """
        return EObject(
            tuple((w.twist(c_h), dh + d_h, s, m) for w, dh, s, m in self.terms)
        )

    def is_single(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][2] == 0 and self.terms[0][3] == 1

    def single_term(self) -> tuple[Weight, int]:
        if not self.is_single():
            raise ValueError(f"not a single pure term: {self}")
        w, dh, _, _ = self.terms[0]
        return w, dh
