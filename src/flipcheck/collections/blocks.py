"""Named blocks of the subcategories appearing in the proof.

A block is a value, ``Block(name, params, twist)``: a name from the table
below, its int parameters, and a twist (c, d) that tensors every object by
O(cH + dh).  ``make_block`` builds its objects, an ordered list of pure
objects on E (as pushed forward to X); ``str`` gives the text that a
script's record shows, e.g. ``Aseg(0,3)@(1H-1h)``.
Conventions, with n = N // 2:

    A        <O, U^vee, ..., S^{n-1} U^vee>
    Au(l)    <O, ..., S^{n-l-1} U^vee>             ("A^l")
    Aseg(lo,hi)  <S^lo U^vee, ..., S^hi U^vee>     (generic segment)
    B(l)     <O((l+1)h), S^l U^vee(H-h)>
    C(l)     <O(lh), S^l U^vee(H-2h)>
    E(l)     <O(lh), S^{l-1} U^vee(H-h), O((l+1)(H-h)-h)>
    F(l)     <S^l U^vee(H), O((l+2)(H-h))> and also O((l+3)(H-h)-h) if l <= n-4
    Fp(l)    even-case variant of F with the split at l <= n-5
    H        <O(H-2h), O(H-h)> for n = 2, plus O(2H-3h) for n >= 3
    Hp       even-case variant: <O(H-h)> (n=2), two terms (n=3), three (n>=4)
    S(k)     staircase cells, rows y = n..n+k, row y = n+j spanning
             x = n-1-2j..n-1; listed bottom row first (collection order)
    row(y)   chessboard row <O(x, y)>_{x = -1-n..n-1}
    cell(x,y)  the single line bundle O(xh + yH)

The one parameter ranges over Au 0..n, B and C 0..n-2, E 1..n-2, F 0..n-2,
Fp 0..n-3, S 0..n-2 and row 0..2n-2.  Blocks may legitimately be empty at
boundary parameters (e.g. Au(n)); callers note the elision.  A parameter
outside its range raises ``BlockRangeError``.
"""

from __future__ import annotations

from typing import NamedTuple

from ..flagx import EObject

__all__ = [
    "Block",
    "BlockRangeError",
    "make_block",
    "notation",
]


class BlockRangeError(ValueError):
    pass


class Block(NamedTuple):
    """A named block tensored by O(cH + dh), (c, d) = ``twist``."""

    name: str
    params: tuple[int, ...] = ()
    twist: tuple[int, int] = (0, 0)

    def __str__(self) -> str:
        """The record text: ``NAME(p1,p2)@(cH+dh)``, empty parts left out."""
        text = self.name
        if self.params:
            text += "(" + ",".join(map(str, self.params)) + ")"
        c, d = self.twist
        if c or d:
            h = f"{d:+d}h" if c else f"{d}h"
            text += "@(" + (f"{c}H" if c else "") + (h if d else "") + ")"
        return text


def _seg(lo: int, hi: int) -> list[EObject]:
    if lo < 0:
        raise BlockRangeError(f"segment start {lo} < 0")
    return [EObject.schur(i) for i in range(lo, hi + 1)]


def _staircase(k: int, n: int) -> list[EObject]:
    cells = []
    for j in range(k + 1):
        y = n + j
        for x in range(n - 1 - 2 * j, n):
            cells.append(EObject.line(y, x))
    return cells


def make_block(
    name: str,
    params: tuple[int, ...],
    n_amb: int,
    twist: tuple[int, int] = (0, 0),
) -> list[EObject]:
    """Objects of the named block, optionally tensored by O(cH + dh)."""
    n = n_amb // 2

    def need(count: int) -> None:
        if len(params) != count:
            raise BlockRangeError(f"block {name} takes {count} parameter(s)")

    def param(lo: int, hi: int) -> int:
        """The one parameter, refused outside lo..hi."""
        need(1)
        (p,) = params
        if not lo <= p <= hi:
            raise BlockRangeError(f"{name}({p}) out of range {lo}..{hi}")
        return p

    if name == "A":
        need(0)
        objs = _seg(0, n - 1)
    elif name == "Au":
        l = param(0, n)
        objs = _seg(0, n - l - 1)
    elif name == "Aseg":
        need(2)
        lo, hi = params
        if hi > n - 1:
            raise BlockRangeError(f"Aseg({lo},{hi}) exceeds S^{n-1}")
        objs = _seg(lo, hi)
    elif name == "O":
        need(0)
        objs = [EObject.line()]
    elif name == "B":
        l = param(0, n - 2)
        objs = [EObject.line(0, l + 1), EObject.schur(l, 1, -1)]
    elif name == "C":
        l = param(0, n - 2)
        objs = [EObject.line(0, l), EObject.schur(l, 1, -2)]
    elif name == "E":
        l = param(1, n - 2)
        objs = [
            EObject.line(0, l),
            EObject.schur(l - 1, 1, -1),
            EObject.line(l + 1, -(l + 2)),
        ]
    elif name in ("F", "Fp"):
        l = param(0, n - 2 if name == "F" else n - 3)
        split = n - 4 if name == "F" else n - 5
        objs = [EObject.schur(l, 1, 0), EObject.line(l + 2, -(l + 2))]
        if l <= split:
            objs.append(EObject.line(l + 3, -(l + 4)))
    elif name == "H":
        need(0)
        objs = [EObject.line(1, -2), EObject.line(1, -1)]
        if n >= 3:
            objs.append(EObject.line(2, -3))
    elif name == "Hp":
        need(0)
        if n == 2:
            objs = [EObject.line(1, -1)]
        else:
            objs = [EObject.line(1, -2), EObject.line(1, -1)]
            if n >= 4:
                objs.append(EObject.line(2, -3))
    elif name == "S":
        objs = _staircase(param(0, n - 2), n)
    elif name == "row":
        y = param(0, 2 * n - 2)
        objs = [EObject.line(y, x) for x in range(-1 - n, n)]
    elif name == "cell":
        need(2)
        x, y = params
        objs = [EObject.line(y, x)]
    else:
        raise BlockRangeError(f"unknown block {name!r}")

    c, d = twist
    if c or d:
        objs = [o.twisted(c, d) for o in objs]
    return objs


def notation(obj: EObject) -> str:
    """Short human-readable ASCII name for a single pure object."""
    if not obj.is_single():
        return "+".join(
            notation(EObject.of([(w, dh, 0, 1)])) + (f"[{s}]" if s else "")
            + (f"*{m}" if m > 1 else "")
            for w, dh, s, m in obj
        )
    w, dh = obj.single_term()
    k = w.a - w.b
    c = w.b
    parts = []
    if c == 1:
        parts.append("H")
    elif c == -1:
        parts.append("-H")
    elif c:
        parts.append(f"{c}H")
    if dh == 1:
        parts.append("+h" if parts else "h")
    elif dh == -1:
        parts.append("-h")
    elif dh:
        parts.append(f"{dh:+d}h" if parts else f"{dh}h")
    tw = "(" + "".join(parts) + ")" if parts else ""
    if k == 0:
        return "O" + tw
    if k == 1:
        return "Uv" + tw
    return f"S^{k}Uv" + tw
