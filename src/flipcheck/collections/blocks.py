"""Named block constructors for the subcategories appearing in the proof.

Every block is an ordered list of pure objects on E (as pushed forward to X).
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

Blocks may legitimately be empty at boundary parameters (e.g. Au(n)); callers
note the elision.  A parameter outside the stated range raises
``BlockRangeError``.
"""

from __future__ import annotations

import re

from ..flagx import EObject

__all__ = [
    "BlockRangeError",
    "make_block",
    "parse_block_spec",
    "notation",
]


class BlockRangeError(ValueError):
    pass


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

    if name == "A":
        need(0)
        objs = _seg(0, n - 1)
    elif name == "Au":
        need(1)
        (l,) = params
        if not 0 <= l <= n:
            raise BlockRangeError(f"Au({l}) out of range 0..{n}")
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
        need(1)
        (l,) = params
        if l < 0:
            raise BlockRangeError("B(l) needs l >= 0")
        objs = [EObject.line(0, l + 1), EObject.schur(l, 1, -1)]
    elif name == "C":
        need(1)
        (l,) = params
        if l < 0:
            raise BlockRangeError("C(l) needs l >= 0")
        objs = [EObject.line(0, l), EObject.schur(l, 1, -2)]
    elif name == "E":
        need(1)
        (l,) = params
        if l < 1:
            raise BlockRangeError("E(l) needs l >= 1")
        objs = [
            EObject.line(0, l),
            EObject.schur(l - 1, 1, -1),
            EObject.line(l + 1, -(l + 2)),
        ]
    elif name in ("F", "Fp"):
        need(1)
        (l,) = params
        hi = n - 2 if name == "F" else n - 3
        split = n - 4 if name == "F" else n - 5
        if not 0 <= l <= hi:
            raise BlockRangeError(f"{name}({l}) out of range 0..{hi}")
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
        need(1)
        (k,) = params
        if not 0 <= k <= n - 2:
            raise BlockRangeError(f"S({k}) out of range 0..{n-2}")
        objs = _staircase(k, n)
    elif name == "row":
        need(1)
        (y,) = params
        if not 0 <= y <= 2 * n - 2:
            raise BlockRangeError(f"row({y}) out of range 0..{2*n-2}")
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


_SPEC_RE = re.compile(
    r"^(?P<name>[A-Za-z]+)(?:\((?P<params>-?\d+(?:,-?\d+)*)\))?"
    r"(?:@\((?P<twist>[^)]*)\))?$"
)
_TWIST_RE = re.compile(r"([+-]?\d+)([Hh])")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:  # a numeral past int's digit limit
        raise BlockRangeError(str(exc)) from exc


def _parse_twist(text: str) -> tuple[int, int]:
    c = d = 0
    pos = 0
    for m in _TWIST_RE.finditer(text):
        if m.start() != pos:
            raise BlockRangeError(f"bad twist {text!r}")
        pos = m.end()
        if m.group(2) == "H":
            c += _int(m.group(1))
        else:
            d += _int(m.group(1))
    if pos != len(text) or not text:
        raise BlockRangeError(f"bad twist {text!r}")
    return c, d


def parse_block_spec(spec: str) -> tuple[str, tuple[int, ...], tuple[int, int]]:
    """Parse ``NAME(p1,p2)@(cH+dh)`` into (name, params, twist)."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise BlockRangeError(f"bad block spec {spec!r}")
    params = (
        tuple(_int(p) for p in m.group("params").split(","))
        if m.group("params")
        else ()
    )
    twist = _parse_twist(m.group("twist")) if m.group("twist") is not None else (0, 0)
    return m.group("name"), params, twist


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
