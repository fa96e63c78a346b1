"""Command-line front end.

Object notation (pure ASCII)::

    expr  := term ("+" term)*
    term  := schur twist? shift?
    schur := "O" | "S{k}Uv" | "S{k}U" | "Sigma{a,b}Uv"
    twist := "(" [c"H"] [d"h"] ")"     at least one part, e.g. (1H-1h), (2H), (-1h)
    shift := "[" k "]"

H-twists are folded into the weight at lowering, so each object has one
normal form, whose terms read ``Sigma{a,b}Uv(dh)[s]``.

Subcommands::

    flipcheck cohom --N 5 "S{2}Uv(1H)"
    flipcheck ext --N 5 --space e "S{1}Uv(1H-1h)" "S{2}Uv"
    flipcheck verify --n 3 --parity odd --lemma mut --format json
    flipcheck chessboard --n 4 --render ascii

Exit codes: 0 all pass, 1 any fail, 2 any indeterminate (none fail),
3 usage or parse error, or a query over a size cap without --allow-large
(N > 15, n > 7, or an ext/cohom that would split more than ``CG_BUDGET``
Clebsch-Gordan terms).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _encode
from typing import Optional

from .bwb import GradedDims
from .collections import make_block
from .flagx import EObject, e_ext, pushed_term_bound, x_ext
from .verify import LEMMAS, Report, verify_suite
from .weights import Weight


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TERM_RE = re.compile(
    r"(?P<schur>O|S\{(?P<k>-?\d+)\}(?P<uv>Uv|U)|Sigma\{(?P<a>-?\d+),(?P<b>-?\d+)\}Uv)"
    r"(?:\((?P<twist>[^)]*)\))?"
    r"(?:\[(?P<shift>-?\d+)\])?"
)
_TWIST_PART = re.compile(r"([+-]?\d*)([Hh])")


def _int(numeral: str, pos: int) -> int:
    """``int(numeral)``; one past Python's int-to-str digit limit
    (``sys.get_int_max_str_digits``) is a ParseError at ``pos``."""
    try:
        return int(numeral)
    except ValueError:
        raise ParseError(f"{len(numeral)}-character numeral is too long", pos) from None


def _parse_twist(text: str, base: int) -> tuple[int, int]:
    c = d = 0
    pos = 0
    for m in _TWIST_PART.finditer(text):
        if m.start() != pos:
            raise ParseError(f"bad twist {text!r}", base + pos)
        pos = m.end()
        coeff = m.group(1)
        # A bare sign or none stands for the coefficient 1.
        value = _int(coeff + "1" if coeff in "+-" else coeff, base + m.start())
        if m.group(2) == "H":
            c += value
        else:
            d += value
    if pos != len(text) or not text:
        raise ParseError(f"bad twist {text!r}", base + pos)
    return c, d


def parse_object(text: str) -> EObject:
    """Parse object notation and lower to the normal form on E."""
    terms: list[tuple[Weight, int, int, int]] = []
    pos = 0
    src = text.strip()
    while True:
        m = _TERM_RE.match(src, pos)
        if not m or m.start() != pos:
            raise ParseError("expected a term", pos)
        if m.group("schur") == "O":
            a = b = 0
        elif m.group("k") is not None:
            k = _int(m.group("k"), m.start("k"))
            if k < 0:
                raise ParseError(f"negative symmetric power S{{{k}}}", pos)
            a, b = (k, 0) if m.group("uv") == "Uv" else (0, -k)
        else:
            a, b = _int(m.group("a"), m.start("a")), _int(m.group("b"), m.start("b"))
            if a < b:
                raise ParseError(f"weight violation: ({a},{b}) needs a >= b", pos)
        c = d = 0
        if m.group("twist") is not None:
            c, d = _parse_twist(m.group("twist"), m.start("twist"))
        shift = _int(m.group("shift"), m.start("shift")) if m.group("shift") else 0
        terms.append((Weight(a + c, b + c), d, shift, 1))
        pos = m.end()
        if pos == len(src):
            break
        if src[pos] != "+":
            raise ParseError("expected '+' between terms", pos)
        pos += 1
    return EObject.of(terms)


def _on_gr(obj: EObject) -> EObject:
    if any(dh for _, dh, _, _ in obj):
        raise ParseError("object has h-twists; not a Gr(2,N) object", 0)
    return obj


# Clebsch-Gordan terms an ext or cohom query may split without --allow-large:
# under a second on every space, which all run one kernel (slowest when each
# term is a new BWB weight, as for S{k}Uv against itself), far above any
# everyday query.
CG_BUDGET = 100_000


def _too_large(args: argparse.Namespace, a: EObject, b: EObject, space: str) -> bool:
    """Without --allow-large, refuse (one line on stderr) a query whose
    estimated Clebsch-Gordan term count (``pushed_term_bound``, the front
    twist included on X) is over ``CG_BUDGET``."""
    if args.allow_large:
        return False
    terms = sum(pushed_term_bound(a, b, c) for c in ((0, 1) if space == "x" else (0,)))
    if terms <= CG_BUDGET:
        return False
    from decimal import Decimal  # see _render

    print(
        f"about {Decimal(terms)} Clebsch-Gordan terms (budget {CG_BUDGET}) "
        "needs --allow-large",
        file=sys.stderr,
    )
    return True


def _render(g: GradedDims, group: str = "Ext") -> str:
    """One ``group^degree = dimension`` line per degree, or "0".

    ``Decimal`` prints an int of any length; ``str`` refuses one past
    ``sys.get_int_max_str_digits()``, which a short twist can reach.  It is
    imported here, so a ``verify`` run, which prints no dimension, never
    loads it.
    """
    from decimal import Decimal

    if not g:
        return "0"
    return "\n".join(f"{group}^{Decimal(d)} = {Decimal(v)}" for d, v in g.dims)


# ------------------------------------------------------------------ reports


def report_to_dict(report: Report) -> dict:
    claims = []
    for c in report.claims:
        entry = {"id": c.id, "status": c.status, "statement": c.statement}
        if c.detail is not None:
            entry["detail"] = c.detail
        claims.append(entry)
    return {
        "run": {"N": report.n_amb, "parity": report.parity},
        "claims": claims,
        "summary": report.summary(),
    }


def _report_json(report: Report) -> str:
    """``json.dumps(report_to_dict(report), indent=2, sort_keys=True)``,
    claim by claim.

    With an indent, ``json`` always runs its pure-Python encoder.  Here each
    claim's fields are written straight from the ``Claim`` in sorted key
    order (detail, id, statement, status): the string fields with the C
    string encoder, and only a detail dumped on its own and indented to its
    depth.  JSON strings hold no raw newline, so the indenting ``replace``
    touches only the layout.
    """
    claims = []
    for c in report.claims:
        head = "    {\n"
        if c.detail is not None:
            detail = json.dumps(c.detail, indent=2, sort_keys=True)
            head += '      "detail": ' + detail.replace("\n", "\n      ") + ",\n"
        claims.append(
            f'{head}      "id": {_encode(c.id)},\n'
            f'      "statement": {_encode(c.statement)},\n'
            f'      "status": {_encode(c.status)}\n    }}'
        )
    body = "[\n" + ",\n".join(claims) + "\n  ]" if claims else "[]"
    frame = {"run": {"N": report.n_amb, "parity": report.parity}, "claims": []}
    rest = json.dumps({**frame, "summary": report.summary()}, indent=2, sort_keys=True)
    return rest.replace('\n  "claims": []', '\n  "claims": ' + body, 1)


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        return _report_json(report)
    lines = []
    for c in report.claims:
        lines.append(f"{c.status.upper():<15} {c.id}  --  {c.statement}")
    s = report.summary()
    lines.append(
        f"summary: {s['pass']} pass, {s['fail']} fail, "
        f"{s['indeterminate']} indeterminate, {s['skipped']} skipped"
    )
    return "\n".join(lines)


def _exit_code(report: Report) -> int:
    s = report.summary()
    if s["fail"]:
        return 1
    if s["indeterminate"]:
        return 2
    return 0


# --------------------------------------------------------------- chessboard


def chessboard_cells(n: int) -> list[dict]:
    """Occupancy of the mutated chessboard: plain, staircase, red cells."""
    # The staircase block's line bundles O(yH + xh), as (x, y) = (h-twist, H-twist).
    staircase = make_block("S", (n - 2,), 2 * n + 1)
    stair = {(dh, w.b) for w, dh in map(EObject.single_term, staircase)}
    cells = []
    for y in range(2 * n - 1):
        for x in range(-1 - n, n):
            if (x, y) in stair:
                kind = "stair"
            elif x == -1 - n and n + 1 <= y <= 2 * n - 2:
                kind = "red"
            else:
                kind = "plain"
            cells.append({"x": x, "y": y, "kind": kind})
    return cells


def render_chessboard(n: int, fmt: str = "ascii") -> str:
    cells = chessboard_cells(n)
    if fmt == "json":
        return json.dumps({"n": n, "cells": cells}, indent=2, sort_keys=True)
    by_pos = {(c["x"], c["y"]): c["kind"] for c in cells}
    mark = {"plain": "o", "stair": "S", "red": "R"}
    lines = ["horizontal: O(h) twist, vertical: O(H) twist; S staircase, R mutated"]
    for y in range(2 * n - 2, -1, -1):
        row = " ".join(mark[by_pos[(x, y)]] for x in range(-1 - n, n))
        lines.append(f"{y:>3} | {row}")
    lines.append("      " + " ".join("-" for _ in range(-1 - n, n)))
    lines.append("      " + " ".join(f"{x}"[-1] for x in range(-1 - n, n)))
    lines.append(f"columns x = {-1-n}..{n-1}")
    return "\n".join(lines)


# --------------------------------------------------------------------- main


def _global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    # The flags are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS defaults so they never clobber values
    # given up front.
    d = argparse.SUPPRESS if suppress else None
    p.add_argument(
        "--format", choices=("text", "json"), default=d if suppress else "text"
    )
    p.add_argument(
        "--allow-large",
        action="store_true",
        default=d if suppress else False,
        help="lift the default N <= 15 cap and the Clebsch-Gordan term budget "
        "(dimensions grow combinatorially)",
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flipcheck")
    _global_flags(p, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    _global_flags(shared, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cohom", parents=[shared], help="H^bullet(Gr(2,N), -)")
    c.add_argument("--N", type=int, required=True, dest="n_amb")
    c.add_argument("expr")

    e = sub.add_parser("ext", parents=[shared], help="Ext groups on Gr, E, or X")
    e.add_argument("--N", type=int, required=True, dest="n_amb")
    e.add_argument("--space", choices=("gr", "e", "x"), required=True)
    e.add_argument("expr_a")
    e.add_argument("expr_b")

    v = sub.add_parser("verify", parents=[shared], help="run lemma suites")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--parity", choices=("odd", "even"), default="odd")
    v.add_argument("--lemma", choices=LEMMAS, default="all")

    b = sub.add_parser(
        "chessboard", parents=[shared], help="render the staircase chessboard"
    )
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--render", choices=("ascii", "json"), default="ascii")
    return p


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 3

    try:
        if args.command in ("cohom", "ext"):
            if args.n_amb < 3:
                print("need N >= 3", file=sys.stderr)
                return 3
            if args.n_amb > 15 and not args.allow_large:
                print("N > 15 needs --allow-large", file=sys.stderr)
                return 3
        if args.command == "cohom":
            obj = parse_object(args.expr)
            if _too_large(args, EObject.line(), obj, "gr"):
                return 3
            print(_render(e_ext(EObject.line(), _on_gr(obj), args.n_amb), "H"))
            return 0
        if args.command == "ext":
            a = parse_object(args.expr_a)
            b = parse_object(args.expr_b)
            if _too_large(args, a, b, args.space):
                return 3
            if args.space == "gr":
                print(_render(e_ext(_on_gr(a), _on_gr(b), args.n_amb)))
                return 0
            if args.space == "e":
                print(_render(e_ext(a, b, args.n_amb)))
                return 0
            r = x_ext(a, b, args.n_amb)
            if r.kind == "bounded":
                print("bounded (connecting maps unresolved):")
                print("  front:", _render(r.front).replace("\n", "; "))
                print("  back: ", _render(r.back).replace("\n", "; "))
                return 2
            print(_render(r.total()))
            return 0
        if args.command in ("verify", "chessboard"):
            if args.n < 2:
                print("need n >= 2", file=sys.stderr)
                return 3
            if 2 * args.n + 1 > 15 and not args.allow_large:
                print("n > 7 needs --allow-large", file=sys.stderr)
                return 3
        if args.command == "verify":
            report = verify_suite(args.n, args.parity, args.lemma)
            print(emit_report(report, args.format))
            return _exit_code(report)
        if args.command == "chessboard":
            print(render_chessboard(args.n, args.render))
            return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
