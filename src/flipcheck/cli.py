"""Command-line front end.

Object notation (pure ASCII)::

    expr  := term ("+" term)*
    term  := schur twist? shift?
    schur := "O" | "S{k}Uv" | "S{k}U" | "Sigma{a,b}Uv"
    twist := "(" [c"H"] [d"h"] ")"     at least one part, e.g. (1H-1h), (2H), (-1h)
    shift := "[" k "]"

H-twists are folded into the weight at lowering, so the canonical printed
form of a term is ``Sigma{a,b}Uv(dh)[s]``; parse(print(x)) == x.

Subcommands::

    flipcheck cohom --N 5 "S{2}Uv(1H)"
    flipcheck ext --N 5 --space e "S{1}Uv(1H-1h)" "S{2}Uv"
    flipcheck verify --n 3 --parity odd --lemma mut --format json
    flipcheck chessboard --n 4 --render ascii

Exit codes: 0 all pass, 1 any fail, 2 any indeterminate (none fail),
3 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .bwb import GradedDims, gr_ext, sum_cohomology
from .flagx import EObject, e_ext, x_ext
from .verify import LEMMAS, Claim, Report, verify_suite
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


def _parse_twist(text: str, base: int) -> tuple[int, int]:
    c = d = 0
    pos = 0
    for m in _TWIST_PART.finditer(text):
        if m.start() != pos:
            raise ParseError(f"bad twist {text!r}", base + pos)
        pos = m.end()
        coeff = m.group(1)
        value = int(coeff) if coeff not in ("", "+", "-") else (-1 if coeff == "-" else 1)
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
            k = int(m.group("k"))
            if k < 0:
                raise ParseError(f"negative symmetric power S{{{k}}}", pos)
            a, b = (k, 0) if m.group("uv") == "Uv" else (0, -k)
        else:
            a, b = int(m.group("a")), int(m.group("b"))
            if a < b:
                raise ParseError(f"weight violation: ({a},{b}) needs a >= b", pos)
        c = d = 0
        if m.group("twist") is not None:
            c, d = _parse_twist(m.group("twist"), pos)
        shift = int(m.group("shift")) if m.group("shift") else 0
        terms.append((Weight(a + c, b + c), d, shift, 1))
        pos = m.end()
        if pos == len(src):
            break
        if src[pos] != "+":
            raise ParseError("expected '+' between terms", pos)
        pos += 1
    return EObject.of(terms)


def print_object(obj: EObject) -> str:
    """Canonical form; parse(print_object(x)) == x."""
    parts = []
    for w, dh, s, m in obj:
        t = f"Sigma{{{w.a},{w.b}}}Uv"
        if dh:
            t += f"({dh}h)"
        if s:
            t += f"[{s}]"
        parts.extend([t] * m)
    return "+".join(parts) if parts else "0"


def _on_gr(obj: EObject) -> EObject:
    if any(dh for _, dh, _, _ in obj):
        raise ParseError("object has h-twists; not a Gr(2,N) object", 0)
    return obj


def _render_dims(g: GradedDims) -> str:
    if not g:
        return "0"
    return "\n".join(f"Ext^{d} = {v}" for d, v in g.dims)


def _render_cohom(g: GradedDims) -> str:
    if not g:
        return "0"
    return "\n".join(f"H^{d} = {v}" for d, v in g.dims)


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


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True)
    lines = []
    for c in report.claims:
        lines.append(f"{c.status.upper():<15} {c.id}  --  {c.statement}")
    s = report.summary()
    lines.append(
        f"summary: {s['pass']} pass, {s['fail']} fail, "
        f"{s['indeterminate']} indeterminate, {s['skipped']} skipped"
    )
    return "\n".join(lines)


def parse_report(text: str) -> Report:
    """Inverse of the JSON emission (round-trip helper)."""
    data = json.loads(text)
    n_amb = data["run"]["N"]
    parity = data["run"]["parity"]
    report = Report(n_amb // 2, parity)
    for c in data["claims"]:
        report.claims.append(
            Claim(c["id"], c["statement"], c["status"], c.get("detail"))
        )
    return report


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
    stair = set()
    for j in range(n - 1):
        for x in range(n - 1 - 2 * j, n):
            stair.add((x, n + j))
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
        "--jobs",
        type=int,
        default=d if suppress else 1,
        help="accepted for compatibility; claims run in order, so it has no effect",
    )
    p.add_argument(
        "--allow-large",
        action="store_true",
        default=d if suppress else False,
        help="lift the default N <= 15 cap (dimensions grow combinatorially)",
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
            print(_render_cohom(sum_cohomology(_on_gr(obj), args.n_amb)))
            return 0
        if args.command == "ext":
            a = parse_object(args.expr_a)
            b = parse_object(args.expr_b)
            if args.space == "gr":
                print(_render_dims(gr_ext(_on_gr(a), _on_gr(b), args.n_amb)))
                return 0
            if args.space == "e":
                print(_render_dims(e_ext(a, b, args.n_amb)))
                return 0
            r = x_ext(a, b, args.n_amb)
            if r.kind == "bounded":
                print("bounded (connecting maps unresolved):")
                print("  front:", _render_dims(r.front).replace("\n", "; "))
                print("  back: ", _render_dims(r.back).replace("\n", "; "))
                return 2
            print(_render_dims(r.total()))
            return 0
        if args.command == "verify":
            if args.n < 2:
                print("need n >= 2", file=sys.stderr)
                return 3
            if args.jobs < 1:
                print("need --jobs >= 1", file=sys.stderr)
                return 3
            if 2 * args.n + 1 > 15 and not args.allow_large:
                print("n > 7 needs --allow-large", file=sys.stderr)
                return 3
            report = verify_suite(args.n, args.parity, args.lemma)
            print(emit_report(report, args.format))
            return _exit_code(report)
        if args.command == "chessboard":
            if args.n < 2:
                print("need n >= 2", file=sys.stderr)
                return 3
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
