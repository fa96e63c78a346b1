"""Count the code lines of the Python files under a directory.

A code line holds at least one token that is not a comment, and is not part
of a docstring (the leading string of a module, class or function).  Blank
lines, comment lines and docstrings are left out.  Stdlib only.

    python3 scripts/count_lines.py [DIR]    # DIR defaults to src/

Prints one line per file, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path: Path) -> int:
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = count_file(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
