"""Count the lines of capwave's source by kind, per module and in total.

    python3 tools/src_size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the `src/capwave` next to this script.  Each line of
a module is one of:
- docstring: a line of a module, class or function docstring;
- comment: a line that holds only a comment;
- blank: a line with no token, outside docstrings;
- code: any other line, a line with code and a trailing comment included.
A line of a string that is not a docstring is code.  The four columns add
up to the line count, so a change that deletes only comments or docstrings
shows as such.  Standard library only; it reports and never fails on a
count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("lines", "code", "docstring", "comment", "blank")


def docstring_lines(source: str) -> set[int]:
    """The 1-based lines spanned by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The columns of one module's source."""
    n = len(source.splitlines())
    docs = docstring_lines(source)
    code, comments = set(), set()
    skip = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= docs | code
    return {"lines": n, "code": len(code), "docstring": len(docs),
            "comment": len(comments), "blank": n - len(code | docs | comments)}


def table(package: Path) -> list[tuple[str, dict[str, int]]]:
    """(name, columns) per module of the package in name order, then the total."""
    rows = [(path.name, count(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]
    total = {c: sum(row[c] for _, row in rows) for c in COLUMNS}
    return rows + [("total", total)]


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "capwave"
    rows = table(package)
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, row in rows:
        print(f"{name:<{width}}" + "".join(f"{row[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
