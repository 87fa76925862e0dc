"""Count the lines of capwave's source by kind, and its public names and
options, per module and in total.

    python3 tools/src_size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the `src/capwave` next to this script; a path that
is not a directory exits 1 with the usage line.  Each line of
a module is one of:
- docstring: a line of a module, class or function docstring;
- comment: a line that holds only a comment;
- blank: a line with no token, outside docstrings;
- code: any other line, a line with code and a trailing comment included.
A line of a string that is not a docstring is code.  The four columns add
up to the line count, so a change that deletes only comments or docstrings
shows as such.

A second table counts what a caller can name, from each module's top level:
- functions: public functions (a name without a leading underscore);
- classes: public classes;
- methods: public methods and properties of public classes;
- parameters: of the public functions and methods and of a public class's
  own __init__, without self and cls;
- fields: annotated fields of public dataclasses, ClassVar ones excepted.
A dataclass's constructor takes its fields, so they count once, as fields.
Standard library only; it reports and never fails on a count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("lines", "code", "docstring", "comment", "blank")
API_COLUMNS = ("functions", "classes", "methods", "parameters", "fields")


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


def _parameters(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    a = node.args
    names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if arg]
    return sum(name not in ("self", "cls") for name in names)


def _is_dataclass(node: ast.ClassDef) -> bool:
    names = (ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list)
    return any(name in ("dataclass", "dataclasses.dataclass") for name in names)


def api_count(source: str) -> dict[str, int]:
    """The public names and options of one module's source (API_COLUMNS)."""
    row = dict.fromkeys(API_COLUMNS, 0)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            row["functions"] += 1
            row["parameters"] += _parameters(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            row["classes"] += 1
            dataclass = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, functions) and (item.name == "__init__"
                                                    or not item.name.startswith("_")):
                    row["methods"] += item.name != "__init__"
                    row["parameters"] += _parameters(item)
                elif (dataclass and isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and "ClassVar" not in ast.unparse(item.annotation)):
                    row["fields"] += 1
    return row


def table(package: Path, counter=count) -> list[tuple[str, dict[str, int]]]:
    """(name, columns of `counter`) per module of the package in name order,
    then the total."""
    rows = [(path.name, counter(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]
    total = {c: sum(row[c] for _, row in rows) for c in counter("")}
    return rows + [("total", total)]


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv and not Path(argv[0]).is_dir():  # an all-zero table would look empty
        sys.stderr.write("usage: python3 tools/src_size.py [PACKAGE_DIR]\n")
        return 1
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "capwave"
    for counter, columns in ((count, COLUMNS), (api_count, API_COLUMNS)):
        rows = table(package, counter)
        width = max(len(name) for name, _ in rows)
        if counter is not count:
            print()
        widths = [max(10, len(c) + 1) for c in columns]
        print(f"{'module':<{width}}" + "".join(f"{c:>{w}}" for c, w in zip(columns, widths)))
        for name, row in rows:
            print(f"{name:<{width}}" + "".join(f"{row[c]:>{w}}" for c, w in zip(columns, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
