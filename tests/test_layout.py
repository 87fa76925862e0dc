import ast
import importlib.util
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _public_functions(path):
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _loaded_names(path):
    """Every name read in the file, as a bare name or as an attribute; an
    import alone reads nothing."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_function_of_src_has_a_caller_outside_the_tests():
    # a command, the solver or the benchmark calls each one; a function that
    # only the tests call is a reference, and goes to tests/_oracles.py
    modules = sorted((ROOT / "src" / "capwave").glob("*.py"))
    callers = modules + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    loaded = set().union(*map(_loaded_names, callers))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    loaded |= {target.rpartition(":")[2] for target in scripts.values()}
    unused = sorted(f"{path.stem}.{name}" for path in modules
                    for name in _public_functions(path) - loaded)
    assert not unused, f"public functions that nothing outside the tests calls: {unused}"


def _src_size():
    spec = importlib.util.spec_from_file_location("src_size", ROOT / "tools" / "src_size.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_src_size_columns_add_up_to_each_modules_line_count():
    modules = sorted((ROOT / "src" / "capwave").glob("*.py"))
    rows = _src_size().table(ROOT / "src" / "capwave")
    assert [name for name, _ in rows] == [p.name for p in modules] + ["total"]
    for name, row in rows:
        assert row["code"] + row["docstring"] + row["comment"] + row["blank"] == row["lines"], name
    assert rows[-1][1]["lines"] == sum(len(p.read_text().splitlines()) for p in modules)


def test_src_size_sorts_each_line_by_kind():
    source = ('"""Module.\n\nDocstring."""\n'  # three docstring lines, one of them blank
              "\n"
              "# a comment\n"
              "def f():\n"
              '    """One line."""\n'
              "    x = 1  # code with a comment\n"
              '    s = """a\n\nstring"""\n'  # a string that is no docstring is code
              "    return x, s\n")
    assert _src_size().count(source) == {"lines": 12, "code": 6, "docstring": 4,
                                         "comment": 1, "blank": 1}
