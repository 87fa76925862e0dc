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


# public methods that nothing outside the tests reads, each kept on purpose:
# from_physical is the one door from physical variables to WaveParams
KEPT_METHODS = {"operators.WaveParams.from_physical"}


def _public_methods(path):
    """Class.method for the public methods and properties of public classes."""
    return {f"{node.name}.{item.name}" for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def _src_modules():
    return sorted((ROOT / "src" / "capwave").glob("*.py"))


def _loaded_outside_the_tests():
    callers = _src_modules() + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    loaded = set().union(*map(_loaded_names, callers))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return loaded | {target.rpartition(":")[2] for target in scripts.values()}


def test_every_public_function_of_src_has_a_caller_outside_the_tests():
    # a command, the solver or the benchmark calls each one; a function that
    # only the tests call is a reference, and goes to tests/_oracles.py
    loaded = _loaded_outside_the_tests()
    unused = sorted(f"{path.stem}.{name}" for path in _src_modules()
                    for name in _public_functions(path) - loaded)
    assert not unused, f"public functions that nothing outside the tests calls: {unused}"


def test_every_public_method_of_src_has_a_reader_outside_the_tests():
    # the same rule for methods and properties, matched by name: a method
    # that only the tests read goes to tests/_oracles.py as a function
    loaded = _loaded_outside_the_tests()
    methods = {f"{path.stem}.{name}" for path in _src_modules() for name in _public_methods(path)}
    assert KEPT_METHODS <= methods
    unused = sorted(m for m in methods - KEPT_METHODS if m.rpartition(".")[2] not in loaded)
    assert not unused, f"public methods that nothing outside the tests reads: {unused}"


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


def test_src_size_totals_an_empty_package_as_zero(tmp_path):
    tool = _src_size()
    assert tool.table(tmp_path) == [("total", dict.fromkeys(tool.COLUMNS, 0))]
    assert tool.table(tmp_path, tool.api_count) == [("total", dict.fromkeys(tool.API_COLUMNS, 0))]


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


def test_src_size_counts_public_names_and_options():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "from typing import ClassVar\n"
              "def f(a, /, b=1, *args, c, **kw):\n"  # five parameters
              "    def inner(x): return x\n"  # nested: not public
              "    return inner\n"
              "async def g(): pass\n"
              "def _private(a): pass\n"
              "class _Hidden:\n"
              "    def method(self, a): pass\n"
              "@dataclass(frozen=True)\n"
              "class Record:\n"
              "    x: float\n"
              "    y: int = 0\n"
              "    kind: ClassVar[str] = 'r'\n"  # no field
              "    @property\n"
              "    def z(self): return self.x\n"
              "    @classmethod\n"
              "    def make(cls, v): return cls(v)\n"  # one parameter
              "    def _helper(self, a): pass\n"
              "@dataclasses.dataclass\n"
              "class Other:\n"
              "    w: list\n"
              "class Plain:\n"
              "    n: int = 0\n"  # not a dataclass: no field
              "    def __init__(self, a, b=None): pass\n"  # two parameters, no method
              "    def __repr__(self): return ''\n")
    assert _src_size().api_count(source) == {"functions": 2, "classes": 3, "methods": 2,
                                             "parameters": 8, "fields": 3}
