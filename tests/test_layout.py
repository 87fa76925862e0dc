import ast
import importlib.util
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _src_size():
    spec = importlib.util.spec_from_file_location("src_size", ROOT / "tools" / "src_size.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _src_modules():
    return sorted((ROOT / "src" / "capwave").glob("*.py"))


def _src_names(column):
    """module.name per public name of `column` in src/capwave, from
    tools/src_size.py's lists, so the rules below check what its table counts."""
    public_names = _src_size().public_names
    return {f"{path.stem}.{name}" for path in _src_modules()
            for name in public_names(path.read_text())[column]}


def _read_attributes(path):
    """Every name read as an attribute, x.name, in the file; a bare name is
    not one."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _loaded_names(path):
    """Every name read in the file, as a bare name or as an attribute; an
    import alone reads nothing."""
    return _read_attributes(path) | {node.id for node in ast.walk(ast.parse(path.read_text()))
                                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _callers():
    """The code outside the tests: src/, bench/ and tools/."""
    return _src_modules() + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def _script_targets():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return {target.rpartition(":")[2] for target in scripts.values()}


def test_every_public_function_of_src_has_a_caller_outside_the_tests():
    # a command, the solver or the benchmark calls each one; a function that
    # only the tests call is a reference, and goes to tests/_oracles.py
    loaded = set().union(*map(_loaded_names, _callers())) | _script_targets()
    unused = sorted(f for f in _src_names("functions") if f.partition(".")[2] not in loaded)
    assert not unused, f"public functions that nothing outside the tests calls: {unused}"


# public methods that nothing outside the tests reads, each kept on purpose:
# from_physical is the one door from physical variables to WaveParams, and m
# the mass-flux readout that replaced physical_params, the inverse of
# from_physical(k, m=...), which acceptance criterion 9 reads
KEPT_METHODS = {"operators.WaveParams.from_physical", "operators.WaveParams.m"}


def test_every_public_method_of_src_has_a_reader_outside_the_tests():
    # the same rule for methods and properties, read where code outside the
    # tests takes them as an attribute, x.name, as fields are: a local variable
    # of the same name reads nothing.  A method that only the tests read goes
    # to tests/_oracles.py as a function
    read = set().union(*map(_read_attributes, _callers())) | _script_targets()
    methods = _src_names("methods")
    assert KEPT_METHODS <= methods
    unused = sorted(m for m in methods - KEPT_METHODS if m.rpartition(".")[2] not in read)
    assert not unused, f"public methods that nothing outside the tests reads: {unused}"


# dataclass fields that nothing outside the tests reads, each kept on purpose:
# residual_history becomes a view of the solver's per-iteration record
KEPT_FIELDS = {"continuation.WaveSolution.residual_history"}


def test_every_public_dataclass_field_of_src_is_read_outside_the_tests():
    # a field is read where code outside the tests takes it as an attribute;
    # a local variable of the same name reads nothing
    read = set().union(*map(_read_attributes, _callers()))
    fields = _src_names("fields")
    assert KEPT_FIELDS <= fields
    unused = sorted(f for f in fields - KEPT_FIELDS if f.rpartition(".")[2] not in read)
    assert not unused, f"public dataclass fields that nothing outside the tests reads: {unused}"


def test_the_rules_check_each_name_the_size_table_counts():
    # the three rules above check sets of module.name; a name that a module
    # defines twice would count twice in the table and be checked once
    total = _src_size().table(ROOT / "src" / "capwave", _src_size().api_count)[-1][1]
    for column in ("functions", "methods", "fields"):
        assert len(_src_names(column)) == total[column], column


def test_src_size_columns_add_up_to_each_modules_line_count():
    modules = _src_modules()
    rows = _src_size().table(ROOT / "src" / "capwave")
    assert [name for name, _ in rows] == [p.name for p in modules] + ["total"]
    for name, row in rows:
        assert row["code"] + row["docstring"] + row["comment"] + row["blank"] == row["lines"], name
    assert rows[-1][1]["lines"] == sum(len(p.read_text().splitlines()) for p in modules)


def test_src_size_totals_an_empty_package_as_zero(tmp_path):
    tool = _src_size()
    assert tool.table(tmp_path) == [("total", dict.fromkeys(tool.COLUMNS, 0))]
    assert tool.table(tmp_path, tool.api_count) == [("total", dict.fromkeys(tool.API_COLUMNS, 0))]


def test_src_size_refuses_a_path_that_is_not_a_directory(tmp_path):
    # an all-zero table would read as an empty package; `--help` is no path
    for argv in (["--help"], [str(tmp_path / "missing")], [str(tmp_path), str(tmp_path)]):
        proc = subprocess.run([sys.executable, str(ROOT / "tools" / "src_size.py"), *argv],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "usage: python3 tools/src_size.py [PACKAGE_DIR]\n"
    assert list(tmp_path.iterdir()) == []


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
              "    def __repr__(self): return ''\n"
              "@dataclass_like\n"  # neither: no field
              "class Lookalike:\n"
              "    v: int\n")
    tool = _src_size()
    assert tool.public_names(source) == {
        "functions": ["f", "g"], "classes": ["Record", "Other", "Plain", "Lookalike"],
        "methods": ["Record.z", "Record.make"],
        "parameters": ["f.a", "f.b", "f.c", "f.args", "f.kw", "Record.make.v", "Plain.a", "Plain.b"],
        "fields": ["Record.x", "Record.y", "Other.w"]}
    assert tool.api_count(source) == {"functions": 2, "classes": 4, "methods": 2,
                                      "parameters": 8, "fields": 3}
