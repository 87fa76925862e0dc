import ast
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
