import csv
import ctypes
import dataclasses
import errno
import importlib.util
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from capwave import cli, continuation, crapper, serialization
from capwave.cli import main
from capwave.continuation import newton_solve
from capwave.operators import WaveParams, residual_fd, residual_inf
from capwave.serialization import (
    BRANCH_CSV_COLUMNS,
    branch_from_dict,
    branch_to_dict,
    dumps_fixed,
    format_float,
    solution_from_dict,
    solution_to_dict,
)
from capwave.spectral import PeriodicFunction, grid

from _oracles import bernoulli_spread, flat_water_alpha, longdouble_samples, walk_steps
from test_continuation import LONGDOUBLE_BERNOULLI_TOL


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -- serialization building blocks ------------------------------------------------


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0
    assert format_float(math.inf) == "null"
    assert format_float(math.nan) == "null"
    # a negative zero reads back with its sign (JSON reads "-0" as the integer 0)
    assert format_float(-0.0) == "-0.0" and format_float(0.0) == "0"
    assert math.copysign(1.0, json.loads(dumps_fixed([-0.0]))[0]) == -1.0


def test_dumps_fixed_deterministic_and_ordered():
    obj = {"b": 1.5, "a": [1, 2.0, True, None], "nested": {"x": "s"}}
    one = dumps_fixed(obj)
    two = dumps_fixed(obj)
    assert one == two
    assert one.index('"b"') < one.index('"a"')  # insertion order kept
    parsed = json.loads(one)
    assert parsed["b"] == 1.5 and parsed["a"][3] is None


@pytest.mark.parametrize("obj, text", [
    ({}, "{}"),
    ([], "[]"),
    ({"a": []}, '{\n  "a": []\n}'),
    ([[], 1], "[\n  [],\n  1\n]"),
    ({"a": {}}, '{\n  "a": {}\n}'),
])
def test_dumps_fixed_empty_containers(obj, text):
    assert dumps_fixed(obj) == text and json.loads(text) == obj


def test_solution_round_trip():
    w = crapper.crapper_wave(0.3, 256)
    params = WaveParams(alpha=0.0, beta=crapper.beta_of(0.3))
    sol = newton_solve(params, w, M=32)
    d = solution_to_dict(sol)
    assert d["format_version"] == 1
    assert list(d["params"]) == ["alpha", "beta", "gamma", "h", "g", "sigma"]
    assert d["params"]["h"] is None  # infinite depth
    back = solution_from_dict(json.loads(dumps_fixed(d)))
    assert np.max(np.abs(back.w.cosine_coefficients(32) -
                         sol.w.cosine_coefficients(32))) == 0.0
    assert back.params.beta == sol.params.beta
    assert back.depth.is_infinite
    with pytest.raises(ValueError):
        solution_from_dict({"format_version": 99})


@pytest.mark.parametrize("depth", [[], ["--h", "2.5", "--gamma", "0.7"]])
def test_a_solution_report_is_written_as_built_and_read_as_written(depth):
    # deep water and finite-depth vorticity: the solution file keeps the
    # solve's report after its three scalars, in the report's order
    beta = crapper.beta_of(0.3)
    h = float(depth[1]) if depth else math.inf
    branch = continuation.continue_branch(0.3, [(0.0, beta), (0.01, beta)], M=32,
                                          h=h, gamma=0.7 if depth else 0.0,
                                          g=1.0, sigma=1.0)
    for sol in branch.solutions:
        diag = json.loads(dumps_fixed(solution_to_dict(sol)))["diagnostics"]
        assert list(diag)[:3] == ["b_or_qhat", "newton_iters", "sigma_min"]
        assert list(sol.geometry) == list(diag)[3:] == ["steepness", "injective",
                                                        "above_bed", "crossing_count"]
        assert solution_from_dict(solution_to_dict(sol)).geometry == sol.geometry


# -- verify ------------------------------------------------------------------------


def test_verify_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--A", "0.5", "--grid", "512", "--out", str(out)])
    assert code == 0
    report = json.loads(_read(out))
    assert report["passed"] is True
    assert report["checks"]["residual_inf_norm"]["value"] < 1e-9
    assert report["checks"]["identity_residual"]["value"] < 1e-12
    capsys.readouterr()


def test_verify_flat_water_trivial_pass(capsys):
    assert main(["verify", "--A", "0"]) == 0
    capsys.readouterr()


def test_verify_rejects_out_of_range(capsys):
    assert main(["verify", "--A", "1.2"]) == 1
    assert main(["verify", "--A", "-3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("A, grid, message", [
    # crapper_theta sees the jump in the closed-form angle first
    ("0.9", "8", "branch jump detected in the tangent angle"),
    ("0.9", "16", "branch jump detected in the tangent angle"),
    ("0.9", "32", "branch jump detected in the tangent angle"),
    ("0.99", "8", "branch jump detected in the tangent angle"),
    # the closed form passes, and theta_of of the sampled profile jumps
    ("0.5", "8", "tangent angle leaves the principal branch"),
])
def test_verify_rejects_a_tangent_angle_off_the_principal_branch(tmp_path, capsys, A, grid,
                                                                  message):
    out = tmp_path / "verify.json"
    assert main(["verify", "--A", A, "--grid", grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"capwave: {message}\n"
    assert not out.exists()


def test_verify_and_limit_check_size_their_grid_from_A(tmp_path, capsys):
    # on 512 points the tangent angle of A = 0.95 leaves its principal branch;
    # unset, --grid is min_grid(0.95) = 2048, where every check passes
    out = tmp_path / "verify.json"
    assert main(["verify", "--A", "0.95", "--grid", "512", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "capwave: tangent angle leaves the principal branch\n"
    assert main(["verify", "--A", "0.95", "--out", str(out)]) == 0
    report = json.loads(_read(out))
    assert report["n_grid"] == 2048 and report["passed"] is True
    assert main(["limit-check", "--A", "0.95", "--out", str(out)]) == 0
    assert json.loads(_read(out))["n_grid"] == 2048
    for command in ("verify", "limit-check"):  # the default A = 0.5 keeps 512
        assert main([command, "--out", str(out)]) == 0
        assert json.loads(_read(out))["n_grid"] == 512
    capsys.readouterr()


@pytest.mark.parametrize("A, n, tolerance", [("0.9", 1024, 1.04e-7), ("-0.9", 1024, 1.04e-7),
                                              ("0.95", 2048, 7.81e-6), ("-0.95", 2048, 7.81e-6)])
def test_verify_passes_steep_exact_waves_and_fails_a_damaged_one(tmp_path, capsys, monkeypatch,
                                                                   A, n, tolerance):
    # the residual of the exact wave grows like eps * minW^(-3/2): 2.5e-9 and
    # 1.0e-9 at +-0.9, 2.2e-7 and 3.5e-7 at +-0.95, above its 1e-9 floor
    out = tmp_path / "verify.json"
    assert main(["verify", "--A", A, "--out", str(out)]) == 0
    report = json.loads(_read(out))
    assert report["n_grid"] == n and report["passed"] is True
    check = report["checks"]["residual_inf_norm"]
    assert check["tolerance"] == pytest.approx(tolerance, rel=1e-2)
    assert check["value"] < 0.1 * check["tolerance"]
    # delta * cos 3t with delta = 1e-8 leaves a residual of 1.4e-2 at +-0.9
    # and 0.6 at +-0.95, 1.4e5 and 7.6e4 times the tolerance
    exact, delta = crapper.crapper_wave, 1e-8
    monkeypatch.setattr(crapper, "crapper_wave", lambda A, n: exact(A, n) + delta
                        * PeriodicFunction.from_cosine_series(np.array([0.0, 0.0, 1.0]), n))
    assert main(["verify", "--A", A, "--out", str(out)]) == 2
    damaged = json.loads(_read(out))["checks"]["residual_inf_norm"]
    assert damaged["tolerance"] == check["tolerance"] and not damaged["pass"]
    assert damaged["value"] >= 10.0 * damaged["tolerance"]
    capsys.readouterr()


@pytest.mark.parametrize("A", ["0.99", "-0.99"])
def test_verify_keeps_the_tolerances_of_0_95_past_their_fit(tmp_path, capsys, A):
    # the laws are fitted up to |A| = 0.95; at the cap the exact wave's
    # residual (0.107 and 0.059 on 8192 points) is not resolved in double
    # precision, and verify says so instead of following minW^(-3/2) to 0.138
    out = tmp_path / "verify.json"
    assert main(["verify", "--A", "0.95", "--out", str(out)]) == 0
    fitted = json.loads(_read(out))["checks"]
    assert main(["verify", "--A", A, "--out", str(out)]) == 2
    report = json.loads(_read(out))
    assert report["n_grid"] == 8192 and report["passed"] is False
    for name, check in report["checks"].items():
        if name != "residual_G_norm":  # its law also grows with n, 2048 -> 8192
            assert check["tolerance"] == fitted[name]["tolerance"], name
    check = report["checks"]["residual_inf_norm"]
    assert check["value"] >= 1e3 * check["tolerance"] and not check["pass"]
    capsys.readouterr()


def test_verify_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--A", "0.3", "--out", str(a)]) == 0
    assert main(["verify", "--A", "0.3", "--out", str(b)]) == 0
    assert _read(a) == _read(b)
    capsys.readouterr()


def _cli_outputs_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
    spec = importlib.util.spec_from_file_location("cli_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def output_set(tmp_path_factory):
    """The directory that tools/cli_outputs.py filled once for this module."""
    outdir = tmp_path_factory.mktemp("outputs") / "first"
    _cli_outputs_tool().write_outputs(outdir)
    return outdir


def _files(outdir):
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def test_cli_output_set_is_byte_identical_across_runs(output_set, tmp_path):
    # tools/cli_outputs.py writes the byte-identity set of every command
    # (continue, spectrum, verify, limit-check, profile and sixteen failures)
    _cli_outputs_tool().write_outputs(tmp_path / "second")
    runs = [_files(output_set), _files(tmp_path / "second")]
    assert len(runs[0]) == 155  # 142 entries, eight of them directories of step SVGs
    assert runs[0] == runs[1]


# the branches of the output set that exit 0 at the default tol; steep_-0.8
# is solved to 1e-9 (its spread reads 6.5e-7) and sheet_2d exits 3 at the
# mode tail of its 32 modes (up to 5.8e-10)
_SOLVED_BRANCHES = ("deep_0.3", "deep_0.5", "deep_-0.47", "vortical", "vortical_shallow")


def test_every_point_the_output_set_writes_keeps_bernoulli_law_in_long_double(output_set):
    # each point read back from its branch file, on long-double samples of
    # its cosine modes: 1.4e-14 to 3.2e-12 clean, 1.7e-6 or more with 1e-8
    # cos 3t added to w
    assert np.finfo(np.longdouble).eps < 1e-18  # else this tests nothing
    modes = []
    for name in _SOLVED_BRANCHES:
        assert _read(output_set / f"{name}.exit") == "0\n"
        branch = branch_from_dict(json.loads(_read(output_set / f"{name}.json")))
        for sol in branch.solutions:
            modes.append(sol.modes)
            fine = longdouble_samples(sol.w.cosine_coefficients(sol.modes), sol.w.n_grid)[0]
            damage = 1e-8 * np.cos(3.0 * grid(sol.w.n_grid))
            assert bernoulli_spread(sol.params, fine) < LONGDOUBLE_BERNOULLI_TOL, name
            assert bernoulli_spread(sol.params, fine + damage) > 100.0 * LONGDOUBLE_BERNOULLI_TOL
    assert len(modes) == 10 and (min(modes), max(modes)) == (48, 128)


@pytest.mark.parametrize("tool", ["cli_outputs.py", "failure_census.py"])
def test_an_output_tool_refuses_an_option_for_its_outdir_and_writes_nothing(tmp_path, tool):
    # `--help` is no directory to fill: the usage line, exit 1, no file
    path = Path(__file__).resolve().parents[1] / "tools" / tool
    proc = subprocess.run([sys.executable, str(path), "--help"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"usage: python3 tools/{tool} OUTDIR\n"
    assert list(tmp_path.iterdir()) == []


def _census_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "failure_census.py"
    spec = importlib.util.spec_from_file_location("failure_census", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_failure_census_table_is_byte_identical_across_runs(tmp_path):
    # tools/failure_census.py on two of its rows: a walk that reaches its
    # target, and a long step whose halvings end at the rounding floor
    tool = _census_tool()
    rows = [tool.FLAT_WATER[1], tool.WALK_ENDS[1]]
    tables = []
    for name in ("first", "second"):
        tool.write_census(tmp_path / name, rows)
        tables.append((tmp_path / name / "census.tsv").read_bytes())
    assert tables[0] == tables[1]
    assert [line.split(b"\t")[:4] for line in tables[0].splitlines()] == [
        [b"exit", b"cause", b"accepted", b"attempts"], [b"0", b"-", b"3", b"3"],
        [b"3", b"rounding floor", b"3", b"10"]]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["census.tsv"] * 2 + [
        "first", "second"]


def test_a_start_off_crappers_family_exits_3_writes_nothing_and_has_a_census_cause(
        tmp_path, capsys, monkeypatch):
    solve = continuation.newton_solve

    def off_family(params, w0, **kwargs):  # 1e-3 more on cos 3t than the solve gives
        sol = solve(params, w0, **kwargs)
        bump = PeriodicFunction.from_cosine_series([0.0, 0.0, 1e-3], sol.w.n_grid)
        return dataclasses.replace(sol, w=sol.w + bump)

    monkeypatch.setattr(continuation, "newton_solve", off_family)
    monkeypatch.chdir(tmp_path)
    argv = ["continue", "--A", "0.3", "--M", "32", "--alpha-max", "0.01", "--steps", "1",
            "--g", "1", "--sigma", "1"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "capwave: start converged off Crapper's family: "
                                       "distance 1.000e-03 from A = 0.3, not below 1e-06\n")
    assert list(tmp_path.iterdir()) == []
    line = _census_tool().census_line(argv)
    assert line.split("\t")[:4] == ["3", "off Crapper's family", "-", "-"]


def test_a_deep_start_that_lands_on_flat_water_exits_3_writes_nothing_and_has_a_census_cause(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["continue", "--A", "0.3", "--alpha-start", "-0.3", "--alpha-max", "-0.3",
            "--steps", "0", "--M", "64", "--g", "1", "--sigma", "1"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("capwave: start converged onto flat water, steepness ")
    assert err.endswith(" x Crapper's wave's\n")
    assert list(tmp_path.iterdir()) == []
    line = _census_tool().census_line(argv)
    assert line.split("\t")[:4] == ["3", "converged onto flat water", "-", "-"]


@pytest.mark.parametrize("gamma", ["4", "5"])
def test_a_vortical_sheet_reaches_a_target_short_of_its_flat_water_root_and_no_further(
        tmp_path, capsys, monkeypatch, gamma):
    # the roots are 0.0222 at gamma 4 and 0.01587 at gamma 5: one each side
    monkeypatch.chdir(tmp_path)
    alpha_max = 0.02
    root = flat_water_alpha(crapper.beta_of(0.3), 1.0, float(gamma))
    code = main(["continue", "--A", "0.3", "--h", "1", "--gamma", gamma,
                 "--alpha-max", str(alpha_max), "--steps", "2", "--M", "32",
                 "--g", "1", "--sigma", "1"])
    err = capsys.readouterr().err
    branch = json.loads(_read(tmp_path / "branch.json"))
    alphas = [s["params"]["alpha"] for s in branch["solutions"]]
    assert (tmp_path / "branch.csv").exists()
    if root > alpha_max:
        assert (code, err, alphas[-1]) == (0, "", alpha_max)
    else:  # the partial branch stops short of the root
        assert code == 3 and "flat water" in err
        assert alphas[-1] < root


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"A": 0.4, "grid": 256}))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(_read(out))["A"] == 0.4
    # explicit flag beats the config value
    assert main(["verify", "--config", str(cfg), "--A", "0.2", "--out", str(out)]) == 0
    assert json.loads(_read(out))["A"] == 0.2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_flag": 1}))
    assert main(["verify", "--config", str(bad)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("cfg", [{"steps": "x"}, {"steps": 1.5}, {"A": True},
                                 {"alpha_max": [0.1]}, {"out_json": 5}, {"config": {}}])
def test_config_values_must_fit_their_flags(tmp_path, capsys, monkeypatch, cfg):
    monkeypatch.setattr(cli, "continue_branch", _must_not_run)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["continue", "--config", str(path), "--M", "16"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs a" in err
    # an integer is a fine value for a float flag
    path.write_text(json.dumps({"A": 0, "grid": 64}))
    assert main(["verify", "--config", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("cfg, message", [
    ({"M": 1.5}, "config key 'M' needs an integer, got 1.5"),
    ({"steps": "x"}, "config key 'steps' needs an integer, got 'x'"),
    ({"A": True}, "config key 'A' needs a number, got True"),
    ({"alpha-max": [0.1]}, "config key 'alpha-max' needs a number, got [0.1]"),
    ({"out_json": 5}, "config key 'out_json' needs a string, got 5"),
])
def test_a_config_value_of_the_wrong_type_names_the_json_type(tmp_path, capsys, monkeypatch,
                                                              cfg, message):
    monkeypatch.setattr(cli, "continue_branch", _must_not_run)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["continue", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"capwave: {message}\n"


def _must_not_run(*args, **kwargs):
    raise AssertionError("solved although the command had to stop first")


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config"),  # no such file
    ("{\"A\": 0.4", "cannot read config"),
    ("[0.4]", "config file must hold a JSON object"),
    ("null", "config file must hold a JSON object"),
])
def test_a_config_file_that_is_unreadable_or_not_an_object_is_a_usage_error(
        tmp_path, capsys, monkeypatch, content, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "continue_branch", _must_not_run)
    if content is not None:
        (tmp_path / "cfg.json").write_text(content)
    assert main(["continue", "--config", "cfg.json", "--M", "16"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if content is None else ["cfg.json"])


# -- spectrum ----------------------------------------------------------------------


def test_spectrum_with_kernel_row(tmp_path, capsys):
    jsn = tmp_path / "spec.json"
    csv = tmp_path / "spec.csv"
    code = main(["spectrum", "--A-values", "0,0.3,0.5", "--M", "24",
                 "--out-json", str(jsn), "--out-csv", str(csv)])
    assert code == 0
    report = json.loads(_read(jsn))
    rows = {round(r["A"], 3): r for r in report["rows"]}
    assert rows[0.0]["verdict"] == "kernel_found"
    assert rows[0.0]["kernel"] == "sin t"
    assert rows[0.0]["sigma_min"] < 1e-10
    assert rows[0.3]["verdict"] == "injective"
    assert rows[0.3]["fd_mismatch"] < 1e-4
    lines = _read(csv).strip().splitlines()
    assert lines[0].startswith("A,sigma_min,verdict,kernel,fd_mismatch")
    assert len(lines) == 4
    capsys.readouterr()


# -- continue / profile -------------------------------------------------------------


def test_continue_writes_branch_files(tmp_path, capsys):
    jsn = tmp_path / "branch.json"
    csv = tmp_path / "branch.csv"
    svg_dir = tmp_path / "svg"
    code = main(["continue", "--A", "0.3", "--alpha-max", "0.02", "--steps", "4",
                 "--M", "32", "--g", "1", "--sigma", "1",
                 "--out-json", str(jsn), "--out-csv", str(csv),
                 "--svg-dir", str(svg_dir)])
    assert code == 0
    branch = json.loads(_read(jsn))
    assert len(branch["solutions"]) == 5
    assert all(e["accepted"] for e in branch["step_history"])
    lines = _read(csv).strip().splitlines()
    assert lines[0] == ",".join(BRANCH_CSV_COLUMNS)
    assert len(lines) == 6
    svgs = sorted(svg_dir.iterdir())
    assert len(svgs) == 5
    assert "<polyline" in _read(svgs[0])
    capsys.readouterr()


def test_continue_builds_each_svg_after_the_files_before_it(tmp_path, capsys, monkeypatch):
    # one SVG is built at a time, once the branch JSON, the CSV and every
    # earlier SVG are on disk: a long branch never holds all its SVGs at once
    monkeypatch.chdir(tmp_path)
    render, on_disk = cli._solution_svg, []

    def recording(sol, *args):
        on_disk.append((sorted(p.name for p in tmp_path.glob("svg/step_*.svg")),
                        (tmp_path / "b.json").is_file(), (tmp_path / "b.csv").is_file()))
        return render(sol, *args)

    monkeypatch.setattr(cli, "_solution_svg", recording)
    assert main(["continue", "--A", "0.3", "--alpha-max", "0.02", "--steps", "3", "--M", "16",
                 "--g", "1", "--sigma", "1", "--out-json", "b.json", "--out-csv", "b.csv",
                 "--svg-dir", "svg"]) == 0
    assert on_disk == [([f"step_{j:04d}.svg" for j in range(i)], True, True) for i in range(4)]
    capsys.readouterr()


def test_continue_svgs_mark_the_crossings_the_branch_counts(tmp_path, capsys):
    # the SVG of a point marks as many crossings as its solve counted
    jsn, svg_dir = tmp_path / "branch.json", tmp_path / "svg"
    assert main(["continue", "--A", "0.5", "--alpha-max", "0.02", "--steps", "4",
                 "--out-json", str(jsn), "--out-csv", str(tmp_path / "branch.csv"),
                 "--svg-dir", str(svg_dir)]) == 0
    counts = [s["diagnostics"]["crossing_count"] for s in json.loads(_read(jsn))["solutions"]]
    assert [_read(p).count("<circle") for p in sorted(svg_dir.iterdir())] == counts == [2] * 5
    capsys.readouterr()


def test_profile_svg_points_keep_six_decimals_and_nan():
    # one pair per point, "x,y" with six decimals; a nan height draws "nan"
    x = np.linspace(-1.0, 1.0, 5)
    svg = serialization.profile_svg_text(x, np.array([0.0, 0.1, np.nan, -0.1, 0.0]), [])
    assert ('<polyline points="0.050000,nan 0.275000,nan 0.500000,nan 0.725000,nan '
            '0.950000,nan" ') in svg
    svg = serialization.profile_svg_text(np.arange(4.0), np.array([0.0, 1e-7, -1e-7, 0.0]),
                                         [[1.5, 0.0]])
    assert ('<polyline points="0.050000,0.500000 0.350000,0.500000 0.650000,0.500000 '
            '0.950000,0.500000" ') in svg
    assert '<circle cx="0.500000" cy="0.500000" ' in svg


@pytest.mark.parametrize("A", ["0.75", "-0.75", "0.8", "-0.8"])
def test_steep_starts_converge_at_the_defaults(tmp_path, capsys, A):
    # M is sized against the default tolerance, so the family tail it leaves
    # does not stall the line search (M = 136 at |A| = 0.75, 184 at 0.8)
    jsn = tmp_path / "branch.json"
    code = main(["continue", "--A", A, "--steps", "0", "--g", "1", "--sigma", "1",
                 "--out-json", str(jsn), "--out-csv", str(tmp_path / "branch.csv")])
    assert code == 0, capsys.readouterr().err
    sol = json.loads(_read(jsn))["solutions"][0]
    assert len(sol["cosine_coeffs"]) == (136 if abs(float(A)) == 0.75 else 184)
    assert sol["residual_norm"] < continuation.DEFAULT_TOL
    capsys.readouterr()


def test_continue_rejects_A_zero(capsys):
    assert main(["continue", "--A", "0"]) == 1
    capsys.readouterr()


def test_continue_rejects_infinite_h(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "continue_branch", _must_not_run)
    assert main(["continue", "--h", "inf", "--out-json", str(tmp_path / "b.json"),
                 "--out-csv", str(tmp_path / "b.csv")]) == 1
    assert "--h must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("gamma", ["1", "0"])
@pytest.mark.parametrize("h", ["inf", "-inf"])
def test_limit_check_rejects_infinite_h_before_any_residual(tmp_path, capsys, monkeypatch,
                                                           gamma, h):
    # the same check as continue's, whatever the vorticity
    monkeypatch.setattr(cli, "residual_inf", _must_not_run)
    monkeypatch.setattr(cli, "residual_fd", _must_not_run)
    assert main(["limit-check", "--h", h, "--gamma", gamma,
                 "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--h must be finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out-json", "--out-csv"])
def test_continue_checks_output_directories_before_solving(tmp_path, capsys,
                                                            monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "continue_branch", _must_not_run)
    code = main(["continue", "--A", "0.3", "--steps", "1", "--M", "32",
                 "--alpha-max", "0.01", "--g", "1", "--sigma", "1",
                 flag, str(tmp_path / "missing" / "b.out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing" in err
    assert list(tmp_path.iterdir()) == []  # neither output file was written


@pytest.mark.parametrize("flag", ["--out-json", "--out-csv"])
def test_continue_rejects_an_empty_output_path_before_solving(tmp_path, capsys,
                                                              monkeypatch, flag):
    # `verify --out ""` writes no file; `continue` always writes both
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "continue_branch", _must_not_run)
    assert main(["continue", "--A", "0.3", "--steps", "0", "--M", "8", flag, ""]) == 1
    assert capsys.readouterr().err == f"capwave: {flag} needs a path\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["verify", "--out", "report.json"],
                                  ["continue", "--A", "0.3", "--steps", "0", "--M", "8",
                                   "--out-json", "report.json"]])
def test_a_full_disk_ends_in_one_line_naming_the_file(tmp_path, capsys, monkeypatch, argv):
    # a full disk raises at write (or close) with no filename; write_text names it
    class FullDisk:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(serialization, "open", lambda *a, **k: FullDisk(), raising=False)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"capwave: cannot write report.json: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("filename", [None, "branch.json"])
def test_an_os_error_names_a_file_only_when_it_has_one(tmp_path, capsys, monkeypatch, filename):
    # EAGAIN from a solve (a process limit) is not an output that cannot be written
    def fail(*args, **kwargs):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN), filename)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "continue_branch", fail)
    assert main(["continue", "--A", "0.3", "--out-json", "b.json", "--out-csv", "b.csv"]) == 1
    what = "" if filename is None else f"cannot write {filename}: "
    assert capsys.readouterr() == ("", f"capwave: {what}{os.strerror(errno.EAGAIN)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_continue_writes_every_output_it_can_before_it_reports_a_failed_one(tmp_path, capsys,
                                                                             monkeypatch):
    # the branch JSON cannot be written; the CSV and SVGs of the solved
    # branch still are, with the bytes of a run that writes them all
    flags = ["continue", "--A", "0.3", "--steps", "0", "--M", "8"]
    monkeypatch.chdir(tmp_path)
    assert main([*flags, "--out-json", "ok.json", "--out-csv", "ok.csv",
                 "--svg-dir", "ok_svg"]) == 0
    capsys.readouterr()
    assert main([*flags, "--out-json", "/dev/full", "--out-csv", "b.csv",
                 "--svg-dir", "svg"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"capwave: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n")
    assert _read(tmp_path / "b.csv") == _read(tmp_path / "ok.csv")
    assert _read(tmp_path / "svg" / "step_0000.svg") == _read(tmp_path / "ok_svg" / "step_0000.svg")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["spectrum", "profile"])
def test_spectrum_and_profile_write_every_output_they_can_before_they_report_a_failed_one(
        tmp_path, capsys, monkeypatch, command):
    # the CSV cannot be written; the JSON report or the SVG still is, with
    # the bytes of a run that writes both
    monkeypatch.chdir(tmp_path)
    if command == "spectrum":
        flags, other, name = ["spectrum", "--A-values", "0.3", "--M", "8"], "--out-json", "s.json"
    else:
        sol = newton_solve(WaveParams(alpha=0.0, beta=crapper.beta_of(0.3)),
                           crapper.crapper_wave(0.3, 256), M=32)
        (tmp_path / "sol.json").write_text(dumps_fixed(solution_to_dict(sol)))
        flags, other, name = ["profile", "--input", "sol.json"], "--out-svg", "p.svg"
    assert main([*flags, "--out-csv", "ok.csv", other, f"ok_{name}"]) == 0
    capsys.readouterr()
    assert main([*flags, "--out-csv", "/dev/full", other, name]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"capwave: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n")
    assert _read(tmp_path / name) == _read(tmp_path / f"ok_{name}")


@pytest.mark.parametrize("svg_dir", ["taken", "taken/", "taken/sub", "taken/sub/deeper/"])
def test_continue_rejects_an_svg_dir_that_is_a_file_before_solving(tmp_path, capsys,
                                                                    monkeypatch, svg_dir):
    # the file is --svg-dir itself or an ancestor that makedirs would meet
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "continue_branch", _must_not_run)
    (tmp_path / "taken").write_text("")
    assert main(["continue", "--steps", "1", "--svg-dir", svg_dir]) == 1
    err = capsys.readouterr().err
    assert err == f"capwave: --svg-dir {svg_dir}: taken exists and is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]  # no branch files


def test_continue_rejects_a_target_without_a_finite_wavenumber_before_solving(tmp_path, capsys,
                                                                           monkeypatch):
    # g*beta/(alpha*sigma) overflows: without a wavenumber the point has no
    # surface to draw, so the target is rejected before the start is solved
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(continuation, "newton_solve", _must_not_run)
    assert main(["continue", "--A", "0.5", "--M", "8", "--steps", "1",
                 "--alpha-max", "1.1125369292536007e-308"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no finite wavenumber" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "verify --out missing/r.json",
    "spectrum --A-values 0.3 --M 8 --out-json missing/s.json",
    "spectrum --A-values 0.3 --M 8 --out-csv missing/s.csv",
    "limit-check --out missing/r.json",
    "profile --input sol.json --out-csv missing/p.csv",
    "profile --input sol.json --out-svg missing/p.svg",
    # an output file that names an existing directory
    "verify --out taken",
    "spectrum --A-values 0.3 --M 8 --out-json taken",
    "spectrum --A-values 0.3 --M 8 --out-csv taken",
    "limit-check --out taken",
    "profile --input sol.json --out-csv taken",
    "profile --input sol.json --out-svg taken",
    "continue --steps 1 --out-json taken",
    "continue --steps 1 --out-csv taken",
])
def test_output_file_in_a_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                             argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "continue_branch", _must_not_run)
    (tmp_path / "taken").mkdir()
    path = argv.split()[-1]
    assert main(argv.split()) == 1
    assert capsys.readouterr().err == (f"capwave: output file {path} is a directory\n"
                                       if path == "taken" else
                                       f"capwave: no directory for output file {path}\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["taken"]  # nothing written


def test_continue_step_underflow_saves_partial(tmp_path, capsys):
    jsn = tmp_path / "partial.json"
    csv = tmp_path / "partial.csv"
    code = main(["continue", "--A", "0.3", "--alpha-max", "1e6", "--steps", "1",
                 "--M", "16", "--grid", "128", "--max-iter", "2",
                 "--g", "1", "--sigma", "1",
                 "--out-json", str(jsn), "--out-csv", str(csv)])
    assert code == 3
    branch = json.loads(_read(jsn))
    assert len(branch["solutions"]) >= 1
    assert any(not e["accepted"] for e in branch["step_history"])
    capsys.readouterr()


def test_continue_first_point_failure_exit_code(tmp_path, capsys):
    jsn = tmp_path / "branch.json"
    csv = tmp_path / "branch.csv"
    code = main(["continue", "--A", "0.3", "--tol", "1e-20", "--max-iter", "3",
                 "--M", "32", "--steps", "1", "--alpha-max", "0.01",
                 "--out-json", str(jsn), "--out-csv", str(csv)])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not jsn.exists() and not csv.exists()


def test_continue_stall_at_the_residual_floor_names_tol(tmp_path, capsys, monkeypatch):
    # A = 0.82 stalls at iteration 0 with a residual of 1.84x the default tol
    monkeypatch.chdir(tmp_path)
    assert main(["continue", "--A", "0.82", "--steps", "0", "--g", "1", "--sigma", "1"]) == 3
    err = capsys.readouterr().err
    assert err == ("capwave: line search stalled at iteration 0 (residual 1.842e-11, "
                   "tol = 1e-11): within 10x of tol, so tol is at the rounding floor of "
                   "the residual on 200 modes\n")
    assert list(tmp_path.iterdir()) == []


def test_profile_round_trip_and_svg(tmp_path, capsys):
    # store a steep pure-capillary wave and reconstruct its overhanging curve
    w = crapper.crapper_wave(0.8, 512)
    params = WaveParams(alpha=0.0, beta=crapper.beta_of(0.8))
    sol = newton_solve(params, w, M=160, tol=1e-8)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(dumps_fixed(solution_to_dict(sol)))
    csv = tmp_path / "prof.csv"
    svg = tmp_path / "prof.svg"
    code = main(["profile", "--input", str(sol_path),
                 "--out-csv", str(csv), "--out-svg", str(svg)])
    assert code == 0
    lines = _read(csv).strip().splitlines()
    assert lines[0] == "X,Y"
    ys = np.array([float(l.split(",")[1]) for l in lines[1:]])
    stored = solution_from_dict(json.loads(_read(sol_path)))
    assert np.max(np.abs(ys - stored.w.samples)) < 1e-12  # k = 1 at alpha = 0
    text = _read(svg)
    assert "<polyline" in text
    assert "<circle" in text  # self-intersection markers on the A=0.8 profile
    capsys.readouterr()


def test_profile_reads_nan_diagnostics(tmp_path, capsys):
    w = crapper.crapper_wave(0.3, 256)
    params = WaveParams(alpha=0.0, beta=crapper.beta_of(0.3))
    sol = newton_solve(params, w, M=32)
    sol = dataclasses.replace(sol, residual_norm=math.nan, b_or_qhat=math.nan,
                              sigma_min=math.nan)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(dumps_fixed(solution_to_dict(sol)))
    back = solution_from_dict(json.loads(_read(sol_path)))
    assert math.isnan(back.residual_norm)
    assert math.isnan(back.b_or_qhat)
    assert math.isnan(back.sigma_min)
    assert main(["profile", "--input", str(sol_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("doc", [[], 5, "x", None, {"format_version": 1, "params": 5},
                                 {"format_version": 1, "params": []}])
def test_profile_rejects_documents_that_are_not_solutions(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["profile", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


_SOLUTION_FIELDS = [(key,) for key in ("format_version", "params", "depth_mode", "n_grid",
                                       "cosine_coeffs", "residual_norm", "diagnostics")]
_SOLUTION_FIELDS += [("params", key) for key in ("alpha", "beta", "gamma", "h", "g", "sigma")]
_SOLUTION_FIELDS += [("diagnostics", key) for key in ("b_or_qhat", "newton_iters", "sigma_min",
                                                      "steepness", "injective")]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(-1e3, 1e3, allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def finite_depth_solution_doc():
    branch = cli.continue_branch(0.3, [(0.0, crapper.beta_of(0.3)), (0.01, crapper.beta_of(0.3))],
                                 h=2.0, gamma=0.5, M=16, g=1.0, sigma=1.0)
    return json.loads(dumps_fixed(solution_to_dict(branch.solutions[-1])))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(_SOLUTION_FIELDS), value=_JSON_VALUES)
def test_profile_never_tracebacks_on_a_damaged_solution(tmp_path, capsys,
                                                        finite_depth_solution_doc,
                                                        field, value):
    doc = json.loads(json.dumps(finite_depth_solution_doc))
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(doc))
    code = main(["profile", "--input", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert "Traceback" not in err


def test_profile_rejects_cosine_coeffs_that_are_not_a_flat_list(tmp_path, capsys,
                                                               finite_depth_solution_doc):
    doc = json.loads(json.dumps(finite_depth_solution_doc))
    doc["cosine_coeffs"] = [doc["cosine_coeffs"]]
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    assert main(["profile", "--input", str(path), "--out-csv", str(tmp_path / "p.csv"),
                 "--out-svg", str(tmp_path / "p.svg")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cosine_coeffs must be a list of numbers" in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("entry", [None, math.nan, -math.inf])
def test_profile_rejects_non_finite_cosine_coeffs_at_load(tmp_path, capsys,
                                                         finite_depth_solution_doc, entry):
    # one coefficient written as JSON null (how capwave spells a non-finite
    # float), NaN or -Infinity: the file is refused, before any transform
    doc = json.loads(json.dumps(finite_depth_solution_doc))
    doc["cosine_coeffs"][3] = entry
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["profile", "--input", str(path), "--out-csv", str(tmp_path / "p.csv")]) == 1
    assert capsys.readouterr().err == (f"capwave: cannot load solution {path}: "
                                       "cosine_coeffs must be finite numbers\n")
    assert list(tmp_path.iterdir()) == [path]


def test_profile_missing_file(tmp_path, capsys):
    assert main(["profile", "--input", str(tmp_path / "nope.json")]) == 1
    assert main(["profile"]) == 1
    capsys.readouterr()


# -- limit-check --------------------------------------------------------------------


def test_limit_check_report(tmp_path, capsys):
    out = tmp_path / "limit.json"
    code = main(["limit-check", "--A", "0.5", "--gamma", "1", "--h", "2",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(_read(out))
    d = report["differences"]
    assert d[0] > d[1] > d[2]
    assert report["zero_at_nonpositive_alpha"] is True
    assert report["passed"] is True
    capsys.readouterr()


def test_limit_check_rejects_bad_alphas(capsys):
    assert main(["limit-check", "--alphas", "0.1,-0.2"]) == 1
    assert main(["limit-check", "--alphas", "zzz"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("gamma", ["1", "0"])
def test_limit_check_passes_flat_water(tmp_path, capsys, gamma):
    # every difference is exactly 0, so none decreases strictly, yet flat
    # water solves FD and F alike (as verify --A 0 passes)
    out = tmp_path / "limit.json"
    assert main(["limit-check", "--A", "0", "--gamma", gamma, "--out", str(out)]) == 0
    report = json.loads(_read(out))
    assert report["differences"] == [0.0, 0.0, 0.0]
    assert report["strictly_decreasing"] is False
    assert report["zero_at_nonpositive_alpha"] is True and report["passed"] is True
    capsys.readouterr()


def test_limit_check_tolerance_failure_exit_code(capsys):
    # alphas ordered towards the limit from below: differences grow, exit 2
    assert main(["limit-check", "--A", "0.5", "--gamma", "1", "--h", "2",
                 "--alphas", "1e-4,1e-3,1e-2"]) == 2
    capsys.readouterr()


# -- entry points ---------------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    # scaled-variable commands take no dimensional constants, and prefix
    # abbreviation is off so --g cannot silently match --grid
    assert main(["verify", "--A", "0.3", "--g", "2"]) == 1
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "capwave.cli", "verify", "--A", "0.2",
                           "--grid", "256"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert '"passed": true' in proc.stdout


def test_the_console_script_target_returns_the_exit_code(tmp_path, monkeypatch, capsys):
    # the console-script wrapper that installing the package writes calls the
    # target of pyproject.toml with no arguments and passes its int to sys.exit
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["capwave"].partition(":")
    target = getattr(importlib.import_module(module), name)
    monkeypatch.chdir(tmp_path)  # `continue` writes branch.json by default
    for argv, code in ((["verify", "--A", "0.3", "--out", "verify.json"], 0),
                       (["continue", "--A", "0"], 1)):
        monkeypatch.setattr(sys, "argv", ["capwave", *argv])
        assert target() == code
    assert json.loads(_read(tmp_path / "verify.json"))["passed"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == ["verify.json"]
    capsys.readouterr()


# -- the heap kept between stacked calls --------------------------------------------


def _src_env():
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


class _SpyLibc:
    """Stands in for `ctypes.CDLL`: records mallopt calls, makes none."""

    calls = []

    def __init__(self, name, *args, **kwargs):
        def mallopt(param, value):
            self.calls.append((param, value))
            return 1
        self.mallopt = mallopt  # a function, so argtypes can be set on it


@pytest.mark.parametrize("libc", ["glibc", "no os.confstr", "confstr name unknown"])
def test_main_sets_mallopt_only_on_glibc(monkeypatch, capsys, libc):
    # Windows has no os.confstr; macOS and musl do not know the glibc name
    if libc == "glibc":
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    elif libc == "no os.confstr":
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        def confstr(name):
            raise ValueError(f"unrecognized configuration name {name!r}")
        monkeypatch.setattr(os, "confstr", confstr, raising=False)
    monkeypatch.setattr(_SpyLibc, "calls", [])
    monkeypatch.setattr(ctypes, "CDLL", _SpyLibc)
    assert main(["verify", "--A", "0.2", "--grid", "256"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    expected = {cli._M_TRIM_THRESHOLD, cli._M_MMAP_THRESHOLD} if libc == "glibc" else set()
    assert {param for param, _ in _SpyLibc.calls} == expected


_IMPORT_SPY = """
import ctypes, json, os
calls = []
class Spy(ctypes.CDLL):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.mallopt = lambda param, value: calls.append(param) or 1
ctypes.CDLL = Spy
real_confstr = getattr(os, "confstr", None)
os.confstr = lambda name: ("glibc 2.36" if name == "CS_GNU_LIBC_VERSION"
                           else real_confstr(name))
import capwave, capwave.cli
on_import = list(calls)
capwave.cli.main(["verify", "--A", "0.2", "--grid", "256"])
print(json.dumps([on_import, calls]))
"""


def test_importing_capwave_sets_no_allocator_option():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SPY], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    on_import, after_main = json.loads(proc.stdout.strip().splitlines()[-1])
    assert on_import == []
    assert len(after_main) == 2  # the spy sees the calls that main makes


_BLAS_THREADS = """
import contextlib, ctypes, glob, io, os
import numpy as np
from capwave.cli import main
(path,) = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*"))
blas = ctypes.CDLL(path)
blas.scipy_openblas_set_num_threads64_(2)
before = blas.scipy_openblas_get_num_threads64_()
with contextlib.redirect_stdout(io.StringIO()):
    main(["verify", "--A", "0.2", "--grid", "256"])
print(before, blas.scipy_openblas_get_num_threads64_())
"""


_NUMPY_LIBS = Path(np.__file__).parent.parent / "numpy.libs"


@pytest.mark.skipif(not list(_NUMPY_LIBS.glob("libscipy_openblas64_*")),
                    reason="numpy bundles no scipy-openblas here")
def test_main_pins_numpys_openblas_to_one_thread():
    # its solves and SVDs give other bits on another thread count
    env = {k: v for k, v in _src_env().items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    if before < 2:
        pytest.skip("OpenBLAS runs one thread here whatever it is asked")
    assert after == 1


_SECOND_CONTINUE = """
import contextlib, io, resource
from capwave.cli import main
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["continue", "--A", "0.3", "--alpha-max", "0.03", "--steps", "1",
                     "--M", "128"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="capwave keeps the heap on glibc only")
def test_second_continue_in_a_process_reuses_the_heap(tmp_path):
    # with the heap trimmed after every stacked call this took 17k-33k faults
    proc = subprocess.run([sys.executable, "-c", _SECOND_CONTINUE], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2000


def test_branch_round_trip():
    from capwave.continuation import continue_branch
    from capwave.serialization import branch_from_dict, branch_to_dict

    beta = crapper.beta_of(0.2)
    branch = continue_branch(0.2, [(0.0, beta), (0.01, beta)], M=16,
                             g=1.0, sigma=1.0)
    back = branch_from_dict(json.loads(dumps_fixed(branch_to_dict(branch))))
    assert back.start_A == branch.start_A
    assert len(back.solutions) == 2
    assert back.step_history == branch.step_history
    assert np.max(np.abs(back.solutions[-1].w.cosine_coefficients(16)
                         - branch.solutions[-1].w.cosine_coefficients(16))) == 0.0
    doc = branch_to_dict(branch)
    doc["format_version"] = 2
    with pytest.raises(ValueError, match="^unsupported format_version 2$"):
        branch_from_dict(doc)


@pytest.mark.parametrize("doc", [[], "x", 3, None, [{"format_version": 1}]])
def test_readers_refuse_a_document_that_is_not_an_object(doc):
    # the readers' contract: KeyError, TypeError or ValueError, never an AttributeError
    for reader, what in ((branch_from_dict, "branch"), (solution_from_dict, "solution")):
        with pytest.raises(ValueError, match=f"^a {what} must be a JSON object$"):
            reader(doc)


def test_profile_counts_the_crossings_continue_stored(tmp_path, capsys):
    # w_0.5 overhangs and crosses itself on x = 0, the seam of the period; the
    # lobes of w_-0.8 reach two periods away: the branch file and `profile`
    # count each crossing once
    for flags, count in ((["--A", "0.5", "--alpha-max", "0.02", "--steps", "1", "--M", "64"], 2),
                         (["--A", "-0.8", "--steps", "0", "--tol", "1e-9"], 4)):
        jsn = tmp_path / "branch.json"
        assert main(["continue", *flags, "--g", "1", "--sigma", "1", "--out-json", str(jsn),
                     "--out-csv", str(tmp_path / "branch.csv")]) == 0
        last = json.loads(_read(jsn))["solutions"][-1]
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps(last))
        capsys.readouterr()
        assert main(["profile", "--input", str(sol_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert last["diagnostics"]["crossing_count"] == report["crossings"] == count


# -- the whole command-line contract -------------------------------------------------


@pytest.mark.parametrize("argv", [
    "limit-check --h 1 --alphas 1e-2 --g 1e300 --sigma 2 --grid 64",
    "limit-check --A 0.5 --gamma -0.0 --sigma 1e300 --grid 64",
    "limit-check --gamma 0.02 --alphas 1e300 --g 1e-12 --grid 64",
    "continue --A 0.3 --h 2 --gamma 0.5 --g 1e300 --sigma 1 --M 8 --steps 1 --alpha-max 0.02",
])
def test_extreme_constants_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_extreme_vorticity_scales_are_refused_before_the_start_is_solved(tmp_path, capsys,
                                                                        monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("solved although a target had to be rejected first")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(continuation, "newton_solve", must_not_run)
    assert main("continue --A 0.3 --h 2 --gamma 0.5 --g 1e300 --sigma 1 --M 8 --steps 1 "
                "--alpha-max 0.02".split()) == 1
    assert capsys.readouterr().err == ("capwave: finite-depth vorticity scales leave the float "
                                       "range (extreme alpha, g or sigma)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    ("continue --A 0", "continuation must start at A != 0"),
    ("continue --A 1.5", "must satisfy |A| < 1"),
    ("continue --alpha-start 0.01", "schedule must start on the pure-capillary curve"),
    ("continue --gamma 1", "infinite depth forces zero vorticity"),
    ("verify --A 1.2 --out r.json", "must satisfy |A| < 1"),
    ("spectrum --A-values 0.3,1 --M 16 --out-json s.json --out-csv s.csv",
     "must satisfy |A| < 1"),
    ("limit-check --A -1 --out r.json", "must satisfy |A| < 1"),
    ("limit-check --g inf --out r.json", "g and sigma must be positive and finite"),
    ("continue --A 0.3 --alpha-max 0.01 --steps 1 --M 16 --grid 128 --g inf --sigma 1",
     "g and sigma must be positive and finite"),
    ("continue --A 0.3 --alpha-max 0.01 --steps 1 --M 16 --grid 128 --g 1 --sigma inf",
     "g and sigma must be positive and finite"),
    ("continue --A 0.3 --alpha-max inf --steps 1 --M 16 --grid 128 --g 1 --sigma 1",
     "alpha, beta and gamma must be finite"),
    ("continue --A 0.3 --M 16 --grid 64",
     "M = 32 (modes_for raised 16 for A = 0.3) needs at least 66 grid points, got 64"),
    ("continue --A 0.3 --M 16 --grid 81", "n_grid must be even and >= 4, got 81"),
    ("limit-check --grid 0 --out r.json", "n_grid must be even and >= 4, got 0"),
    ("continue --beta-max -1 --beta-steps 2", "beta must be positive, got -1.0"),
    # a target at alpha <= 0 is checked before the start is solved too
    ("continue --steps 0 --beta-max -1 --beta-steps 2", "beta must be positive"),
    ("continue --A 0.3 --M 32 --alpha-start -0.01 --alpha-max -0.005 --steps 1 "
     "--beta-max -2 --beta-steps 2 --g 1 --sigma 1", "beta must be positive"),
    # two outputs, or an output and the input, naming one file
    ("continue --A 0.3 --M 16 --steps 0 --out-json same.txt --out-csv same.txt",
     "--out-json same.txt and --out-csv same.txt name the same file"),
    ("continue --A 0.3 --M 16 --steps 0 --out-json ./b.json --out-csv b.json",
     "--out-json ./b.json and --out-csv b.json name the same file"),
    ("spectrum --A-values 0.3 --M 8 --out-json s --out-csv s",
     "--out-json s and --out-csv s name the same file"),
    ("continue --A 0.3 --M 16 --steps 0 --out-json x --svg-dir x",
     "--out-json x and --svg-dir x name the same file"),
    ("profile --input p.json --out-csv p.json",
     "--input p.json and --out-csv p.json name the same file"),
    # an output and the --config file it was read from (c.json holds {})
    ("continue --A 0.3 --M 16 --steps 0 --config c.json --out-json c.json",
     "--out-json c.json and --config c.json name the same file"),
    ("continue --A 0.3 --M 16 --steps 0 --config c.json --out-csv ./c.json",
     "--out-csv ./c.json and --config c.json name the same file"),
    # (with or without the slash, --svg-dir's own check refuses the file first)
    ("continue --A 0.3 --M 16 --steps 0 --config c.json --svg-dir c.json/",
     "--svg-dir c.json/: c.json exists and is not a directory"),
    ("profile --input wave.json --config c.json --out-csv c.json",
     "--out-csv c.json and --config c.json name the same file"),
    ("continue --A 0.97 --steps 0",  # past what the capped modes serve at the default tol
     "|A| = 0.97 needs more than 256 cosine modes at tol = 1e-11; 256 modes serve |A| <= 0.8549"),
    # flags that would otherwise be ignored
    ("continue --A 0.3 --beta-max 1.4 --steps 1 --M 16 --alpha-max 0.01 --g 1 --sigma 1",
     "--beta-max and --beta-steps >= 2 go together"),
    ("continue --A 0.3 --beta-steps 1 --beta-max 1.4 --steps 1 --M 16 --alpha-max 0.01",
     "--beta-max and --beta-steps >= 2 go together"),
    ("continue --A 0.3 --beta-steps 0 --steps 1 --M 16 --alpha-max 0.01",
     "--beta-steps must be at least 1"),
    ("continue --A 0.3 --steps -5", "--steps must be at least 0"),
    ("continue --A 0.3 --steps -1", "--steps must be at least 0"),
    ("continue --A 0.3 --M -4 --steps 0", "M must be at least 1, got -4"),
    ("continue --A 0.3 --M 0 --steps 0", "M must be at least 1, got 0"),
    # a verification of nothing must not pass
    ("spectrum --A-values , --out-json s.json --out-csv s.csv",
     "--A-values needs at least one value"),
    ("spectrum --A-values= --out-json s.json --out-csv s.csv",
     "--A-values needs at least one value"),
    ("limit-check --alphas , --out r.json", "--alphas needs at least one value"),
    ("spectrum --A-values 0.3,x --out-json s.json --out-csv s.csv",
     "bad --A-values: could not convert string to float: 'x'"),
    ("limit-check --alphas 1e-2,zzz --out r.json",
     "bad --alphas: could not convert string to float: 'zzz'"),
    ("profile --input sol.json --repeats 0", "--repeats must be at least 1"),
    ("profile --input sol.json --repeats -3", "--repeats must be at least 1"),
])
def test_library_checks_reach_stderr_before_any_solve(tmp_path, capsys, monkeypatch,
                                                      finite_depth_solution_doc, argv, message):
    # these ranges are checked by the library or, for flags it never sees, by
    # the CLI: the message is the one line on stderr, and nothing is solved or
    # written
    monkeypatch.chdir(tmp_path)
    inputs = {"c.json": "{}", "wave.json": dumps_fixed(finite_depth_solution_doc)}
    for name in inputs.keys() & set(argv.split()):
        (tmp_path / name).write_text(inputs[name])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(continuation, "newton_solve", _must_not_run)
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv, message", [
    # a tolerance that no residual meets, or that every start meets already
    *((f"continue --tol {tol}", "tol must be positive and finite") for tol in
      ("0", "-1", "nan", "inf", "-0")),
    *((f"continue --A 0.3 --h 2 --gamma={gamma}", "alpha, beta and gamma must be finite")
      for gamma in ("nan", "inf", "-inf")),
    # a negative value in any form is a value, not a flag
    *((f"continue --A 0.3 --h 2 --gamma {gamma}", "alpha, beta and gamma must be finite")
      for gamma in ("-inf", "-nan")),
    ("continue --gamma nan", "alpha, beta and gamma must be finite"),
    ("limit-check --alphas nan --out r.json", "alpha, beta and gamma must be finite"),
    ("limit-check --alphas 1e-2,inf --out r.json", "alpha, beta and gamma must be finite"),
    ("limit-check --gamma nan --out r.json", "alpha, beta and gamma must be finite"),
])
def test_non_finite_or_unmeetable_inputs_stop_before_any_solve(tmp_path, capsys, monkeypatch,
                                                               argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(continuation, "newton_solve", _must_not_run)
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert list(tmp_path.iterdir()) == []


def test_float_flags_take_negative_values_in_every_form():
    # argparse on its own reads only -1 and -1.5 as negative numbers
    parser = cli.build_parser()
    for command, sub in parser.commands.items():
        for dest in (d for d, kind in sub.flag_types.items() if kind is float):
            flag = "--" + dest.replace("_", "-")
            for value in ("-2", "-0.5", "-.5e-3", "-1e-1", "-1E+2", "-inf", "-Infinity", "-nan"):
                args = parser.parse_args([command, flag, value, "--config", "c.json"])
                assert str(getattr(args, dest)) == str(float(value)), (command, flag, value)
                assert args.config == "c.json"  # the next flag is still a flag


@pytest.mark.parametrize("reason", ["Unable to allocate 74.5 GiB for an array", ""])
@pytest.mark.parametrize("argv, target", [
    ("spectrum --A-values 0.5 --M 100000 --out-json s.json --out-csv s.csv",
     (cli, "recurrence_scan")),
    # the start's stacked Jacobians are the first allocation a continuation makes
    ("continue --A 0.3 --M 100000 --steps 1 --alpha-max 0.01",
     (continuation, "_start_jacobians")),
])
def test_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, target, reason):
    # the allocation that would fail is never made: the call that makes it raises
    def out_of_memory(*args, **kwargs):
        raise MemoryError(reason)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(*target, out_of_memory)
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("capwave: out of memory")
    assert reason in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("depth", [[], ["--h", "2"]])
@pytest.mark.parametrize("alpha_max", ["1e306", "1e308"])
def test_overflowing_step_is_a_solver_failure(tmp_path, capsys, monkeypatch, alpha_max, depth):
    # the residual overflows on the way to alpha-max: each trial fails and is
    # halved like any other, and the converged alpha = 0 point is saved
    monkeypatch.chdir(tmp_path)
    code = main(["continue", "--A", "0.3", "--alpha-max", alpha_max, "--steps", "1",
                 "--M", "16", "--grid", "128", "--g", "1", "--sigma", "1", *depth])
    assert code == 3
    assert "step underflow" in capsys.readouterr().err
    branch = json.loads(_read(tmp_path / "branch.json"))
    assert [s["params"]["alpha"] for s in branch["solutions"]] == [0.0]
    assert sum(not e["accepted"] for e in branch["step_history"]) == 7
    assert len(_read(tmp_path / "branch.csv").splitlines()) == 2


@pytest.mark.parametrize("depth", [[], ["--h", "2"]])
def test_overflowing_step_writes_one_stderr_line(tmp_path, depth):
    # run as a user runs it, so any numpy RuntimeWarning would reach stderr
    proc = subprocess.run([sys.executable, "-m", "capwave.cli", "continue", "--A", "0.3",
                           "--alpha-max", "1e306", "--steps", "1", "--M", "16",
                           "--grid", "128", "--g", "1", "--sigma", "1", *depth],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("capwave continue: step underflow")


_WILD_FLOATS = (st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12, -1.0, 1.0, 9.81, 1e300,
                                 -1e300, math.inf, -math.inf, math.nan])
                | st.floats(-2.0, 2.0))


def _joined(values):
    return st.lists(values, min_size=1, max_size=3).map(lambda vs: ",".join(map(repr, vs)))


def _float_flag(lo, hi):
    return st.floats(lo, hi), _WILD_FLOATS


def _int_flag(lo, hi):
    return st.integers(lo, hi), st.integers(-4, hi)


def _list_flag(lo, hi):
    return (_joined(st.floats(lo, hi)),
            _joined(_WILD_FLOATS) | st.sampled_from(["", ",", "x", "1e-2,,y"]))


# (plausible values, wild values) of each flag by command; the grid, mode,
# step and iteration flags are always set and small, so no example solves a
# large problem
_FUZZ_FLAGS = {
    "verify": {"A": _float_flag(-0.9, 0.9), "grid": _int_flag(32, 64)},
    "spectrum": {"A-values": _list_flag(-0.9, 0.9), "M": _int_flag(8, 16)},
    "limit-check": {"A": _float_flag(-0.9, 0.9), "gamma": _float_flag(-2.0, 2.0),
                    "h": _float_flag(0.5, 5.0), "alphas": _list_flag(1e-5, 0.1),
                    "grid": _int_flag(32, 64), "g": _float_flag(0.5, 10.0),
                    "sigma": _float_flag(0.01, 2.0)},
    "continue": {"A": (st.floats(0.05, 0.3) | st.floats(-0.3, -0.05), _WILD_FLOATS),
                 "alpha-start": _float_flag(-0.02, 0.0),
                 "alpha-max": _float_flag(0.0, 0.05), "steps": _int_flag(0, 1),
                 "beta-max": _float_flag(1.0, 1.5), "beta-steps": _int_flag(0, 2),
                 "h": _float_flag(0.5, 5.0),
                 "gamma": (st.just(0.0) | st.floats(-1.0, 1.0), _WILD_FLOATS),
                 "M": _int_flag(8, 16), "grid": _int_flag(64, 64),
                 "tol": (st.sampled_from([1e-11, 1e-8, 1e-4]), _WILD_FLOATS),
                 "max-iter": _int_flag(0, 3), "g": _float_flag(0.5, 10.0),
                 "sigma": _float_flag(0.05, 2.0)},
}
_ALWAYS_SET = {"grid", "M", "steps", "max-iter"}


@st.composite
def _invocations(draw, command):
    """argv and config document.  Each flag is left out, given on the command
    line, or given in the config file, as a value or as null; a wild example
    mixes out-of-range values, junk lists and unknown keys into the others."""
    wild = draw(st.booleans())
    argv, cfg = [command], {}
    for flag, (plausible, wilder) in _FUZZ_FLAGS[command].items():
        value = draw(plausible | wilder if wild else plausible)
        places = ["argv", "config"] if flag in _ALWAYS_SET else ["argv", "config", "null", "unset"]
        place = draw(st.sampled_from(places))
        if place == "argv":
            argv.append(f"--{flag}={value}")
        elif place == "config":
            cfg[flag] = value
        elif place == "null":
            cfg[flag] = None
    if wild and draw(st.booleans()):
        cfg[draw(st.sampled_from(["no-such-flag", "command", "help"]))] = 1
    return argv, cfg


# a budget of Newton solves per example stops a continuation whose steps keep
# halving and succeeding without end (one such example once took 50 s); a
# spent budget ends like any failed step, in exit 3.  It is the most a correct
# continuation can spend here: the start, then at most three targets, each
# reached in at most 2**MAX_HALVINGS accepted and MAX_HALVINGS + 1 failed
# steps (2100 non-derandomized examples needed 48 at most)
_SOLVE_BUDGET = 1 + 3 * (2 ** continuation.MAX_HALVINGS + continuation.MAX_HALVINGS + 1)
_newton_solve = continuation.newton_solve


def _budget_solves(monkeypatch):
    """Stop the example at its _SOLVE_BUDGET-th Newton solve; next() of the
    counter returned is the number of solves made so far."""
    solves = itertools.count()

    def budgeted(*args, **kwargs):
        if next(solves) >= _SOLVE_BUDGET:
            raise continuation.NewtonError("solve budget of the fuzz example spent")
        return _newton_solve(*args, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", budgeted)
    return solves


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("command", list(_FUZZ_FLAGS))
def test_cli_contract_fuzz(tmp_path, capsys, monkeypatch, command, data):
    # every invocation ends in a documented exit code, never in an exception
    monkeypatch.chdir(tmp_path)
    _budget_solves(monkeypatch)
    argv, cfg = data.draw(_invocations(command))
    if cfg:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv += ["--config", "cfg.json"]
    assert main(argv) in (0, 1, 2, 3)
    capsys.readouterr()


@st.composite
def _solvable_continue(draw):
    """argv of a `continue` that reaches the solver: |A| in [0.05, 0.8], a
    small alpha-max, at most 2 steps, 8 to 32 requested modes on the default
    grid or on the one that fits the modes `modes_for` keeps, any Newton
    budget and tolerance, and finite depth with vorticity half of the time."""
    A = draw(st.floats(0.05, 0.8)) * draw(st.sampled_from([1.0, -1.0]))
    M = draw(st.integers(8, 32))
    tol = draw(st.sampled_from([1e-11, 1e-9, 1e-6, 1e-4]))
    argv = ["continue", f"--A={A!r}", f"--M={M}", f"--tol={tol!r}",
            f"--alpha-max={draw(st.floats(0.0, 0.02))!r}",
            f"--steps={draw(st.integers(0, 2))}",
            f"--max-iter={draw(st.integers(0, 6) | st.just(continuation.DEFAULT_MAX_ITER))}"]
    if draw(st.booleans()):
        kept = continuation.modes_for(A, M, tol)
        argv.append(f"--grid={crapper.min_grid(A, 2.5 * kept)}")
    if draw(st.booleans()):
        argv += [f"--h={draw(st.floats(0.5, 5.0))!r}", f"--gamma={draw(st.floats(-1.0, 1.0))!r}"]
    if draw(st.booleans()):
        argv.append("--svg-dir=svg")
    return argv, tol


def _check_written_branch(directory, tol, svg):
    """The branch JSON and CSV read back, the JSON with the bytes it was
    written with, each stored point solves its residual to `tol` again, and
    each SVG parses; returns the branch read back."""
    text = _read(directory / "branch.json")
    branch = branch_from_dict(json.loads(text))
    assert dumps_fixed(branch_to_dict(branch)) + "\n" == text
    assert branch.solutions
    for sol in branch.solutions:
        residual = residual_inf if sol.params.is_infinite else residual_fd
        assert residual(sol.params, sol.w).norm_inf() < 2.0 * tol
    with open(directory / "branch.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["alpha"]) for r in rows] == [s.params.alpha for s in branch.solutions]
    if svg:
        svgs = sorted((directory / "svg").iterdir())
        assert len(svgs) == len(branch.solutions)
        for path in svgs:
            ElementTree.parse(path)
    return branch


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_solvable_continue())
# every step to alpha > 0 fails (exit 3), and no finite wavenumber (exit 1)
@example(case=(["continue", "--A=0.5", "--M=8", "--alpha-max=1e-05", "--steps=1",
                "--max-iter=0"], continuation.DEFAULT_TOL))
@example(case=(["continue", "--A=0.5", "--M=8", "--alpha-max=1e-320", "--steps=1"],
               continuation.DEFAULT_TOL))
def test_solvable_continue_fuzz(tmp_path, capsys, monkeypatch, case):
    # in-range inputs: each example solves, or is stopped before it by a
    # target without a finite wavenumber, and what it writes reads back
    argv, tol = case
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(directory)
    solves = _budget_solves(monkeypatch)
    code = main(argv)
    err = capsys.readouterr().err
    if code == 1:  # an alpha-max so small that no finite wavenumber is left
        assert "no finite wavenumber" in err and err.count("\n") == 1
        assert next(solves) == 0 and list(directory.iterdir()) == []
        return
    assert next(solves) >= 1 and code in (0, 3)
    if code == 0 or (directory / "branch.json").exists():
        branch = _check_written_branch(directory, tol, "--svg-dir=svg" in argv)
        # the accepted attempts are the solutions, each step taken from the last of them
        history = branch.step_history
        assert [e[:2] for e in history if e[3]] == [(s.params.alpha, s.params.beta)
                                                    for s in branch.solutions]
        assert [e[2] for e in history] == walk_steps(history)
        steep = [s.geometry["steepness"] for s in branch.solutions]
        if code == 0 and steep[0] > 1e-3:  # no step landed on flat water
            assert min(steep) >= 1e-6, steep
    else:  # the first point failed
        assert list(directory.iterdir()) == []

