import dataclasses
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from capwave import cli, continuation, crapper
from capwave.cli import main
from capwave.continuation import newton_solve
from capwave.operators import WaveParams
from capwave.serialization import (
    BRANCH_CSV_COLUMNS,
    dumps_fixed,
    format_float,
    solution_from_dict,
    solution_to_dict,
)


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


def test_dumps_fixed_deterministic_and_ordered():
    obj = {"b": 1.5, "a": [1, 2.0, True, None], "nested": {"x": "s"}}
    one = dumps_fixed(obj)
    two = dumps_fixed(obj)
    assert one == two
    assert one.index('"b"') < one.index('"a"')  # insertion order kept
    parsed = json.loads(one)
    assert parsed["b"] == 1.5 and parsed["a"][3] is None


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


def test_verify_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--A", "0.3", "--out", str(a)]) == 0
    assert main(["verify", "--A", "0.3", "--out", str(b)]) == 0
    assert _read(a) == _read(b)
    capsys.readouterr()


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


def _must_not_run(*args, **kwargs):
    raise AssertionError("solved although the command had to stop first")


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


def test_continue_rejects_A_zero(capsys):
    assert main(["continue", "--A", "0"]) == 1
    capsys.readouterr()


def test_continue_rejects_infinite_h(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "continue_branch", _must_not_run)
    assert main(["continue", "--h", "inf", "--out-json", str(tmp_path / "b.json"),
                 "--out-csv", str(tmp_path / "b.csv")]) == 1
    assert "--h must be finite" in capsys.readouterr().err
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


def test_profile_counts_the_crossings_continue_stored(tmp_path, capsys):
    # w_0.5 overhangs and crosses itself on x = 0, the seam of the period:
    # the branch file and `profile` count each crossing once
    jsn = tmp_path / "branch.json"
    assert main(["continue", "--A", "0.5", "--alpha-max", "0.02", "--steps", "1", "--M", "64",
                 "--g", "1", "--sigma", "1", "--out-json", str(jsn),
                 "--out-csv", str(tmp_path / "branch.csv")]) == 0
    last = json.loads(_read(jsn))["solutions"][-1]
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(last))
    capsys.readouterr()
    assert main(["profile", "--input", str(sol_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert last["diagnostics"]["crossing_count"] == report["crossings"] == 2


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


@pytest.mark.parametrize("argv, message", [
    ("continue --A 0", "continuation must start at A != 0"),
    ("continue --A 1.5", "must satisfy |A| < 1"),
    ("continue --alpha-start 0.01", "schedule must start on the pure-capillary curve"),
    ("continue --gamma 1", "infinite depth forces zero vorticity"),
    ("verify --A 1.2 --out r.json", "must satisfy |A| < 1"),
    ("spectrum --A-values 0.3,1 --M 16 --out-json s.json --out-csv s.csv",
     "must satisfy |A| < 1"),
    ("limit-check --A -1 --out r.json", "must satisfy |A| < 1"),
])
def test_library_checks_reach_stderr_before_any_solve(tmp_path, capsys, monkeypatch,
                                                      argv, message):
    # these ranges are checked by the library: its message is the one line on
    # stderr, and nothing is solved or written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(continuation, "newton_solve", _must_not_run)
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
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


# a budget of Newton solves per example bounds the cost of continuations whose
# steps keep halving and succeeding (one such example took 50 s); a spent
# budget ends like any failed step, in exit 3
_SOLVE_BUDGET = 12
_newton_solve = continuation.newton_solve


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("command", list(_FUZZ_FLAGS))
def test_cli_contract_fuzz(tmp_path, capsys, monkeypatch, command, data):
    # every invocation ends in a documented exit code, never in an exception
    monkeypatch.chdir(tmp_path)
    solves = itertools.count()

    def budgeted(*args, **kwargs):
        if next(solves) >= _SOLVE_BUDGET:
            raise continuation.NewtonError("solve budget of the fuzz example spent")
        return _newton_solve(*args, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", budgeted)
    argv, cfg = data.draw(_invocations(command))
    if cfg:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv += ["--config", "cfg.json"]
    assert main(argv) in (0, 1, 2, 3)
    capsys.readouterr()
