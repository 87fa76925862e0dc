"""Tests of the benchmark itself: seeded inputs, self-time arithmetic,
validation that rejects wrong results, and exact counts that repeat.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from tracing import Tracer, layer_table, per_op_counts, self_times  # noqa: E402
from workloads import WORKLOADS, ValidationError, latin_hypercube  # noqa: E402

import numpy as np  # noqa: E402


@pytest.fixture(scope="module")
def loaded():
    return run.load()


# a deep sheet small enough for a test: M=24 on a 64-point grid
SMALL_SHEET = {"A": 0.2, "alpha_max": 0.02, "M": 24}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(loaded, name):
    wl = WORKLOADS[name](*loaded)
    n = wl.n_ops(30)
    first = wl.inputs(7, n)
    assert first == wl.inputs(7, n)
    assert first != wl.inputs(8, n)
    assert len(first) == n


def test_op_count_follows_seconds_only(loaded):
    wl = WORKLOADS["deep_sheet"](*loaded)
    assert wl.n_ops(20) == wl.n_ops(20.0) == 8
    assert wl.n_ops(1) == 3


def test_latin_hypercube_one_point_per_stratum():
    pts = latin_hypercube(np.random.default_rng(3), 7, [(0.0, 1.4), (-1.0, 1.0)])
    for d, (lo, hi) in enumerate([(0.0, 1.4), (-1.0, 1.0)]):
        strata = sorted(int((p[d] - lo) / (hi - lo) * 7) for p in pts)
        assert strata == list(range(7))


def test_latin_hypercube_pairing_is_the_same_for_every_seed():
    ranges = [(0.0, 1.0), (-1.0, 1.0), (2.0, 3.0)]

    def strata(seed):
        pts = latin_hypercube(np.random.default_rng(seed), 9, ranges)
        return sorted(tuple(int((x - lo) / (hi - lo) * 9) for x, (lo, hi) in zip(p, ranges))
                      for p in pts)

    assert strata(1) == strata(2) == strata(3)


def test_times_are_scaled_to_the_reference_speed():
    nominal = run.REF_NOMINAL_S
    records = [{"seconds": s, "results": 2, "failure": None, "ref_s": 2 * nominal}
               for s in (1.0, 2.0, 3.0)]
    set_ups = [{"setup_s": 0.3, "ref_s": 1.5 * nominal}, {"setup_s": 0.2, "ref_s": nominal},
               {"setup_s": 0.5, "ref_s": 0.5 * nominal}]
    metrics, wall, ref_s = run.end_to_end(records, set_ups)
    assert wall["op_s.p50"] == 2.0 and wall["setup_s"] == 0.3
    assert metrics["op_s.p50"] == pytest.approx(1.0)
    assert metrics["results_per_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.2)  # median of 0.2, 0.2 and 1.0
    assert ref_s == 2 * nominal


def test_family_inputs_cover_both_signs_and_skip_zero(loaded):
    wl = WORKLOADS["family_restarts"](*loaded)
    values = [op["A"] for op in wl.inputs(1, 400)]
    assert all(0.1 <= abs(a) <= 0.8 for a in values)
    assert min(values) < -0.7 and max(values) > 0.7


def test_self_time_on_synthetic_tree():
    spans = [("op", 0.0, 10.0, -1, 0),
             ("continuation.a", 1.0, 5.0, 0, 0),
             ("spectral.b", 2.0, 3.0, 1, 0),
             ("spectral.b", 3.5, 4.5, 1, 0),
             ("geometry.c", 6.0, 9.0, 0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 3.0])
    table = layer_table(spans, self_times(spans))
    assert {k: v["self_s"] for k, v in table.items()} == pytest.approx(
        {"op": 3.0, "continuation": 2.0, "spectral": 2.0, "geometry": 3.0})
    assert table["spectral"]["spans"] == 2
    # children that overlap are covered once
    assert self_times([("x", 0.0, 4.0, -1, 0), ("y", 1.0, 3.0, 0, 0),
                       ("z", 2.0, 4.0, 0, 0)])[0] == pytest.approx(1.0)


def test_sheet_validation_rejects_a_perturbed_coefficient(loaded, tmp_path):
    wl = WORKLOADS["deep_sheet"](*loaded)
    raw = wl.run(SMALL_SHEET, tmp_path)
    assert wl.validate(SMALL_SHEET, raw, tmp_path) == wl.steps + 1
    data = json.loads((tmp_path / "branch.json").read_text())
    data["solutions"][1]["cosine_coeffs"][3] += 1e-6
    with pytest.raises(ValidationError, match="residual"):
        wl.check_branch(SMALL_SHEET, data)


def test_sheet_validation_rejects_a_missing_point(loaded, tmp_path):
    wl = WORKLOADS["deep_sheet"](*loaded)
    wl.run(SMALL_SHEET, tmp_path)
    data = json.loads((tmp_path / "branch.json").read_text())
    data["solutions"].pop()
    with pytest.raises(ValidationError, match="accepted points"):
        wl.check_branch(SMALL_SHEET, data)


def test_threshold_validation_rejects_half(loaded):
    wl = WORKLOADS["threshold_sweep"](*loaded)
    assert wl.validate({}, 0.4546) == 1
    with pytest.raises(ValidationError):
        wl.validate({}, 0.5)


def test_restart_validation_rejects_a_wrong_family_member(loaded):
    wl = WORKLOADS["family_restarts"](*loaded)
    good = loaded[0].continuation.crapper_curve_check([0.2])
    assert wl.validate({"A": 0.2}, good) == 1
    with pytest.raises(ValidationError):
        wl.validate({"A": 0.2}, dict(good, all_on_family=False))
    with pytest.raises(ValidationError):
        wl.validate({"A": 0.2}, dict(good, max_coefficient_error=1e-3))


def test_tracer_wraps_every_reference_and_restores(loaded):
    capwave = loaded[0]
    mul, hilbert = capwave.spectral.mul, capwave.spectral.hilbert
    cmd_continue = capwave.cli.cmd_continue
    tracer = Tracer()
    with tracer.op(0):
        assert capwave.operators.mul is capwave.spectral.mul is not mul
        assert capwave.operators.mul.__wrapped__ is mul
        assert capwave.hilbert is capwave.geometry.hilbert is not hilbert
        assert capwave.cli._DISPATCH["continue"] is capwave.cli.cmd_continue
        assert capwave.cli.cmd_continue.__wrapped__ is cmd_continue
    assert capwave.operators.mul is mul and capwave.spectral.mul is mul
    assert capwave.hilbert is hilbert and capwave.geometry.hilbert is hilbert
    assert capwave.cli._DISPATCH["continue"] is cmd_continue


def test_exact_counts_repeat(loaded, tmp_path):
    wl = WORKLOADS["deep_sheet"](*loaded)
    tracer = Tracer()
    for op_id in (0, 1):
        workdir = tmp_path / str(op_id)
        workdir.mkdir()
        with tracer.op(op_id):
            wl.run(SMALL_SHEET, workdir)
        size = sum(p.stat().st_size for p in workdir.rglob("*") if p.is_file())
        tracer.add(op_id, "serialization.bytes_written", size)
    counts = per_op_counts(tracer)
    assert counts[0] == counts[1]
    # A = 0.2 in deep water: no crossings and no finite-depth residual
    assert {k for k, v in counts[0].items() if v == 0} == {
        "operators.residual_fd.calls", "geometry.crossings_found"}
