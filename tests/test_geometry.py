import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from capwave import crapper
from capwave._kernels import ENDPOINT_BAND, segment_crossings
from capwave.geometry import (
    SurfaceCurve,
    check_above_bed,
    check_injective,
    crapper_profile_injective,
    critical_self_intersection_A,
    steepness,
    surface_profile,
)
from capwave.operators import conformal_metric
from capwave.spectral import DegenerateMetricError, PeriodicFunction, derivative, grid
from _oracles import pairwise_crossings, steepness_closed_form


def test_surface_profile_flat_and_family_values():
    n = 256
    flat = surface_profile(PeriodicFunction.zeros(n), 1.0)
    assert np.max(np.abs(flat.y)) == 0.0
    assert np.max(np.abs(flat.x - grid(n))) < 1e-14
    w = crapper.crapper_wave(0.5, n)
    curve = surface_profile(w, 1.0)
    assert curve.y[0] == pytest.approx(-4.0 / 3.0, abs=1e-12)
    assert curve.y[n // 2] == pytest.approx(4.0, abs=1e-12)
    curve2 = surface_profile(w, 2.0)
    assert curve2.period == pytest.approx(np.pi, rel=1e-15)
    assert np.max(np.abs(curve2.y - curve.y / 2.0)) < 1e-14


def test_surface_profile_periodic_closure():
    # the swept polyline closes the base period with point 0 + period and
    # repeats it for as many periods as the base spans in x: one at A = 0.4,
    # two at A = 0.6 (1.36 periods)
    n = 128
    for A, copies in ((0.4, 1), (0.6, 2)):
        curve = surface_profile(crapper.crapper_wave(A, n), 1.5)
        x, y = curve.extended()
        assert len(x) == len(y) == copies * n + 1
        assert np.array_equal(x[:n], curve.x) and np.array_equal(y[:n], curve.y)
        assert x[n] == curve.x[0] + curve.period and y[n] == curve.y[0]
    assert np.max(np.abs(x[:n] + curve.period - x[n:2 * n])) < 1e-13
    assert np.array_equal(y[:n], y[n:2 * n])


def test_surface_profile_rejects_degenerate_metric():
    bad = PeriodicFunction.from_cosine_series([-1.0], 128)
    with pytest.raises(DegenerateMetricError):
        surface_profile(bad, 1.0)
    with pytest.raises(ValueError):
        surface_profile(crapper.crapper_wave(0.2, 128), 0.0)


def test_check_injective_flat_and_family():
    flat = surface_profile(PeriodicFunction.zeros(256), 1.0)
    assert check_injective(flat).injective
    assert crapper_profile_injective(0.2, 1024)
    report = check_injective(surface_profile(crapper.crapper_wave(0.9, 1024), 1.0))
    assert not report.injective
    assert len(report.crossings) >= 1
    with pytest.raises(ValueError):
        check_injective(SurfaceCurve(x=np.arange(8.0), y=np.zeros(8), k=1.0))


def test_injectivity_symmetric_under_parameter_sign():
    for A in (0.3, 0.6, 0.9):
        assert (crapper_profile_injective(A, 1024)
                == crapper_profile_injective(-A, 1024))


@pytest.mark.parametrize("A", [0.46, 0.5, 0.55, 0.6, 0.7])
def test_crossing_on_the_period_seam_counts_once(A):
    # w_A has its trough at t = 0, so the overhanging crests cross on x = 0,
    # the seam of the period; w_-A is w_A shifted by half a period, with its
    # crossings inside.  Both count the same crossings at every k and grid,
    # and so does the curve translated by any part of a period.
    for k in (0.05, 1.0, 3.7, 12.9):
        for n in (1024, 2048):
            counts = []
            for a in (A, -A):
                curve = surface_profile(crapper.crapper_wave(a, n), k)
                for shift in (0.0, 0.1234567, 1.0 - 1e-12):
                    moved = SurfaceCurve(x=curve.x + shift * curve.period, y=curve.y.copy(), k=k)
                    crossings = check_injective(moved).crossings
                    assert np.all(crossings[:, 0] >= np.min(moved.x))
                    assert np.all(crossings[:, 0] <= max(np.max(moved.x),
                                                         moved.x[0] + moved.period))
                    counts.append(len(crossings))
            assert counts == [2] * 6


@pytest.mark.parametrize("A, count", [(0.8, 4), (0.9, 12), (0.95, None)])
def test_crossing_count_is_the_same_for_every_start_of_the_period(A, count):
    # lobes of steep waves reach several periods away; w_-A is w_A shifted by
    # half a period, and each crossing is counted once whichever point
    # starts the period
    counts = []
    for a in (A, -A):
        curve = surface_profile(crapper.crapper_wave(a, 1024), 1.0)
        for shift in (0.0, 0.1234567, 1.0 - 1e-12):
            moved = SurfaceCurve(x=curve.x + shift * curve.period, y=curve.y.copy(), k=1.0)
            counts.append(len(check_injective(moved).crossings))
    assert counts == [counts[0]] * 6
    assert count is None or counts[0] == count


def test_crossing_sweep_of_a_steep_wave_stays_small():
    # one period of w_0.97 spans 20.9 periods in x: expanding every pair
    # of overlapping segments of the sweep peaks near 135 MB, the pairs with a
    # base-period segment near 20 MB
    curve = surface_profile(crapper.crapper_wave(0.97, 4096), 1.0)
    tracemalloc.start()
    try:
        crossings = check_injective(curve).crossings
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(crossings) == 40
    assert peak < 30e6


def _assert_same_crossings(x, y, owned=None):
    got = segment_crossings(x, y, owned)
    want = pairwise_crossings(x, y, ENDPOINT_BAND, owned)
    assert np.array_equal(got, want)  # same points in the same order
    return got


@st.composite
def _polylines(draw):
    n = draw(st.integers(4, 80))
    coords = arrays(float, n, elements=st.floats(-10.0, 10.0))
    x, y = draw(coords), draw(coords)
    if draw(st.booleans()):  # random walk: winds and overhangs
        x, y = np.cumsum(x), np.cumsum(y)
    return x, y


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_polylines(), st.integers(0, 80))
def test_segment_crossings_match_pairwise_oracle(xy, owned):
    _assert_same_crossings(*xy)
    _assert_same_crossings(*xy, owned)  # only the rows of the owned segments


def test_segment_crossings_match_oracle_on_crapper_curves():
    # on the polyline check_injective sweeps, with its owned rows
    for n in (1024, 2048):
        for A in (0.3, 0.45, 0.46, 0.6, 0.9):
            x, y = surface_profile(crapper.crapper_wave(A, n), 1.0).extended()
            hits = _assert_same_crossings(x, y, n)
            assert (len(hits) == 0) == (A < 0.4546)
    # steep waves sweep 2-7 periods; every pair of segments, owned or not, at +-0.8
    for A in (0.8, -0.8, 0.9, -0.9):
        x, y = surface_profile(crapper.crapper_wave(A, 1024), 1.0).extended()
        _assert_same_crossings(x, y, 1024)
        if abs(A) == 0.8:
            _assert_same_crossings(x, y)


def test_segment_crossings_skip_disjoint_boxes():
    # four points in order along y = x/3: the outer segments [0.3, 0.6] and
    # [0.8, 0.9] cannot meet, but rounding makes the pairwise orientation
    # tests report a crossing; the sweep never tests a pair whose boxes miss
    x = np.array([0.3, 0.6, 0.8, 0.9])
    y = x / 3.0
    assert len(pairwise_crossings(x, y, ENDPOINT_BAND)) == 1
    assert segment_crossings(x, y).shape == (0, 2)


def test_check_above_bed_examples():
    n = 256
    assert check_above_bed(PeriodicFunction.zeros(n), 1.0, 1.0)
    w = crapper.crapper_wave(0.5, n)  # min w = -4/3
    assert not check_above_bed(w, 1.0, 1.0)
    assert check_above_bed(w, 1.0, 2.0)
    with pytest.raises(ValueError):
        check_above_bed(w, 1.0, np.inf)


def test_steepness_examples():
    assert steepness(PeriodicFunction.zeros(64)) == 0.0
    for A in (0.1, 0.3, 0.5, 0.8):
        w = crapper.crapper_wave(A, 512)
        assert abs(steepness(w) - steepness_closed_form(A)) < 1e-10
    # the ratio is the same in physical units: both coordinates scale by 1/k
    w = crapper.crapper_wave(0.3, 256)
    curve = surface_profile(w, 7.0)
    assert np.ptp(curve.y) / curve.period == pytest.approx(steepness(w), rel=1e-14)


def test_metric_matches_squared_curve_speed():
    for A, k in ((0.3, 1.0), (0.6, 2.5)):
        n = 512
        w = crapper.crapper_wave(A, n)
        curve = surface_profile(w, k)
        # d/dt of (X - t/k) and Y are spectral derivatives of periodic parts
        xper = PeriodicFunction.from_samples(curve.x - grid(n) / k)
        y = PeriodicFunction.from_samples(curve.y)
        dx = derivative(xper).samples + 1.0 / k
        dy = derivative(y).samples
        speed2 = (dx ** 2 + dy ** 2) * k ** 2
        assert np.max(np.abs(speed2 - conformal_metric(w))) < 1e-10


def test_critical_self_intersection_threshold():
    a_star = critical_self_intersection_A(tol=1e-3, n_grid=1024)
    assert 0.4 < a_star < 0.5
    assert crapper_profile_injective(a_star - 0.05, 1024)
    assert not crapper_profile_injective(a_star + 0.05, 1024)
    with pytest.raises(ValueError):
        critical_self_intersection_A(tol=1e-5)


def test_segment_crossings_validation():
    with pytest.raises(ValueError):
        segment_crossings(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        segment_crossings(np.zeros(8), np.zeros(4))
    # two crossing segments embedded in a zig-zag polyline
    x = np.array([0.0, 1.0, 1.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    hits = segment_crossings(x, y)
    assert len(hits) == 1
    assert hits[0] == pytest.approx([0.5, 0.5], abs=1e-12)
