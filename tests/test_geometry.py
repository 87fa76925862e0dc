import importlib.util
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from capwave import _kernels, crapper, geometry
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
from capwave.operators import METRIC_FLOOR, conformal_metric
from capwave.spectral import DegenerateMetricError, PeriodicFunction, derivative, grid
from _oracles import (crapper_threshold, metric_samples, pair_crossings, pairwise_crossings,
                      periodic_extension, steepness_closed_form, zeros)


def test_surface_profile_flat_and_family_values():
    n = 256
    flat = surface_profile(zeros(n), 1.0)
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
    # the swept polyline is whole periods, the base period and its copies,
    # closed by point 0 of the next copy: one period at A = 0.4, two at A =
    # 0.6, whose x spans 1.36 periods
    n = 128
    for A, count in ((0.4, 1), (0.6, 2)):
        curve = surface_profile(crapper.crapper_wave(A, n), 1.5)
        x, y = curve.swept()
        assert len(x) == len(y) == count * n + 1
        assert np.array_equal(x[:n], curve.x) and np.array_equal(y[:n], curve.y)
        assert x[-1] == curve.x[0] + count * curve.period and y[-1] == curve.y[0]
    assert np.array_equal(x[n:-1], curve.x + curve.period)
    assert np.array_equal(y[n:-1], curve.y)


def test_surface_profile_rejects_degenerate_metric():
    bad = PeriodicFunction.from_cosine_series([-1.0], 128)
    with pytest.raises(DegenerateMetricError):
        surface_profile(bad, 1.0)
    with pytest.raises(ValueError):
        surface_profile(crapper.crapper_wave(0.2, 128), 0.0)


def test_check_injective_flat_and_family():
    flat = surface_profile(zeros(256), 1.0)
    assert len(check_injective(flat).crossings) == 0
    assert crapper_profile_injective(0.2, 1024)
    report = check_injective(surface_profile(crapper.crapper_wave(0.9, 1024), 1.0))
    assert len(report.crossings) >= 1
    with pytest.raises(ValueError):
        check_injective(SurfaceCurve(x=np.arange(8.0), y=np.zeros(8), k=1.0))


@pytest.mark.parametrize("n_x, n_y, k, message", [
    (3, 3, 1.0, "curve needs matching x/y arrays with >= 4 points"),
    (8, 7, 1.0, "curve needs matching x/y arrays with >= 4 points"),
    (8, 8, 0.0, "wavenumber must be positive"),
    (8, 8, np.nan, "wavenumber must be positive"),
])
def test_surface_curve_refuses_short_or_mismatched_arrays_and_a_bad_wavenumber(
        n_x, n_y, k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SurfaceCurve(x=np.arange(float(n_x)), y=np.zeros(n_y), k=k)


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


def _assert_same_crossings(x, y, owned=None, skip_disjoint_boxes=False):
    got = segment_crossings(x, y, len(x) - 1 if owned is None else owned)
    # the oracle's arithmetic on every pair meets inf - inf and 0 * inf where
    # y holds an infinity or a difference overflows; those pairs fail its tests
    with np.errstate(over="ignore", invalid="ignore"):
        want = pairwise_crossings(x, y, ENDPOINT_BAND, owned, skip_disjoint_boxes)
    assert np.array_equal(got, want)  # same points in the same order
    return got


@st.composite
def _polylines(draw):
    n = draw(st.integers(4, 80))
    kind = draw(st.sampled_from(["points", "walk", "lattice walk"]))
    if kind == "lattice walk":  # vertical segments, repeated points, equal left ends
        steps = arrays(float, n, elements=st.sampled_from([-1.0, 0.0, 1.0]))
        return np.cumsum(draw(steps)), np.cumsum(draw(steps))
    coords = arrays(float, n, elements=st.floats(-10.0, 10.0))
    x, y = draw(coords), draw(coords)
    if kind == "walk":  # winds and overhangs
        x, y = np.cumsum(x), np.cumsum(y)
    return x, y


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_polylines(), st.integers(0, 80))
# a collinear walk on which the oracle reports a pair with disjoint boxes
@example(xy=(np.cumsum(np.full(25, 1e-6)), np.cumsum([-9.0] + [0.99] * 24)), owned=0)
# x rises strictly while y zig-zags: the sweep returns before it sorts
@example(xy=(np.cumsum(np.full(40, 0.01)), np.cumsum(np.tile([5.0, -5.0], 20))), owned=20)
def test_segment_crossings_match_pairwise_oracle(xy, owned):
    # exact on every pair but those whose boxes are disjoint, which the
    # sweep never tests (see test_segment_crossings_skip_disjoint_boxes)
    _assert_same_crossings(*xy, skip_disjoint_boxes=True)
    _assert_same_crossings(*xy, owned, True)  # only the rows of the owned segments


def _splits_at_apex(x, y):
    """Whether some inner point J splits the polyline into two chains, y
    strictly up on 0..J and strictly down on J..end or the other way round,
    with every x of the first chain left of x[J] and of the second right of it."""
    n = len(x)
    for J in range(1, n - 1):
        for s in (1.0, -1.0):
            if (all(s * y[k] < s * y[k + 1] for k in range(J))
                    and all(s * y[k] > s * y[k + 1] for k in range(J, n - 1))
                    and all(x[k] < x[J] for k in range(J))
                    and all(x[J] < x[k] for k in range(J + 1, n))):
                return True
    return False


@st.composite
def _two_chain_polylines(draw):
    # y strictly up to the apex J and down after it (or down then up), the
    # first chain left of x[J] and the second right of it, both free to wind;
    # a drawn perturbation sometimes breaks one condition, and may let the
    # chains cross
    def drawn(size, lo, hi):  # every element drawn, none filled in
        return draw(arrays(float, size, elements=st.floats(lo, hi), fill=st.nothing()))

    n = draw(st.integers(4, 80))
    J = draw(st.integers(1, n - 2))
    steps = drawn(n - 1, 1e-3, 1.0) * np.where(np.arange(n - 1) < J, 1.0, -1.0)
    y = np.cumsum(np.concatenate(([0.0], steps))) * draw(st.sampled_from([1.0, -1.0]))
    x = np.concatenate((drawn(J, -10.0, -1e-3), [0.0], drawn(n - J - 1, 1e-3, 10.0)))
    k = draw(st.integers(0, n - 2))
    # hypothesis leans towards the first kind listed; "none" is listed 8 times
    kind = draw(st.sampled_from(["cross", "tie", "apex x", "touch", "swap", "nan", "third chain"]
                                + ["none"] * 8))
    if kind == "tie":
        y[k + 1] = y[k]
    elif kind == "apex x":
        x[J - 1] = x[J]
    elif kind == "touch" and k > J:
        x[k] = x[:J].max()
    elif kind == "cross":  # the second chain moves left into the first one's x-range
        x[J + 1:] -= draw(st.floats(2.0, 12.0))
    elif kind == "swap":
        y[k], y[k + 1] = y[k + 1], y[k]
    elif kind == "nan":
        (x, y)[draw(st.integers(0, 1))][k] = np.nan
    elif kind == "third chain":
        x = np.concatenate((x, drawn(3, -10.0, 10.0)))
        y = np.concatenate((y, y[-1] - (y[J] - y[-1]) * np.arange(1, 4)))
    return x, y


_CHAINS_X = np.array([-3.0, -1.0, -2.0, 0.0, 2.0, 1.0])
_CHAINS_Y = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0])


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_two_chain_polylines(), st.integers(0, 80))
# two chains split at the apex J = 3, then the near misses that must sort
@example(xy=(_CHAINS_X, _CHAINS_Y), owned=2)
@example(xy=(_CHAINS_X, np.array([0.0, 1.0, 1.0, 3.0, 2.0, 1.0])), owned=5)  # y[1] == y[2]
@example(xy=(np.array([-3.0, -1.0, 0.0, 0.0, 2.0, 1.0]), _CHAINS_Y), owned=5)  # x[J-1] == x[J]
# x[5] == max x[:J]
@example(xy=(np.array([-3.0, -1.0, -2.0, 0.0, 2.0, -1.0]), _CHAINS_Y), owned=5)
@example(xy=(_CHAINS_X, np.array([0.0, 1.0, np.nan, 3.0, 2.0, 1.0])), owned=5)  # a NaN in y
@example(xy=(np.array([-3.0, -1.0, -2.0, 0.0, np.nan, 1.0]), _CHAINS_Y), owned=5)  # and in x
@example(xy=(_CHAINS_X, np.arange(6.0)), owned=5)  # J at the end: one chain up
@example(xy=(_CHAINS_X, -np.arange(6.0)), owned=5)  # and one chain down
# where a sign of y[k+1] - y[k] and a strict comparison could seem to differ
@example(xy=(_CHAINS_X, np.array([1.0, 1.0, 2.0, 3.0, 2.0, 1.0])), owned=5)  # y[0] == y[1]
@example(xy=(_CHAINS_X, np.array([0.0, 1.0, 2.0, np.inf, 2.0, 1.0])), owned=5)  # +inf apex
@example(xy=(_CHAINS_X, np.array([0.0, 1.0, np.inf, np.inf, 2.0, 1.0])), owned=5)  # inf - inf
@example(xy=(_CHAINS_X, np.array([-np.inf, 1.0, 2.0, 3.0, 2.0, -np.inf])), owned=5)  # -inf ends
@example(xy=(_CHAINS_X, -np.array([0.0, 1.0, 2.0, np.inf, 2.0, 1.0])), owned=5)  # -inf apex
# -1e308 to 1e308: the difference overflows to +inf
@example(xy=(_CHAINS_X, np.array([-1e308, 1e308, 1.2e308, 1.4e308, 1.2e308, 1e308])), owned=5)
# a subnormal step: 5e-324 - 0.0 is 5e-324, not 0.0
@example(xy=(_CHAINS_X, np.array([0.0, 5e-324, 2.0, 3.0, 2.0, 1.0])), owned=5)
def test_sweep_returns_before_it_sorts_on_two_chains_split_at_the_apex(xy, owned):
    # the early return fires exactly where the two chains hold, and on those
    # the pairwise oracle finds nothing: no pair the sweep forms could pass
    # its boxes (segments of one chain have disjoint y-ranges; the chains
    # meet in x only at the apex, where their segments are neighbours)
    x, y = xy
    assert bool(_kernels._two_chains(x, y)) == _splits_at_apex(x, y)
    _assert_same_crossings(x, y, skip_disjoint_boxes=True)
    _assert_same_crossings(x, y, owned, True)


def test_segment_crossings_match_oracle_on_crapper_curves():
    # on the polyline check_injective sweeps, with its owned rows
    for n in (1024, 2048):
        for A in (0.3, 0.45, 0.46, 0.6, 0.9):
            x, y = periodic_extension(surface_profile(crapper.crapper_wave(A, n), 1.0))
            hits = _assert_same_crossings(x, y, n)
            assert (len(hits) == 0) == (A < 0.4546)
    # steep waves sweep 2-7 periods; every pair of segments, owned or not, at +-0.8
    for A in (0.8, -0.8, 0.9, -0.9):
        x, y = periodic_extension(surface_profile(crapper.crapper_wave(A, 1024), 1.0))
        _assert_same_crossings(x, y, 1024)
        if abs(A) == 0.8:
            _assert_same_crossings(x, y)


def _started_at(curve, s):
    """The same periodic curve with point s as its first point."""
    x = np.concatenate((curve.x[s:], curve.x[:s] + curve.period))
    return SurfaceCurve(x=x, y=np.roll(curve.y, -s), k=curve.k)


def _assert_swept_whole_periods(curve):
    # the gathered extension, whole periods up to R = max(max x, x[0] +
    # period); bit for bit, so a zero's sign counts
    assert ([a.tobytes() for a in curve.swept()]
            == [a.tobytes() for a in periodic_extension(curve)])


def _assert_sweep_matches_full_polyline(curve, skip_disjoint_boxes=False):
    # check_injective's sweep and the oracle's pairwise tests run on the same
    # polyline, the gathered extension
    _assert_swept_whole_periods(curve)
    want = pairwise_crossings(*periodic_extension(curve), ENDPOINT_BAND, len(curve.x),
                              skip_disjoint_boxes)
    assert np.array_equal(check_injective(curve).crossings, want)


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("A", [0.3, -0.3, 0.46, 0.8, -0.8, 0.9, -0.9])
def test_swept_polyline_is_the_gathered_extension_on_crapper_curves(A, n):
    for k in (1.0, 3.7):
        _assert_swept_whole_periods(surface_profile(crapper.crapper_wave(A, n), k))


# where a sweep cut one point short loses one of two crossings, and a spread
# of both signs
_PRUNED_SWEEP_CASES = [(0.455, 64), (0.4547, 256), (0.8, 64), (0.9, 64), (0.9, 256)]
_PRUNED_SWEEP_CASES += [(s * A, n) for A in (0.3, 0.46, 0.6) for s in (1, -1) for n in (64, 256)]


@pytest.mark.parametrize("A, n", _PRUNED_SWEEP_CASES)
def test_check_injective_matches_the_full_polyline_oracle(A, n):
    for k in (1.0, 3.7):
        curve = surface_profile(crapper.crapper_wave(A, n), k)
        for start in (0, n // 3):
            _assert_sweep_matches_full_polyline(_started_at(curve, start))


@st.composite
def _periodic_walks(draw):
    # n points of a random walk and a period: the closing segment runs from
    # the last point to the first one moved by the period; a walk spans about
    # 5 in x, so most curves span several periods
    n = draw(st.integers(64, 96))
    steps = arrays(float, (2, n), elements=st.floats(-1.0, 1.0))
    x, y = np.cumsum(draw(steps), axis=1)
    return SurfaceCurve(x=x, y=y, k=2.0 * np.pi / draw(st.floats(0.1, 5.0)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_periodic_walks())
def test_check_injective_matches_the_full_polyline_oracle_on_random_walks(curve):
    # pairs with disjoint boxes are left out of the oracle, as the sweep never
    # tests them (see test_segment_crossings_skip_disjoint_boxes)
    _assert_sweep_matches_full_polyline(curve, skip_disjoint_boxes=True)


def _assert_pair_test_is_part_of_the_sweep(x, y, owned, pairs):
    # any pairs, neighbours, reversed pairs and disjoint boxes included, give a
    # subsequence of the sweep's rows, bit for bit and in (i, j) order
    want = [r.tobytes() for r in segment_crossings(x, y, owned)]
    pairs = np.array([p for p in pairs if p[0] < owned], dtype=np.intp).reshape(-1, 2)
    got = pair_crossings(x, y, pairs[:, 0], pairs[:, 1], ENDPOINT_BAND)
    rest = iter(want)
    assert got.shape[1] == 2 and all(r.tobytes() in rest for r in got)
    return want


@st.composite
def _pairs_on(draw, polyline):
    segments = len(polyline[0]) - 1
    index = st.integers(0, segments - 1)
    return draw(st.lists(st.tuples(index, index), unique=True, max_size=3 * segments))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), _polylines(), st.integers(0, 80))
def test_pair_crossings_are_a_subsequence_of_the_sweep_on_polylines(data, xy, owned):
    x, y = xy
    pairs = data.draw(_pairs_on(xy))
    for rows in (owned, len(x) - 1):  # with and without owned rows
        want = _assert_pair_test_is_part_of_the_sweep(x, y, rows, pairs)
        # every pair with an owned lower segment, both boxes tested: the rows
        # of the sweep, which skips the x-box test, exactly
        i, j = np.divmod(np.arange(min(rows, len(x) - 1) * (len(x) - 1)), len(x) - 1)
        assert [r.tobytes() for r in pair_crossings(x, y, i, j, ENDPOINT_BAND)] == want


def test_segment_crossings_skip_disjoint_boxes():
    # four points in order along y = x/3: the outer segments [0.3, 0.6] and
    # [0.8, 0.9] cannot meet, but rounding makes the pairwise orientation
    # tests report a crossing; the sweep never tests a pair whose boxes miss
    x = np.array([0.3, 0.6, 0.8, 0.9])
    y = x / 3.0
    assert len(pairwise_crossings(x, y, ENDPOINT_BAND)) == 1
    assert segment_crossings(x, y, 3).shape == (0, 2)


def test_check_above_bed_examples():
    n = 256
    assert check_above_bed(zeros(n), 1.0, 1.0)
    w = crapper.crapper_wave(0.5, n)  # min w = -4/3
    assert not check_above_bed(w, 1.0, 1.0)
    assert check_above_bed(w, 1.0, 2.0)
    with pytest.raises(ValueError):
        check_above_bed(w, 1.0, np.inf)


def test_steepness_examples():
    assert steepness(zeros(64)) == 0.0
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


_CLOSED_FORM_A = [s * A for A in (0.1, 0.3, 0.4546, 0.6, 0.9) for s in (1, -1)]


def _transformed_profile_injective(A, n):
    # the oracle: the explicit profile drawn through surface_profile's transforms
    return len(check_injective(surface_profile(crapper.crapper_wave(A, n), 1.0)).crossings) == 0


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("A", _CLOSED_FORM_A)
def test_closed_form_curve_matches_the_transformed_profile(A, n):
    w = crapper.crapper_wave(A, n)
    curve = surface_profile(w, 1.0)
    x, y = crapper.circle_samples(A, n)
    closed = metric_samples(A, grid(n))
    assert np.max(np.abs(x - curve.x)) <= 1e-12
    assert np.max(np.abs(y - curve.y)) <= 1e-12
    # relative to max W: near the trough at |A| = 0.9, where W is 7.7e-6, the
    # transformed metric is off by 4.7e-11 of W itself and the closed form by
    # 2.5e-14 (against a 40-digit evaluation)
    W = conformal_metric(w)
    assert np.max(np.abs(closed - W)) <= 1e-12 * np.max(W)
    if abs(A) <= 0.6:
        assert np.max(np.abs(closed / W - 1.0)) <= 1e-12


def test_crapper_profile_injective_decides_as_the_transformed_profile():
    # densely across the threshold A* = 0.4546..., and a spread of both signs
    spread = [s * A for A in (0.05, 0.2, 0.4, 0.45, 0.46, 0.5, 0.7, 0.8, 0.95, 0.99)
              for s in (1, -1)]
    for n in (1024, 2048):
        for A in [*np.linspace(0.453, 0.456, 31), *spread]:
            assert crapper_profile_injective(A, n) == _transformed_profile_injective(A, n)


@pytest.mark.parametrize("A, n_grid, message", [
    (1.0, 1024, r"Crapper parameter must satisfy \|A\| < 1, got 1.0"),
    (np.nan, 1024, r"Crapper parameter must satisfy \|A\| < 1, got nan"),
    (0.995, 1024, r"\|A\| capped at 0.99; spectral resolution grows without bound"),
    (0.3, 1023, "n_grid must be even and >= 4, got 1023"),
    (0.3, 32, "injectivity check needs at least 64 points"),
])
def test_crapper_profile_injective_refuses_what_the_transformed_profile_refused(
        A, n_grid, message):
    for check in (crapper_profile_injective, _transformed_profile_injective):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(A, n_grid)


def test_a_capped_parameter_keeps_the_metric_far_above_its_floor():
    # crapper_profile_injective draws the curve without W and so has no metric
    # refusal; that holds while W at every |A| <= A_CAP stays clear of the
    # floor: its trough ((1-A)/(1+A))^4 is 6.4e-10 at A_CAP = 0.99, and raising
    # the cap towards 1 drives it to 0
    A = crapper.A_CAP
    assert ((1 - A) / (1 + A)) ** 4 >= 100.0 * METRIC_FLOOR
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        for a in (A, -A):
            assert metric_samples(a, grid(n)).min() >= 100.0 * METRIC_FLOOR


A_STAR = crapper_threshold()


def test_crapper_threshold_is_crappers_limiting_amplitude():
    # two nested scipy brentq calls on x = x' = 0 gave 0.45467001645201083
    assert A_STAR == pytest.approx(0.45467001645201083, abs=1e-16)


# both signs across the family, and densely within 3e-4 of A*
_GUARD_A = [s * A for A in (*np.arange(0.05, 0.951, 0.01), *(A_STAR + np.linspace(-3e-4, 3e-4, 13)))
            for s in (1, -1)]


# the 64-point leave flip (see tools/astar_digest.py): a point within
# ENDPOINT_BAND outside its period
_BAND_CURVE = (0.4547202250641474, 64)


def _closed_period(curve):
    """The base period closed at point n, x[0] + period."""
    return (np.concatenate((curve.x, curve.x[:1] + curve.period)),
            np.concatenate((curve.y, curve.y[:1])))


def _inside_one_period(curve):
    return curve.x.min() >= curve.x[0] and curve.x.max() <= curve.x[0] + curve.period


def _past_the_band(curve):
    """A point more than ENDPOINT_BAND outside [x[0], x[0] + period]: the guard's refusal."""
    return (curve.x.min() < curve.x[0] - ENDPOINT_BAND
            or curve.x.max() > curve.x[0] + curve.period + ENDPOINT_BAND)


def test_every_curve_the_guard_refuses_crosses_in_check_injective_and_runs_no_pair_test(
        monkeypatch):
    # the oracle: check_injective sweeps each curve in full; every curve the
    # guard refuses, a point past its period's mirror axes, must cross there
    passes = []
    monkeypatch.setattr(geometry, "segment_crossings",
                        lambda x, y, owned: passes.append("sweep") or segment_crossings(x, y, owned))
    # every pair test of the sweep runs through _crossings
    crossings = _kernels._crossings
    monkeypatch.setattr(_kernels, "_crossings",
                        lambda x, y, i, j: passes.append("pairs") or crossings(x, y, i, j))
    refused = 0
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        for A in _GUARD_A:
            curve = SurfaceCurve(*crapper.circle_samples(A, n), 1.0)
            injective = len(check_injective(curve).crossings) == 0
            passes.clear()
            assert crapper_profile_injective(A, n) == injective
            # x rises strictly only below the fold at sqrt(2) - 1
            x, _ = curve.swept()
            assert bool(np.all(x[1:] > x[:-1])) or abs(A) > np.sqrt(2.0) - 1.0
            if _past_the_band(curve):
                refused += 1
                assert passes == [] and not injective
            else:
                # the sweep alone decides; its early returns (x rising, two
                # chains) form no pair, only a loop inside the period (A < 0)
                # is sorted
                assert _inside_one_period(curve)
                assert passes == (["sweep"] if injective else ["sweep", "pairs"])
                assert injective or A < 0.0
    assert refused == 557  # of 1456 curves; the other 899 stay in their period


def test_where_the_closed_period_is_decided_it_is_the_swept_polyline(monkeypatch):
    # a curve that stays in one period is swept on its closed period:
    # swept() builds one copy and closes it at point n; the A* check sweeps
    # swept()'s polyline bit for bit, built from its guard's bounds, there and
    # on the 64-point curve that leaves its period within the band (two copies)
    swept = []
    monkeypatch.setattr(geometry, "segment_crossings",
                        lambda x, y, owned: swept.append((x, y)) or segment_crossings(x, y, owned))
    inside = 0
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        for A in _GUARD_A:
            curve = SurfaceCurve(*crapper.circle_samples(A, n), 1.0)
            if _inside_one_period(curve):
                inside += 1
                want = [a.tobytes() for a in curve.swept()]
                assert want == [a.tobytes() for a in _closed_period(curve)]
                swept.clear()
                crapper_profile_injective(A, n)
                assert [[a.tobytes() for a in xy] for xy in swept] == [want]
    # every rising and injective curve and the loops inside the period at
    # A < 0, on every grid (557 of the 1456 leave their period)
    assert inside == 899
    A, n = _BAND_CURVE
    curve = SurfaceCurve(*crapper.circle_samples(A, n), 1.0)
    swept.clear()
    assert crapper_profile_injective(A, n)
    assert len(swept[0][0]) == 2 * n + 1
    assert [[a.tobytes() for a in xy] for xy in swept] == [[a.tobytes() for a in curve.swept()]]


@pytest.mark.parametrize("A", [0.46, 0.7])
def test_the_guard_keeps_a_crossing_curve_whose_period_is_two_chains(A):
    # past A* at A > 0 the closed period alone is still two chains: the
    # lobes cross on x = 2*pi, between its end and the next copy's start,
    # where only the guard (a point left of x[0]) sees them
    curve = SurfaceCurve(*crapper.circle_samples(A, 1024), 1.0)
    assert _kernels._two_chains(*_closed_period(curve))
    assert curve.x.min() < curve.x[0]
    crossings = check_injective(curve).crossings
    assert len(crossings) > 0 and np.allclose(crossings[:, 0], 2.0 * np.pi)
    assert not crapper_profile_injective(A, 1024)


def test_the_sweep_decides_a_curve_whose_point_leaves_its_period_within_the_band():
    # at the 64-point leave flip (see tools/astar_digest.py) rounding puts a
    # point 4.4e-16 left of x[0] and one 8.9e-16 right of x[0] + 2*pi while
    # the curve has no crossing the sweep counts: the guard leaves it to the
    # sweep on swept() (checked bit for bit in
    # test_where_the_closed_period_is_decided_it_is_the_swept_polyline), which
    # keeps it injective
    A, n = _BAND_CURVE
    curve = SurfaceCurve(*crapper.circle_samples(A, n), 1.0)
    assert curve.x[0] - curve.x.min() == 2.0 ** -51
    assert curve.x.max() - (curve.x[0] + curve.period) == 2.0 ** -50
    assert not _past_the_band(curve)
    assert crapper_profile_injective(A, n)
    assert len(check_injective(curve).crossings) == 0


def test_astar_digest_repeats_and_sees_each_decision(monkeypatch):
    # tools/astar_digest.py on a small grid: two runs give the same sha256,
    # and one flipped decision, on the family or by a leave flip, gives another
    spec = importlib.util.spec_from_file_location(
        "astar_digest", Path(__file__).resolve().parents[1] / "tools" / "astar_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.A_STAR == pytest.approx(A_STAR, abs=1e-16)  # one ulp apart
    values = tool.parameters()
    assert len(values) == 1901 + 2 * 201 and values[:2] == [-0.95, -0.949] and values[1900] == 0.95
    # the 64-point leave flip is the band case above, and the float just
    # below it stays in its period
    flips = tool.flip_values(1.0, 64)
    assert len(flips) == 2 * 200 + 1 and flips[200] == 0.4547202250641474
    assert tool.leaves_period(flips[200], 64) and not tool.leaves_period(flips[199], 64)
    assert all(A < 0.0 for A in tool.flip_values(-1.0, 64))
    small = dict(values=[0.3, 0.44, 0.46, -0.46, 0.7], grids=(64, 256),
                 brackets=[(1024, 0.25, 0.6)], flip_grids=(64,))
    first = tool.digest(**small)
    assert re.fullmatch("[0-9a-f]{64}", first) and tool.digest(**small) == first
    for flipped in (0.7, flips[-1]):
        monkeypatch.setattr(tool, "crapper_profile_injective",
                            lambda A, n: crapper_profile_injective(A, n) != (A == flipped))
        assert tool.digest(**small) != first


# A* as the bisection returned it when each curve came from the grid
# transforms of surface_profile; the closed form keeps every bit, and the
# final bracket (width <= tol, centred on the result) holds the closed-form A*
@pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048, 4096])
def test_critical_self_intersection_A_is_pinned_on_the_default_bracket(n):
    a_star = critical_self_intersection_A(tol=1e-3, n_grid=n)
    assert a_star == 0.45463867187500007
    assert abs(a_star - A_STAR) <= 1e-3 / 2


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("lo, hi, a_star", [
    (0.25, 0.6, 0.454736328125),
    (0.35, 0.85, 0.45498046875),
    (0.3979, 0.5021, 0.45447734375),
])
def test_critical_self_intersection_A_is_pinned_on_threshold_sweep_brackets(lo, hi, a_star, n):
    assert critical_self_intersection_A(tol=1e-3, n_grid=n, lo=lo, hi=hi) == a_star
    assert abs(a_star - A_STAR) <= 1e-3 / 2


# how far above A* the sampled curve first crosses itself, per grid: a 40-step
# bisection measured 5.02e-5 (64 points), 2.74e-6 (256), 2.86e-7 (1024 and
# 2048) and 1.65e-10 (4096); the sampled polyline cuts the lobe's corner
@pytest.mark.parametrize("n, bound", [(64, 5.1e-5), (256, 2.8e-6), (1024, 2.9e-7),
                                      (2048, 2.9e-7), (4096, 1.7e-10)])
def test_sampled_threshold_sits_just_above_the_closed_form(n, bound):
    lo, hi = 0.2, 0.9
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if crapper_profile_injective(mid, n) else (lo, mid)
    assert A_STAR < lo < hi < A_STAR + bound


@pytest.mark.parametrize("n_grid", [1024, 2048, 4096])
@pytest.mark.parametrize("tol", [5e-5, 3e-7])
def test_critical_self_intersection_names_its_tol_floor_fixed_on_every_grid(monkeypatch, n_grid,
                                                                            tol):
    # 2048 points resolve A* to 3e-7, yet 1e-4 stays the floor: the message says so
    def must_not_run(A, n_grid):
        raise AssertionError("a profile was checked although tol had to be rejected first")

    monkeypatch.setattr(geometry, "crapper_profile_injective", must_not_run)
    with pytest.raises(ValueError, match=rf"^tol below 1e-4 is refused on every grid "
                                         rf"\(a fixed floor\), got {tol:g}$"):
        critical_self_intersection_A(tol=tol, n_grid=n_grid)


def test_critical_self_intersection_threshold():
    a_star = critical_self_intersection_A(tol=1e-3, n_grid=1024)
    assert 0.4 < a_star < 0.5
    assert crapper_profile_injective(a_star - 0.05, 1024)
    assert not crapper_profile_injective(a_star + 0.05, 1024)
    with pytest.raises(ValueError):
        critical_self_intersection_A(tol=1e-5)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_critical_self_intersection_refuses_a_tol_that_is_not_finite(monkeypatch, tol):
    # either ends the bisection before its first step, at the bracket's midpoint
    def must_not_run(A, n_grid):
        raise AssertionError("a profile was checked although tol had to be rejected first")

    monkeypatch.setattr(geometry, "crapper_profile_injective", must_not_run)
    with pytest.raises(ValueError, match=f"^tol must be finite, got {tol}$"):
        critical_self_intersection_A(tol=tol)


def test_critical_self_intersection_halves_a_lower_bracket_that_crosses():
    # lo = 0.8 crosses, so it is halved to 0.4, which does not; the
    # threshold is the one found from the default lo, within tol
    a_star = critical_self_intersection_A(tol=1e-3, n_grid=1024)
    halved = critical_self_intersection_A(tol=1e-3, n_grid=1024, lo=0.8)
    assert 0.4 < halved < 0.5 and abs(halved - a_star) < 1e-3


def test_critical_self_intersection_halves_a_negative_lower_bracket():
    # -0.5 crosses (w_-A is w_A shifted by half a period), so it is halved to
    # -0.25, which does not: a bracket, not a failure to find one
    a_star = critical_self_intersection_A(tol=1e-3, n_grid=1024, lo=-0.5)
    assert abs(a_star - A_STAR) <= 1e-3 / 2 + 3e-7


def test_critical_self_intersection_refuses_a_reversed_bracket():
    # hi = -0.7 crosses and lo is injective as given, so no step would run and
    # the midpoint, -0.25 or -0.45, came back as the threshold
    for lo in (0.2, -0.2):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"need lo < hi once lo is injective, got lo={lo}, hi=-0.7") + "$"):
            critical_self_intersection_A(tol=1e-3, n_grid=1024, lo=lo, hi=-0.7)
    # lo = 0.6 crosses and halves to 0.3, below hi: a bracket
    assert critical_self_intersection_A(tol=1e-3, n_grid=1024, lo=0.6, hi=0.5) == 0.45429687500000004


def test_critical_self_intersection_needs_a_crossing_upper_bracket():
    with pytest.raises(RuntimeError, match="^expected a self-intersecting profile at A=0.3$"):
        critical_self_intersection_A(tol=1e-3, n_grid=1024, hi=0.3)


def test_critical_self_intersection_gives_up_when_no_lower_bracket_is_injective(monkeypatch):
    monkeypatch.setattr(geometry, "crapper_profile_injective", lambda A, n_grid: False)
    with pytest.raises(RuntimeError, match="failed to bracket"):
        critical_self_intersection_A()


def test_segment_crossings_of_an_injective_curve_are_an_empty_float_array():
    x, y = surface_profile(crapper.crapper_wave(0.3, 1024), 1.0).swept()
    hits = segment_crossings(x, y, 1024)
    assert hits.shape == (0, 2) and hits.dtype == np.float64


def test_segment_crossings_validation():
    with pytest.raises(ValueError):
        segment_crossings(np.zeros(3), np.zeros(3), 2)
    with pytest.raises(ValueError):
        segment_crossings(np.zeros(8), np.zeros(4), 7)
    # two crossing segments embedded in a zig-zag polyline
    x = np.array([0.0, 1.0, 1.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    hits = segment_crossings(x, y, 3)
    assert len(hits) == 1
    assert hits[0] == pytest.approx([0.5, 0.5], abs=1e-12)


@pytest.mark.parametrize("n", [64, 1024])
def test_crapper_abscissa_rises_strictly_until_it_folds_at_sqrt2_minus_1(n):
    # x' = 1 - 4A(a cos t + 2A)/(a + 2A cos t)^2, a = 1 + A^2, first vanishes
    # at t = pi/2 when |A| = sqrt(2) - 1; below it the sweep returns at once
    for A, rises in ((0.3, True), (0.414, True), (0.416, False), (0.45, False)):
        for s in (1, -1):
            x, _ = surface_profile(crapper.crapper_wave(s * A, n), 1.0).swept()
            assert bool(np.all(x[1:] > x[:-1])) == rises
