import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from capwave import spectral
from capwave.spectral import (
    DegenerateMetricError,
    PeriodicFunction,
    derivative,
    grid,
    hilbert,
    hilbert_strip,
    mean,
    mul,
)
from capwave.operators import _slope_metric
from _oracles import (add_negated, coeffs_two_pass, crapper_samples, crapper_conjugate,
                      kappa_tail_bound, samples_two_pass, sine_coefficients, theta_samples)


def _assert_even(f):
    assert np.max(np.abs(sine_coefficients(f, f.n_grid // 2 - 1))) < 1e-12


def _assert_odd(f):
    assert np.max(np.abs(f.cosine_coefficients(f.n_grid // 2 - 1))) < 1e-12
    assert abs(mean(f)) < 1e-12


def _random_band_limited(rng, n_grid, modes=12, odd=False):
    coeffs = rng.standard_normal(modes) / (1.0 + np.arange(modes)) ** 2
    if odd:
        return PeriodicFunction.from_sine_series(coeffs, n_grid)
    return PeriodicFunction.from_cosine_series(coeffs, n_grid)


def test_round_trip_samples_coeffs_samples():
    rng = np.random.default_rng(11)
    for n in (64, 128, 256, 512, 1024):
        values = np.cos(grid(n)) + 0.3 * np.sin(2 * grid(n)) + rng.standard_normal(n) * 0.1
        f = PeriodicFunction.from_samples(values)
        scale = 1.0 + np.max(np.abs(values))
        # the modes are the plain FFT of the samples and reproduce them
        assert np.max(np.abs(np.fft.ifft(f.coeffs).real * n - f.samples)) < 1e-13 * scale
        assert np.array_equal(f.coeffs, np.fft.fft(values) / n)
        back = PeriodicFunction(f.coeffs.copy())
        assert np.max(np.abs(back.samples - values)) < 1e-13 * scale


def test_mean_examples():
    n = 256
    assert mean(PeriodicFunction.from_samples(np.cos(grid(n)))) == pytest.approx(0.0, abs=1e-15)
    w = PeriodicFunction.from_samples(crapper_samples(0.5, grid(n)))
    assert abs(mean(w)) < 1e-13
    one = PeriodicFunction.from_samples(np.ones(n))
    assert mean(one) == pytest.approx(1.0, abs=1e-15)


def test_derivative_examples():
    n = 128
    t = grid(n)
    d = derivative(PeriodicFunction.from_samples(np.cos(t)))
    assert np.max(np.abs(d.samples + np.sin(t))) < 1e-13
    _assert_odd(d)
    # even function has a critical point at t = 0
    w = PeriodicFunction.from_samples(crapper_samples(0.5, t))
    assert abs(derivative(w).samples[0]) < 1e-12
    # termwise differentiation of a 2-mode profile
    A = 0.5
    f = PeriodicFunction.from_cosine_series([4 * (-A), 4 * A ** 2], n)
    expected = -4 * (-A) * np.sin(t) - 8 * A ** 2 * np.sin(2 * t)
    assert np.max(np.abs(derivative(f).samples - expected)) < 1e-13


def test_hilbert_examples_and_convention():
    n = 256
    t = grid(n)
    h = hilbert(PeriodicFunction.from_samples(np.cos(t)))
    assert np.max(np.abs(h.samples - np.sin(t))) < 1e-13
    w = PeriodicFunction.from_samples(crapper_samples(0.5, t))
    cw = hilbert(w)
    assert cw.samples[n // 4] == pytest.approx(-1.6, abs=1e-13)
    assert np.max(np.abs(cw.samples - crapper_conjugate(0.5, t))) < 1e-13
    f = PeriodicFunction.from_sine_series([0, 0, 1.0], n)
    twice = hilbert(hilbert(f))
    assert np.max(np.abs(twice.samples + f.samples)) < 1e-13


def test_conjugations_map_any_mean_to_zero():
    t = grid(64)
    h = hilbert(PeriodicFunction.from_samples(1.0 + np.cos(t)))
    assert np.max(np.abs(h.samples - np.sin(t))) < 1e-13
    # rows with zero, positive, zero-to-rounding, random and negative means,
    # as one stack and one by one, made from samples and from modes
    S = _mixed_stack(np.random.default_rng(8), 64)
    inputs = [S, PeriodicFunction(S.coeffs.copy())]
    inputs += [PeriodicFunction.from_samples(s) for s in S.samples]
    inputs += [PeriodicFunction(c.copy()) for c in S.coeffs]
    for f in inputs:
        for op in (hilbert, lambda f: hilbert_strip(f, 0.8)):
            total, dropped = op(f), op(f - mean(f))
            assert total.samples.tobytes() == dropped.samples.tobytes()
            # the zero at mode 0 may differ in sign, every other mode in no bit
            a, b = total.coeffs.copy(), dropped.coeffs.copy()
            assert np.all(a[..., 0] == 0.0) and np.all(b[..., 0] == 0.0)
            a[..., 0] = b[..., 0] = 0.0
            assert a.tobytes() == b.tobytes()


def test_hilbert_parity_flip():
    n = 128
    even = PeriodicFunction.from_cosine_series([1.0, 0.5], n)
    odd = PeriodicFunction.from_sine_series([1.0, 0.5], n)
    _assert_odd(hilbert(even))
    _assert_even(hilbert(odd))
    _assert_odd(hilbert_strip(even, 2.0))
    _assert_odd(derivative(even))
    _assert_even(derivative(odd))


def test_hilbert_skew_on_zero_mean_functions():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = _random_band_limited(rng, 256)
        g = _random_band_limited(rng, 256, odd=True)
        q = mean(mul(hilbert(f), g) + mul(f, hilbert(g)))
        assert abs(q) < 1e-12


def test_hilbert_strip_examples():
    n = 128
    t = grid(n)
    f = PeriodicFunction.from_samples(np.cos(t))
    out = hilbert_strip(f, 1.0)
    coth1 = 1.0 / np.tanh(1.0)
    assert np.max(np.abs(out.samples - coth1 * np.sin(t))) < 1e-13
    assert coth1 == pytest.approx(1.3130, abs=1e-4)
    g = PeriodicFunction.from_samples(np.sin(2 * t))
    out2 = hilbert_strip(g, 1.0)
    assert np.max(np.abs(out2.samples + np.cos(2 * t) / np.tanh(2.0))) < 1e-13
    with pytest.raises(ValueError):
        hilbert_strip(f, 0.0)
    with pytest.raises(ValueError):
        hilbert_strip(f, -1.0)


def test_strip_multiplier_exceeds_one_and_decreases_in_d():
    n = 64
    t = grid(n)
    for m in (1, 2, 5):
        f = PeriodicFunction.from_samples(np.sin(m * t))
        norms = [np.max(np.abs(hilbert_strip(f, d).samples)) for d in (0.5, 1.0, 2.0, 4.0)]
        assert all(v >= 1.0 - 1e-13 for v in norms)
        assert all(a > b for a, b in zip(norms, norms[1:]))


def test_strip_to_deep_limit_bound_and_ratio():
    n = 512
    w = PeriodicFunction.from_samples(crapper_samples(0.5, grid(n)))
    coeff_sum = np.sum(np.abs(w.coeffs[w.coeffs != 0]))
    deep = hilbert(w)
    prev = None
    for d in (1.0, 2.0, 3.0, 4.0):
        diff = np.max(np.abs(hilbert_strip(w, d).samples - deep.samples))
        assert diff <= kappa_tail_bound(d, 0) * coeff_sum
        if prev is not None:
            assert diff <= 0.2 * prev
        prev = diff


def test_kappa_tail_bound_examples():
    assert kappa_tail_bound(1.0, 0) == pytest.approx(2.0 / np.expm1(2.0), rel=1e-12)
    assert kappa_tail_bound(1.0, 0) == pytest.approx(0.31304, abs=1e-5)
    assert kappa_tail_bound(0.5, 0) == pytest.approx(2.0 / np.expm1(1.0), rel=1e-12)
    assert kappa_tail_bound(0.5, 0) == pytest.approx(1.1639, abs=1e-4)
    assert kappa_tail_bound(20.0, 0) < 1e-16
    # interior maximum for small d and larger p is still found by the scan
    d, p = 0.05, 2
    m = np.arange(1, 2000)
    brute = np.max(m ** (p + 1) * 2.0 / np.expm1(2 * m * d))
    assert kappa_tail_bound(d, p) == pytest.approx(brute, rel=1e-12)


def test_mul_dealiased_product():
    n = 64
    t = grid(n)
    c = PeriodicFunction.from_samples(np.cos(t))
    p = mul(c, c)
    assert np.max(np.abs(p.samples - (1.0 + np.cos(2 * t)) / 2.0)) < 1e-14
    _assert_even(p)
    # odd * odd = even, even * odd = odd
    s = PeriodicFunction.from_samples(np.sin(t))
    _assert_even(mul(s, s))
    _assert_odd(mul(c, s))


def test_exp_examples():
    t = grid(256)
    th = PeriodicFunction.from_samples(theta_samples(0.5, t))
    e = PeriodicFunction.from_samples(np.exp(hilbert(th).samples))
    assert e.samples[0] == pytest.approx(1.0 / 9.0, abs=1e-13)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf inside the FFT
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_conjugation_of_non_finite_samples_is_degenerate(bad):
    # an overflowed residual must read as a failed trial, not as a usage error
    samples = np.cos(grid(64))
    samples[5] = bad
    f = PeriodicFunction.from_samples(samples)
    with pytest.raises(DegenerateMetricError, match="non-finite"):
        hilbert(f)
    with pytest.raises(DegenerateMetricError, match="non-finite"):
        hilbert_strip(f, 1.0)


def test_resample_is_spectral():
    rng = np.random.default_rng(3)
    f = _random_band_limited(rng, 128)
    up = f.resample(512)
    down = up.resample(128)
    assert np.max(np.abs(down.samples - f.samples)) < 1e-13
    # upsampled values interpolate the trig polynomial exactly
    g = PeriodicFunction.from_cosine_series([0.0, 1.0], 64).resample(256)
    assert np.max(np.abs(g.samples - np.cos(2 * grid(256)))) < 1e-13


def test_symmetry_and_mean_of_sums():
    n = 128
    f = PeriodicFunction.from_cosine_series([1.0, 0.2], n)
    _assert_even(f)
    assert abs(mean(f)) < 1e-15
    g = PeriodicFunction.from_sine_series([0.7], n)
    _assert_odd(g)
    h = f + 2.5
    _assert_even(h)
    assert mean(h) == pytest.approx(2.5, abs=1e-14)
    mixed = f + g
    assert np.allclose(mixed.cosine_coefficients(2), [1.0, 0.2], atol=1e-15)
    assert np.allclose(sine_coefficients(mixed, 2), [0.7, 0.0], atol=1e-15)


def test_coefficient_extraction():
    n = 128
    a = [0.5, -0.25, 0.1]
    b = [0.3, 0.0, -0.2]
    f = PeriodicFunction.from_cosine_series(a, n) + PeriodicFunction.from_sine_series(b, n)
    assert np.allclose(f.cosine_coefficients(3), a, atol=1e-15)
    assert np.allclose(sine_coefficients(f, 3), b, atol=1e-15)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicFunction.from_samples(np.zeros(7))
    with pytest.raises(ValueError):
        grid(5)
    with pytest.raises(ValueError):
        PeriodicFunction.from_cosine_series(np.ones(40), 64)


def test_one_grid_contract_at_every_entry_point(monkeypatch):
    # spectral states the rule once; the Newton solve and the Jacobian reach
    # it before any residual call, and the Jacobian before it offers a job
    from capwave import continuation, crapper, linearization
    from capwave.operators import WaveParams

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran although the grid had to be rejected first")

    monkeypatch.setattr(continuation, "residual_inf", must_not_run)
    monkeypatch.setattr(linearization, "_offer", must_not_run)
    w = crapper.crapper_wave(0.3, 64)
    too_many = "^M = 32 needs at least 66 grid points, got 64$"
    for call, message in [
            (lambda: PeriodicFunction.from_samples(np.zeros(7)), "got 7$"),
            (lambda: PeriodicFunction.from_samples(np.zeros(2)), "got 2$"),
            (lambda: grid(5), "got 5$"),
            (lambda: PeriodicFunction.from_cosine_series(np.ones(3), 81), "got 81$"),
            (lambda: PeriodicFunction.from_sine_series(np.ones(3), 2), "got 2$"),
            (lambda: PeriodicFunction.from_cosine_series(np.ones(32), 64), too_many),
            (lambda: PeriodicFunction.from_sine_series(np.ones((2, 32)), 64), too_many),
            (lambda: w.cosine_coefficients(32), too_many),
            (lambda: sine_coefficients(w, 32), too_many),
            (lambda: w.cosine_coefficients(-3), "^M must be >= 0, got -3$"),
            (lambda: sine_coefficients(w, -1), "^M must be >= 0, got -1$"),
            (lambda: continuation.newton_solve(WaveParams(0.0, crapper.beta_of(0.3)), w, M=32),
             too_many),
            (lambda: linearization.jacobian_fd(must_not_run, w, 32), too_many)]:
        if not message.startswith("^"):
            message = "^n_grid must be even and >= 4, " + message
        with pytest.raises(ValueError, match=message):
            call()
    # one mode short of the limit is held
    assert w.cosine_coefficients(31).shape == (31,)
    assert PeriodicFunction.from_sine_series(np.ones(1), 4).n_grid == 4


def test_resample_refuses_a_grid_before_it_resizes(monkeypatch):
    from capwave import crapper, geometry

    w = crapper.crapper_wave(0.3, 64)
    assert w.resample(64) is w
    resized = []
    resize = spectral._resize
    monkeypatch.setattr(spectral, "_resize", lambda c, n: resized.append(n) or resize(c, n))
    for call, n in [(lambda: w.resample(65), 65),
                    (lambda: geometry.surface_profile(w, 1.0, n_points=129), 129)]:
        with pytest.raises(ValueError, match=f"^n_grid must be even and >= 4, got {n}$"):
            call()
    assert not {65, 129} & set(resized)


def test_functions_on_different_grids_do_not_combine():
    f = PeriodicFunction.from_cosine_series([1.0], 8)
    g = PeriodicFunction.from_cosine_series([1.0], 16)
    for op in (lambda: f + g, lambda: f - g, lambda: f * g, lambda: mul(f, g)):
        with pytest.raises(ValueError, match="^grid mismatch: 8 vs 16$"):
            op()


def test_product_operator_is_mul():
    # README's f * g of two functions: the de-aliased product, bit for bit
    rng = np.random.default_rng(3)
    f, g = _random_band_limited(rng, 64), _random_band_limited(rng, 64, odd=True)
    S = _mixed_stack(rng, 64)
    for a, b in ((f, g), (S, f), (f, S), (S, S)):
        product, expected = a * b, mul(a, b)
        assert product.coeffs.tobytes() == expected.coeffs.tobytes()
        assert product.samples.tobytes() == expected.samples.tobytes()


# -- stacks: one function per row ----------------------------------------------------


def _mixed_stack(rng, n):
    """Rows with zero mean (exactly, or to rounding) and rows without."""
    t = grid(n)
    rows = [np.cos(t) + 0.3 * np.cos(3 * t),                   # zero mean
            0.7 + np.sin(2 * t),                                # mean 0.7
            np.sin(t) - 0.2 * np.cos(5 * t) + 1e-15,            # zero to rounding
            rng.standard_normal(n),                             # not band-limited
            -1.5 + 0.5 * np.cos(t)]                             # negative mean
    return PeriodicFunction.from_samples(np.array(rows))


def _assert_rows(stacked, per_row):
    assert stacked.samples.shape == (len(per_row), stacked.n_grid)
    for i, f in enumerate(per_row):
        assert stacked.samples[i].tobytes() == f.samples.tobytes(), i
        assert stacked.coeffs[i].tobytes() == f.coeffs.tobytes(), i


def test_stacked_ops_match_row_by_row():
    rng = np.random.default_rng(5)
    n = 64
    S = _mixed_stack(rng, n)
    T = PeriodicFunction.from_samples(rng.standard_normal(S.samples.shape))
    g = PeriodicFunction.from_samples(rng.standard_normal(n))
    per = np.array([1.5, -0.25, 0.0, 3.0, -2.0])
    rows = lambda F: [PeriodicFunction.from_samples(x) for x in F.samples]
    s_rows, t_rows = rows(S), rows(T)
    _assert_rows(S, s_rows)
    ops = {
        "derivative": (derivative, lambda f, i: derivative(f)),
        "hilbert": (hilbert, lambda f, i: hilbert(f)),
        "hilbert_strip": (lambda F: hilbert_strip(F, 0.8), lambda f, i: hilbert_strip(f, 0.8)),
        "mul": (lambda F: mul(F, T), lambda f, i: mul(f, t_rows[i])),
        "mul by one function": (lambda F: mul(g, F), lambda f, i: mul(g, f)),
        "exp": (lambda F: PeriodicFunction.from_samples(np.exp(F.samples)),
                lambda f, i: PeriodicFunction.from_samples(np.exp(f.samples))),
        "+ function": (lambda F: F + g, lambda f, i: f + g),
        "+ scalar": (lambda F: F + 1.25, lambda f, i: f + 1.25),
        "- scalar": (lambda F: F - 0.4, lambda f, i: f - 0.4),
        "* scalar": (lambda F: 1.3 * F, lambda f, i: 1.3 * f),
        "negation": (lambda F: -F, lambda f, i: -f),
        "+ per row": (lambda F: F + per, lambda f, i: f + per[i]),
        "- per row": (lambda F: F - per, lambda f, i: f - per[i]),
        "* per row": (lambda F: F * per, lambda f, i: f * per[i]),
        "per row *": (lambda F: per * F, lambda f, i: per[i] * f),
        "resample": (lambda F: F.resample(2 * n), lambda f, i: f.resample(2 * n)),
    }
    for name, (stacked_op, row_op) in ops.items():
        _assert_rows(stacked_op(S), [row_op(f, i) for i, f in enumerate(s_rows)])
    # per-row scalars of one function make a stack
    _assert_rows(per * g, [p * g for p in per])
    _assert_rows(g + per, [g + p for p in per])
    assert mean(S).tolist() == [mean(f) for f in s_rows]
    assert S.cosine_coefficients(5).tolist() == [f.cosine_coefficients(5).tolist()
                                                 for f in s_rows]


def test_stacked_checks_fail_when_any_row_fails():
    # the metric bound: profiles a cos t + b cos 2t, row by row as one function
    t = grid(64)
    profiles = np.array([a * np.cos(t) + b * np.cos(2 * t) for a, b in
                         [(0.2, 0.0), (-0.3, 0.1), (0.0, 0.25), (0.45, -0.05), (0.1, 0.1)]])
    W = _slope_metric(PeriodicFunction.from_samples(profiles))[2]
    for row, w in zip(W, profiles):
        assert row.tobytes() == _slope_metric(PeriodicFunction.from_samples(w))[2].tobytes()
    bad = profiles.copy()
    bad[3] = -np.cos(t)  # W = 0 at t = 0
    with pytest.raises(DegenerateMetricError, match="conformal metric vanishes"):
        _slope_metric(PeriodicFunction.from_samples(bad))
    bad[1, 2] = np.nan  # a nan in another row (which the conjugation rejects
    with pytest.raises(DegenerateMetricError):  # first) does not hide the zero row
        _slope_metric(PeriodicFunction.from_samples(bad))


# -- samples computed on first read --------------------------------------------------


_PER_ROW = np.array([0.5, -1.25, 2.0])
# name -> (number of operands, operation); operands may be one function or a
# stack of three, and every result has the grid of its operands
_OPS = {
    "+": (2, lambda f, g: f + g),
    "-": (2, lambda f, g: f - g),
    "mul": (2, mul),
    "atan2": (2, lambda f, g: PeriodicFunction.from_samples(np.arctan2(f.samples, g.samples))),
    "+ scalar": (1, lambda f: 0.75 + f),
    "- scalar": (1, lambda f: f - 0.3),
    "* scalar": (1, lambda f: -1.5 * f),
    "+ per row": (1, lambda f: f + _PER_ROW),
    "* per row": (1, lambda f: _PER_ROW * f),
    "negation": (1, lambda f: -f),
    "derivative": (1, derivative),
    "hilbert": (1, hilbert),
    "hilbert_strip": (1, lambda f: hilbert_strip(f, 0.7)),
    "resample": (1, lambda f: f.resample(2 * f.n_grid).resample(f.n_grid)),
    "sin": (1, lambda f: PeriodicFunction.from_samples(np.sin(f.samples))),
    "cos": (1, lambda f: PeriodicFunction.from_samples(np.cos(f.samples))),
    "exp": (1, lambda f: PeriodicFunction.from_samples(np.exp(np.sin(f.samples)))),
}


def _program_inputs(values):
    """A stack, one function, and a stack whose row 1 has zero mean to
    rounding and whose other rows do not, each built afresh."""
    mixed = values.copy()
    mixed[1] -= mixed[1].mean()
    return [PeriodicFunction.from_samples(values), PeriodicFunction(values[0].astype(complex)),
            PeriodicFunction.from_samples(mixed)]


def _run_program(values, program, reads):
    """Apply `program` (operation name, operand picks) to a pool that starts
    with the inputs, reading each new result's representations as `reads`
    says ("samples", "coeffs" or nothing) when it is made."""
    pool = _program_inputs(values)
    for (name, picks), read in zip(program, reads):
        arity, op = _OPS[name]
        pool.append(op(*(pool[p % len(pool)] for p in picks[:arity])))
        if read:
            getattr(pool[-1], read)
    return pool


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.sampled_from([8, 16, 64]), data=st.data())
def test_reading_order_does_not_change_bits(n, data):
    values = data.draw(arrays(float, (3, n), elements=st.floats(-2.0, 2.0)))
    program = data.draw(st.lists(st.tuples(st.sampled_from(sorted(_OPS)),
                                           st.tuples(st.integers(0, 50), st.integers(0, 50))),
                                 min_size=1, max_size=8))
    reads = data.draw(st.lists(st.sampled_from(["samples", "coeffs", None]),
                               min_size=len(program), max_size=len(program)))
    # samples first, everything read at the end, against modes first with the
    # drawn reads along the way
    late = _run_program(values, program, [None] * len(program))
    for f in late:
        f.samples, f.coeffs
    early = _run_program(values, program, reads)
    for f in reversed(early):
        f.coeffs, f.samples
    for a, b in zip(late, early):
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
        for arr in (a.samples, a.coeffs, a._fine, b.samples, b.coeffs, b._fine):
            assert arr is None or not arr.flags.writeable


# -- one pass per transform, multipliers built once ----------------------------------


def _six_row_stacks(n):
    t = grid(n)
    k = np.arange(1, 7)[:, None]
    return {"zero": np.zeros((6, n)),
            "even": np.cos(k * t) / k + 0.3 * np.cos(3 * k * t) - 0.1 * k,
            "odd": np.sin(k * t) / k - 0.2 * np.sin(2 * k * t),
            "random": np.random.default_rng(n).standard_normal((6, n))}


@pytest.mark.parametrize("n", [64, 96, 400, 512, 1000, 2048])
def test_one_pass_transforms_keep_the_bits_of_the_two_pass_ones(n):
    # the sign of zero counts: tobytes, not ==
    for name, x in _six_row_stacks(n).items():
        c = spectral._coeffs_of(x)
        assert c.tobytes() == coeffs_two_pass(x).tobytes(), name
        f = PeriodicFunction.from_samples(x)
        # the modes whose samples the operators read
        for modes in (c, derivative(f).coeffs, hilbert(f).coeffs,
                      hilbert_strip(f, 0.7).coeffs, spectral._resize(c, 2 * n)):
            assert spectral._samples_of(modes).tobytes() == samples_two_pass(modes).tobytes(), name


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.0, 1e-300])


def _special_values(rng, shape):
    """Normal draws with about half of the entries replaced by +-0, +-inf,
    nan of either sign and a few ordinary numbers; row 0 all +0.0, row 1 all
    -0.0."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape) < 0.5
    x[pick] = rng.choice(_SPECIAL, size=pick.sum())
    x[0], x[1] = 0.0, -0.0
    return x


def _special_pairs(n):
    """(f, g) pairs of six-row stacks and single functions whose samples,
    or whose modes, hold +-0, inf and nan."""
    rng = np.random.default_rng(n)
    real = lambda: _special_values(rng, (6, n))
    cplx = lambda: real() + 1j * real()
    by_samples = [PeriodicFunction.from_samples(real()) for _ in range(2)]
    by_modes = [PeriodicFunction(cplx()) for _ in range(2)]
    one = PeriodicFunction.from_samples(real()[2])
    return {"samples": by_samples, "modes": by_modes, "stack - one": (by_samples[0], one),
            "one - stack": (one, by_modes[1]), "samples - modes": (by_samples[1], by_modes[0])}


def _same_bits_but_nan_sign(a, b):
    a, b = a.view(float), b.view(float)  # a complex entry as its two parts
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("n", [8, 64])
def test_one_pass_difference_has_the_bits_of_adding_the_negation(n):
    # IEEE a - b is a + (-b); only a nan taken from b may come out with the
    # other sign
    with np.errstate(invalid="ignore", over="ignore"):
        for f, g in _special_pairs(n).values():
            new, old = f - g, add_negated(f, g)
            _same_bits_but_nan_sign(new.samples, old.samples)
            _same_bits_but_nan_sign(new.coeffs, old.coeffs)
            # and read the other way round: modes first
            new, old = f - g, add_negated(f, g)
            _same_bits_but_nan_sign(new.coeffs, old.coeffs)
            _same_bits_but_nan_sign(new.samples, old.samples)


def test_cached_multipliers_are_read_only():
    cached = [*spectral._grid_arrays(64)[2:4], spectral._strip_multiplier(64, 0.7)]
    for mult in cached:
        with pytest.raises(ValueError):
            mult[1] = 0.0
    # the same arrays are handed out again
    assert spectral._grid_arrays(64)[2] is cached[0]
    assert spectral._strip_multiplier(64, 0.7) is cached[2]


def test_strip_multiplier_cache_stays_bounded():
    f = PeriodicFunction.from_samples(np.array([np.sin(k * grid(64)) for k in range(1, 7)]))
    d = 0.37
    before = hilbert_strip(f, d).samples.tobytes()
    first = spectral._strip_multiplier(64, d)
    bound = spectral._strip_multiplier.cache_info().maxsize
    for i in range(1000):  # one new depth per continuation step
        hilbert_strip(f, 0.5 + 1e-3 * i)
    assert spectral._strip_multiplier.cache_info().currsize == bound
    again = PeriodicFunction.from_samples(f.samples.copy())
    assert hilbert_strip(again, d).samples.tobytes() == before
    assert spectral._strip_multiplier(64, d) is not first  # evicted, then rebuilt
