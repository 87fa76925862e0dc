import numpy as np
import pytest

from capwave.spectral import (
    DegenerateMetricError,
    PeriodicFunction,
    derivative,
    grid,
    hilbert,
    hilbert_strip,
    kappa_tail_bound,
    mean,
    mul,
    pf_exp,
    pf_pow,
)
from _oracles import crapper_samples, crapper_conjugate, theta_samples


def _assert_even(f):
    assert np.max(np.abs(f.sine_coefficients(f.n_grid // 2 - 1))) < 1e-12


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
        back = PeriodicFunction.from_coeffs(f.coeffs)
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


def test_hilbert_rejects_nonzero_mean():
    f = PeriodicFunction.from_samples(1.0 + np.cos(grid(64)))
    with pytest.raises(ValueError, match="zero-mean"):
        hilbert(f)
    with pytest.raises(ValueError, match="zero-mean"):
        hilbert_strip(f, 1.0)


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
    with pytest.raises(ValueError):
        kappa_tail_bound(0.0, 0)
    with pytest.raises(ValueError):
        kappa_tail_bound(1.0, -1)


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


def test_pow_and_exp_examples():
    n = 256
    t = grid(n)
    flat = pf_pow(1.0 + 0.0 * PeriodicFunction.from_samples(np.cos(t)), -0.5)
    assert np.max(np.abs(flat.samples - 1.0)) < 1e-14
    th = PeriodicFunction.from_samples(theta_samples(0.5, t))
    e = pf_exp(hilbert(th))
    assert e.samples[0] == pytest.approx(1.0 / 9.0, abs=1e-13)


def test_pow_degenerate_rejected():
    t = grid(64)
    base = PeriodicFunction.from_samples(1.0 - np.cos(t))  # touches zero at t = 0
    with pytest.raises(DegenerateMetricError):
        pf_pow(base, -0.5)


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
    with pytest.raises(ValueError, match="zero-mean"):
        hilbert(PeriodicFunction.from_samples(np.ones(64)))


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
    assert np.allclose(mixed.sine_coefficients(2), [0.7, 0.0], atol=1e-15)


def test_coefficient_extraction():
    n = 128
    a = [0.5, -0.25, 0.1]
    b = [0.3, 0.0, -0.2]
    f = PeriodicFunction.from_cosine_series(a, n) + PeriodicFunction.from_sine_series(b, n)
    assert np.allclose(f.cosine_coefficients(3), a, atol=1e-15)
    assert np.allclose(f.sine_coefficients(3), b, atol=1e-15)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicFunction.from_samples(np.zeros(7))
    with pytest.raises(ValueError):
        grid(5)
    with pytest.raises(ValueError):
        PeriodicFunction.from_cosine_series(np.ones(40), 64)
