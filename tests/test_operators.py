import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from capwave import crapper, operators, spectral
from capwave.linearization import jacobian_fd
from capwave.operators import (
    WaveParams,
    bernoulli_b,
    q_hat,
    residual_G,
    residual_fd,
    residual_inf,
    theta_of,
)
from capwave.spectral import (
    DegenerateMetricError,
    PeriodicFunction,
    derivative,
    grid,
    hilbert,
    mean,
    mul,
)
from _oracles import (
    coeffs_two_pass,
    crapper_samples,
    deep_residual_on_samples,
    generator_derivatives,
    longdouble_samples,
    mul_eager,
    residual_G_tilde,
    samples_two_pass,
    sine_coefficients,
    trapezoid_mean,
    zeros,
)


def _random_even(rng, n_grid, modes=10, scale=0.05):
    a = scale * rng.standard_normal(modes) / (1.0 + np.arange(modes)) ** 2
    return PeriodicFunction.from_cosine_series(a, n_grid)


def _random_odd(rng, n_grid, modes=8, scale=0.3):
    b = scale * rng.standard_normal(modes) / (1.0 + np.arange(modes)) ** 2
    return PeriodicFunction.from_sine_series(b, n_grid)


# -- params types ------------------------------------------------------------------


def test_wave_params_validation():
    with pytest.raises(ValueError):
        WaveParams(alpha=0.0, beta=0.0)
    with pytest.raises(ValueError):
        WaveParams(alpha=0.0, beta=1.0, g=-1.0)
    for bad in (math.inf, math.nan):  # JSON would store them as null
        with pytest.raises(ValueError, match="positive and finite"):
            WaveParams(alpha=0.0, beta=1.0, g=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            WaveParams(alpha=0.0, beta=1.0, sigma=bad)
        for field in ("alpha", "beta", "gamma"):  # no solve can start from them
            with pytest.raises(ValueError, match="alpha, beta and gamma must be finite"):
                WaveParams(**{"alpha": 0.0, "beta": 1.0, "h": 2.0, field: bad})
    with pytest.raises(ValueError):
        WaveParams(alpha=0.0, beta=1.0, gamma=1.0)  # infinite depth, vorticity
    with pytest.raises(ValueError):
        WaveParams(alpha=0.0, beta=1.0, h=0.0)
    # gravity without a finite wavenumber, refused with WaveParams.k's message
    with pytest.raises(ValueError, match=r"^alpha\*sigma underflows to zero: no finite "
                                         r"wavenumber$"):
        WaveParams(alpha=1e-200, beta=1.0, sigma=1e-200)  # was a ZeroDivisionError
    with pytest.raises(ValueError, match=r"^alpha=1e-308: g\*beta/\(alpha\*sigma\) "
                                         r"overflows, no finite wavenumber$"):
        WaveParams(alpha=1e-308, beta=1.0, sigma=0.07)  # was inf, and a NaN crossing count
    assert WaveParams(alpha=0.0, beta=1.0).is_infinite
    assert not WaveParams(alpha=0.0, beta=1.0, h=2.0, gamma=1.0).is_infinite


def test_wave_params_k_examples():
    assert WaveParams(alpha=0.7, beta=0.7).k == pytest.approx(1.0, rel=1e-15)
    assert WaveParams(alpha=0.01, beta=1.0).k == pytest.approx(10.0, rel=1e-15)
    assert WaveParams(alpha=0.25 / 4, beta=1.0).k == pytest.approx(
        2 * WaveParams(alpha=0.25, beta=1.0).k, rel=1e-14)
    for alpha in (0.0, -0.1):
        with pytest.raises(ValueError, match=r"^no finite wavenumber for alpha <= 0 "
                                             r"\(deep-limit branch\)$"):
            WaveParams(alpha=alpha, beta=1.0).k


# -- metric and angle ----------------------------------------------------------------


def test_slope_metric_examples():
    n = 256
    flat = zeros(n)
    assert np.max(np.abs(operators._slope_metric(flat)[2] - 1.0)) < 1e-14
    assert np.max(np.abs(operators._slope_metric(flat, d=1.5)[2] - 1.0)) < 1e-14
    w = crapper.crapper_wave(0.5, n)
    W = operators._slope_metric(w)[2]
    assert W[0] == pytest.approx(1.0 / 81.0, abs=1e-12)
    assert W.mean() > 0.1
    # w = -cos t puts w' = 1 + Cw' = 0 at t = 0; every caller of the metric
    # rule rejects it
    degenerate = PeriodicFunction.from_cosine_series([-1.0], n)
    for call in (operators._slope_metric, theta_of, lambda u: bernoulli_b(0.3, u),
                 lambda u: residual_inf(WaveParams(0.0, 1.0), u),
                 lambda u: residual_inf(WaveParams(0.02, 1.0), u)):
        with pytest.raises(DegenerateMetricError, match="conformal metric vanishes"):
            call(degenerate)


def test_theta_of_rejects_a_branch_jump():
    # Crapper's A = 0.5 on 8 points: the closed-form angle stays on the
    # principal branch, the one of the sampled profile jumps; in a stack,
    # one such row is enough
    w = crapper.crapper_wave(0.5, 8)
    crapper.crapper_theta(0.5, 8)
    theta_of(crapper.crapper_wave(0.3, 8))
    stack = PeriodicFunction.from_samples(np.array([crapper.crapper_wave(0.3, 8).samples,
                                                    w.samples]))
    for f in (w, stack):
        with pytest.raises(ValueError, match="^tangent angle leaves the principal branch$"):
            theta_of(f)


def test_theta_of_examples():
    n = 256
    flat = theta_of(zeros(n))
    assert np.max(np.abs(flat.samples)) == 0.0
    w = crapper.crapper_wave(0.3, n)
    th = theta_of(w)
    ref = crapper.crapper_theta(0.3, n)
    assert np.max(np.abs(th.samples - ref.samples)) < 1e-10
    assert np.max(np.abs(th.cosine_coefficients(n // 2 - 1))) < 1e-12
    assert abs(mean(th)) < 1e-12
    # sin(theta) * W^(1/2) = w' at every sample
    whalf = np.sqrt(operators._slope_metric(w)[2])
    assert np.max(np.abs(np.sin(th.samples) * whalf - derivative(w).samples)) < 1e-10
    # the angle as computed, even or not, for one function or a stack whose
    # rows have the bits of the one-function calls
    t = grid(n)
    odd = PeriodicFunction.from_samples(0.2 * np.sin(t) + 0.1 * np.cos(2 * t))
    stack = PeriodicFunction.from_samples(np.array([w.samples, odd.samples]))
    for f in (w, odd, stack):
        wp = derivative(f)
        want = PeriodicFunction.from_samples(np.arctan2(wp.samples, (1.0 + hilbert(wp)).samples))
        got = theta_of(f)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert np.all(np.abs(mean(got)) < 1e-12)
    rows = theta_of(stack)
    for i, x in enumerate(stack.samples):
        one = theta_of(PeriodicFunction.from_samples(x))
        assert rows.samples[i].tobytes() == one.samples.tobytes()
        assert rows.coeffs[i].tobytes() == one.coeffs.tobytes()


# -- Bernoulli scalar -----------------------------------------------------------------


def test_bernoulli_flat_and_family():
    n = 256
    flat = zeros(n)
    for alpha in (-0.3, 0.0, 0.7):
        assert bernoulli_b(alpha, flat) == pytest.approx(1.0, abs=1e-14)
    for A in (0.1, 0.3, 0.5, 0.7, 0.9):
        w = crapper.crapper_wave(A, crapper.min_grid(A))
        assert abs(bernoulli_b(0.0, w) - 1.0) < 1e-11


def test_bernoulli_against_trapezoid_oracle():
    # half-amplitude profile is not a solution; values come from quadrature
    n = 512
    t = grid(n)
    w_samples = 0.5 * crapper_samples(0.5, t)
    wp, one_cwp, _, _ = generator_derivatives(0.5, t)
    W = (0.5 * wp) ** 2 + (1.0 + 0.5 * (one_cwp - 1.0)) ** 2
    for alpha in (0.0, 0.05):
        expected = ((trapezoid_mean(W ** -0.5) + 2 * alpha * trapezoid_mean(w_samples * W ** 0.5))
                    / trapezoid_mean(W ** 0.5))
        w = 0.5 * crapper.crapper_wave(0.5, n)
        assert bernoulli_b(alpha, w) == pytest.approx(expected, abs=1e-12)


# -- deep-water residual ---------------------------------------------------------------


def test_residual_inf_zero_on_family():
    for A in (0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7):
        w = crapper.crapper_wave(A, 512)
        params = WaveParams(alpha=0.0, beta=crapper.beta_of(A))
        assert residual_inf(params, w).norm_inf() < 1e-9


def test_residual_inf_flat_water():
    r = residual_inf(WaveParams(alpha=0.0, beta=1.0), zeros(256))
    assert r.norm_inf() == 0.0


def test_residual_inf_against_duplicate_oracle():
    # 1.1x the family profile: nonzero residual, matched against an
    # independently coded straight-line evaluation.  The scaled wave sits
    # within 5e-4 of the degenerate metric, so W^(-1/2) needs 1024 points
    # before the two implementations agree at the rounding level.
    n = 1024
    t = grid(n)
    A = 0.5
    scale = 1.1
    wp, one_cwp, wpp, _ = generator_derivatives(A, t)
    oracle = deep_residual_on_samples(
        0.0, crapper.beta_of(A),
        scale * crapper_samples(A, t), scale * wp,
        scale * (one_cwp - 1.0), scale * wpp)
    w = scale * crapper.crapper_wave(A, n)
    r = residual_inf(WaveParams(alpha=0.0, beta=crapper.beta_of(A)), w)
    assert r.norm_inf() > 1e-3
    assert np.max(np.abs(r.samples - oracle)) < 1e-12
    assert abs(r.norm_inf() - np.max(np.abs(oracle))) < 1e-12


@pytest.mark.parametrize("A, n", [(0.9, 1024), (0.95, 2048)])
def test_the_exact_waves_residual_in_double_is_rounding(A, n):
    # the same straight-line residual of Crapper's wave at (0, beta_A), once on
    # capwave's double samples and derivatives, once on samples synthesised
    # in long double from the coefficients 4(-A)^m: 2.5e-9 against 1.3e-12 at
    # 0.9 and 2.2e-7 against 2.8e-10 at 0.95 (beta_A is rounded to double in
    # both), so what double precision leaves there is its own rounding
    assert np.finfo(np.longdouble).eps < 1e-18
    beta = crapper.beta_of(A)
    a = 4 * (-np.longdouble(A)) ** np.arange(1, n // 2)
    fine = deep_residual_on_samples(0.0, beta, *longdouble_samples(a, n))
    assert fine.dtype == np.longdouble
    w = crapper.crapper_wave(A, n)
    wp = derivative(w)
    coarse = deep_residual_on_samples(0.0, beta, w.samples, wp.samples, hilbert(wp).samples,
                                      derivative(wp).samples)
    assert np.max(np.abs(coarse)) >= 100.0 * np.max(np.abs(fine))


def test_residual_inf_mean_free_and_even():
    rng = np.random.default_rng(42)
    for _ in range(25):
        w = _random_even(rng, 256)
        alpha = rng.uniform(-0.1, 0.1)
        beta = rng.uniform(0.7, 3.0)
        r = residual_inf(WaveParams(alpha=alpha, beta=beta), w)
        assert abs(mean(r)) < 1e-11
        assert np.max(np.abs(sine_coefficients(r, 127))) < 1e-12


# -- angle-space residuals ----------------------------------------------------------------


def test_residual_G_examples():
    n = 256
    assert residual_G(1.0, zeros(n)).norm_inf() < 1e-15
    th = crapper.crapper_theta(0.5, n)
    assert residual_G(5.0 / 3.0, th).norm_inf() < 1e-10
    with pytest.raises(ValueError):
        residual_G(0.0, th)


def test_G_and_F_vanish_together():
    rng = np.random.default_rng(5)
    for A in (0.2, 0.5, 0.7):
        w = crapper.crapper_wave(A, 512)
        th = crapper.crapper_theta(A, 512)
        beta = crapper.beta_of(A)
        assert residual_inf(WaveParams(alpha=0.0, beta=beta), w).norm_inf() < 1e-9
        assert residual_G(beta, th).norm_inf() < 1e-9
    for _ in range(20):
        w = _random_even(rng, 256, scale=0.2)
        beta = rng.uniform(0.8, 3.0)
        rf = residual_inf(WaveParams(alpha=0.0, beta=beta), w)
        rg = residual_G(beta, theta_of(w))
        assert rf.norm_inf() > 1e-3
        assert rg.norm_inf() > 1e-3


def test_G_tilde_factorisation_identity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        th = _random_odd(rng, 256)
        beta = rng.uniform(0.8, 3.0)
        gt = residual_G_tilde(beta, th)
        g = residual_G(beta, th)
        ep = PeriodicFunction.from_samples(np.exp(hilbert(th).samples))
        sin_th = PeriodicFunction.from_samples(np.sin(th.samples))
        cos_th = PeriodicFunction.from_samples(np.cos(th.samples))
        rhs = mul(mul(ep, sin_th), hilbert(g)) + mul(mul(ep, cos_th), g)
        assert np.max(np.abs(gt.samples - rhs.samples)) < 1e-10


# -- finite depth ------------------------------------------------------------------------


def test_q_hat_examples():
    n = 512
    w5 = crapper.crapper_wave(0.5, n)
    for alpha in (0.0, -0.2):
        p = WaveParams(alpha=alpha, beta=2.0, gamma=1.0, h=2.0)
        assert q_hat(p, w5) == pytest.approx(1.0, abs=1e-11)
    # strip at large depth and small alpha approaches the deep scalar
    p = WaveParams(alpha=1e-6, beta=2.0, gamma=0.0, h=50.0)
    assert q_hat(p, w5) == pytest.approx(bernoulli_b(1e-6, w5), abs=1e-6)
    flat = zeros(n)
    for alpha in (0.3, 1.0):
        p = WaveParams(alpha=alpha, beta=1.0, gamma=0.0, h=3.0)
        assert q_hat(p, flat) == pytest.approx(1.0, abs=1e-13)


def test_residual_fd_vanishes_on_family_at_nonpositive_alpha():
    for A in (0.3, 0.7):
        w = crapper.crapper_wave(A, 512)
        beta = crapper.beta_of(A)
        for alpha in (0.0, -0.01):
            for gamma, h in ((0.0, 1.0), (2.5, 3.0)):
                p = WaveParams(alpha=alpha, beta=beta, gamma=gamma, h=h)
                assert residual_fd(p, w).norm_inf() < 1e-9


def test_residual_fd_monotone_limit():
    w = crapper.crapper_wave(0.5, 512)
    beta = crapper.beta_of(0.5)
    base = residual_inf(WaveParams(alpha=0.0, beta=beta), w)
    diffs = []
    for alpha in (1e-2, 1e-3, 1e-4):
        p = WaveParams(alpha=alpha, beta=beta, gamma=0.0, h=2.0)
        diffs.append((residual_fd(p, w) - base).norm_inf())
    assert diffs[0] > diffs[1] > diffs[2]
    p0 = WaveParams(alpha=0.0, beta=beta, gamma=0.0, h=2.0)
    assert (residual_fd(p0, w) - base).norm_inf() == 0.0


def test_residual_fd_limit_monotone_in_depth_and_alpha():
    # pick sigma large enough that d = h*k(alpha, beta) stays O(1): both the
    # strip correction and the O(alpha) terms are then measurable
    w = crapper.crapper_wave(0.5, 512)
    beta = crapper.beta_of(0.5)
    sigma = 4e6
    base = residual_inf(WaveParams(alpha=0.0, beta=beta, sigma=sigma), w)

    def total(alpha, h):
        p = WaveParams(alpha=alpha, beta=beta, sigma=sigma, gamma=0.0, h=h)
        return (residual_fd(p, w) - base).norm_inf()

    # decreasing in alpha at fixed depth
    assert total(1e-4, 8.0) > total(1e-5, 8.0) > total(1e-6, 8.0)
    # decreasing in depth at fixed alpha: isolate the strip part against the
    # deep operator at the same alpha
    def strip_part(alpha, h):
        p = WaveParams(alpha=alpha, beta=beta, sigma=sigma, gamma=0.0, h=h)
        deep_same_alpha = residual_inf(WaveParams(alpha=alpha, beta=beta, sigma=sigma), w)
        return (residual_fd(p, w) - deep_same_alpha).norm_inf()

    parts = [strip_part(1e-4, h) for h in (8.0, 16.0, 32.0)]
    assert parts[0] > parts[1] > parts[2]
    assert total(1e-4, 16.0) <= total(1e-4, 8.0)


def test_residual_fd_flat_water_any_depth():
    flat = zeros(256)
    for alpha in (0.1, 1.0):
        p = WaveParams(alpha=alpha, beta=1.3, gamma=0.0, h=2.0)
        assert residual_fd(p, flat).norm_inf() < 1e-13


def test_residual_fd_requires_finite_depth_for_positive_alpha():
    w = crapper.crapper_wave(0.3, 256)
    with pytest.raises(ValueError):
        residual_fd(WaveParams(alpha=0.1, beta=1.2), w)


@pytest.mark.parametrize("alpha, g, sigma", [(1e-2, 1e300, 2.0), (1e-3, 9.81, 1e300),
                                              (1e300, 1e-12, 0.074)])
def test_residual_fd_extreme_constants_raise_value_error(alpha, g, sigma):
    # the vorticity scales overflow, or the strip transform at d = hk ~ 1e-150
    # leaves the float range; under the errstate `cli.main` sets, as the
    # library leaves numpy's warnings to its caller.  The record refuses the
    # first kind itself, so it is made inside the check
    w = crapper.crapper_wave(0.5, 64)
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate in (residual_fd, q_hat):
            with pytest.raises(ValueError):
                evaluate(WaveParams(alpha=alpha, beta=crapper.beta_of(0.5), g=g, sigma=sigma,
                                    gamma=1.0, h=2.0), w)


def test_the_record_refuses_vorticity_scales_it_cannot_compute():
    beta = crapper.beta_of(0.5)
    for alpha, g, sigma in ((1e-2, 1e300, 2.0), (1e300, 1e-12, 0.074), (1e-2, 1e-120, 1.0)):
        with pytest.raises(ValueError, match=r"^finite-depth vorticity scales leave the float "
                                             r"range \(extreme alpha, g or sigma\)$"):
            WaveParams(alpha=alpha, beta=beta, g=g, sigma=sigma, gamma=1.0, h=2.0)
        # deep water, and finite depth at alpha <= 0, read no vorticity scales
        WaveParams(alpha=alpha, beta=beta, g=g, sigma=sigma)
        WaveParams(alpha=0.0, beta=beta, g=g, sigma=sigma, gamma=1.0, h=2.0)
    # the scales are the residual's own expressions
    p = WaveParams(alpha=0.03, beta=1.7, g=9.81, sigma=0.074, gamma=-1.2, h=2.5)
    assert p.vorticity_scales == (-1.2 * (0.03 ** 3 * 0.074 / (9.81 ** 3 * 1.7)) ** 0.25,
                                  math.sqrt(0.03 * 0.074 / (9.81 * 1.7)))


def test_residual_fd_parity_and_mean():
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = _random_even(rng, 256)
        p = WaveParams(alpha=rng.uniform(0.01, 0.3), beta=rng.uniform(0.8, 2.0),
                       gamma=rng.uniform(-2, 2), h=rng.uniform(1.0, 4.0))
        r = residual_fd(p, w)
        assert np.max(np.abs(sine_coefficients(r, 127))) < 1e-12
        assert abs(mean(r)) < 1e-11


def test_vorticity_bracket_neutral_cases():
    # at gamma = 0 the bracket is 1: the residual with vorticity switched off
    # matches an independent gamma-free strip evaluation through q_hat
    n = 512
    t = grid(n)
    w = crapper.crapper_wave(0.4, n)
    p = WaveParams(alpha=0.2, beta=1.5, gamma=0.0, h=2.0)
    d = p.h * p.k
    # oracle: strip analogue of the Bernoulli scalar, raw numpy
    wp_f, one_cwp_f, _, _ = generator_derivatives(0.4, t)
    import _oracles

    def strip_hilbert(samples, depth):
        n_ = len(samples)
        c = np.fft.fft(samples)
        m = np.fft.fftfreq(n_, 1.0 / n_)
        mult = np.zeros(n_)
        mult[m != 0] = 1.0 / np.tanh(np.abs(m[m != 0]) * depth)
        c = -1j * np.sign(m) * mult * c
        c[n_ // 2] = 0.0
        return np.fft.ifft(c).real

    wp = _oracles.fft_derivative(w.samples)
    cwp = strip_hilbert(wp, d)
    W = wp ** 2 + (1 + cwp) ** 2
    num = trapezoid_mean(W ** -0.5) + 2 * p.alpha * trapezoid_mean(w.samples * W ** 0.5)
    expected = num / trapezoid_mean(W ** 0.5)
    assert q_hat(p, w) == pytest.approx(expected, abs=1e-10)
    # at alpha <= 0 the vorticity prefactor vanishes for any gamma
    w0 = crapper.crapper_wave(0.3, 256)
    outs = [residual_fd(WaveParams(alpha=0.0, beta=1.2, gamma=g, h=2.0), w0).samples
            for g in (-3.0, 0.0, 5.0)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


# -- physical parameters ---------------------------------------------------------------


def test_physical_params_examples():
    p = WaveParams(alpha=1.0, beta=1.0, g=1.0, sigma=1.0, gamma=0.0, h=1.0)
    assert p.k == pytest.approx(1.0, rel=1e-14)
    assert p.lam == pytest.approx(1.0, rel=1e-14)
    assert p.m == pytest.approx(1.0, rel=1e-14)
    # m = h*lambda + h^2*gamma/2
    assert WaveParams.from_physical(k=1.0, lam=1.0, h=1.0, gamma=2.0).m == pytest.approx(
        2.0, rel=1e-14)
    for scale in ("k", "lam", "m"):  # no physical scale at alpha <= 0
        with pytest.raises(ValueError, match="^no finite wavenumber for alpha <= 0"):
            getattr(WaveParams(alpha=0.0, beta=1.0, h=2.0), scale)


@pytest.mark.parametrize("kwargs, message", [
    ({}, "need lambda or the mass flux m"),
    ({"m": 1.0}, "mass flux is not finite in infinite depth; pass lambda"),
    ({"k": 0.0, "lam": 1.0}, "need k > 0 and lambda > 0"),
    ({"lam": 0.0}, "need k > 0 and lambda > 0"),
    # lambda = m/h - gamma h/2 = -0.5
    ({"m": 0.5, "h": 1.0, "gamma": 2.0}, "need k > 0 and lambda > 0"),
])
def test_from_physical_refuses_what_gives_no_wave(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        WaveParams.from_physical(**{"k": 1.0, **kwargs})


def test_physical_round_trip():
    p = WaveParams(alpha=0.03, beta=1.7, g=9.81, sigma=0.074, gamma=-1.2, h=2.5)
    back = WaveParams.from_physical(k=p.k, lam=p.lam, h=p.h, gamma=p.gamma,
                                    g=p.g, sigma=p.sigma)
    assert back.alpha == pytest.approx(p.alpha, rel=1e-12)
    assert back.beta == pytest.approx(p.beta, rel=1e-12)
    via_m = WaveParams.from_physical(k=p.k, m=p.m, h=p.h, gamma=p.gamma,
                                     g=p.g, sigma=p.sigma)
    assert via_m.alpha == pytest.approx(p.alpha, rel=1e-12)
    assert via_m.beta == pytest.approx(p.beta, rel=1e-12)


# -- concurrency -------------------------------------------------------------------------


def test_parallel_evaluation_matches_serial():
    waves = [crapper.crapper_wave(a, 256) for a in (0.1, 0.2, 0.3, 0.4)]
    params = [WaveParams(alpha=0.0, beta=crapper.beta_of(a)) for a in (0.1, 0.2, 0.3, 0.4)]
    serial = [residual_inf(p, w).samples for p, w in zip(params, waves)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda pw: residual_inf(*pw).samples, zip(params, waves)))
    for s, q in zip(serial, parallel):
        assert np.array_equal(s, q)


def test_threads_forcing_one_function_agree():
    # every thread forces the same deferred samples and 2x-grid samples
    # of one shared profile; switching threads often makes them overlap
    def fresh():
        return crapper.crapper_wave(0.3, 256) + PeriodicFunction.from_cosine_series([0.01, 0.02], 256)

    p = WaveParams(alpha=0.02, beta=crapper.beta_of(0.3), gamma=0.7, h=2.5)
    serial = residual_fd(p, fresh()).samples
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = fresh()
            with ThreadPoolExecutor(max_workers=4) as pool:
                parallel = list(pool.map(lambda _: residual_fd(p, shared).samples, range(8),
                                         timeout=60))
            assert len(parallel) == 8
            assert all(q.tobytes() == serial.tobytes() for q in parallel)
    finally:
        sys.setswitchinterval(interval)


# -- transforms computed once, on first read -----------------------------------------


_DEEP = WaveParams(alpha=0.01, beta=crapper.beta_of(0.3))
_VORTICAL = WaveParams(alpha=0.02, beta=crapper.beta_of(0.3), gamma=0.7, h=2.5)


def _profile(n, rows=None):
    """A perturbed Crapper wave, or a stack of `rows` perturbations of it;
    built afresh, so that no representation is cached yet."""
    w = crapper.crapper_wave(0.3, n) + PeriodicFunction.from_cosine_series([0.01, -0.003, 0.002], n)
    if rows is None:
        return w
    c = np.zeros((rows, n), dtype=complex)
    for i in range(rows):
        c[i, [i + 1, n - i - 1]] = 1e-3 * (-1) ** i
    return w + PeriodicFunction(c)


def _evaluate(residual, params, n):
    """One function, a 6-row stack and a Jacobian, each on a fresh profile."""
    res = lambda u: residual(params, u)
    return [res(_profile(n)), res(_profile(n, 6)), jacobian_fd(res, _profile(n), 24)]


def _assert_same_bits(new, old):
    for a, b in zip(new[:2], old[:2]):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert a.samples.tobytes() == b.samples.tobytes()
    assert new[2].entries.tobytes() == old[2].entries.tobytes()


@pytest.mark.parametrize("residual, params", [(residual_inf, _DEEP), (residual_fd, _VORTICAL)],
                         ids=["inf", "fd"])
def test_the_eager_product_keeps_every_bit(monkeypatch, residual, params):
    cached = _evaluate(residual, params, 128)
    monkeypatch.setattr(operators, "mul", mul_eager)
    _assert_same_bits(cached, _evaluate(residual, params, 128))


@pytest.mark.parametrize("n", [96, 128])
@pytest.mark.parametrize("residual, params", [(residual_inf, _DEEP), (residual_fd, _VORTICAL)],
                         ids=["inf", "fd"])
def test_the_two_pass_transforms_keep_every_bit(monkeypatch, residual, params, n):
    # 1/96 is inexact, so pocketfft's scaling must round as the division did
    one_pass = _evaluate(residual, params, n)
    monkeypatch.setattr(spectral, "_coeffs_of", coeffs_two_pass)
    monkeypatch.setattr(spectral, "_samples_of", samples_two_pass)
    _assert_same_bits(one_pass, _evaluate(residual, params, n))


@pytest.mark.parametrize("residual, params, n, ffts, iffts",
                         [(residual_inf, _DEEP, 512, 5, 8), (residual_fd, _VORTICAL, 256, 14, 15)],
                         ids=["inf", "fd"])
def test_one_stacked_residual_runs_only_the_transforms_it_reads(monkeypatch, residual, params,
                                                               n, ffts, iffts):
    # a 6-row stack as `jacobian_fd` evaluates it, which reads only the modes
    # of the result; computing every representation took 13 and 42 iffts.
    # Deciding whether a conjugation's input had zero mean read its samples,
    # 9 and 18 iffts: those of w W^(1/2) (deep), of w w', v^2 W^(-1/2) and
    # w W^(1/2) (FD) went with that test
    w = _profile(n, 6)
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    residual(params, w).coeffs
    assert calls["fft"] == ffts
    assert calls["ifft"] <= iffts
