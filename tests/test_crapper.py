import numpy as np
import pytest

from capwave import crapper, spectral
from capwave.linearization import angle_grid
from capwave.spectral import grid, hilbert, mean, pf_exp
from capwave.operators import conformal_metric
from _oracles import (
    abscissa_samples,
    angle_grid_rule,
    crapper_samples,
    exp_conjugate_theta_samples,
    family_grid,
    grid_for_modes,
    resolving_grid,
    sine_coefficients,
    steepness_closed_form,
    theta_samples,
    trapezoid_mean,
)


def test_beta_of_examples():
    assert crapper.beta_of(0.0) == 1.0
    assert crapper.beta_of(0.5) == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert crapper.beta_of(-0.5) == crapper.beta_of(0.5)
    with pytest.raises(ValueError):
        crapper.beta_of(1.0)
    with pytest.raises(ValueError):
        crapper.beta_of(-1.2)


def test_q_of_examples():
    assert crapper.q_of(0.0) == 1.0
    assert crapper.q_of(0.5) == pytest.approx(0.6, rel=1e-15)
    for A in (0.1, 0.37, -0.8):
        assert crapper.q_of(A) * crapper.beta_of(A) == pytest.approx(1.0, rel=1e-14)


def test_param_of_beta_inverts():
    for A in (0.1, 0.45, 0.8):
        assert crapper.param_of_beta(crapper.beta_of(A)) == pytest.approx(A, abs=1e-14)
        assert crapper.param_of_beta(crapper.beta_of(A), sign=-1.0) == pytest.approx(-A, abs=1e-14)
    with pytest.raises(ValueError):
        crapper.param_of_beta(0.5)


def test_crapper_wave_values_and_coefficients():
    flat = crapper.crapper_wave(0.0, 128)
    assert np.max(np.abs(flat.samples)) == 0.0
    w = crapper.crapper_wave(0.5, 256)
    assert np.max(np.abs(sine_coefficients(w, 127))) < 1e-12 and abs(mean(w)) < 1e-12
    assert w.samples[0] == pytest.approx(-4.0 / 3.0, abs=1e-13)
    assert w.samples[128] == pytest.approx(4.0, abs=1e-13)
    a = w.cosine_coefficients(8)
    assert np.allclose(a[:3], [-2.0, 1.0, -0.5], atol=1e-14)
    n = np.arange(1, 9)
    assert np.max(np.abs(a - 4.0 * (-0.5) ** n)) < 1e-12
    # sampled values agree with the closed form
    assert np.max(np.abs(w.samples - crapper_samples(0.5, grid(256)))) < 1e-13


def test_crapper_wave_zero_mean_and_decay_across_family():
    for A in (-0.9, -0.5, -0.1, 0.2, 0.6, 0.9):
        n_grid = crapper.min_grid(A)
        w = crapper.crapper_wave(A, n_grid)
        assert abs(mean(w)) < 1e-13 * (1 + np.max(np.abs(w.samples)))
        cutoff = min(24, int(np.log(1e-12) / np.log(abs(A))) if A else 24)
        a = w.cosine_coefficients(max(cutoff, 4))
        n = np.arange(1, len(a) + 1)
        assert np.max(np.abs(a - 4.0 * (-A) ** n)) < 1e-12


def test_crapper_wave_rejects_out_of_range():
    with pytest.raises(ValueError):
        crapper.crapper_wave(1.0, 128)
    with pytest.raises(ValueError):
        crapper.crapper_wave(0.995, 128)  # above the documented cap


def test_crapper_theta_examples():
    flat = crapper.crapper_theta(0.0, 128)
    assert np.max(np.abs(flat.samples)) == 0.0
    th = crapper.crapper_theta(0.5, 256)
    assert np.max(np.abs(th.cosine_coefficients(127))) < 1e-12 and abs(mean(th)) < 1e-12
    e = pf_exp(hilbert(th))
    assert e.samples[0] == pytest.approx(1.0 / 9.0, abs=1e-11)
    em = pf_exp(-hilbert(th))
    assert abs(mean(em) - mean(e)) < 1e-12
    assert np.max(np.abs(th.samples - theta_samples(0.5, grid(256)))) < 1e-13


@pytest.mark.parametrize("A, n", [(0.9, 8), (0.9, 32), (-0.9, 16), (0.99, 512)])
def test_crapper_theta_rejects_a_branch_jump(A, n):
    # a grid too coarse for the wave samples an angle jump above pi/2
    with pytest.raises(ValueError, match="^branch jump detected in the tangent angle$"):
        crapper.crapper_theta(A, n)


def test_crapper_theta_pointwise_exponential_identity():
    for A in (0.3, 0.7, -0.6):
        n = 512
        t = grid(n)
        th = crapper.crapper_theta(A, n)
        lhs = pf_exp(hilbert(th)).samples
        rhs = exp_conjugate_theta_samples(A, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


@pytest.mark.parametrize("n", [64, 1024, 2048])
@pytest.mark.parametrize("A", [s * A for A in (0.0, 0.3, 0.4546, 0.9, 0.99) for s in (1, -1)])
def test_circle_samples_keep_the_bits_of_the_separate_closed_forms(A, n):
    t = grid(n)
    x, y = crapper.circle_samples(A, n)
    assert np.array_equal(x, abscissa_samples(A, t))
    assert np.array_equal(y, crapper_samples(A, t))
    # the grid's cos/sin table is shared and read-only; the samples are the caller's
    assert not any(a.flags.writeable for a in spectral._grid_arrays(n)[4:])
    assert all(a.flags.writeable for a in (x, y))


def test_verify_identity():
    assert crapper.verify_identity(0.0, 128) == 0.0
    assert crapper.verify_identity(0.5, 256) < 1e-13
    assert crapper.verify_identity(0.9, 512) < 1e-11


def test_section_three_intermediate_identities():
    # w' + i(1 + Cw') equals i(1-Az)^2/(1+Az)^2 on the unit circle, with the
    # left side assembled through the package transforms
    from capwave.spectral import derivative

    for A in (0.3, 0.5, 0.7):
        n = 512
        t = grid(n)
        z = np.exp(1j * t)
        w = crapper.crapper_wave(A, n)
        wp = derivative(w)
        lhs = wp.samples + 1j * (1.0 + hilbert(wp).samples)
        rhs = 1j * (1.0 - A * z) ** 2 / (1.0 + A * z) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-11
        # second-derivative ratio collapses to 4Aiz/((1+Az)(1-Az))
        f1 = -4.0 * A / (1.0 + A * z) ** 2
        f2 = 8.0 * A * A / (1.0 + A * z) ** 3
        ratio = (z * z * f2 + z * f1) / (1j + 1j * z * f1)
        assert np.max(np.abs(ratio - 4.0 * A * 1j * z / ((1 + A * z) * (1 - A * z)))) < 1e-11


def test_metric_root_times_exp_minus_conjugate_theta_is_one():
    for A in (0.2, 0.5, 0.8):
        n = 512
        w = crapper.crapper_wave(A, n)
        th = crapper.crapper_theta(A, n)
        whalf = np.sqrt(conformal_metric(w))
        prod = whalf * pf_exp(-hilbert(th)).samples
        assert np.max(np.abs(prod - 1.0)) < 1e-11


def test_steepness_closed_form_value():
    assert steepness_closed_form(0.3) == pytest.approx(
        4 * 0.3 / (np.pi * (1 - 0.09)), rel=1e-15)
    assert steepness_closed_form(0.3) == pytest.approx(0.42, abs=1e-3)


def test_min_grid_monotone():
    assert crapper.min_grid(0.0) == 64
    assert crapper.min_grid(0.3) <= crapper.min_grid(0.6) <= crapper.min_grid(0.9)
    # resulting grid resolves the family tail below 1e-15
    for A in (0.3, 0.8):
        n = crapper.min_grid(A)
        assert 4.0 * abs(A) ** (n // 2) < 1e-15


def test_min_grid_gives_each_grid_rule_it_replaced():
    """min_grid(A, least) is the grid of each rule it replaced: M modes on
    n >= 5M/2 points (continue_branch, crapper_curve_check), verify's and
    limit-check's 512, and angle_grid's 256 and 4M; every grid is a power of
    two of at least max(64, least) points."""
    signed = np.linspace(0.05, 0.99, 15)
    for A in (0.0, 1e-300, *signed, *-signed):
        assert crapper.min_grid(A) == resolving_grid(A)
        assert crapper.min_grid(A, 512) == family_grid(A)
        for M in range(301):
            n = crapper.min_grid(A, 2.5 * M)
            assert n == grid_for_modes(M, A)
            assert n & (n - 1) == 0 and n >= max(64, 2.5 * M)
            assert angle_grid(A, M) == angle_grid_rule(A, M)


def test_trapezoid_mean_agrees_with_spectral_mean():
    w = crapper.crapper_wave(0.5, 256)
    assert trapezoid_mean(w.samples) == pytest.approx(mean(w), abs=1e-14)
