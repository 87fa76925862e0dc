"""Acceptance gate: one test per shipping criterion, each printing a verdict
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import time

import numpy as np

from capwave import crapper, geometry
from capwave.continuation import (
    continue_branch,
    crapper_curve_check,
)
from capwave.linearization import (
    INJECTIVITY_TOL,
    dG_matrix,
    jacobian_fd,
    recurrence_scan,
    reduced_a1_coefficient,
    reduced_a2_coefficient,
)
from capwave.operators import (
    WaveParams,
    residual_G,
    residual_fd,
    residual_inf,
)
from capwave.spectral import (
    PeriodicFunction,
    hilbert,
    hilbert_strip,
    mean,
    mul,
)
from _oracles import kappa_tail_bound, residual_G_tilde, steepness_closed_form

A_SET = (0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7)


def _report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def _at(branch, alpha):
    """The one stored point of `branch` at `alpha`."""
    (sol,) = [s for s in branch.solutions if abs(s.params.alpha - alpha) <= 1e-12]
    return sol


def test_criterion_01_crapper_verification():
    worst_res, worst_ident, worst_time = 0.0, 0.0, 0.0
    for A in A_SET:
        t0 = time.perf_counter()
        w = crapper.crapper_wave(A, 512)
        res = residual_inf(WaveParams(alpha=0.0, beta=crapper.beta_of(A)), w).norm_inf()
        ident = crapper.verify_identity(A, 512)
        elapsed = time.perf_counter() - t0
        worst_res = max(worst_res, res)
        worst_ident = max(worst_ident, ident)
        worst_time = max(worst_time, elapsed)
    ok = worst_res < 1e-9 and worst_ident < 1e-12 and worst_time < 1.0
    _report(1, ok, f"family residual {worst_res:.2e} (<1e-9), identity "
                   f"{worst_ident:.2e} (<1e-12), slowest {worst_time * 1e3:.0f} ms (<1 s)")


def test_criterion_02_mean_free_residual():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        modes = rng.integers(4, 14)
        a = 0.1 * rng.standard_normal(modes) / (1.0 + np.arange(modes)) ** 2
        w = PeriodicFunction.from_cosine_series(a, 256)
        params = WaveParams(alpha=rng.uniform(-0.1, 0.1), beta=rng.uniform(0.6, 3.0))
        worst = max(worst, abs(mean(residual_inf(params, w))))
    _report(2, worst < 1e-11, f"|mean F| <= {worst:.2e} over 100 random profiles (<1e-11)")


def test_criterion_03_theta_equivalence():
    worst_g = 0.0
    for A in A_SET:
        th = crapper.crapper_theta(A, 512)
        worst_g = max(worst_g, residual_G(crapper.beta_of(A), th).norm_inf())
    rng = np.random.default_rng(33)
    worst_fact = 0.0
    for _ in range(20):
        modes = rng.integers(3, 10)
        b = 0.3 * rng.standard_normal(modes) / (1.0 + np.arange(modes)) ** 2
        th = PeriodicFunction.from_sine_series(b, 256)
        beta = rng.uniform(0.6, 3.0)
        gt = residual_G_tilde(beta, th)
        g = residual_G(beta, th)
        ep = PeriodicFunction.from_samples(np.exp(hilbert(th).samples))
        sin_th = PeriodicFunction.from_samples(np.sin(th.samples))
        cos_th = PeriodicFunction.from_samples(np.cos(th.samples))
        rhs = mul(mul(ep, sin_th), hilbert(g)) + mul(mul(ep, cos_th), g)
        worst_fact = max(worst_fact, float(np.max(np.abs(gt.samples - rhs.samples))))
    ok = worst_g < 1e-10 and worst_fact < 1e-10
    _report(3, ok, f"family G-residual {worst_g:.2e} (<1e-10), factorisation "
                   f"identity {worst_fact:.2e} on 20 random angles (<1e-10)")


def test_criterion_04_linearisation():
    worst_fd = 0.0
    for A in (0.3, 0.5):
        beta = crapper.beta_of(A)
        n_grid = max(256, crapper.min_grid(A))
        analytic = dG_matrix(A, 64)
        fd = jacobian_fd(lambda th: residual_G(beta, th),
                         crapper.crapper_theta(A, n_grid), 64, basis_in="sine")
        worst_fd = max(worst_fd, float(np.linalg.norm(fd.entries - analytic.entries)
                                       / np.linalg.norm(analytic.entries)))
    rep0 = recurrence_scan(0.0, 64)
    kernel = np.linalg.svd(rep0.matrix.entries)[2][-1]
    cos_sim = abs(kernel[0]) / np.linalg.norm(kernel)
    scans = [recurrence_scan(A, 64) for A in (0.2, -0.2, 0.5, -0.5, 0.8, -0.8)]
    all_inj = all(s.verdict == "injective" and s.sigma_min > INJECTIVITY_TOL for s in scans)
    ok = worst_fd < 1e-5 and rep0.sigma_min < 1e-10 and cos_sim > 0.999 and all_inj
    _report(4, ok, f"analytic-vs-FD {worst_fd:.2e} (<1e-5), flat kernel sigma "
                   f"{rep0.sigma_min:.1e} (<1e-10) sim {cos_sim:.5f} (>0.999), "
                   f"6 nonzero parameters injective with sigma_min > 1e-6")


def test_criterion_05_recurrence_reductions():
    rng = np.random.default_rng(55)
    worst_a1, worst_a2 = 0.0, 0.0
    for _ in range(10):
        A = rng.uniform(0.05, 0.9) * rng.choice([-1.0, 1.0])
        worst_a2 = max(worst_a2, abs(reduced_a2_coefficient(A)
                                     - (1 + A ** 2) ** 3 / (1 + 4 * A ** 2 + A ** 4)))
        worst_a1 = max(worst_a1, abs(reduced_a1_coefficient(A) - (-4 * A ** 2)))
    ok = worst_a1 < 1e-12 and worst_a2 < 1e-12
    _report(5, ok, f"a2-equation coefficient error {worst_a2:.2e}, a1 {worst_a1:.2e} "
                   "over 10 random parameters (<1e-12)")


def test_criterion_06_strip_limit():
    w = crapper.crapper_wave(0.5, 512)
    coeff_sum = float(np.sum(np.abs(w.coeffs)))
    deep = hilbert(w)
    diffs, bounds = [], []
    for d in (1.0, 2.0, 3.0, 4.0):
        diffs.append(float(np.max(np.abs(hilbert_strip(w, d).samples - deep.samples))))
        bounds.append(kappa_tail_bound(d, 0) * coeff_sum)
    bounded = all(v <= b for v, b in zip(diffs, bounds))
    decaying = all(b <= 0.2 * a for a, b in zip(diffs, diffs[1:]))
    _report(6, bounded and decaying,
            f"strip-to-deep differences {['%.2e' % v for v in diffs]} within bounds, "
            "each successive <= 0.2x previous")


def test_criterion_07_finite_depth_limit():
    w = crapper.crapper_wave(0.5, 512)
    beta = crapper.beta_of(0.5)
    base = residual_inf(WaveParams(alpha=0.0, beta=beta), w)
    diffs = []
    for alpha in (1e-2, 1e-3, 1e-4):
        p = WaveParams(alpha=alpha, beta=beta, gamma=1.0, h=2.0)
        diffs.append((residual_fd(p, w) - base).norm_inf())
    zero = (residual_fd(WaveParams(alpha=0.0, beta=beta, gamma=1.0, h=2.0), w)
            - base).norm_inf()
    ok = diffs[0] > diffs[1] > diffs[2] and zero == 0.0
    _report(7, ok, f"|FD - F| strictly decreasing {['%.2e' % v for v in diffs]}, "
                   f"exactly {zero} at alpha <= 0")


def test_criterion_08_continuation_sheet():
    t0 = time.perf_counter()
    beta = crapper.beta_of(0.3)
    schedule = [(0.05 * i / 10, beta) for i in range(11)]
    branch = continue_branch(0.3, schedule, M=128, g=1.0, sigma=1.0)
    elapsed = time.perf_counter() - t0
    iters = [s.newton_iters for s in branch.solutions[1:]]
    final_res = branch.solutions[-1].residual_norm
    w_a = branch.solutions[0].w
    dists = [float(np.max(np.abs(_at(branch, a).w.samples - w_a.samples)))
             for a in (0.04, 0.02, 0.01)]
    ratios = [dists[1] / dists[0], dists[2] / dists[1]]
    ok = (len(branch.solutions) == 11 and max(iters) <= 5 and final_res < 1e-10
          and dists[0] > dists[1] > dists[2] and max(ratios) <= 0.7 and elapsed < 30.0)
    _report(8, ok, f"10 steps to alpha=0.05, <= {max(iters)} Newton iters/step (<=5), "
                   f"final residual {final_res:.1e} (<1e-10), decay ratios "
                   f"{['%.3f' % r for r in ratios]} (<=0.7), {elapsed:.1f} s (<30)")


def test_criterion_09_finite_depth_continuation():
    worst_flux = 0.0
    for gamma, h in ((0.0, 2.0), (1.0, 2.0), (-1.0, 4.0)):
        beta = crapper.beta_of(0.3)
        schedule = [(0.02 * i / 4, beta) for i in range(5)]
        branch = continue_branch(0.3, schedule, h=h, gamma=gamma,
                                 M=64, g=1.0, sigma=1.0)
        last = branch.solutions[-1]
        assert last.params.alpha == 0.02
        p = last.params
        worst_flux = max(worst_flux, abs(p.m - (h * p.lam + 0.5 * h * h * gamma)))
    _report(9, worst_flux < 1e-12,
            f"three vorticity/depth branches reached alpha=0.02; mass-flux identity "
            f"error {worst_flux:.2e} (<1e-12)")


def test_criterion_10_no_secondary_bifurcation():
    rep = crapper_curve_check(np.linspace(0.1, 0.8, 50))
    ok = rep["all_on_family"] and rep["max_coefficient_error"] < 1e-6
    _report(10, ok, f"50 perturbed restarts returned to the explicit family, "
                    f"worst coefficient mismatch {rep['max_coefficient_error']:.2e} (<1e-6)")


def test_criterion_11_geometry():
    worst_steep = 0.0
    for A in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        w = crapper.crapper_wave(A, 512)
        worst_steep = max(worst_steep,
                          abs(geometry.steepness(w) - steepness_closed_form(A)))
    a_coarse = geometry.critical_self_intersection_A(tol=1e-3, n_grid=1024)
    a_fine = geometry.critical_self_intersection_A(tol=1e-3, n_grid=2048)
    stable = abs(a_coarse - a_fine) <= 1e-3
    below = geometry.crapper_profile_injective(a_fine - 0.05, 2048)
    above = not geometry.crapper_profile_injective(a_fine + 0.05, 2048)
    ok = worst_steep < 1e-10 and stable and below and above
    _report(11, ok, f"steepness formula error {worst_steep:.2e} (<1e-10); threshold "
                    f"A* = {a_fine:.4f} stable across grid doubling "
                    f"(|d|={abs(a_coarse - a_fine):.1e} <= 1e-3) with correct sides")
