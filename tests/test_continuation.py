import numpy as np
import pytest

from capwave import crapper
from capwave.continuation import (
    Branch,
    NewtonError,
    StepUnderflowError,
    continue_branch,
    crapper_curve_check,
    modes_for,
    newton_solve,
)
from capwave.operators import WaveParams, q_hat, residual_fd
from capwave.serialization import solution_to_dict
from capwave.spectral import PeriodicFunction


def _crapper_start(A, n_grid=256):
    return (crapper.crapper_wave(A, n_grid),
            WaveParams(alpha=0.0, beta=crapper.beta_of(A)))


def test_newton_at_exact_solution_converges_immediately():
    w, params = _crapper_start(0.3)
    sol = newton_solve(params, w, M=32)
    assert sol.newton_iters <= 1
    assert sol.residual_norm < 1e-11
    assert sol.b_or_qhat == pytest.approx(1.0, abs=1e-11)


def test_newton_returns_to_local_solution_from_perturbation():
    w, params = _crapper_start(0.3)
    w0 = w + PeriodicFunction.from_cosine_series([0.0, 0.01], w.n_grid)
    sol = newton_solve(params, w0, M=32)
    dist = np.max(np.abs(sol.w.samples - w.samples))
    assert dist < 1e-3 * np.max(np.abs(w.samples))
    assert sol.newton_iters <= 6


def test_newton_flat_water_reports_near_singular_jacobian():
    flat = PeriodicFunction.zeros(256)
    params = WaveParams(alpha=0.0, beta=1.0)
    sol = newton_solve(params, flat, M=8)
    assert sol.residual_norm == 0.0
    assert np.max(np.abs(sol.w.samples)) == 0.0
    assert sol.sigma_min < 1e-9  # cos t is the flat-water bifurcation direction


def test_newton_quadratic_convergence_history():
    w, params = _crapper_start(0.4)
    w0 = w + PeriodicFunction.from_cosine_series([0.0, 0.005], w.n_grid)
    sol = newton_solve(params, w0, M=48)
    hist = sol.residual_history
    assert hist[-1] < 1e-11
    for a, b in zip(hist, hist[1:]):
        if a < 1e-10 or b < 1e-12:
            continue  # tolerance floor
        assert np.log10(b) <= 2.0 * np.log10(a) + 1.0  # at-least-doubling log decay


def test_newton_solution_takes_depth_from_its_params():
    # one record carries h and gamma and picks the residual, so the problem
    # solved, the stored depth, the head scalar and the file cannot disagree
    params = WaveParams(alpha=0.01, beta=crapper.beta_of(0.3), h=2.0, gamma=0.5)
    sol = newton_solve(params, crapper.crapper_wave(0.3, 256), M=32)
    assert sol.residual_norm < 1e-11
    assert residual_fd(params, sol.w).norm_inf() < 1e-11
    assert sol.depth is sol.params and not sol.depth.is_infinite
    assert sol.b_or_qhat == q_hat(params, sol.w)
    assert solution_to_dict(sol)["depth_mode"] == "finite"


def test_newton_divergence_reported():
    w, params = _crapper_start(0.3)
    bad = WaveParams(alpha=5.0, beta=params.beta)  # far outside the sheet
    with pytest.raises(NewtonError):
        newton_solve(bad, w, M=16, max_iter=3)


def test_continue_branch_rejects_bad_starts():
    beta3 = crapper.beta_of(0.3)
    with pytest.raises(ValueError, match="A != 0"):
        continue_branch(0.0, [(0.0, 1.0)])
    with pytest.raises(ValueError, match="alpha <= 0"):
        continue_branch(0.3, [(0.01, beta3)])
    with pytest.raises(ValueError, match="beta_A"):
        continue_branch(0.3, [(0.0, 2.0)])
    with pytest.raises(ValueError):
        continue_branch(0.3, [])


def test_continue_branch_walks_the_sheet():
    beta = crapper.beta_of(0.25)
    schedule = [(0.01 * i / 3, beta) for i in range(4)]
    branch = continue_branch(0.25, schedule, M=32, g=1.0, sigma=1.0)
    assert len(branch.solutions) == 4
    assert all(acc for (_, _, _, acc) in branch.step_history)
    alphas = [s.params.alpha for s in branch.solutions]
    assert alphas == sorted(alphas)
    assert branch.solutions[-1].residual_norm < 1e-11
    with pytest.raises(KeyError):
        branch.solution_at(0.123)


def test_continue_branch_sheet_continuity():
    beta = crapper.beta_of(0.3)
    schedule = [(a, beta) for a in (0.0, 0.01, 0.02, 0.04)]
    branch = continue_branch(0.3, schedule, M=48, g=1.0, sigma=1.0)
    w_a = branch.solutions[0].w
    dists = [np.max(np.abs(branch.solution_at(a).w.samples - w_a.samples))
             for a in (0.04, 0.02, 0.01)]
    assert dists[0] > dists[1] > dists[2]
    assert dists[1] / dists[0] <= 0.7
    assert dists[2] / dists[1] <= 0.7


def test_step_underflow_carries_partial_branch():
    beta = crapper.beta_of(0.3)
    with pytest.raises(StepUnderflowError) as err:
        continue_branch(0.3, [(0.0, beta), (1e6, beta)], M=16, max_iter=2,
                        g=1.0, sigma=1.0)
    branch = err.value.branch
    assert isinstance(branch, Branch)
    assert len(branch.solutions) >= 1  # the pure-capillary start was accepted
    rejected = [e for e in branch.step_history if not e[3]]
    assert len(rejected) >= 3


def test_mesh_independence_of_converged_solution():
    beta = crapper.beta_of(0.3)
    schedule = [(0.0, beta), (0.02, beta), (0.05, beta)]
    b32 = continue_branch(0.3, schedule, M=32, g=1.0, sigma=1.0)
    b64 = continue_branch(0.3, schedule, M=64, g=1.0, sigma=1.0)
    c32 = b32.solutions[-1].w.cosine_coefficients(32)
    c64 = b64.solutions[-1].w.cosine_coefficients(32)
    assert np.max(np.abs(c32 - c64)) < 1e-8


def test_deep_and_finite_branches_agree_as_depth_grows():
    # sigma = 100 shrinks k so the strip correction is visible at h = 4
    beta = crapper.beta_of(0.3)
    schedule = [(0.05 * i / 3, beta) for i in range(4)]
    kwargs = dict(M=32, g=1.0, sigma=100.0)
    deep = continue_branch(0.3, schedule, **kwargs)
    fin4 = continue_branch(0.3, schedule, h=4.0, **kwargs)
    fin8 = continue_branch(0.3, schedule, h=8.0, **kwargs)
    w_deep = deep.solutions[-1].w.samples
    d4 = np.max(np.abs(fin4.solutions[-1].w.samples - w_deep))
    d8 = np.max(np.abs(fin8.solutions[-1].w.samples - w_deep))
    assert d4 > 1e-12  # the strip effect is resolvable at h = 4
    assert d8 < 0.5 * d4


def test_finite_depth_branch_with_vorticity():
    beta = crapper.beta_of(0.3)
    schedule = [(0.0, beta), (1e-4, beta), (0.01, beta), (0.03, beta), (0.05, beta)]
    branch = continue_branch(0.3, schedule, h=2.0, gamma=1.0,
                             M=32, g=1.0, sigma=1.0)
    last = branch.solutions[-1]
    assert last.residual_norm < 1e-11
    assert last.geometry["above_bed"] is True
    assert last.geometry["injective"] is True
    w_a = crapper.crapper_wave(0.3, last.w.n_grid)
    near_limit = branch.solution_at(1e-4)
    assert (np.max(np.abs(near_limit.w.samples - w_a.samples))
            < 1e-2 * np.max(np.abs(w_a.samples)))


def test_crapper_curve_check_documented_example():
    rep = crapper_curve_check([0.4])
    row = rep["rows"][0]
    assert row["coefficient_error"] < 1e-6
    assert rep["max_profile_distance"] < 1e-6
    assert row["recovered_A"] == pytest.approx(0.4, abs=1e-7)
    assert rep["all_on_family"]


def test_crapper_curve_check_beta_inversion_and_mirror():
    rep = crapper_curve_check([0.6, -0.4])
    r6, rm4 = rep["rows"]
    # first cosine coefficient identifies the wave: a_1 = -4A
    assert r6["recovered_A"] == pytest.approx(0.6, abs=1e-8)
    assert rm4["recovered_A"] == pytest.approx(-0.4, abs=1e-8)
    # mirror symmetry: w_{-A}(t) = w_A(t + pi)
    n = 256
    w_neg = crapper.crapper_wave(-0.4, n)
    w_pos = crapper.crapper_wave(0.4, n)
    assert np.max(np.abs(w_neg.samples - np.roll(w_pos.samples, n // 2))) < 1e-12
    with pytest.raises(ValueError):
        crapper_curve_check([0.0])


def test_modes_for_scales_with_parameter():
    assert modes_for(0.1) <= modes_for(0.5) <= modes_for(0.8)
    assert modes_for(0.3, requested=128) == 128
    M = modes_for(0.8)
    assert 4.0 * 0.8 ** M * M ** 2 < 1e-10
