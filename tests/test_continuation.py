import math
from types import SimpleNamespace

import numpy as np
import pytest

from capwave import continuation, crapper
from capwave.continuation import (
    Branch,
    NewtonError,
    StepUnderflowError,
    continue_branch,
    crapper_curve_check,
    modes_for,
    newton_solve,
)
from capwave.operators import WaveParams, q_hat, residual_fd, residual_inf
from capwave.serialization import solution_to_dict
from capwave.spectral import DegenerateMetricError, PeriodicFunction


def _crapper_start(A, n_grid=256):
    return (crapper.crapper_wave(A, n_grid),
            WaveParams(alpha=0.0, beta=crapper.beta_of(A)))


def _at(branch, alpha):
    """The one stored point of `branch` at `alpha`."""
    (sol,) = [s for s in branch.solutions if abs(s.params.alpha - alpha) <= 1e-12]
    return sol


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


def _degenerate_trials(monkeypatch, first, last):
    """Make one-function residual calls number first..last (from 0) raise
    DegenerateMetricError; the Jacobian's calls on stacks are not counted.
    Returns the list of call numbers that raised."""
    calls, raised = iter(range(10 ** 6)), []

    def residual(params, w):
        if w.samples.ndim == 1:
            n = next(calls)
            if first <= n <= last:
                raised.append(n)
                raise DegenerateMetricError("conformal metric vanishes on the grid")
        return residual_inf(params, w)

    monkeypatch.setattr(continuation, "residual_inf", residual)
    return raised


# the residual is evaluated once at the iterate before the first line-search
# trial; the Jacobian evaluates stacks, which _degenerate_trials does not count
_FIRST_TRIAL = 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow case
@pytest.mark.parametrize("case, expected", [
    ("negative max_iter", (ValueError, "max_iter must be >= 0")),
    ("flat water at beta = 1", (NewtonError, "sigma_min=.* below")),
    ("alpha = 1e306", (NewtonError, "non-finite entries")),
    ("first trial degenerate", None),
    ("every trial degenerate", (NewtonError, "line search stalled")),
    *((f"tol = {tol}", (ValueError, "tol must be positive and finite"))
      for tol in (0.0, -1e-11, math.nan, math.inf)),
])
def test_newton_failure_branches(monkeypatch, case, expected):
    w, params = _crapper_start(0.3)
    w0 = w + PeriodicFunction.from_cosine_series([0.0, 0.01], w.n_grid)
    kwargs = dict(M=32)
    if case == "negative max_iter":
        kwargs["max_iter"] = -1
    elif case.startswith("tol = "):
        kwargs["tol"] = float(case[len("tol = "):])
    elif case == "flat water at beta = 1":
        # a 1e-6 bump off flat water: cos t spans the kernel of the Jacobian
        params = WaveParams(alpha=0.0, beta=1.0)
        w0 = PeriodicFunction.from_cosine_series([0.0, 1e-6], 256)
    elif case == "alpha = 1e306":
        # 2 alpha w W^(1/2) overflows, and with it the finite-difference columns
        params = WaveParams(alpha=1e306, beta=params.beta)
    elif case == "first trial degenerate":
        raised = _degenerate_trials(monkeypatch, _FIRST_TRIAL, _FIRST_TRIAL)
    else:
        _degenerate_trials(monkeypatch, _FIRST_TRIAL, _FIRST_TRIAL + 9)
    if expected is None:  # the halved trial is taken and Newton converges
        sol = newton_solve(params, w0, **kwargs)
        assert raised == [_FIRST_TRIAL] and sol.residual_norm < 1e-11
        return
    kind, message = expected
    with pytest.raises(kind, match=message):
        newton_solve(params, w0, **kwargs)


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
    # checked before the first solve, so a bad last target costs nothing
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="must be finite"):
            continue_branch(0.3, [(0.0, beta3), (0.01, beta3), (bad, beta3)])
        with pytest.raises(ValueError, match="must be finite"):
            continue_branch(0.3, [(0.0, beta3), (0.01, bad)])
    with pytest.raises(ValueError, match="M = 32 .* needs at least 66 grid points, got 64"):
        continue_branch(0.3, [(0.0, beta3)], M=16, n_grid=64)
    with pytest.raises(ValueError, match=r"^M = 40 needs at least 82 grid points, got 81$"):
        continue_branch(0.3, [(0.0, beta3)], M=40, n_grid=81)


@pytest.mark.parametrize("tol", [0.0, -1e-11, math.nan, math.inf])
def test_continue_branch_checks_tol_before_it_sizes_or_solves(monkeypatch, tol):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran although tol had to be rejected first")

    monkeypatch.setattr(continuation, "modes_for", must_not_run)
    monkeypatch.setattr(continuation, "newton_solve", must_not_run)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        continue_branch(0.3, [(0.0, crapper.beta_of(0.3))], tol=tol)


def test_continue_branch_walks_the_sheet():
    beta = crapper.beta_of(0.25)
    schedule = [(0.01 * i / 3, beta) for i in range(4)]
    branch = continue_branch(0.25, schedule, M=32, g=1.0, sigma=1.0)
    assert len(branch.solutions) == 4
    assert all(acc for (_, _, _, acc) in branch.step_history)
    alphas = [s.params.alpha for s in branch.solutions]
    assert alphas == sorted(alphas)
    assert branch.solutions[-1].residual_norm < 1e-11


def test_continue_branch_sheet_continuity():
    beta = crapper.beta_of(0.3)
    schedule = [(a, beta) for a in (0.0, 0.01, 0.02, 0.04)]
    branch = continue_branch(0.3, schedule, M=48, g=1.0, sigma=1.0)
    w_a = branch.solutions[0].w
    dists = [np.max(np.abs(_at(branch, a).w.samples - w_a.samples))
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


def test_halved_step_is_kept_until_the_target(monkeypatch):
    # a Newton stand-in that converges only on steps |d alpha| <= 0.003: the
    # third halving of the 0.02 segment succeeds and its length 0.0025 is
    # kept, so the target takes 8 accepted steps after 3 failures
    reached = [0.0]

    def solve(params, w0, M, tol, max_iter):
        if abs(params.alpha - reached[0]) > 0.003:
            raise NewtonError("step too long")
        reached[0] = params.alpha
        return SimpleNamespace(params=params, w=w0)

    monkeypatch.setattr(continuation, "newton_solve", solve)
    beta = crapper.beta_of(0.3)
    branch = continue_branch(0.3, [(0.0, beta), (0.02, beta)], M=16, n_grid=128)
    accepted = [e for e in branch.step_history if e[3]]
    assert len(accepted) == 9 and len(branch.step_history) == 12
    assert [e[2] for e in accepted[1:]] == pytest.approx([0.0025] * 8)
    assert branch.solutions[-1].params.alpha == 0.02


def test_step_underflow_after_max_halvings_per_target(monkeypatch):
    beta = crapper.beta_of(0.3)

    def solve(params, w0, M, tol, max_iter):
        if params.alpha > 0.0:
            raise NewtonError("no step succeeds")
        return SimpleNamespace(params=params, w=w0)

    monkeypatch.setattr(continuation, "newton_solve", solve)
    with pytest.raises(StepUnderflowError, match="after 6 halvings") as err:
        continue_branch(0.3, [(0.0, beta), (0.02, beta)], M=16, n_grid=128)
    steps = [e[2] for e in err.value.branch.step_history[1:]]
    assert steps == [0.02 * 0.5 ** k for k in range(continuation.MAX_HALVINGS + 1)]


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
    near_limit = _at(branch, 1e-4)
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


def test_crapper_curve_check_steep_waves_of_both_signs():
    # the bump is mirrored with the wave, so -A restarts exactly as A does
    rep = crapper_curve_check([0.7, -0.7, 0.8, -0.8])
    assert rep["all_on_family"]
    for row in rep["rows"]:
        assert row["recovered_A"] == pytest.approx(row["A"], abs=1e-8)
    pos, neg = rep["rows"][0::2], rep["rows"][1::2]
    assert [r["newton_iters"] for r in pos] == [r["newton_iters"] for r in neg]


def test_modes_for_scales_with_parameter():
    assert modes_for(0.1) <= modes_for(0.5) <= modes_for(0.8)
    assert modes_for(0.3, requested=128) == 128
    M = modes_for(0.8)
    assert 4.0 * 0.8 ** M * M ** 2 < 1e-10


def test_modes_for_follows_the_solve_tolerance():
    # the tail left in the residual sits a decade below the tolerance
    for A, tol, M in ((0.75, 1e-11, 136), (-0.8, 1e-11, 184), (-0.8, 1e-9, 160)):
        assert modes_for(A, tol=tol) == M
        assert 4.0 * abs(A) ** M * M ** 2 < tol / 10 <= 4.0 * abs(A) ** (M - 8) * (M - 8) ** 2
    assert modes_for(0.8, tol=continuation.CURVE_CHECK_TOL) == 160


def test_modes_for_rejects_an_A_the_mode_cap_cannot_serve():
    # 256 modes meet 4|A|^M M^2 < tol/10 for |A| <= (tol/10/(4*256^2))^(1/256)
    assert modes_for(0.85) == 248
    assert modes_for(0.8549) == 256
    for A, tol, largest in ((0.97, 1e-11, "0.8549"), (-0.855, 1e-11, "0.8549"),
                            (0.9, 1e-9, "0.8705"), (0.9, 1e-6, "0.8943")):
        with pytest.raises(ValueError, match=f"256 modes serve \\|A\\| <= {largest}"):
            modes_for(A, tol=tol)
    # a larger requested M is kept when it meets the bound, and checked too
    assert modes_for(0.97, requested=2000) == 2000
    with pytest.raises(ValueError, match="more than 300 cosine modes"):
        modes_for(0.97, requested=300)
