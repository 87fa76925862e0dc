import dataclasses
import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from capwave import continuation, crapper, geometry, linearization
from capwave.continuation import (
    Branch,
    NewtonError,
    StepUnderflowError,
    continue_branch,
    crapper_curve_check,
    modes_for,
    newton_solve,
)
from capwave.linearization import OperatorMatrix, dG_matrix, jacobian_fd
from capwave.operators import WaveParams, q_hat, residual_fd, residual_inf
from capwave.serialization import solution_to_dict
from capwave.spectral import DegenerateMetricError, PeriodicFunction, grid

from _oracles import bernoulli_spread, crapper_samples, sheet_rate_exponent, walk_steps


def _crapper_start(A, n_grid=256):
    return (crapper.crapper_wave(A, n_grid),
            WaveParams(alpha=0.0, beta=crapper.beta_of(A)))


def _check_bookkeeping(branch):
    """The accepted entries of the step history are the solutions' (alpha,
    beta) in order, and each entry's step starts at the last accepted alpha."""
    history = branch.step_history
    assert [e[:2] for e in history if e[3]] == [(s.params.alpha, s.params.beta)
                                                for s in branch.solutions]
    assert [e[2] for e in history] == walk_steps(history)


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
    # the stall sits at the perturbed start's residual, decades above tol
    ("every trial degenerate", (NewtonError, r"line search stalled at iteration 0 "
                                             r"\(residual \S+, tol = 1e-11\)$")),
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


@pytest.mark.parametrize("A, M, tol, message", [
    # residual / tol at the stall: 1.78 and 3.55 at iteration 0, so the
    # tolerance sits at the rounding floor; 14.2 at iteration 2, past the factor
    (0.3, 32, 1e-15, r"iteration 0 \(residual 1.776e-15, tol = 1e-15\): within 10x of "
                     r"tol, so tol is at the rounding floor of the residual on \d+ modes$"),
    (0.3, 32, 5e-16, r"iteration 0 \(residual 1.776e-15, tol = 5e-16\): within 10x"),
    (0.5, 48, 1e-15, r"iteration 2 \(residual 1.421e-14, tol = 1e-15\)$"),
])
def test_a_stall_names_tol_and_says_when_it_sits_at_the_residual_floor(A, M, tol, message):
    with pytest.raises(NewtonError, match="^line search stalled at " + message):
        continue_branch(A, [(0.0, crapper.beta_of(A))], M=M, tol=tol)


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


@pytest.mark.parametrize("kwargs, message", [
    *(({"tol": tol}, "tol must be positive and finite") for tol in
      (0.0, -1e-11, math.nan, math.inf)),
    ({"max_iter": -1}, "^max_iter must be >= 0, got -1$"),
], ids=["0.0", "-1e-11", "nan", "inf", "max_iter=-1"])
def test_continue_branch_checks_tol_before_it_sizes_or_solves(monkeypatch, kwargs, message):
    # and max_iter, before the start's stacked Jacobians as well
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran although tol or max_iter had to be rejected first")

    for name in ("modes_for", "_start_jacobians", "newton_solve"):
        monkeypatch.setattr(continuation, name, must_not_run)
    beta = crapper.beta_of(0.3)
    with pytest.raises(ValueError, match=message):
        continue_branch(0.3, [(0.0, beta), (0.02, beta)], **kwargs)


@pytest.mark.parametrize("M", [0, -4])
def test_continue_branch_checks_M_before_it_sizes_or_solves(monkeypatch, M):
    # modes_for would raise any M below its own count to that count
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran although M had to be rejected first")

    monkeypatch.setattr(continuation, "modes_for", must_not_run)
    monkeypatch.setattr(continuation, "newton_solve", must_not_run)
    with pytest.raises(ValueError, match=f"^M must be at least 1, got {M}$"):
        continue_branch(0.3, [(0.0, crapper.beta_of(0.3))], M=M)


@pytest.mark.parametrize("M", [-1, 0, 2, 3])
def test_newton_and_the_jacobians_refuse_fewer_than_4_modes_before_any_residual(
        monkeypatch, M):
    # 4 modes make the smallest matrix that an OperatorMatrix holds
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran although M had to be rejected first")

    monkeypatch.setattr(continuation, "residual_inf", must_not_run)
    w, params = _crapper_start(0.3)
    for call in (lambda: newton_solve(params, w, M=M), lambda: jacobian_fd(must_not_run, w, M),
                 lambda: dG_matrix(0.3, M)):
        with pytest.raises(ValueError, match=f"^M must be >= 4, got {M}$"):
            call()


def test_a_degenerate_metric_in_the_jacobian_fails_the_step_and_it_is_halved(monkeypatch):
    # newton_solve passes the Jacobian's DegenerateMetricError on, as it does
    # the residual's, and continue_branch halves the step that raised it
    def degenerate(*args):
        raise DegenerateMetricError("conformal metric vanishes on the grid")

    monkeypatch.setattr(continuation, "jacobian_fd", degenerate)
    w, params = _crapper_start(0.3)
    w0 = w + PeriodicFunction.from_cosine_series([0.0, 0.01], w.n_grid)
    with pytest.raises(DegenerateMetricError, match="^conformal metric vanishes on the grid$"):
        newton_solve(params, w0, M=32)
    # the first step's iteration 0 takes the Jacobian the start handed on
    beta = crapper.beta_of(0.3)
    with pytest.raises(StepUnderflowError, match=r"\(last failure: conformal metric "
                                                 r"vanishes on the grid\)$") as err:
        continue_branch(0.3, [(0.0, beta), (0.02, beta)], M=32)
    accepted = [e[3] for e in err.value.branch.step_history]
    assert accepted == [True] + [False] * (continuation.MAX_HALVINGS + 1)


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


# -- the start's Jacobian and the first step's, from one stacked call ------------------


def _count_jacobian_work(monkeypatch):
    """(jobs, rows): M of each Jacobian job and the rows of each +-step
    stack that a residual call gets, every chunk computed in this process."""
    jobs, rows = [], []
    steps = linearization._plus_minus_steps

    def offer(job, chunks):
        jobs.append(job[-1])

    def count_rows(base, basis, modes, step):
        rows.append(2 * len(modes))
        return steps(base, basis, modes, step)

    monkeypatch.setattr(linearization, "_offer", offer)
    monkeypatch.setattr(linearization, "_plus_minus_steps", count_rows)
    return jobs, rows


def _without_stacked_jacobians(monkeypatch):
    """Every stacked call fails before its job, so each Jacobian is computed
    alone, as before the start's was stacked."""
    def fail(*args, **kwargs):
        raise FloatingPointError("overflow")

    monkeypatch.setattr(continuation, "_jacobians", fail)


def _branch_bits(branch):
    return branch.step_history, [(s.params, s.w.coeffs.tobytes(), s.sigma_min,
                                  s.residual_history) for s in branch.solutions]


def _compare_with_single_jacobians(monkeypatch, run):
    """(jobs, stack rows) of `run()` and of `run()` with single Jacobians
    only, which gives the same bits or raises the same error."""
    jobs, rows = _count_jacobian_work(monkeypatch)
    work = []
    for single in (False, True):
        if single:
            _without_stacked_jacobians(monkeypatch)
        jobs.clear()
        rows.clear()
        try:
            got = _branch_bits(run())
        except StepUnderflowError as exc:
            got = str(exc), _branch_bits(exc.branch)
        work.append((len(jobs), sum(rows)))
        if single:
            assert got == want
        want = got
    return work


def test_a_deep_start_hands_its_first_step_the_jacobian_it_computed_with_its_own(
        monkeypatch):
    # one job fewer, with the rows of one: the start's job covers both points
    beta = crapper.beta_of(0.3)
    branch = continue_branch(0.3, [(0.0, beta), (0.02, beta)], M=32, g=1.0, sigma=1.0)
    steps = branch.solutions[1].newton_iters  # each iteration needs one Jacobian
    work = _compare_with_single_jacobians(monkeypatch, lambda: continue_branch(
        0.3, [(0.0, beta), (0.02, beta)], M=32, g=1.0, sigma=1.0))
    assert work == [(steps, 64 * steps), (steps + 1, 64 * (steps + 1))]


def test_a_halved_retry_computes_its_own_jacobian(monkeypatch):
    # the step to alpha = 2 lands on flat water and is halved six times:
    # only the first attempt's iteration 0 takes the Jacobian the start handed on
    beta = crapper.beta_of(0.1)
    (stacked, _), (single, _) = _compare_with_single_jacobians(monkeypatch, lambda: (
        continue_branch(0.1, [(0.0, beta), (2.0, beta)], M=16, g=1.0, sigma=1.0)))
    assert stacked == single - 1


@pytest.mark.parametrize("why", ["finite depth", "the start iterates"])
def test_no_jacobian_is_stacked_for_finite_depth_or_a_start_that_iterates(monkeypatch, why):
    beta = crapper.beta_of(0.3)
    kwargs = {"h": 2.5, "gamma": 0.7} if why == "finite depth" else {}
    a0 = 0.0 if why == "finite depth" else -0.01  # Crapper's wave solves alpha = 0 only
    monkeypatch.setattr(continuation, "_jacobians", _must_not_stack)
    branch = continue_branch(0.3, [(a0, beta), (0.02, beta)], M=32, g=1.0, sigma=1.0,
                             **kwargs)
    assert (branch.solutions[0].newton_iters > 0) == (why == "the start iterates")


def _must_not_stack(*args, **kwargs):
    raise AssertionError("a stacked Jacobian was computed")


def test_a_fault_in_the_stacked_start_is_not_taken_for_a_numerical_failure(monkeypatch):
    # only arithmetic, memory and value errors fall back to single Jacobians
    def broken(*args, **kwargs):
        raise TypeError("a fault in the stacked job")

    monkeypatch.setattr(continuation, "_jacobians", broken)
    beta = crapper.beta_of(0.3)
    with pytest.raises(TypeError, match="^a fault in the stacked job$"):
        continue_branch(0.3, [(0.0, beta), (0.02, beta)], M=16, g=1.0, sigma=1.0)


def test_a_start_that_iterates_hands_on_no_jacobian(monkeypatch):
    # Crapper's wave at A = -0.8 takes one Newton step on 184 modes: the
    # first step starts away from the stacked pair's w, so it computes its own
    beta = crapper.beta_of(-0.8)
    run = lambda: continue_branch(-0.8, [(0.0, beta), (0.02, beta)], M=64, g=1.0, sigma=1.0)
    assert run().solutions[0].newton_iters == 1
    (stacked, _), (single, _) = _compare_with_single_jacobians(monkeypatch, run)
    assert stacked == single


def test_a_given_jacobian_serves_iteration_0_or_sigma_min():
    # a matrix twice the Jacobian halves Newton's first step: the history
    # shows whether the solve took it
    params = WaveParams(alpha=0.01, beta=crapper.beta_of(0.3))
    w0, M = crapper.crapper_wave(0.3, 128), 32
    plain = newton_solve(params, w0, M=M).residual_history
    w = PeriodicFunction.from_cosine_series(w0.cosine_coefficients(M), 128)
    jac = jacobian_fd(partial(residual_inf, params), w, M)
    wrong = OperatorMatrix(2.0 * jac.entries, "cosine")
    assert newton_solve(params, w0, M=M, jac=jac).residual_history == plain
    assert newton_solve(params, w0, M=M, jac=wrong).residual_history != plain
    # at a w0 that solves already, sigma_min is the given matrix's
    w0, start = _crapper_start(0.3)
    counted = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "jacobian_fd", lambda *args: counted.append(args))
        sol = newton_solve(start, w0, M=M, jac=wrong)
    assert sol.newton_iters == 0 and counted == []
    assert sol.sigma_min == continuation._sigma_min(wrong)


def test_halved_step_is_kept_until_the_target(monkeypatch):
    # a Newton stand-in that converges only on steps |d alpha| <= 0.003: the
    # third halving of the 0.02 segment succeeds and its length 0.0025 is
    # kept, so the target takes 8 accepted steps after 3 failures
    reached = [0.0]

    def solve(params, w0, M, tol, max_iter, **_):
        if abs(params.alpha - reached[0]) > 0.003:
            raise NewtonError("step too long")
        reached[0] = params.alpha
        return SimpleNamespace(params=params, w=w0, modes=M, newton_iters=0,
                               geometry={"steepness": 0.4})

    monkeypatch.setattr(continuation, "newton_solve", solve)
    beta = crapper.beta_of(0.3)
    branch = continue_branch(0.3, [(0.0, beta), (0.02, beta)], M=16, n_grid=128)
    accepted = [e for e in branch.step_history if e[3]]
    assert len(accepted) == 9 and len(branch.step_history) == 12
    assert [e[2] for e in accepted[1:]] == pytest.approx([0.0025] * 8)
    assert branch.solutions[-1].params.alpha == 0.02
    _check_bookkeeping(branch)


def test_a_step_that_loses_its_height_is_halved(monkeypatch):
    # a stand-in whose steps longer than 0.01 keep half of MIN_STEEPNESS_RATIO
    # of the height and shorter ones all of it: only the long step fails
    ratio = continuation.MIN_STEEPNESS_RATIO
    reached = [0.0, 1.0]  # alpha and steepness of the last accepted point

    def solve(params, w0, M, tol, max_iter, **_):
        long_step = params.alpha - reached[0] > 0.01
        height = reached[1] * (ratio * 0.5 if long_step else ratio) if params.alpha else 1.0
        if not long_step:
            reached[:] = params.alpha, height
        return SimpleNamespace(params=params, w=w0, modes=M, newton_iters=0,
                               geometry={"steepness": height})

    monkeypatch.setattr(continuation, "newton_solve", solve)
    beta = crapper.beta_of(0.3)
    branch = continue_branch(0.3, [(0.0, beta), (0.02, beta)], M=16, n_grid=128)
    assert [e[2:] for e in branch.step_history] == [(0.0, True), (0.02, False),
                                                     (0.01, True), (0.01, True)]
    assert [s.geometry["steepness"] for s in branch.solutions] == [1.0, ratio, ratio ** 2]
    _check_bookkeeping(branch)


def test_a_long_step_onto_flat_water_is_halved_not_accepted():
    # A = 0.1 straight to alpha = 2 converges onto flat water (steepness
    # 2e-13 against 0.129); halving walks the sheet, which steepens, until
    # the step underflows near alpha = 0.09
    beta = crapper.beta_of(0.1)
    with pytest.raises(StepUnderflowError) as err:
        continue_branch(0.1, [(0.0, beta), (2.0, beta)], M=16, g=1.0, sigma=1.0)
    branch = err.value.branch
    assert branch.step_history[1] == (2.0, beta, 2.0, False)
    assert [s.params.alpha for s in branch.solutions] == [0.0, 0.03125, 0.0625]
    # the last halving fails at the rounding floor of the residual on 16 modes
    assert str(err.value).endswith("(last failure: line search stalled at iteration 5 "
                                   "(residual 4.018e-11, tol = 1e-11): within 10x of tol, "
                                   "so tol is at the rounding floor of the residual on "
                                   "16 modes)")
    steep = [s.geometry["steepness"] for s in branch.solutions]
    assert steep[0] == pytest.approx(0.1286, abs=1e-4) and steep == sorted(steep)


def test_step_underflow_after_max_halvings_per_target(monkeypatch):
    beta = crapper.beta_of(0.3)

    def solve(params, w0, M, tol, max_iter, **_):
        if params.alpha > 0.0:
            raise NewtonError("no step succeeds")
        return SimpleNamespace(params=params, w=w0, modes=M, newton_iters=0)

    monkeypatch.setattr(continuation, "newton_solve", solve)
    with pytest.raises(StepUnderflowError, match="after 6 halvings") as err:
        continue_branch(0.3, [(0.0, beta), (0.02, beta)], M=16, n_grid=128)
    steps = [e[2] for e in err.value.branch.step_history[1:]]
    assert steps == [0.02 * 0.5 ** k for k in range(continuation.MAX_HALVINGS + 1)]
    assert str(err.value).endswith("alpha=0.02 (last failure: no step succeeds)")
    _check_bookkeeping(err.value.branch)


def test_step_underflow_onto_flat_water_names_the_steepness_ratio(monkeypatch):
    # every step off the start converges, onto a wave 1e-4 as steep: the
    # ratio is in the message, the comparison against MIN_STEEPNESS_RATIO
    # is what rejects the step
    def solve(params, w0, M, tol, max_iter, **_):
        height = 1e-4 if params.alpha > 0.0 else 1.0
        return SimpleNamespace(params=params, w=w0, modes=M, newton_iters=0,
                               geometry={"steepness": height})

    monkeypatch.setattr(continuation, "newton_solve", solve)
    beta = crapper.beta_of(0.3)
    with pytest.raises(StepUnderflowError) as err:
        continue_branch(0.3, [(0.0, beta), (0.02, beta)], M=16, n_grid=128)
    assert str(err.value) == ("step underflow after 6 halvings towards alpha=0.02 (last "
                              "failure: converged onto flat water, steepness 0.0001 x the "
                              "previous point's)")
    assert len(err.value.branch.solutions) == 1
    _check_bookkeeping(err.value.branch)


@pytest.mark.parametrize("A, h, gamma", [(0.3, math.inf, 0.0), (0.3, 2.0, 0.0), (0.3, 2.0, 1.0),
                                         (-0.35, 0.5, -2.0)])
def test_solutions_leave_crappers_wave_at_the_papers_rate(A, h, gamma):
    # Newton from w_A at (alpha, beta_A), one alpha a decade from 1e-2 to 1e-8:
    # the local slopes of log ||w(alpha) - w_A|| against log alpha settle on
    # the oracle's exponent (0.7188 ... 0.7481 at h = 2, gamma = 1)
    M, n = 64, 256
    w_A = PeriodicFunction.from_cosine_series(crapper.crapper_wave(A, n).cosine_coefficients(M), n)
    beta = crapper.beta_of(A)
    alphas = [10.0 ** -k for k in range(2, 9)]
    dist = [np.max(np.abs(newton_solve(WaveParams(a, beta, gamma=gamma, h=h), w_A, M=M).w.samples
                          - w_A.samples)) for a in alphas]
    slopes = np.diff(np.log(dist)) / np.diff(np.log(alphas))
    assert slopes[-2:] == pytest.approx([sheet_rate_exponent(h, gamma)] * 2, abs=0.01)


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


# max E - min E on a clean point of an M = 32 branch was 5.5e-12 to 5e-11,
# and 5.5e-7 to 3.4e-6 with 1e-8 cos 3t added to w
BERNOULLI_SPREAD_TOL = 1e-9


@pytest.mark.parametrize("depth, alphas", [
    (dict(), (-0.01, 0.02, 0.05)),
    (dict(h=1.0), (-0.01, 0.05, 0.1)),
    (dict(h=4.0, sigma=100.0), (0.0, 0.02, 0.05)),  # d = hk near 2: the strip shows
    (dict(h=2.0, gamma=1.0), (0.0, 0.1, 0.2, 0.3)),  # V of the operators docstring
])
def test_solved_points_keep_bernoulli_law_on_the_surface(depth, alphas):
    beta = crapper.beta_of(0.3)
    branch = continue_branch(0.3, [(a, beta) for a in alphas], M=32, **depth)
    assert [s.params.alpha for s in branch.solutions] == list(alphas)
    for sol in branch.solutions:
        w = sol.w.samples
        assert bernoulli_spread(sol.params, w) < BERNOULLI_SPREAD_TOL
        damaged = w + 1e-8 * np.cos(3.0 * grid(sol.w.n_grid))
        assert bernoulli_spread(sol.params, damaged) > 100.0 * BERNOULLI_SPREAD_TOL
        if "h" in depth and sol.params.alpha > 0.0:  # the half-plane conjugation fails there
            deep = dataclasses.replace(sol.params, h=math.inf, gamma=0.0)
            assert bernoulli_spread(deep, w) > 100.0 * BERNOULLI_SPREAD_TOL
        if "gamma" in depth and sol.params.alpha > 0.0:  # and so does V = 1
            still = dataclasses.replace(sol.params, gamma=0.0)
            assert bernoulli_spread(still, w) > 100.0 * BERNOULLI_SPREAD_TOL


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


def test_crapper_curve_check_keeps_the_bits_of_its_separate_closed_forms(monkeypatch):
    # each row against the expressions it was computed from before the family
    # distance and the profile came from crapper: 4(-b)^n and w_b(t) on their own
    solve, solved = continuation.newton_solve, []

    def capture(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(continuation, "newton_solve", capture)
    rep = crapper_curve_check([0.4, -0.6, 0.1])
    for row, sol in zip(rep["rows"], solved, strict=True):
        a = sol.w.cosine_coefficients(sol.modes)
        b = crapper.param_of_beta(sol.params.beta, sign=row["A"])
        n = np.arange(1, sol.modes + 1)
        assert row["coefficient_error"] == float(np.max(np.abs(a - 4.0 * (-b) ** n)))
        assert row["profile_distance"] == float(np.max(np.abs(
            sol.w.samples - crapper_samples(b, grid(sol.w.n_grid)))))
        assert row["recovered_A"] == float(-a[0] / 4.0)


def _off_family_start(monkeypatch):
    """newton_solve, but every solution it returns carries 1e-3 more on cos 3t."""
    solve = continuation.newton_solve

    def off_family(params, w0, **kwargs):
        sol = solve(params, w0, **kwargs)
        bump = PeriodicFunction.from_cosine_series([0.0, 0.0, 1e-3], sol.w.n_grid)
        return dataclasses.replace(sol, w=sol.w + bump)

    monkeypatch.setattr(continuation, "newton_solve", off_family)


@pytest.mark.parametrize("alpha, depth", [(0.0, {}), (0.0, {"h": 2.0, "gamma": 0.5}),
                                          (-0.01, {"h": 2.0, "gamma": 0.5})])
def test_a_start_off_crappers_family_fails_and_names_its_distance(monkeypatch, alpha, depth):
    _off_family_start(monkeypatch)
    beta = crapper.beta_of(0.3)
    with pytest.raises(NewtonError, match=r"^start converged off Crapper's family: distance "
                                          r"1\.000e-03 from A = 0\.3, not below 1e-06$"):
        continue_branch(0.3, [(alpha, beta), (0.01, beta)], M=32, **depth)


def test_a_deep_start_below_alpha_0_solves_another_problem_and_passes():
    # Crapper's wave solves deep F at alpha = 0 only: at alpha < 0 the start
    # converges 0.025 off the family, while finite depth keeps it on
    beta = crapper.beta_of(0.3)
    deep = continue_branch(0.3, [(-0.01, beta)], M=64).solutions[0]
    assert deep.newton_iters == 4
    assert crapper.family_distance(0.3, deep.w.cosine_coefficients(64)) == pytest.approx(
        0.0252, abs=1e-4)
    strip = continue_branch(0.3, [(-0.01, beta)], M=64, h=2.0, gamma=0.5).solutions[0]
    assert crapper.family_distance(0.3, strip.w.cosine_coefficients(64)) == 0.0


@pytest.mark.parametrize("alpha, kept", [(-0.01, 0.98), (-0.1, 0.69)])
def test_a_deep_start_below_alpha_0_that_keeps_its_height_passes(alpha, kept):
    beta = crapper.beta_of(0.3)
    start = continue_branch(0.3, [(alpha, beta)], M=64, g=1.0, sigma=1.0).solutions[0]
    w_a = crapper.crapper_wave(0.3, start.w.n_grid).cosine_coefficients(64)
    ratio = start.geometry["steepness"] / geometry.steepness(
        PeriodicFunction.from_cosine_series(w_a, start.w.n_grid))
    assert ratio == pytest.approx(kept, abs=0.01)


def test_a_deep_start_below_alpha_0_that_lands_on_flat_water_fails():
    # at alpha = -0.3 the start converges onto w = 0, which solves every F
    beta = crapper.beta_of(0.3)
    with pytest.raises(NewtonError, match=r"^start converged onto flat water, steepness "
                                          r"\S+ x Crapper's wave's$") as err:
        continue_branch(0.3, [(-0.3, beta), (0.01, beta)], M=64, g=1.0, sigma=1.0)
    assert float(str(err.value).split()[6]) < 1e-12


def test_a_target_without_vorticity_scales_is_refused_before_any_solve(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("solved although a target had to be rejected first")

    monkeypatch.setattr(continuation, "newton_solve", must_not_run)
    beta = crapper.beta_of(0.3)
    with pytest.raises(ValueError, match="^finite-depth vorticity scales leave the float range"):
        continue_branch(0.3, [(0.0, beta), (1e200, beta)], h=2.0, gamma=0.5, M=16)


def test_crapper_curve_check_needs_an_A():
    with pytest.raises(ValueError, match="^the curve check needs at least one A$"):
        crapper_curve_check([])


@pytest.mark.parametrize("A_values, message", [
    ([1.5], r"^Crapper parameter must satisfy \|A\| < 1, got 1.5$"),
    ([0.3, 0.0], "^A = 0 sits at the bifurcation point; excluded$"),
    ([0.3, 0.9], r"^\|A\| = 0.9 needs more than 256 cosine modes at tol = 1e-09"),
])
def test_crapper_curve_check_refuses_every_bad_A_before_its_first_solve(monkeypatch, A_values,
                                                                         message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("solved although an A had to be rejected first")

    monkeypatch.setattr(continuation, "newton_solve", must_not_run)
    with pytest.raises(ValueError, match=message):
        crapper_curve_check(A_values)


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
