"""Newton solver on truncated cosine space and continuation in (alpha, beta).

The solution sheet is a graph over (alpha, beta) near the pure-capillary
curve, so plain natural-parameter continuation applies: start from the
explicit wave at (alpha <= 0, beta_A), step alpha towards gravity, reconverge
with a full Newton iteration at every step, halve the step on failure.  A
collapsing smallest singular value of the Jacobian (a fold, which the local
theory excludes) aborts with a report instead of stepping blindly.  The
parameter record decides the problem: deep water solves F, finite depth FD.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import crapper, geometry
from .linearization import OperatorMatrix, _check_modes, _jacobians, jacobian_fd
from .operators import (
    WaveParams,
    _residual_inf,
    bernoulli_b,
    q_hat,
    residual_fd,
    residual_inf,
)
from .spectral import DegenerateMetricError, PeriodicFunction

DEFAULT_M = 128
DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 25
MAX_MODES = 256  # a Jacobian is M residual columns on n >= 5M/2 points
_GRID_PER_MODE = 2.5  # the 5M/2 floor of a default grid, in crapper.min_grid
MIN_JACOBIAN_SIGMA = 1e-10
MAX_HALVINGS = 6
# Flat water solves every residual, so a long step can converge onto it: an
# accepted point whose steepness is below MIN_STEEPNESS_RATIO times the
# previous point's is a failed step.  Steepness ratios of consecutive points
# (2 cores, numpy 2.4):
#
#   branches                                            ratios   min - max
#   tools/cli_outputs.py: deep, vortical, 2-D sheet         10   0.93 - 1.42
#   bench deep_sheet, seeds 1-3 x 8 ops                     24   0.96 - 1.20
#   bench vortical_sheet, seeds 1-3 x 8 ops                 24   0.92 - 1.32
#   tests: acceptance, continuation, cli (fuzz included)   178   0.89 - 1.42
#   continue --A 0.1 --alpha-max 2 --steps 64 --M 16         3   1.02 - 1.59
#   continue --A 0.3 --M 32 --beta-max 1.01 --beta-steps 2   3   0.36 - 1.03
#   continue --A 0.1 --alpha-max 2 --steps 1 (M 16 or 32)    1   1.6e-12 (flat)
#
# A sheet walked towards beta = 1 (A -> 0) loses height fast, so the bound
# sits decades below every ratio of a walk and decades above flat water.
MIN_STEEPNESS_RATIO = 1e-3
# crapper_curve_check: (amplitude, cosine mode) of the perturbation, and a
# tolerance above the truncation floor of the widest waves (|A| ~ 0.8)
CURVE_CHECK_BUMP = (0.02, 3)
CURVE_CHECK_TOL = 1e-9
FAMILY_TOL = 1e-6  # family_distance under which a start or a curve-check restart is w_A
# A line search that stalls with its residual within STALL_FLOOR_FACTOR of
# tol has met the rounding floor of the residual on M modes, not a failure
# of Newton's direction.  Residual / tol at the stall of `continue ...
# --steps 0` (2 cores, numpy 2.4):
#
#   run                                   iteration   residual / tol
#   --A 0.82 --g 1 --sigma 1                  0            1.84
#   --A 0.85 --g 1 --sigma 1                  0            2.16
#   --A 0.3 --M 32 --tol 1e-15                0            1.78
#   --A 0.3 --M 32 --tol 5e-16                0            3.55
#   --A 0.5 --M 48 --tol 1e-15                2           14.2
#
# (--A 0.84 converges, and --A 0.82 --tol 5e-11 does.)  10 covers every
# stall at iteration 0; the message names tol in every case.
STALL_FLOOR_FACTOR = 10.0


class NewtonError(RuntimeError):
    """Newton corrector failed (divergence, singular Jacobian, bad metric)."""


class StepUnderflowError(RuntimeError):
    """Continuation step shrank below the halving budget; carries the branch
    accumulated so far in .branch."""

    def __init__(self, message, branch):
        super().__init__(message)
        self.branch = branch


@dataclass(frozen=True)
class WaveSolution:
    """A converged point of the residual together with its diagnostics."""

    params: WaveParams
    w: PeriodicFunction
    residual_norm: float
    b_or_qhat: float
    newton_iters: int
    modes: int
    sigma_min: float
    residual_history: tuple[float, ...]
    geometry: dict  # geometry.solution_report, as the solution file keeps it

    @property
    def depth(self) -> WaveParams:
        """`params`, which carries h and gamma; kept read-only because the
        benchmark workloads in bench/ read `sol.depth.is_infinite`."""
        return self.params


@dataclass
class Branch:
    """Ordered solutions along a continuation path plus step bookkeeping."""

    start_A: float
    solutions: list[WaveSolution] = field(default_factory=list)
    step_history: list[tuple[float, float, float, bool]] = field(default_factory=list)


def modes_for(A: float, requested: int | None = None, tol: float = DEFAULT_TOL) -> int:
    """Cosine modes needed so the family tail, amplified by the second
    derivative in the residual, sits a decade below the tolerance `tol` of
    the solve that uses them: 4|A|^M M^2 < tol/10.  At most MAX_MODES are
    added; a ValueError names the largest |A| they serve when the modes
    kept still fail the bound."""
    A = abs(A)
    tail = lambda M: 4.0 * A ** M * M ** 2
    need = 16
    while A > 0.0 and tail(need) >= tol / 10.0 and need < MAX_MODES:
        need += 8
    M = max(requested or 0, need)
    if tail(M) >= tol / 10.0:
        largest = (tol / 10.0 / (4.0 * MAX_MODES ** 2)) ** (1.0 / MAX_MODES)
        raise ValueError(f"|A| = {A:g} needs more than {M} cosine modes at tol = {tol:g}; "
                         f"{MAX_MODES} modes serve |A| <= {math.floor(largest * 1e4) / 1e4:.4f}")
    return M


def newton_solve(params: WaveParams, w0: PeriodicFunction, M: int = DEFAULT_M,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 *, jac: OperatorMatrix | None = None) -> WaveSolution:
    """Full Newton on span{cos nt : n <= M} for the residual that `params`
    names: F (with the head b) in deep water, FD (with qhat) in finite depth.

    The iterate lives in the truncated cosine space (w0 is projected onto
    it); convergence is measured by the sup norm of the residual on the full
    grid.  The Jacobian is refreshed every iteration by central differences;
    a singular one, or one the residual overflowed into inf or nan, raises
    NewtonError.  `jac`, the Jacobian at w0's projection if the caller has
    it, serves iteration 0, or `sigma_min` when w0 already solves.
    """
    residual = residual_inf if params.is_infinite else residual_fd
    _check_stop(tol, max_iter)
    _check_modes(M)
    w = PeriodicFunction.from_cosine_series(w0.cosine_coefficients(M), w0.n_grid)
    res = partial(residual, params)  # pickles: the Jacobian's worker can run it
    history = []
    sigma = None
    r = res(w)
    for it in range(max_iter + 1):
        rnorm = r.norm_inf()
        history.append(rnorm)
        if rnorm < tol or it == max_iter:
            break
        try:
            matrix, jac = jac or jacobian_fd(res, w, M), None
        except DegenerateMetricError:
            raise
        except ValueError as exc:  # operator matrix has non-finite entries
            raise NewtonError(f"{exc} at iteration {it}") from None
        sigma = _sigma_min(matrix)
        if sigma < MIN_JACOBIAN_SIGMA:
            raise NewtonError(
                f"Jacobian sigma_min={sigma:.3e} below {MIN_JACOBIAN_SIGMA} at iteration {it}")
        delta = np.linalg.solve(matrix.entries, -r.cosine_coefficients(M))
        step = PeriodicFunction.from_cosine_series(delta, w.n_grid)
        # backtracking keeps the iterate in the local basin; the full step is
        # always tried first, so quadratic convergence is untouched near the root
        lam = 1.0
        for _ in range(10):
            w_try = w + lam * step
            try:
                r_try = res(w_try)
            except DegenerateMetricError:
                lam *= 0.5
                continue
            if r_try.norm_inf() < rnorm * (1.0 - 1e-4 * lam):
                break
            lam *= 0.5
        else:
            floor = (f": within {STALL_FLOOR_FACTOR:g}x of tol, so tol is at the "
                     f"rounding floor of the residual on {M} modes"
                     if rnorm < STALL_FLOOR_FACTOR * tol else "")
            raise NewtonError(f"line search stalled at iteration {it} "
                              f"(residual {rnorm:.3e}, tol = {tol:g}){floor}")
        w, r = w_try, r_try
    if not rnorm < tol:
        raise NewtonError(f"no convergence in {max_iter} iterations "
                          f"(residual history {['%.2e' % v for v in history]})")
    if sigma is None:  # converged at w0 without a step
        sigma = _sigma_min(jac or jacobian_fd(res, w, M))
    scalar = bernoulli_b(params.alpha, w) if params.is_infinite else q_hat(params, w)
    return WaveSolution(params=params, w=w, residual_norm=rnorm, b_or_qhat=scalar,
                        newton_iters=it, modes=M, sigma_min=sigma,
                        residual_history=tuple(history),
                        geometry=geometry.solution_report(params, w))


def _check_stop(tol, max_iter):
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    # tol <= 0 or nan can never be met, and inf is met before any iteration
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _sigma_min(jac) -> float:
    return float(np.linalg.svd(jac.entries, compute_uv=False)[-1])


def _start_jacobians(start, first, w, M):
    """Stacked Jacobians at `w` under `start` and `first`, sharing the alpha-free
    pieces; (None, None) in finite depth, at alpha != 0 (Crapper's wave solves F
    at 0 only), with no distinct `first`, or if the stacked call raises under its
    errstate, runs out of memory or gives a non-finite entry: single calls then
    fail as they would.  Any other exception is a fault, and propagates."""
    if first not in (None, start) and start.is_infinite and start.alpha == 0.0:
        with (contextlib.suppress(ArithmeticError, MemoryError, ValueError),
              np.errstate(over="raise", divide="raise", invalid="raise")):
            stack = partial(_residual_inf, np.array([[start.alpha], [first.alpha]]),
                            np.array([[start.beta], [first.beta]]))
            both = _jacobians(stack, w, M, rows_per_mode=3)  # 2: peak RSS +3 %
            return tuple(OperatorMatrix(jac, "cosine") for jac in both)
    return None, None


def continue_branch(start_A: float, schedule: Sequence[tuple[float, float]],
                    h: float = math.inf, gamma: float = 0.0,
                    M: int | None = None, n_grid: int | None = None,
                    tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                    g: float = 1.0, sigma: float = 1.0) -> Branch:
    """Natural-parameter continuation from the explicit wave at `start_A`.

    `schedule` lists (alpha, beta) targets; the first must sit on the pure-capillary
    curve (alpha <= 0, beta = beta_A).  `h` and `gamma` are the depth (inf: deep
    water) and vorticity of every point.  The start keeps `modes_for(start_A, M,
    tol)` modes (M unset: DEFAULT_M) on `n_grid` points, unset the grid
    `crapper.min_grid(start_A, 2.5 * M)` of those modes.  A start that Crapper's
    wave solves (alpha = 0, or alpha < 0 in finite depth) must converge within
    FAMILY_TOL of it, else NewtonError names the distance; a deep start at alpha
    < 0 must keep MIN_STEEPNESS_RATIO of w_A's steepness.  An attempt at a later
    target starts from, and is sized by, the last accepted point.  It fails when
    Newton fails or its point collapses onto flat water (see MIN_STEEPNESS_RATIO);
    the step is then halved, and kept halved until the target is reached.  After
    MAX_HALVINGS halvings towards one target the next failure gives up, with the
    partial branch attached to the exception.
    """
    if start_A == 0.0:
        raise ValueError("continuation must start at A != 0 (flat water is a "
                         "bifurcation point with a singular Jacobian)")
    crapper._check_param(start_A)
    if len(schedule) < 1:
        raise ValueError("empty schedule")
    # every target's record is made, so checked, before any solve
    start, *targets = (WaveParams(a, b, g=g, sigma=sigma, gamma=gamma, h=h) for a, b in schedule)
    if start.alpha > 0.0:
        raise ValueError("schedule must start on the pure-capillary curve (alpha <= 0)")
    if abs(start.beta - crapper.beta_of(start_A)) > 1e-9 * (1.0 + abs(start.beta)):
        raise ValueError(f"schedule must start at beta_A = {crapper.beta_of(start_A)!r}")
    _check_stop(tol, max_iter)
    if M is not None and M < 1:
        raise ValueError(f"M must be at least 1, got {M}")

    requested = M if M is not None else DEFAULT_M
    M = modes_for(start_A, requested, tol)
    if n_grid is None:
        n_grid = crapper.min_grid(start_A, _GRID_PER_MODE * M)
    elif M >= n_grid // 2:
        why = f" (modes_for raised {requested} for A = {start_A})" if M != requested else ""
        raise ValueError(f"M = {M}{why} needs at least {2 * M + 2} grid points, got {n_grid}")
    # the start, and if it stays the first step's first attempt (at targets[0]), iterate
    # from w's bits; each pops its matrix from `jacs`, so none outlives the solve it serves
    w = crapper.crapper_wave(start_A, n_grid).cosine_coefficients(M)
    w = PeriodicFunction.from_cosine_series(w, n_grid)
    jacs = list(_start_jacobians(start, targets[0] if targets else None, w, M))
    last = newton_solve(start, w, M=M, tol=tol, max_iter=max_iter, jac=jacs.pop(0))
    off = crapper.family_distance(start_A, last.w.cosine_coefficients(M))
    if start.is_infinite and start.alpha < 0.0:  # w_A does not solve deep F there
        ratio = last.geometry["steepness"] / geometry.steepness(w)
        if ratio < MIN_STEEPNESS_RATIO:
            raise NewtonError(f"start converged onto flat water, steepness {ratio:.3g} x "
                              f"Crapper's wave's")
    elif not off < FAMILY_TOL:
        raise NewtonError(f"start converged off Crapper's family: distance {off:.3e} "
                          f"from A = {start_A!r}, not below {FAMILY_TOL:g}")
    jacs = jacs if last.newton_iters == 0 else []
    branch = Branch(start_A, [last], [(start.alpha, start.beta, 0.0, True)])
    for target in targets:
        # progress t from the segment's origin (0) to its target (1) in steps dt
        origin, t, dt, halvings = last.params, 0.0, 1.0, 0
        while last.params != target:
            t_try = min(t + dt, 1.0)
            trial = target if t_try == 1.0 else replace(
                origin, alpha=origin.alpha + (target.alpha - origin.alpha) * t_try,
                beta=origin.beta + (target.beta - origin.beta) * t_try)
            try:
                sol = newton_solve(trial, last.w, M=last.modes, tol=tol, max_iter=max_iter,
                                   jac=jacs.pop() if jacs else None)
            except (NewtonError, DegenerateMetricError) as exc:
                outcome = str(exc)
            else:
                steep, previous = sol.geometry["steepness"], last.geometry["steepness"]
                outcome = (f"converged onto flat water, steepness {steep / previous:.3g} x "
                           f"the previous point's" if steep < MIN_STEEPNESS_RATIO * previous
                           else sol)
            accepted = not isinstance(outcome, str)  # else it says why the attempt failed
            branch.step_history.append((trial.alpha, trial.beta, trial.alpha - last.params.alpha,
                                        accepted))
            if accepted:
                branch.solutions.append(outcome)
                last, t = outcome, t_try
            elif halvings == MAX_HALVINGS:
                raise StepUnderflowError(
                    f"step underflow after {MAX_HALVINGS} halvings towards "
                    f"alpha={target.alpha} (last failure: {outcome})", branch)
            else:
                dt, halvings = 0.5 * dt, halvings + 1
    return branch


def crapper_curve_check(A_values: Sequence[float]) -> dict:
    """Probe for spurious branches along the pure-capillary curve.

    Each explicit wave is perturbed by CURVE_CHECK_BUMP (amplitude, cosine
    mode), times (-1)^mode for A < 0: w_{-A}(t) = w_A(t + pi), so -A gets the
    bump of A shifted the same way.  Newton runs at the wave's own
    (0, beta_A), and the converged profile is identified against the family
    closed form through the invertible map beta -> A.  Reports the worst
    coefficient mismatch and profile distance over the sweep.

    The amplitude shrinks past |A| ~ 0.5 proportionally to min W^(1/2) =
    ((1-|A|)/(1+|A|))^2, the distance to the degenerate parameterisation; a
    fixed bump that is harmless on moderate waves would otherwise throw steep
    ones out of the Newton basin.
    """
    if len(A_values) < 1:
        raise ValueError("the curve check needs at least one A")
    modes = []
    for A in A_values:  # every A is checked, and sized, before the first solve
        if A == 0.0:
            raise ValueError("A = 0 sits at the bifurcation point; excluded")
        modes.append(modes_for(crapper._check_param(A), tol=CURVE_CHECK_TOL))
    amp, mode = CURVE_CHECK_BUMP
    rows = []
    for A, M_a in zip(A_values, modes):
        n_grid = crapper.min_grid(A, _GRID_PER_MODE * M_a)
        beta = crapper.beta_of(A)
        margin = ((1.0 - abs(A)) / (1.0 + abs(A))) ** 2
        bump = np.zeros(mode)
        sign = (-1) ** mode if A < 0 else 1
        bump[mode - 1] = sign * amp * min(1.0, 9.0 * margin)
        w0 = crapper.crapper_wave(A, n_grid) + PeriodicFunction.from_cosine_series(bump, n_grid)
        sol = newton_solve(WaveParams(alpha=0.0, beta=beta), w0, M=M_a, tol=CURVE_CHECK_TOL)
        a = sol.w.cosine_coefficients(M_a)
        b_beta = crapper.param_of_beta(beta, sign=A)
        profile = crapper.circle_samples(b_beta, n_grid)[1]
        rows.append({"A": float(A), "recovered_A": float(-a[0] / 4.0),
                     "coefficient_error": crapper.family_distance(b_beta, a),
                     "profile_distance": float(np.max(np.abs(sol.w.samples - profile))),
                     "newton_iters": sol.newton_iters})
    worst = max(r["coefficient_error"] for r in rows)
    return {"rows": rows,
            "max_coefficient_error": worst,
            "max_profile_distance": max(r["profile_distance"] for r in rows),
            "all_on_family": bool(worst < FAMILY_TOL)}
