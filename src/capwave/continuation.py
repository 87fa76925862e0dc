"""Newton solver on truncated cosine space and continuation in (alpha, beta).

The solution sheet is a graph over (alpha, beta) near the pure-capillary
curve, so plain natural-parameter continuation applies: start from the
explicit wave at (alpha <= 0, beta_A), step alpha towards gravity, reconverge
with a full Newton iteration at every step, halve the step on failure.  A
collapsing smallest singular value of the Jacobian (a fold, which the local
theory excludes) aborts with a report instead of stepping blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import crapper, geometry
from .linearization import jacobian_fd
from .operators import (
    WaveParams,
    bernoulli_b,
    q_hat,
    residual_fd,
    residual_inf,
    wavenumber_k,
)
from .spectral import DegenerateMetricError, PeriodicFunction

DEFAULT_M = 128
DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 25
MIN_JACOBIAN_SIGMA = 1e-10
MAX_HALVINGS = 6


class NewtonError(RuntimeError):
    """Newton corrector failed (divergence, singular Jacobian, bad metric)."""


class SingularJacobianError(NewtonError):
    pass


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
    geometry: dict = field(default_factory=dict)

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

    def solution_at(self, alpha: float, atol: float = 1e-12) -> WaveSolution:
        for sol in self.solutions:
            if abs(sol.params.alpha - alpha) <= atol:
                return sol
        raise KeyError(f"no stored solution at alpha={alpha}")


def modes_for(A: float, requested: int | None = None, tol: float = 1e-10) -> int:
    """Cosine modes needed so the family tail, amplified by the second
    derivative in the residual, sits below `tol`: 4|A|^M M^2 < tol."""
    A = abs(A)
    need = 16
    while A > 0.0 and 4.0 * A ** need * need ** 2 >= tol and need < 256:
        need += 8
    return max(requested or 0, min(need, 256))


def _grid_for(M: int, A: float) -> int:
    n = 64
    while 2 * n < 5 * M or n < crapper.min_grid(A):
        n *= 2
    return n


def newton_solve(residual, params: WaveParams, w0: PeriodicFunction,
                 M: int = DEFAULT_M, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 geometry_checks: bool = True) -> WaveSolution:
    """Full Newton on span{cos nt : n <= M} for residual(params, .) = 0.

    The iterate lives in the truncated cosine space (w0 is projected onto
    it); convergence is measured by the sup norm of the residual on the full
    grid.  The Jacobian is refreshed every iteration by central differences.
    """
    n_grid = w0.n_grid
    if M >= n_grid // 2:
        raise ValueError("M exceeds the grid resolution")
    w = PeriodicFunction.from_cosine_series(w0.cosine_coefficients(M), n_grid)
    res = lambda u: residual(params, u)
    history = []
    jac = None
    r = res(w)
    for it in range(max_iter + 1):
        rnorm = r.norm_inf()
        history.append(rnorm)
        if rnorm < tol:
            if jac is None:
                jac = jacobian_fd(res, w, M)
            sigma = float(np.linalg.svd(jac.entries, compute_uv=False)[-1])
            return _finish_solution(params, w, rnorm, it, M, sigma,
                                    tuple(history), geometry_checks)
        if it == max_iter:
            break
        jac = jacobian_fd(res, w, M)
        sigma = float(np.linalg.svd(jac.entries, compute_uv=False)[-1])
        if sigma < MIN_JACOBIAN_SIGMA:
            raise SingularJacobianError(
                f"Jacobian sigma_min={sigma:.3e} below {MIN_JACOBIAN_SIGMA} at iteration {it}")
        delta = np.linalg.solve(jac.entries, -r.cosine_coefficients(M))
        step = PeriodicFunction.from_cosine_series(delta, n_grid)
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
            raise NewtonError(f"line search stalled at iteration {it} "
                              f"(residual {rnorm:.3e})")
        w, r = w_try, r_try
    raise NewtonError(f"no convergence in {max_iter} iterations "
                      f"(residual history {['%.2e' % v for v in history]})")


def _finish_solution(params, w, rnorm, iters, M, sigma, history, geometry_checks):
    scalar = bernoulli_b(params.alpha, w) if params.is_infinite else q_hat(params, w)
    geo = {}
    if geometry_checks:
        geo = geometry_report(w, params)
    return WaveSolution(params=params, w=w, residual_norm=rnorm,
                        b_or_qhat=scalar, newton_iters=iters, modes=M,
                        sigma_min=sigma, residual_history=history, geometry=geo)


def geometry_report(w: PeriodicFunction, params: WaveParams) -> dict:
    """Admissibility flags; violations never fail the solve, only mark it."""
    n_pts = max(geometry.GEOMETRY_POINTS, w.n_grid)
    report = {"steepness": geometry.steepness(w)}
    if params.alpha > 0.0 and not params.is_infinite:
        k = wavenumber_k(params.alpha, params.beta, params.g, params.sigma)
        d = params.h * k
        curve = geometry.surface_profile(w, k, d=d, n_points=n_pts)
        report["above_bed"] = geometry.check_above_bed(w, k, params.h)
    else:
        # conformal units; injectivity and steepness do not depend on k
        curve = geometry.surface_profile(w, 1.0, n_points=n_pts)
        report["above_bed"] = True
    inj = geometry.check_injective(curve)
    report["injective"] = inj.injective
    report["crossing_count"] = int(len(inj.crossings))
    return report


def continue_branch(start_A: float, schedule: Sequence[tuple[float, float]],
                    h: float = math.inf, gamma: float = 0.0,
                    M: int | None = None, n_grid: int | None = None,
                    tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                    g: float = 1.0, sigma: float = 1.0,
                    geometry_checks: bool = True,
                    max_halvings: int = MAX_HALVINGS) -> Branch:
    """Natural-parameter continuation from the explicit wave at `start_A`.

    `schedule` lists (alpha, beta) targets; the first must sit on the
    pure-capillary curve (alpha <= 0, beta = beta_A).  `h` and `gamma` are
    the depth (inf: deep water) and vorticity of every point.  Each later
    target is corrected by Newton seeded with the previous solution; a failed
    step is split in half, up to `max_halvings` times, before giving up with
    the partial branch attached to the exception.
    """
    if start_A == 0.0:
        raise ValueError("continuation must start at A != 0 (flat water is a "
                         "bifurcation point with a singular Jacobian)")
    crapper._check_param(start_A)
    if len(schedule) < 1:
        raise ValueError("empty schedule")
    a0, b0 = schedule[0]
    if a0 > 0.0:
        raise ValueError("schedule must start on the pure-capillary curve (alpha <= 0)")
    if abs(b0 - crapper.beta_of(start_A)) > 1e-9 * (1.0 + abs(b0)):
        raise ValueError(f"schedule must start at beta_A = {crapper.beta_of(start_A)!r}")

    M = modes_for(start_A, M if M is not None else DEFAULT_M)
    if n_grid is None:
        n_grid = _grid_for(M, start_A)
    params = WaveParams(a0, b0, g=g, sigma=sigma, gamma=gamma, h=h)
    residual = residual_inf if params.is_infinite else residual_fd
    branch = Branch(start_A=start_A)

    w = crapper.crapper_wave(start_A, n_grid)
    sol = newton_solve(residual, params, w, M=M, tol=tol, max_iter=max_iter,
                       geometry_checks=geometry_checks)
    branch.solutions.append(sol)
    branch.step_history.append((a0, b0, 0.0, True))

    for a_target, b_target in schedule[1:]:
        _advance(branch, residual, a_target, b_target, M, tol, max_iter,
                 geometry_checks, max_halvings)
    return branch


def _advance(branch, residual, a_target, b_target, M, tol, max_iter,
             geometry_checks, max_halvings):
    last = branch.solutions[-1]
    a_cur, b_cur = last.params.alpha, last.params.beta
    halvings = 0
    while (a_cur, b_cur) != (a_target, b_target):
        frac = 0.5 ** halvings
        a_try = a_cur + (a_target - a_cur) * frac if halvings else a_target
        b_try = b_cur + (b_target - b_cur) * frac if halvings else b_target
        params = replace(last.params, alpha=a_try, beta=b_try)
        try:
            sol = newton_solve(residual, params, branch.solutions[-1].w,
                               M=M, tol=tol, max_iter=max_iter,
                               geometry_checks=geometry_checks)
        except (NewtonError, DegenerateMetricError):
            branch.step_history.append((a_try, b_try, a_try - a_cur, False))
            halvings += 1
            if halvings > max_halvings:
                raise StepUnderflowError(
                    f"step underflow after {max_halvings} halvings towards "
                    f"alpha={a_target}", branch)
            continue
        branch.solutions.append(sol)
        branch.step_history.append((a_try, b_try, a_try - a_cur, True))
        a_cur, b_cur = a_try, b_try
        halvings = 0
    return branch


def crapper_curve_check(A_values: Sequence[float], M: int | None = None,
                        perturbation: tuple[float, int] = (0.02, 3),
                        tol: float = 1e-9, scale_with_margin: bool = True) -> dict:
    # tol sits above the truncation floor of the widest waves (|A| ~ 0.8) and
    # still identifies coefficients three decades better than needed
    """Probe for spurious branches along the pure-capillary curve.

    Each explicit wave is perturbed (amplitude, mode) and handed to Newton at
    its own (0, beta_A); the converged profile is identified against the
    family closed form through the invertible map beta -> A.  Reports the
    worst coefficient mismatch and profile distance over the sweep.

    With `scale_with_margin` the amplitude shrinks past |A| ~ 0.5
    proportionally to min W^(1/2) = ((1-|A|)/(1+|A|))^2, the distance to the
    degenerate parameterisation; a fixed bump that is harmless on moderate
    waves would otherwise throw steep ones out of the Newton basin.
    """
    amp, mode = perturbation
    rows = []
    for A in A_values:
        if A == 0.0:
            raise ValueError("A = 0 sits at the bifurcation point; excluded")
        M_a = modes_for(A, M)
        n_grid = _grid_for(M_a, A)
        beta = crapper.beta_of(A)
        amp_a = amp
        if scale_with_margin:
            margin = ((1.0 - abs(A)) / (1.0 + abs(A))) ** 2
            amp_a = amp * min(1.0, 9.0 * margin)
        bump = np.zeros(mode)
        bump[mode - 1] = amp_a
        w0 = crapper.crapper_wave(A, n_grid) + PeriodicFunction.from_cosine_series(bump, n_grid)
        params = WaveParams(alpha=0.0, beta=beta)
        sol = newton_solve(residual_inf, params, w0,
                           M=M_a, tol=tol, geometry_checks=False)
        a = sol.w.cosine_coefficients(M_a)
        b_coeff = -a[0] / 4.0
        b_beta = crapper.param_of_beta(beta, sign=A)
        n = np.arange(1, M_a + 1)
        coeff_err = float(np.max(np.abs(a - 4.0 * (-b_beta) ** n)))
        profile_err = float(np.max(np.abs(
            sol.w.samples - crapper.wave_samples(b_beta, sol.w.t))))
        rows.append({"A": float(A), "recovered_A": float(b_coeff),
                     "coefficient_error": coeff_err, "profile_distance": profile_err,
                     "newton_iters": sol.newton_iters})
    worst = max(r["coefficient_error"] for r in rows)
    return {"rows": rows,
            "max_coefficient_error": worst,
            "max_profile_distance": max(r["profile_distance"] for r in rows),
            "all_on_family": bool(worst < 1e-6)}
