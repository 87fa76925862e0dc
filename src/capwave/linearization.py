"""Truncated Jacobians of the wave residuals and injectivity diagnostics.

Two independent routes certify that the linearised angle-space operator at a
Crapper point has no kernel for A != 0:

* numerically, the smallest singular value of the truncated matrix of
  dG[theta_A] on span{sin nt : n <= M};
* analytically, the Fourier recurrence satisfied by any kernel candidate
  sum a_n sin nt, which telescopes to A_k = n_k A_{k-2} with
  n_k = (k-2+q_A)/(A^2 (k+2+q_A)) -> 1/A^2 > 1, forcing a_(k+2) = A^2 a_k,
  after which the remaining two equations reduce to

      (1+A^2)^3/(1+4A^2+A^4) * a_2 = 0      and      -4A^2 * a_1 = 0.

At A = 0 the operator is diagonal with entries (n - 1) and sin t spans the
kernel (the flat-water bifurcation direction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import crapper
from .operators import angle_terms
from .spectral import PeriodicFunction, derivative, hilbert, mean, mul

INJECTIVITY_TOL = 1e-6
DEFAULT_REL_STEP = 1e-6
# points (rows x n_grid) in one stack of unit modes or perturbed iterates,
# sized on a heap kept between stacked calls (`cli.main` keeps it on glibc).
# Medians of 20 jacobian_fd calls, 4 processes per size, 2 cores, and the
# peak RSS of bench/run.py (seeds 1 and 2, with products and 2x-grid samples
# transformed in place) against 3072 points on a trimmed heap:
#
#   points   deep, M=128 n=512   FD, M=64 n=256   peak RSS deep / vortical
#    3072        65-82 ms           30-40 ms           +0% / +0%
#    6144        52-63 ms           27-36 ms           +0% / +3%
#    9216        47-57 ms           24-34 ms           +2% / +6.5%
#   12288        42-60 ms           28-32 ms           +5% / +9.5%
#
# With the sizes interleaved in one process, 9216 runs at 0.73-0.75x of 3072
# (deep) and 0.76-0.83x (FD), 12288 at 0.71-0.73x and 0.76-0.81x, 6144 at
# 0.77-0.82x and 0.82-0.85x. So 9216 is the smallest size within noise of
# the best. (On a trimmed heap, 3072 took 80-100 ms and 37-49 ms, and larger
# stacks were not faster.)
STACK_POINTS = 9216


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense truncation of a linear operator between Fourier mode spaces."""

    entries: np.ndarray
    basis: str              # input basis: "cosine" (w-space) or "sine" (theta-space)

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 4:
            raise ValueError("operator matrix must be square with M >= 4")
        if not np.all(np.isfinite(e)):
            raise ValueError("operator matrix has non-finite entries")

    @property
    def M(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class KernelReport:
    """Spectrum/kernel diagnostics of a truncated linearisation."""

    A: float
    M: int
    sigma_min: float
    verdict: str                       # "injective" or "kernel_found"
    kernel_vectors: tuple = ()
    kernel_description: str = ""
    a1_coefficient: float = math.nan   # reduced a_1-equation coefficient (-4A^2)
    a2_coefficient: float = math.nan   # reduced a_2-equation coefficient
    ratios: np.ndarray | None = field(default=None, repr=False)
    matrix: OperatorMatrix | None = field(default=None, repr=False)  # what was scanned


def _plus_minus_steps(base, basis, modes, step):
    """The stack of base + step*e_j for j in `modes` and then of base -
    step*e_j, e_j the unit mode of `basis`: base's modes plus those of the
    stack of +-step*e_j.  Its samples are the inverse transform of those
    modes."""
    series = (PeriodicFunction.from_cosine_series if basis == "cosine"
              else PeriodicFunction.from_sine_series)
    e = step * series(np.eye(modes[-1])[modes - 1], base.n_grid)
    return PeriodicFunction(base.coeffs + np.concatenate([e.coeffs, -e.coeffs]))


def _mode_chunks(M, rows_per_mode, n_grid):
    """Modes 1..M in runs whose stacks hold at most STACK_POINTS points
    (one mode at least)."""
    size = max(1, STACK_POINTS // (rows_per_mode * n_grid))
    for first in range(1, M + 1, size):
        yield np.arange(first, min(first + size, M + 1))


def angle_grid(A: float, M: int) -> int:
    """Grid on which `dG_matrix` samples theta_A for M modes."""
    return max(256, 4 * M, crapper.min_grid(A))


def jacobian_fd(residual: Callable[[PeriodicFunction], PeriodicFunction],
                base: PeriodicFunction, M: int, step: float | None = None,
                basis_in: str = "cosine", basis_out: str = "cosine") -> OperatorMatrix:
    """Central-difference Frechet derivative of `residual` at `base`,
    truncated to M input/output modes; each basis is "cosine" or "sine".

    `residual` receives stacks of shape (2k, n), the +step and then the
    -step perturbations of k columns, and must act row by row.  A stack's
    samples are the inverse transform of its modes; a residual that reads
    only its input's modes, as every capwave residual does, gives each row,
    and so the matrix, the bits of one call per perturbation.
    """
    if {basis_in, basis_out} - {"cosine", "sine"}:
        raise ValueError(f"unknown basis in {basis_in!r} -> {basis_out!r}")
    if step is None:
        step = DEFAULT_REL_STEP * (1.0 + base.norm_inf())
    if not step > 0.0:
        raise ValueError("step must be positive")
    n_grid = base.n_grid
    if M >= n_grid // 2:
        raise ValueError("M exceeds the grid resolution")
    project = (PeriodicFunction.cosine_coefficients if basis_out == "cosine"
               else PeriodicFunction.sine_coefficients)
    cols = np.empty((M, M))
    for modes in _mode_chunks(M, 2, n_grid):
        k = len(modes)
        # only the modes of the residual rows are read: holding the array,
        # not the function, lets its unread samples' operands go
        r = residual(_plus_minus_steps(base, basis_in, modes, step)).coeffs
        if r.shape != (2 * k, n_grid):
            raise ValueError("the residual must map a stack of functions row by row")
        cols[:, modes - 1] = (project(PeriodicFunction(r[:k] - r[k:]), M) / (2.0 * step)).T
        del r  # not alive through the next stack's residual call
    return OperatorMatrix(entries=cols, basis=basis_in)


def dG_matrix(A: float, M: int, n_grid: int | None = None) -> OperatorMatrix:
    """Analytic matrix of the linearised angle-space residual at theta_A,

        dG[theta_A] theta = theta' + (1/2 beta_A) e^{-C theta_A} C theta
                            + (r/2 beta_A) e^{C theta_A} C theta + c(theta) e^{C theta_A},

    with r = [e^{-C theta_A}]/[e^{C theta_A}] (equal to 1 on the family) and
    the scalar c(theta) enforcing zero mean, which coincides with the exact
    derivative of the mean-ratio term.  Maps sine modes to cosine modes.
    """
    crapper._check_param(A)
    if n_grid is None:
        n_grid = angle_grid(A, M)
    ep0, em0, half, half_r = angle_terms(crapper.beta_of(A), crapper.crapper_theta(A, n_grid))
    m_ep0 = mean(ep0)
    weight = half * em0 + half_r * ep0
    cols = np.empty((M, M))
    for modes in _mode_chunks(M, 1, n_grid):
        e = PeriodicFunction.from_sine_series(np.eye(modes[-1])[modes - 1], n_grid)  # sin jt
        v = derivative(e) + mul(weight, hilbert(e))
        col = v + (-mean(v) / m_ep0) * ep0
        cols[:, modes - 1] = col.cosine_coefficients(M).T
    return OperatorMatrix(entries=cols, basis="sine")


def smallest_singular(matrix: OperatorMatrix, A: float = math.nan) -> KernelReport:
    """SVD-based injectivity certificate for a truncated operator: singular
    values below INJECTIVITY_TOL span the kernel."""
    u, s, vt = np.linalg.svd(matrix.entries)
    sigma_min = float(s[-1])
    kernel = tuple(vt[i] for i in range(len(s)) if s[i] < INJECTIVITY_TOL)
    desc = ""
    if kernel:  # "cos nt" or "sin nt" for the leading mode n of the last vector
        desc = f"{matrix.basis[:3]} {int(np.argmax(np.abs(kernel[-1]))) + 1}t"
    return KernelReport(A=A, M=matrix.M, sigma_min=sigma_min,
                        verdict="kernel_found" if kernel else "injective",
                        kernel_vectors=kernel, kernel_description=desc, matrix=matrix)


def reduced_a2_coefficient(A: float) -> float:
    """Coefficient multiplying a_2 after eliminating c(theta) and a_4 = A^2 a_2,
    normalised by (1+A^2); equals (1+A^2)^3/(1+4A^2+A^4)."""
    q = crapper.q_of(A)
    a2, a4 = A * A, A ** 4
    raw = ((1.0 + a4) * (2.0 - q) - 4.0 * a2 * q - a4 * (4.0 + q)
           + 2.0 * a4 * (2.0 + q) / (1.0 + 4.0 * a2 + a4))
    return raw * (1.0 + a2)


def reduced_a1_coefficient(A: float) -> float:
    """Coefficient multiplying a_1 after c(theta) = 0 and a_3 = A^2 a_1,
    normalised by (1+A^2); equals -4A^2."""
    q = crapper.q_of(A)
    a2, a4 = A * A, A ** 4
    raw = (1.0 + a4) * (1.0 - q) - 4.0 * a2 * q - a2 * (1.0 + q) - a4 * (3.0 + q)
    return raw * (1.0 + a2)


def recurrence_scan(A: float, M: int) -> KernelReport:
    """Walk the kernel recurrence for dG[theta_A] on M sine modes.

    For A != 0: checks that the ratios n_k increase towards 1/A^2 > 1 (so a
    bounded kernel candidate must have A_k = a_(k+2) - A^2 a_k = 0), then
    reduces the two seed equations and reports them; injective when both
    reduced coefficients are nonzero.  For A = 0 the kernel sin t is reported.
    The report carries the scanned `dG_matrix(A, M)` as `.matrix`.
    """
    crapper._check_param(A)
    if M < 8:
        raise ValueError("recurrence scan needs M >= 8")
    if 0.0 < abs(A) < 1e-150:
        raise ValueError(f"recurrence scan needs A = 0 or |A| >= 1e-150, got {A}")
    matrix = dG_matrix(A, M)
    svd_report = smallest_singular(matrix, A=A)
    if A == 0.0:
        return replace(svd_report, A=0.0, verdict="kernel_found", kernel_description="sin t",
                       a1_coefficient=0.0, a2_coefficient=0.0)
    q = crapper.q_of(A)
    k = np.arange(3, M + 1, dtype=float)
    ratios = (k - 2.0 + q) / (A * A * (k + 2.0 + q))
    limit = 1.0 / (A * A)
    if not (limit > 1.0 and np.all(np.diff(ratios) > 0.0)
            and abs(ratios[-1] - limit) < abs(ratios[0] - limit)):
        raise AssertionError("recurrence ratios fail to approach 1/A^2 monotonically")
    a1c = reduced_a1_coefficient(A)
    a2c = reduced_a2_coefficient(A)
    injective = abs(a1c) > 1e-14 and abs(a2c) > 1e-14
    return replace(svd_report, verdict="injective" if injective else "kernel_found",
                   kernel_vectors=() if injective else svd_report.kernel_vectors,
                   kernel_description="" if injective else "recurrence seed survives",
                   a1_coefficient=a1c, a2_coefficient=a2c, ratios=ratios)
