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

import atexit
import math
import os
import pickle
import sys
import threading
import warnings
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
# the fewest chunks a Jacobian shares with the worker.  A worker that the
# host slows down costs its caller the chunk it is on: a fifteenth of a deep
# Jacobian (M=128 on 512 points), a quarter of a vortical one (M=64 on 256
# points, 4 chunks), whose bench runs then spread too widely (ROADMAP.md).
MIN_SHARED_CHUNKS = 8


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
    """Modes 1..M in the fewest runs whose stacks hold at most STACK_POINTS
    points (one mode at least), of lengths that differ by one at most."""
    size = max(1, STACK_POINTS // (rows_per_mode * n_grid))
    return np.array_split(np.arange(1, M + 1), -(-M // size))


def angle_grid(A: float, M: int) -> int:
    """Grid on which `dG_matrix` samples theta_A for M modes."""
    return max(256, 4 * M, crapper.min_grid(A))


def _chunk_columns(residual, base, basis_in, basis_out, step, M, modes):
    """The Jacobian's columns `modes` (M rows each), from one residual call
    on their +-step stack; the in-process loop and the worker both run it."""
    k = len(modes)
    # only the modes of the residual rows are read: holding the array, not
    # the function, lets its unread samples' operands go on return
    r = residual(_plus_minus_steps(base, basis_in, modes, step)).coeffs
    if r.shape != (2 * k, base.n_grid):
        raise ValueError("the residual must map a stack of functions row by row")
    project = (PeriodicFunction.cosine_coefficients if basis_out == "cosine"
               else PeriodicFunction.sine_coefficients)
    return (project(PeriodicFunction(r[:k] - r[k:]), M) / (2.0 * step)).T


# (pid of the process that made it, executor, marks) of the forked worker, or
# None.  `marks`, in memory shared with the worker, holds the number of chunks
# the caller has taken from the bottom and the lowest chunk the worker has
# taken from the top; each side writes one of them.
_pool = None
_PR_SET_PDEATHSIG = 1  # prctl option of linux/prctl.h


def _worker():
    """The executor of one worker process, forked on its first submit, or
    None in a process that multiprocessing started: such a process ends by
    joining its children, which would wait for the worker forever.  Only the
    main thread calls it, so one executor is made at a time, and the worker
    dies with the process's main thread, not with a passing one.  At
    interpreter exit concurrent.futures joins the worker, and `_drop_worker`
    then lets the executor go while its modules are still loaded.  A process
    forked from the owner cannot reach the owner's worker and makes its own."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        import mmap
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if multiprocessing.parent_process() is not None:
            return None
        executor = ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init, initargs=(os.getpid(),))
        # mapped before the fork, at the first submit, so the worker shares it
        _pool = os.getpid(), executor, np.frombuffer(mmap.mmap(-1, 16), np.int64)
    return _pool[1]


def _worker_init(parent):
    """The worker ignores Ctrl-C, which stops the caller, runs only on CPU
    time that no other process wants (SCHED_IDLE), so it never slows its
    caller, and dies with the thread that forked it: a caller killed by a
    signal leaves no worker."""
    import ctypes
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:  # not allowed here: the worker runs as its caller does
        pass
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it died before prctl
        os._exit(0)


@atexit.register
def _drop_worker(wait=False):
    """Forget the worker, shutting it down if this process made it; with
    `wait`, after its executor's thread has ended, so that the next fork
    is made from a process of one thread."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[1].shutdown(wait=wait)
    _pool = None


def _submit(job, chunks):
    """Offer the worker `chunks` of `job` in one submit: (future, marks),
    or None where the caller computes them all itself: for fewer than
    MIN_SHARED_CHUNKS chunks, off Linux, on fewer than 2 CPUs, outside the
    main thread, with a residual that does not pickle, in a process that
    multiprocessing started, or when the worker is gone."""
    if (len(chunks) < MIN_SHARED_CHUNKS or not sys.platform.startswith("linux")
            or len(os.sched_getaffinity(0)) < 2
            or threading.current_thread() is not threading.main_thread()):
        return None
    residual, base, *rest = job
    try:
        payload = pickle.dumps((residual, base.coeffs, *rest))
    except Exception:  # a lambda, a local function, a tracing wrapper
        return None
    pool = _worker()
    if pool is None:
        return None
    marks = _pool[2]
    marks[:] = 0, len(chunks)
    try:
        return pool.submit(_share, payload, chunks, np.geterr()), marks
    except Exception:  # BrokenProcessPool, or submitted at interpreter exit
        _drop_worker()
        return None


def _share(payload, chunks, err):
    """The worker's side: (index, columns) of the chunks it takes from the
    last down while the caller has not taken them, up to the first chunk
    that raises or warns.  The caller computes every chunk that is
    not handed back, so its errors and warnings arise in the caller."""
    marks = _pool[2]
    done = []
    try:
        residual, coeffs, *rest = pickle.loads(payload)
        base = PeriodicFunction(coeffs)
        with np.errstate(**err), warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in reversed(range(len(chunks))):
                if marks[0] > i:
                    break
                marks[1] = i
                done.append((i, _chunk_columns(residual, base, *rest, chunks[i])))
    except Exception:
        pass
    return done


def _collect(future):
    """The worker's finished chunks, as (index, columns); none when it died
    (BrokenProcessPool), and then it is dropped: the next Jacobian forks
    another."""
    try:
        return future.result()
    except Exception:
        _drop_worker(wait=True)
        return []


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

    The columns come in chunks of modes (see `_mode_chunks`).  On Linux,
    with at least 2 CPUs in the process's affinity mask, in the main thread
    and outside a process that multiprocessing started, a Jacobian of
    MIN_SHARED_CHUNKS chunks or more whose `residual` pickles (a
    module-level function, or a `functools.partial` of one) is shared with
    one worker process: this process takes chunks from the first up and the
    worker from the last down until they meet, so a worker that the host
    slows down leaves its share to this process, which then waits for at
    most the chunk the worker is on.  Which side computes a chunk depends
    on timing; the bits do not.  A smaller Jacobian is computed in this
    process, as is one on one CPU, in another thread, or of a lambda, a
    local function or a wrapper made at run time (none of them pickles).
    The worker is forked on first use and runs the modules
    as they were then; a function patched later is not patched there.  It
    runs under the caller's `np.geterr()`.  A chunk that raises or warns
    there, or fails here, is computed again here in chunk order, so an
    error is the one of the lowest failing chunk, as a loop over the chunks
    would raise it, and a warning passes this process's filters (possibly
    out of chunk order).  A worker that died is dropped, and its share is
    computed here.  The worker is joined at interpreter exit, and a signal
    that kills the caller kills it too.  The bench's traced ops run
    in-process, since its tracer's wrappers do not pickle, and this
    process's peak RSS does not count the worker's memory.
    """
    if {basis_in, basis_out} - {"cosine", "sine"}:
        raise ValueError(f"unknown basis in {basis_in!r} -> {basis_out!r}")
    if step is None:
        step = DEFAULT_REL_STEP * (1.0 + base.norm_inf())
    if not step > 0.0:
        raise ValueError("step must be positive")
    if M >= base.n_grid // 2:
        raise ValueError("M exceeds the grid resolution")
    job = (residual, base, basis_in, basis_out, step, M)
    chunks = _mode_chunks(M, 2, base.n_grid)
    cols = np.empty((M, M))
    done = [False] * len(chunks)
    theirs, marks = _submit(job, chunks) or (None, None)
    for i, modes in enumerate(chunks):
        if theirs is not None:
            if marks[1] <= i:  # the worker has this chunk and those above
                break
            marks[0] = i + 1
        try:
            cols[:, modes - 1] = _chunk_columns(*job, modes)
        except Exception:
            break  # computed again below, where it raises in chunk order
        done[i] = True
    if theirs is not None:
        marks[0] = len(chunks)  # the worker stops after the chunk it is on
        for i, c in _collect(theirs):
            cols[:, chunks[i] - 1] = c
            done[i] = True
    for i, modes in enumerate(chunks):  # in chunk order, as a plain loop fails
        if not done[i]:
            cols[:, modes - 1] = _chunk_columns(*job, modes)
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
