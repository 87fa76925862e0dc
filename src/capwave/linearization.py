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
import contextlib
import ctypes
import math
import mmap
import os
import pickle
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import crapper
from .operators import angle_terms
from .spectral import PeriodicFunction, _check_grid_holds, derivative, hilbert, mean, mul

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

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 4:
            raise ValueError("operator matrix must be square with M >= 4")
        if not np.all(np.isfinite(e)):
            raise ValueError("operator matrix has non-finite entries")


@dataclass(frozen=True)
class KernelReport:
    """Spectrum/kernel diagnostics of a truncated linearisation."""

    sigma_min: float
    verdict: str                       # "injective" or "kernel_found"
    kernel_description: str = ""
    a1_coefficient: float = math.nan   # reduced a_1-equation coefficient (-4A^2)
    a2_coefficient: float = math.nan   # reduced a_2-equation coefficient
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
    """Modes 1..M in runs of lengths within one: the fewest whose stacks hold at
    most STACK_POINTS points (one mode at least), rounded up to an odd count."""
    size = max(1, STACK_POINTS // (rows_per_mode * n_grid))
    return np.array_split(np.arange(1, M + 1), min(-(-M // size) | 1, M))


def _check_modes(M):
    """Refuse a truncation smaller than an OperatorMatrix holds."""
    if M < 4:
        raise ValueError(f"M must be >= 4, got {M}")


def angle_grid(A: float, M: int) -> int:
    """Grid on which `dG_matrix` samples theta_A for M modes."""
    return max(4 * M, crapper.min_grid(A, 256))


def _chunk_columns(residual, base, basis_in, step, M, modes):
    """The Jacobian's columns `modes` (M cosine rows each, after the residual's
    leading axes) from one call on their +-step stack; the loop and the worker run it."""
    k = len(modes)
    # only the modes of the residual rows are read: holding the array, not
    # the function, lets its unread samples' operands go on return
    r = residual(_plus_minus_steps(base, basis_in, modes, step)).coeffs
    if r.shape[-2:] != (2 * k, base.n_grid):
        raise ValueError("the residual must map a stack of functions row by row")
    # the cosine coefficients of the difference on modes 1..M, which
    # `_jacobians` checked the grid holds
    d = 2.0 * (r[..., :k, 1:M + 1] - r[..., k:, 1:M + 1]).real / (2.0 * step)
    return np.swapaxes(d, -1, -2)


# (pid of the process that made it, pid of the worker, connection, marks) of
# the forked worker, or None.  `marks`, shared with the worker, are hints: the
# caller's job, the lowest chunk it has not reached and the worker's last job.
_pool = None


def _worker():
    """(connection, marks) of one worker process, forked on first use, or
    None in a process that multiprocessing started, which ends by joining
    its children and would wait for the worker forever.  Only the main
    thread calls it, so the worker dies with that thread, not a passing one.
    A process forked from the owner makes a worker of its own."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        import multiprocessing.connection

        if multiprocessing.parent_process() is not None:
            return None
        marks = np.frombuffer(mmap.mmap(-1, 24), np.int64)  # shared with the fork
        here, there = multiprocessing.connection.Pipe()
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            try:
                here.close()
                _serve(there, marks, parent)
            finally:
                os._exit(0)
        there.close()
        _pool = parent, pid, here, marks
    return _pool[2], _pool[3]


def _serve(conn, marks, parent):
    """The worker.  It ignores Ctrl-C, which stops the caller, runs at nice
    19, so it yields the CPU to the caller and to other processes, and dies
    with the thread that forked it, so a caller killed by a signal leaves no
    worker.  It takes each job's chunks from the last down and sends each
    one as (job, index, columns) once done, until the caller has reached the
    next one or sent a later job, or a chunk raises or warns under the
    caller's errstate.  Idle for 0.1 s after a job, it hands the heap it
    freed back to the system.  It ends when `conn` closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(OSError):  # not allowed here: the worker runs as its caller does
        os.nice(19)
    libc = ctypes.CDLL(None)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # it died before prctl
        return
    trim = getattr(libc, "malloc_trim", None)  # glibc's; None on another C library
    if trim is not None:
        trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    while True:
        try:
            job, payload = conn.recv()
        except EOFError:
            return
        marks[2] = job
        try:
            residual, coeffs, chunks, err, *rest = pickle.loads(payload)
            base = PeriodicFunction(coeffs)
            with np.errstate(**err), warnings.catch_warnings():
                warnings.simplefilter("error")
                for i in reversed(range(len(chunks))):
                    if marks[0] != job or marks[1] > i:
                        break
                    conn.send((job, i, _chunk_columns(residual, base, *rest, chunks[i])))
        except Exception:  # the caller computes the chunk that failed here
            pass
        if trim is not None and not conn.poll(0.1):  # a solve's jobs, 2-4 ms apart, reuse it
            trim(0)


@atexit.register
def _drop_worker():
    """Forget the worker; if this process made it, kill it and reap it."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].close()
        with contextlib.suppress(OSError):  # reaped already
            os.kill(_pool[1], signal.SIGKILL)
            os.waitpid(_pool[1], 0)
    _pool = None


def _offer(job, chunks):
    """The number of `job`, sent to the worker with its `chunks`, or None to
    compute here: for one chunk, off Linux, on one CPU, outside the main
    thread, for a residual that does not pickle, in a process that
    multiprocessing started, while the worker has not taken its last job
    (stopped or starved: a send must not wait), or when it is gone or cannot
    be made.  `_mode_chunks` makes their count odd: with an even count the
    caller would reach the worker's last chunk in flight and compute it too;
    with an odd one it computes the middle chunk while the worker's last arrives."""
    residual, base, *rest = job
    if (len(chunks) < 2 or not sys.platform.startswith("linux")
            or len(os.sched_getaffinity(0)) < 2
            or threading.current_thread() is not threading.main_thread()):
        return None
    try:
        payload = pickle.dumps((residual, base.coeffs, chunks, np.geterr(), *rest))
    except Exception:  # a lambda, a local function, a tracing wrapper
        return None
    try:
        conn, marks = _worker() or (None, None)
    except OSError:  # no fork, mmap or Pipe to spare: EAGAIN, ENOMEM, EMFILE
        conn = None
    if conn is None:
        return None
    if marks[2] != marks[0]:  # it has not taken its last job: stopped, starved or dead
        with contextlib.suppress(ChildProcessError):  # reaped elsewhere
            if os.waitid(os.P_PID, _pool[1], os.WEXITED | os.WNOHANG | os.WNOWAIT):
                _drop_worker()  # it died; unreaped, its pid is still its own
        return None
    number = int(marks[0]) + 1
    marks[:2] = number, 0
    try:
        conn.send((number, payload))
    except OSError:  # it died
        _drop_worker()
        return None
    return number


def jacobian_fd(residual: Callable[[PeriodicFunction], PeriodicFunction],
                base: PeriodicFunction, M: int, basis_in: str = "cosine") -> OperatorMatrix:
    """Central-difference Frechet derivative of `residual` at `base`,
    truncated to M >= 4 input modes of `basis_in` ("cosine" or "sine") and
    M output cosine modes, with the step DEFAULT_REL_STEP * (1 + |base|_inf).

    `residual` receives stacks of shape (2k, n), the +step and then the
    -step perturbations of k columns, and must act row by row.  A stack's
    samples are the inverse transform of its modes; a residual that reads
    only its input's modes, as every capwave residual does, gives each row,
    and so the matrix, the bits of one call per perturbation.

    The columns come in the chunks of `_mode_chunks`.  A Jacobian of two
    chunks or more whose `residual` pickles (a module-level function or a
    `functools.partial` of one) is shared with one worker process on the
    terms of `_offer`: this process takes chunks from the first up, the
    worker from the last down and sends each back once done.  Before each
    chunk this process takes in what has arrived and computes any chunk that
    has not, so it never waits for the worker; the chunks and their bits do
    not depend on the side.  The worker, forked on first use, runs the
    modules as they were then, under the caller's `np.geterr()`, and leaves
    to this process a chunk that raises or warns there, and all its chunks
    when it dies: errors and warnings arise here, in chunk order.
    """
    return OperatorMatrix(_jacobians(residual, base, M, basis_in))


def _jacobians(residual, base, M, basis_in="cosine", rows_per_mode=2):
    """`jacobian_fd`'s entries, a matrix per leading index of the residual's
    output (`operators._residual_inf` at columns), in chunks of `rows_per_mode`."""
    if basis_in not in ("cosine", "sine"):
        raise ValueError(f"unknown basis {basis_in!r}")
    _check_modes(M)
    step = DEFAULT_REL_STEP * (1.0 + base.norm_inf())
    if not math.isfinite(step):
        raise ValueError("the base has a non-finite sample")
    _check_grid_holds(base.n_grid, M)
    job = (residual, base, basis_in, step, M)
    chunks = _mode_chunks(M, rows_per_mode, base.n_grid)
    number = _offer(job, chunks)
    cols = [None] * len(chunks)  # each chunk's columns, runs of modes in order
    for i, modes in enumerate(chunks):
        if number is not None:  # take in what the worker sent; say how far this got
            try:
                while _pool[2].poll():
                    sent, j, c = _pool[2].recv()
                    if sent == number and cols[j] is None:  # of this job, not done yet
                        cols[j] = c
                _pool[3][1] = i + 1
            except (EOFError, OSError):  # it died; the next Jacobian forks another
                _drop_worker()
                number = None
        if cols[i] is None:  # in chunk order: the lowest failing chunk raises
            cols[i] = _chunk_columns(*job, modes)
    return np.concatenate(cols, axis=-1)


def dG_matrix(A: float, M: int) -> OperatorMatrix:
    """Analytic matrix of the linearised angle-space residual at theta_A,

        dG[theta_A] theta = theta' + (1/2 beta_A) e^{-C theta_A} C theta
                            + (r/2 beta_A) e^{C theta_A} C theta + c(theta) e^{C theta_A},

    with r = [e^{-C theta_A}]/[e^{C theta_A}] (equal to 1 on the family) and
    the scalar c(theta) enforcing zero mean, which coincides with the exact
    derivative of the mean-ratio term.  Maps sine modes to cosine modes.
    """
    crapper._check_param(A)
    _check_modes(M)
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
    return OperatorMatrix(entries=cols)


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
    # U and V go unread, but with compute_uv=False sigma_min's last bits move
    sigma_min = float(np.linalg.svd(matrix.entries)[1][-1])
    if A == 0.0:
        return KernelReport(sigma_min, "kernel_found", kernel_description="sin t",
                            a1_coefficient=0.0, a2_coefficient=0.0, matrix=matrix)
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
    return KernelReport(sigma_min, "injective" if injective else "kernel_found",
                        kernel_description="" if injective else "recurrence seed survives",
                        a1_coefficient=a1c, a2_coefficient=a2c, matrix=matrix)
