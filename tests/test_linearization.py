import errno
import json
import mmap
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from capwave import cli, crapper, linearization
from capwave.linearization import (
    INJECTIVITY_TOL,
    OperatorMatrix,
    angle_grid,
    dG_matrix,
    jacobian_fd,
    recurrence_scan,
    reduced_a1_coefficient,
    reduced_a2_coefficient,
)
from capwave.operators import (
    WaveParams,
    _residual_inf,
    residual_G,
    residual_fd,
    residual_inf,
    theta_of,
)
from capwave.spectral import PeriodicFunction, _samples_of, grid, mul
from _oracles import (flat_water_alpha, flat_water_diagonal, jacobian_loop, plus_minus_stack,
                      residual_G_tilde, zeros)


GOLDEN_SIGMA_MIN_A05_M64 = 0.548817980410871  # recorded from the build SVD


def _g_at(beta):
    return lambda th: residual_G(beta, th)


def test_jacobian_fd_of_G_at_zero_is_diagonal():
    base = zeros(256)
    jac = jacobian_fd(_g_at(1.0), base, 12, basis_in="sine")
    expected = np.diag(np.arange(1, 13) - 1.0)
    assert np.max(np.abs(jac.entries - expected)) < 1e-8
    assert jac.entries[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert jac.entries[1, 1] == pytest.approx(1.0, abs=1e-8)


def test_jacobian_fd_annihilates_flat_water_bifurcation_mode():
    base = zeros(256)
    res = lambda w: residual_inf(WaveParams(alpha=0.0, beta=1.0), w)
    jac = jacobian_fd(res, base, 8)
    assert np.max(np.abs(jac.entries[:, 0])) < 1e-9  # cos t direction
    sigmas = np.linalg.svd(jac.entries, compute_uv=False)
    assert sigmas[-1] < 1e-9


BETA_03 = crapper.beta_of(0.3)


@pytest.mark.parametrize("h, gamma, alpha", [
    (1.0, 4.5, 0.0185684), (1.0, 2.0, 0.05), (0.5, -2.0, 0.3), (2.5, 0.7, 0.02),
    (np.inf, 0.0, 0.5), (1.0, 4.5, -0.1),  # the last: FD's extension to alpha <= 0
])
def test_jacobian_fd_at_flat_water_is_the_dispersion_oracle(h, gamma, alpha):
    # measured worst cases 6.9e-11 on the diagonal and 3.5e-11 off it
    p = WaveParams(alpha=alpha, beta=BETA_03, gamma=gamma, h=h)
    residual = residual_inf if p.is_infinite else residual_fd
    jac = jacobian_fd(lambda w: residual(p, w), zeros(64), 8).entries
    diagonal = np.diag(jac)
    assert np.max(np.abs(jac - np.diag(diagonal))) <= 1e-9
    expected = flat_water_diagonal(alpha, BETA_03, np.arange(1, 9), h, gamma)
    assert np.max(np.abs(diagonal - expected)) <= 1e-9


@pytest.mark.parametrize("gamma, lo, hi", [
    (4.5, 0.0185684 - 1e-6, 0.0185684 + 1e-6),  # measured 0.01856845
    (5.0, 0.015, 0.016), (4.0, 0.022, 0.023), (2.0, 0.071, 0.081),
])
def test_the_flat_water_root_at_depth_1_lies_in_its_bracket(gamma, lo, hi):
    assert lo <= flat_water_alpha(BETA_03, 1.0, gamma) <= hi


@pytest.mark.parametrize("h, gamma, alphas", [
    (1.0, 0.0, np.geomspace(1e-12, 3.0, 400)),
    (1.0, -5.0, np.geomspace(1e-12, 3.0, 400)),
    (np.inf, 0.0, [0.0, 0.5, 1.0, 2.0, 3.0]),
])
def test_without_positive_vorticity_the_mode_1_entry_stays_negative(h, gamma, alphas):
    # -1 + 1/beta = -0.16514 at alpha = 0; the sheet never leaves flat water
    entries = [flat_water_diagonal(a, BETA_03, 1.0, h, gamma) for a in alphas]
    assert max(entries) <= -0.165


def test_jacobian_fd_directional_derivative():
    rng = np.random.default_rng(23)
    base = crapper.crapper_wave(0.3, 256)
    res = lambda w: residual_inf(WaveParams(alpha=0.0, beta=crapper.beta_of(0.3)), w)
    M = 16
    jac = jacobian_fd(res, base, M)
    v = rng.standard_normal(M) / (1 + np.arange(M)) ** 2
    eps = 1e-6
    vf = PeriodicFunction.from_cosine_series(v, 256)
    fd = (res(base + eps * vf) - res(base - eps * vf)).cosine_coefficients(M) / (2 * eps)
    assert np.max(np.abs(jac.entries @ v - fd)) < 1e-7 * (1 + np.max(np.abs(fd)))


def test_jacobian_fd_second_order_in_step():
    # on the column loop, which jacobian_fd reproduces bit for bit at its
    # own step (test_jacobian_fd_is_the_column_loop_bit_for_bit)
    base = crapper.crapper_wave(0.4, 256)
    res = lambda w: residual_inf(WaveParams(alpha=0.0, beta=crapper.beta_of(0.4)), w)
    ref = jacobian_loop(res, base, 8, step=2.5e-4)
    errs = []
    for step in (4e-3, 2e-3):
        jac = jacobian_loop(res, base, 8, step=step)
        errs.append(np.linalg.norm(jac - ref))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def _perturbed(A, n_grid):
    """Crapper's wave with a small cos 2t and cos 5t bump: no exact zero."""
    return crapper.crapper_wave(A, n_grid) + PeriodicFunction.from_cosine_series(
        [0.0, 3e-3, 0.0, 0.0, -1e-3], n_grid)


def _w_case(A, n_grid, residual, **params):
    params = WaveParams(beta=crapper.beta_of(A), **params)
    return lambda w: residual(params, w), _perturbed(A, n_grid), {}


def _angle_case(A, M):
    beta = crapper.beta_of(A)
    theta = crapper.crapper_theta(A, angle_grid(A, M))
    return lambda th: residual_G(beta, th), theta, {"basis_in": "sine"}


# name -> (residual, base, bases, M)
_JACOBIAN_CASES = {
    "deep A=0.5 alpha=0": (*_w_case(0.5, 256, residual_inf, alpha=0.0), 64),
    "deep A=0.3 alpha>0": (*_w_case(0.3, 128, residual_inf, alpha=0.03, g=1.0,
                                    sigma=1.0), 48),
    "deep A=-0.47 alpha>0": (*_w_case(-0.47, 256, residual_inf, alpha=0.02), 64),
    "deep A=0.4 alpha>0 n=512": (*_w_case(0.4, 512, residual_inf, alpha=0.01), 160),
    "vortical h=2.5 gamma=0.7": (*_w_case(0.3, 128, residual_fd, alpha=0.02, h=2.5,
                                          gamma=0.7, g=1.0, sigma=1.0), 32),
    "vortical h=1.7 gamma=-0.9": (*_w_case(-0.3, 256, residual_fd, alpha=0.01, h=1.7,
                                           gamma=-0.9), 48),
    "finite depth alpha<=0": (*_w_case(0.4, 128, residual_fd, alpha=-0.01, h=2.0,
                                       gamma=0.5), 32),
    "spectrum sine basis": (*_angle_case(0.5, 64), 64),
}


@pytest.mark.parametrize("case", list(_JACOBIAN_CASES))
def test_jacobian_fd_is_the_column_loop_bit_for_bit(monkeypatch, case):
    residual, base, bases, M = _JACOBIAN_CASES[case]
    loop = jacobian_loop(residual, base, M, **bases)
    # stacks of one column, of three (leaving a shorter last stack), of the
    # default size, and of all columns at once
    for points in (1, 6 * base.n_grid, linearization.STACK_POINTS, 2 * M * base.n_grid):
        monkeypatch.setattr(linearization, "STACK_POINTS", points)
        stacked = jacobian_fd(residual, base, M, **bases).entries
        assert np.array_equal(stacked, loop) and stacked.tobytes() == loop.tobytes(), points


# (A, n_grid, M, the two (alpha, beta) points): a start and its first target
_STACKED_CASES = {
    "A=0.3 alpha 0 -> 0.03": (0.3, 128, 48, ((0.0, None), (0.03, None))),
    "A=-0.47 alpha and beta": (-0.47, 256, 64, ((0.0, None), (0.02, 0.9))),
    "A=0.4 n=512": (0.4, 512, 160, ((-0.01, None), (0.04, None))),
}


def _stacked_case(case):
    """(stacked residual, the two single ones, base, M) of a _STACKED_CASES entry."""
    A, n_grid, M, points = _STACKED_CASES[case]
    points = [(a, crapper.beta_of(A) if b is None else b) for a, b in points]
    stack = partial(_residual_inf, *(np.array([[p[k]] for p in points]) for k in (0, 1)))
    singles = [partial(residual_inf, WaveParams(alpha=a, beta=b)) for a, b in points]
    return stack, singles, _perturbed(A, n_grid), M


@pytest.mark.parametrize("case", list(_STACKED_CASES))
def test_stacked_jacobians_are_two_jacobian_fd_calls_bit_for_bit(monkeypatch, case):
    stack, singles, base, M = _stacked_case(case)
    _in_process(monkeypatch)
    want = [jacobian_fd(r, base, M).entries.tobytes() for r in singles]
    for points in (1, 6 * base.n_grid, linearization.STACK_POINTS, 2 * M * base.n_grid):
        monkeypatch.setattr(linearization, "STACK_POINTS", points)
        for rows in (2, 3):
            both = linearization._jacobians(stack, base, M, rows_per_mode=rows)
            assert [j.tobytes() for j in both] == want, (points, rows)


def _special_bases(n):
    """Bases whose modes hold +-0, inf and nan: a -0.0 in a mode the
    +step rows leave alone must come out +0.0 there, as adding a zero did."""
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    signed_zeros = c.copy()
    signed_zeros[1::2] = complex(-0.0, -0.0)
    signed_zeros[2::4] = complex(0.0, -0.0)
    signed_zeros[3::4] = complex(-0.0, 0.0)
    special = signed_zeros.copy()
    special[[2, 5]] = complex(np.inf, -0.0), complex(np.nan, -np.inf)
    special[n - 3] = complex(-np.nan, 1.0)
    minus_zero = np.full(n, complex(-0.0, -0.0))
    return {name: PeriodicFunction(v) for name, v in
            (("random", c), ("signed zeros", signed_zeros), ("inf and nan", special),
             ("all -0", minus_zero))}


@pytest.mark.parametrize("basis", ["cosine", "sine"])
def test_plus_minus_stack_has_the_modes_of_adding_the_negated_steps(basis):
    # the modes carry the bits of base + the stack of +-step*e_j; the samples,
    # which no residual reads, are the inverse transform of those modes
    n = 32
    with np.errstate(invalid="ignore"):
        for name, base in _special_bases(n).items():
            for modes in (np.arange(1, 2), np.arange(1, 6), np.arange(9, 16)):
                for step in (1e-6, 0.37, 5e-324):
                    new = linearization._plus_minus_steps(base, basis, modes, step)
                    old = plus_minus_stack(base, basis, modes, step)
                    assert new.coeffs.tobytes() == old.coeffs.tobytes(), (name, modes, step)
                    assert new.samples.tobytes() == _samples_of(new.coeffs).tobytes(), \
                        (name, modes, step)


# tracemalloc peaks of one jacobian_fd, numpy 2.4.  FD, M = 64 on 256 points:
# 4.50 MB when products, 2x-grid samples and differences each made a
# temporary and the +-step stack was assembled from four; 3.90 MB since.
# Deep, M = 128 on 512 points: 2.75 MB when an arithmetic result deferred its
# modes too; 3.04 MB since every function holds its modes, which an unread
# result's deferred samples keep alive with the operands they will read.
# Since the conjugations take any mean and a deferred result holds its
# operands' pending computations, not the operands: FD 4.13 MB, deep 3.12 MB
# (4.58 MB and 3.71 MB when the results held the operands themselves).
# Since the +-step stack is built by from_cosine_series/from_sine_series and
# projected by cosine_coefficients/sine_coefficients: FD 4.10 MB, deep
# 3.09 MB; and since a chunk's residual modes are released before the next
# stack's residual call: FD 3.95 MB, deep 2.94 MB.  In 5 chunks (FD) and 15
# (deep) of one plan: FD 2.85 MB, deep 2.88 MB; and since a residual call
# drops W, V^2 and W^(-1/2) after their last read and keeps p and its
# brackets as their modes alone: FD 2.11 MB, deep 2.58 MB.  The residuals of
# `_w_case` are lambdas, which do not pickle, so these bounds measure the
# Jacobian computed in this process, never the share of its worker process.
FD_JACOBIAN_PEAK_BYTES = 2.11e6
DEEP_JACOBIAN_PEAK_BYTES = 2.58e6
# The same deep Jacobian at alpha = 0 and 0.02 from one stacked residual
# call per chunk (`operators._residual_inf` at a column of (alpha, beta)):
# 4.27 MB in chunks sized at 2 rows per mode, 2.98 MB at 3, as a start does;
# 2.92 MB in the 23 chunks of one plan, 2.72 MB with the brackets as modes alone.
DEEP_STACKED_JACOBIANS_PEAK_BYTES = 2.72e6
# (stack, base, chunking, M) of that call, as `_jacobians` gets it from a start
_STACKED_START = (partial(_residual_inf, np.array([[0.0], [0.02]]),
                          np.full((2, 1), crapper.beta_of(0.3))),
                  _perturbed(0.3, 512), {"rows_per_mode": 3}, 128)


def _jacobian_peak(jacobian, residual, base, M):
    """tracemalloc peak of one call of `jacobian` (jacobian_fd or the like),
    after a first call has cached the grids and strip multipliers."""
    jacobian(residual, base, M)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        jacobian(residual, base, M)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_one_fd_jacobian_allocates_at_most_its_measured_peak():
    residual, base, _ = _w_case(0.3, 256, residual_fd, alpha=0.02, h=2.5, gamma=0.7,
                                g=1.0, sigma=1.0)
    peak = _jacobian_peak(jacobian_fd, residual, base, 64)
    assert peak < 1.1 * FD_JACOBIAN_PEAK_BYTES, peak


def test_one_deep_jacobian_allocates_at_most_its_measured_peak():
    residual, base, _ = _w_case(0.3, 512, residual_inf, alpha=0.02, g=1.0, sigma=1.0)
    peak = _jacobian_peak(jacobian_fd, residual, base, 128)
    assert peak < 1.1 * DEEP_JACOBIAN_PEAK_BYTES, peak


def test_the_start_and_first_step_jacobians_allocate_at_most_their_measured_peak(
        monkeypatch):
    # in chunks of 3 rows per mode, as a start computes them, this process alone
    stack, base, rows, M = _STACKED_START
    _in_process(monkeypatch)
    peak = _jacobian_peak(partial(linearization._jacobians, **rows), stack, base, M)
    assert peak < 1.1 * DEEP_STACKED_JACOBIANS_PEAK_BYTES, peak


# -- the worker process that shares the chunks ---------------------------------------

_HAS_WORKER = sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2
needs_worker = pytest.mark.skipif(not _HAS_WORKER, reason="the worker needs Linux and 2 CPUs")

# picklable residuals, as newton_solve and the spectrum command pass them
_PICKLED_CASES = {
    "deep": (partial(residual_inf, WaveParams(beta=crapper.beta_of(0.3), alpha=0.02,
                                              g=1.0, sigma=1.0)),
             _perturbed(0.3, 512), {}, 128),
    "vortical": (partial(residual_fd, WaveParams(beta=crapper.beta_of(0.3), alpha=0.02,
                                                 h=2.5, gamma=0.7, g=1.0, sigma=1.0)),
                 _perturbed(0.3, 256), {}, 64),
    "angle": (partial(residual_G, crapper.beta_of(0.5)),
              crapper.crapper_theta(0.5, angle_grid(0.5, 64)), {"basis_in": "sine"}, 64),
}


def _in_process(monkeypatch):
    """Compute every later Jacobian of the test in this process."""
    monkeypatch.setattr(linearization, "_offer", lambda job, chunks: None)


def _wait_for_the_worker():
    """Wait until the worker has taken the last job it was sent (a job is
    offered only then)."""
    marks = linearization._pool[3]
    deadline = time.monotonic() + 60
    while marks[2] != marks[0] and time.monotonic() < deadline:
        time.sleep(0.001)
    assert marks[2] == marks[0], "the worker did not take its job"


def _spy_on_offers(monkeypatch):
    """The number of chunks each Jacobian offered the worker, 0 for none,
    one entry per Jacobian; each first waits for a worker that the host
    has not yet run."""
    offered = []
    offer = linearization._offer

    def spy(job, chunks):
        if linearization._pool is not None:
            _wait_for_the_worker()
        number = offer(job, chunks)
        offered.append(0 if number is None else len(chunks))
        return number

    monkeypatch.setattr(linearization, "_offer", spy)
    return offered


def _spy_on_the_caller(monkeypatch):
    """The chunks this process computes, one entry (its modes) per chunk."""
    computed = []
    columns = linearization._chunk_columns

    def spy(*job_and_modes):
        computed.append(job_and_modes[-1])
        return columns(*job_and_modes)

    monkeypatch.setattr(linearization, "_chunk_columns", spy)
    return computed


def _worker_alone(residual, base, M, basis_in="cosine"):
    """(job, chunks, columns by index) of the chunks that the worker sends
    back when the caller reaches none of them."""
    step = linearization.DEFAULT_REL_STEP * (1.0 + base.norm_inf())
    job = (residual, base, basis_in, step, M)
    if linearization._pool is not None:
        _wait_for_the_worker()
    chunks = linearization._mode_chunks(M, 2, base.n_grid)
    number = linearization._offer(job, chunks)
    assert number is not None
    _, _, conn, marks = linearization._pool
    conn.send((-number, b""))  # an empty job: the worker takes it once done with this one
    try:
        deadline = time.monotonic() + 60
        while marks[2] != -number and time.monotonic() < deadline:
            time.sleep(0.001)
        assert marks[2] == -number, "the worker did not finish its job"
        sent = {}
        while conn.poll():
            job_number, i, c = conn.recv()
            if job_number == number:  # not a late chunk of an earlier job
                sent[i] = c
    finally:
        marks[2] = number  # idle again: the next Jacobian is offered
    return job, chunks, sent


@needs_worker
@pytest.mark.parametrize("case", list(_PICKLED_CASES))
def test_the_worker_gives_the_bytes_of_the_in_process_loop(monkeypatch, case):
    residual, base, bases, M = _PICKLED_CASES[case]
    job, chunks, sent = _worker_alone(residual, base, M, **bases)
    assert sorted(sent) == list(range(len(chunks)))  # it took every chunk
    for i, modes in enumerate(chunks):
        assert sent[i].tobytes() == linearization._chunk_columns(*job, modes).tobytes()
    offered = _spy_on_offers(monkeypatch)
    shared = jacobian_fd(residual, base, M, **bases).entries
    assert offered == [len(chunks)]  # shared, however the chunks fell
    _in_process(monkeypatch)
    alone = jacobian_fd(residual, base, M, **bases).entries
    assert shared.tobytes() == alone.tobytes()


@needs_worker
def test_the_worker_gives_stacked_jacobians_the_bytes_of_two_jacobian_fd_calls(monkeypatch):
    # all its chunks wait in the pipe: 2 x 64 x 64 doubles, not 2 x 160 x 160
    stack, singles, base, M = _stacked_case("A=-0.47 alpha and beta")
    job, chunks, sent = _worker_alone(stack, base, M)
    assert sorted(sent) == list(range(len(chunks)))
    for i, modes in enumerate(chunks):
        assert sent[i].tobytes() == linearization._chunk_columns(*job, modes).tobytes()
    offered = _spy_on_offers(monkeypatch)
    both = linearization._jacobians(stack, base, M, rows_per_mode=3)
    assert offered == [len(linearization._mode_chunks(M, 3, base.n_grid))]  # shared
    _in_process(monkeypatch)
    assert [j.tobytes() for j in both] == [jacobian_fd(r, base, M).entries.tobytes()
                                           for r in singles]


def _spy_on_plans(monkeypatch):
    """The chunks, as lists of modes, that each Jacobian hands to `_offer`."""
    plans = []
    offer = linearization._offer

    def spy(job, chunks):
        plans.append([modes.tolist() for modes in chunks])
        return offer(job, chunks)

    monkeypatch.setattr(linearization, "_offer", spy)
    return plans


@needs_worker
@pytest.mark.parametrize("case, count", [("deep", 15), ("vortical", 5), ("stacked start", 23)])
def test_a_jacobian_has_one_odd_chunk_plan_with_the_worker_and_without(monkeypatch, case, count):
    residual, base, kwargs, M = {**_PICKLED_CASES, "stacked start": _STACKED_START}[case]
    offered = _spy_on_offers(monkeypatch)
    shared_plan = _spy_on_plans(monkeypatch)
    shared = linearization._jacobians(residual, base, M, **kwargs)
    _in_process(monkeypatch)
    alone_plan = _spy_on_plans(monkeypatch)
    computed = _spy_on_the_caller(monkeypatch)
    alone = linearization._jacobians(residual, base, M, **kwargs)
    assert offered == [count]  # the worker shared the chunks
    assert shared_plan == alone_plan == [[modes.tolist() for modes in computed]]
    assert shared.tobytes() == alone.tobytes()


@needs_worker
def test_a_stopped_worker_leaves_every_chunk_to_the_caller_and_its_late_ones_are_dropped(
        monkeypatch):
    residual, base, bases, M = _PICKLED_CASES["deep"]
    other = base + PeriodicFunction.from_cosine_series([0.0, 0.0, 2e-3], base.n_grid)
    _in_process(monkeypatch)
    want, want_other = (jacobian_fd(residual, b, M).entries for b in (base, other))
    monkeypatch.undo()
    jacobian_fd(residual, other, M)  # forks the worker
    _wait_for_the_worker()
    _, pid, conn, marks = linearization._pool
    offered = _spy_on_offers(monkeypatch)
    computed = _spy_on_the_caller(monkeypatch)
    os.kill(pid, signal.SIGSTOP)
    try:
        got = jacobian_fd(residual, other, M).entries
        assert offered == [15] and len(computed) == 15  # this process computed them all
        assert got.tobytes() == want_other.tobytes()
        marks[1] = 0  # as if this process had reached none: the worker sends them all
        os.kill(pid, signal.SIGCONT)
        _wait_for_the_worker()
        assert conn.poll(60)  # a late chunk, of `other`, has arrived
        os.kill(pid, signal.SIGSTOP)
        # the next Jacobian drops the late chunks, and this process computes them all
        computed.clear()
        assert jacobian_fd(residual, base, M).entries.tobytes() == want.tobytes()
        assert offered == [15, 15] and len(computed) == 15
    finally:
        os.kill(pid, signal.SIGCONT)


@needs_worker
def test_a_worker_stopped_through_a_job_is_offered_the_next_one(monkeypatch):
    # a worker that took no part in a job, stopped or starved, is not kept
    # out for a while: it is offered the next job once it has taken its last
    residual, base, bases, M = _PICKLED_CASES["vortical"]
    ref = jacobian_fd(residual, base, M).entries
    pid = linearization._pool[1]
    offered = _spy_on_offers(monkeypatch)
    computed = _spy_on_the_caller(monkeypatch)
    _wait_for_the_worker()
    os.kill(pid, signal.SIGSTOP)
    try:
        assert jacobian_fd(residual, base, M).entries.tobytes() == ref.tobytes()
        assert offered == [5] and len(computed) == 5  # offered, and all computed here
    finally:
        os.kill(pid, signal.SIGCONT)
    # the spy waits until the worker has taken the stopped job, then offers
    assert jacobian_fd(residual, base, M).entries.tobytes() == ref.tobytes()
    assert offered == [5, 5]


def _must_not_fork():
    raise AssertionError("a worker was asked for")


@pytest.mark.parametrize("why", ["a lambda", "one CPU"])
def test_the_jacobian_runs_in_process_without_a_worker_to_use(monkeypatch, why):
    residual, base, bases, M = _PICKLED_CASES["vortical"]
    if why == "a lambda":
        residual = lambda w, r=residual: r(w)  # noqa: E731
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(linearization, "_worker", _must_not_fork)
    jacobian_fd(residual, base, M, **bases)


def test_a_jacobian_outside_the_main_thread_runs_in_process(monkeypatch):
    # only the main thread forks the worker, which dies with the thread
    # that forked it; a passing thread's Jacobian is computed in that thread
    residual, base, bases, M = _PICKLED_CASES["vortical"]
    ref = jacobian_fd(residual, base, M, **bases).entries
    monkeypatch.setattr(linearization, "_worker", _must_not_fork)
    with ThreadPoolExecutor(1) as threads:
        got = threads.submit(jacobian_fd, residual, base, M, **bases).result().entries
    assert got.tobytes() == ref.tobytes()


def _fail_on_modes(failing, u):
    """The identity, except on a +-step stack at zero on 256 points that
    perturbs a mode in `failing`: it raises, naming the lowest such mode."""
    modes = set(np.argmax(np.abs(u.coeffs[:, 1:128]), axis=1) + 1) & failing
    if modes:
        raise ValueError(f"mode {min(modes)}")
    return u


@needs_worker
@pytest.mark.parametrize("failing", [(20, 40), (40, 60), (60,), (5, 20)])
def test_a_failing_chunk_raises_as_the_loop_over_chunks_would(monkeypatch, failing):
    base = zeros(256)
    residual = partial(_fail_on_modes, frozenset(failing))
    # taking every chunk from the top down, the worker stops at the first that fails
    _, chunks, sent = _worker_alone(residual, base, 64)
    top = max(i for i, modes in enumerate(chunks) if set(modes) & set(failing))
    assert sorted(sent) == list(range(top + 1, len(chunks)))
    offered = _spy_on_offers(monkeypatch)
    with pytest.raises(ValueError, match=f"^mode {min(failing)}$"):
        jacobian_fd(residual, base, 64)
    assert offered == [len(chunks)]  # the worker had its share
    _in_process(monkeypatch)
    with pytest.raises(ValueError, match=f"^mode {min(failing)}$"):
        jacobian_fd(residual, base, 64)


def _overflow_then_identity(u):
    np.multiply(np.full(1, 1e308), 10.0)  # overflows: warns, raises or passes by errstate
    return u


@needs_worker
def test_the_worker_runs_under_the_callers_errstate(monkeypatch):
    # a chunk that warns or raises there is left undone and computed here,
    # where the caller's errstate and warning filters act on it
    base = zeros(256)
    for over, every in (("ignore", True), ("raise", False), ("warn", False)):
        with np.errstate(over=over), warnings.catch_warnings():
            warnings.simplefilter("error")  # none arises here
            _, chunks, sent = _worker_alone(_overflow_then_identity, base, 64)
            assert len(sent) == (len(chunks) if every else 0)
    assert len(chunks) == 5
    offered = _spy_on_offers(monkeypatch)
    with np.errstate(over="ignore"):
        ref = jacobian_fd(_overflow_then_identity, base, 64).entries
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        jacobian_fd(_overflow_then_identity, base, 64)
    with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"):
        warned = jacobian_fd(_overflow_then_identity, base, 64).entries
    assert offered == [5] * 3 and warned.tobytes() == ref.tobytes()


@needs_worker
def test_a_worker_that_has_taken_a_job_may_run_on_every_cpu_its_caller_may():
    # it runs at nice 19 under the caller's policy and CPU set; which CPU it
    # runs on is the host's choice, and no test asserts it
    linearization._drop_worker()
    niceness = os.getpriority(os.PRIO_PROCESS, 0)
    residual, base, bases, M = _PICKLED_CASES["vortical"]
    jacobian_fd(residual, base, M)
    _wait_for_the_worker()
    worker = linearization._pool[1]
    assert os.getpriority(os.PRIO_PROCESS, worker) == 19
    assert os.sched_getscheduler(worker) == os.SCHED_OTHER
    assert os.sched_getaffinity(worker) == os.sched_getaffinity(0)
    assert os.getpriority(os.PRIO_PROCESS, 0) == niceness


@needs_worker
def test_a_killed_worker_is_dropped_and_its_share_computed_in_process(monkeypatch):
    residual, base, bases, M = _PICKLED_CASES["deep"]
    ref = jacobian_fd(residual, base, M).entries
    _wait_for_the_worker()
    killed = linearization._pool[1]
    os.kill(killed, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while _running(killed) and time.monotonic() < deadline:
        time.sleep(0.005)
    assert jacobian_fd(residual, base, M).entries.tobytes() == ref.tobytes()
    assert linearization._pool is None
    # the next Jacobian forks another worker
    assert jacobian_fd(residual, base, M).entries.tobytes() == ref.tobytes()
    assert linearization._pool[1] != killed


@needs_worker
def test_a_worker_killed_before_it_took_its_job_is_dropped_too():
    # it has not taken its last job, so it is sent no other: its death is
    # seen by waiting on it, not by a failed send
    residual, base, bases, M = _PICKLED_CASES["deep"]
    ref = jacobian_fd(residual, base, M).entries
    _wait_for_the_worker()
    killed = linearization._pool[1]
    os.kill(killed, signal.SIGSTOP)
    assert jacobian_fd(residual, base, M).entries.tobytes() == ref.tobytes()  # offered
    os.kill(killed, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while _running(killed) and time.monotonic() < deadline:
        time.sleep(0.005)
    assert jacobian_fd(residual, base, M).entries.tobytes() == ref.tobytes()
    assert linearization._pool is None


def _die_in_the_worker(caller, worker, u):
    """The identity in process `caller`, where it first waits until process
    `worker` is gone; any other process calling it is killed."""
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    deadline = time.monotonic() + 30
    while _running(worker) and time.monotonic() < deadline:
        time.sleep(0.001)
    return u


@needs_worker
def test_a_worker_that_dies_during_a_jacobian_leaves_the_rest_to_the_caller(monkeypatch):
    # it dies on its first chunk while the caller is on its own first one,
    # so the caller finds the connection closed when it next looks
    base = zeros(256)
    jacobian_fd(partial(residual_G, 1.0), base, 64, basis_in="sine")  # forks the worker
    _wait_for_the_worker()
    worker = linearization._pool[1]
    residual = partial(_die_in_the_worker, os.getpid(), worker)
    offered = _spy_on_offers(monkeypatch)
    got = jacobian_fd(residual, base, 64).entries
    assert offered == [5] and linearization._pool is None and not _running(worker)
    _in_process(monkeypatch)
    assert got.tobytes() == jacobian_fd(residual, base, 64).entries.tobytes()


def _no_worker_can_be_made(monkeypatch, module, name):
    """Make `module.name`, one step of forking a worker, fail as it does
    under a process, memory or file descriptor limit; forget the worker."""
    def fail(*args, **kwargs):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(module, name, fail)
    monkeypatch.setattr(linearization, "_pool", None)


@needs_worker
@pytest.mark.parametrize("module, name", [(os, "fork"), (mmap, "mmap"),
                                          (multiprocessing.connection, "Pipe")])
def test_a_worker_that_cannot_be_made_leaves_the_jacobian_to_this_process(
        monkeypatch, module, name):
    residual, base, bases, M = _PICKLED_CASES["vortical"]
    _in_process(monkeypatch)
    ref = jacobian_fd(residual, base, M).entries
    monkeypatch.undo()
    _no_worker_can_be_made(monkeypatch, module, name)
    assert jacobian_fd(residual, base, M).entries.tobytes() == ref.tobytes()
    assert linearization._pool is None


@needs_worker
def test_continue_solves_without_a_worker_when_none_can_be_forked(monkeypatch, tmp_path, capsys):
    _no_worker_can_be_made(monkeypatch, os, "fork")
    code = cli.main(["continue", "--A", "0.3", "--steps", "1", "--alpha-max", "0.02",
                     "--M", "64", "--out-json", str(tmp_path / "b.json"),
                     "--out-csv", str(tmp_path / "b.csv")])
    assert (code, capsys.readouterr().err) == (0, "")
    assert len(json.loads((tmp_path / "b.json").read_text())["solutions"]) == 2


def _vortical_jacobian_bytes(queue):
    residual, base, _, M = _PICKLED_CASES["vortical"]
    queue.put(jacobian_fd(residual, base, M).entries.tobytes())


@needs_worker
def test_a_process_that_multiprocessing_started_computes_its_jacobian_itself():
    # it joins its children when it ends, so a worker of its own would keep
    # it from ending
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_vortical_jacobian_bytes, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=60)
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    residual, base, _, M = _PICKLED_CASES["vortical"]
    assert got == jacobian_fd(residual, base, M).entries.tobytes()


def _python(script, *args, cwd):
    """`python -c script args` with capwave importable, in a session of its own."""
    env = dict(os.environ, PYTHONPATH=str(Path(linearization.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)


@needs_worker
def test_the_cli_leaves_no_process_behind(tmp_path):
    # capwave.cli run as `python -m` does; every process left in its session
    # after it exits would be its worker
    script = ("import runpy, sys\n"
              "from capwave import linearization\n"
              "try:\n"
              "    runpy.run_module('capwave.cli', run_name='__main__', alter_sys=True)\n"
              "finally:\n"
              "    sys.stderr.write(f'worker {linearization._pool is not None}\\n')\n")
    with _python(script, "continue", "--A", "0.3", "--steps", "0", "--M", "128",
                 cwd=tmp_path) as proc:
        err = proc.communicate(timeout=120)[1]
    assert (proc.returncode, err) == (0, "worker True\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def _running(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_worker
def test_a_caller_killed_by_a_signal_takes_its_worker_with_it(tmp_path):
    script = ("import contextlib, io, time\n"
              "from capwave import cli, linearization\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    cli.main(['continue', '--A', '0.3', '--steps', '0', '--M', '128'])\n"
              "print(linearization._pool[1], flush=True)\n"
              "time.sleep(120)\n")
    with _python(script, cwd=tmp_path) as proc:
        worker = int(proc.stdout.readline())
        assert _running(worker)
        proc.kill()
    deadline = time.monotonic() + 30
    while _running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _running(worker):
        os.kill(worker, signal.SIGKILL)
        pytest.fail("the worker outlived its killed caller")


def test_jacobian_fd_rejects_a_residual_that_is_not_row_wise():
    base = crapper.crapper_wave(0.2, 128)
    with pytest.raises(ValueError, match="row by row"):
        jacobian_fd(lambda w: PeriodicFunction.from_samples(w.samples[0]), base, 8)


def test_dG_matrix_does_not_depend_on_the_stack_size(monkeypatch):
    M = 48
    n_grid = angle_grid(0.5, M)
    default = linearization.STACK_POINTS
    assert default < M * n_grid  # the default splits the modes too
    monkeypatch.setattr(linearization, "STACK_POINTS", M * n_grid)
    ref = dG_matrix(0.5, M).entries
    # one mode per stack, five, the default before the heap was kept, the default
    for points in (1, 5 * n_grid, 3072, default):
        monkeypatch.setattr(linearization, "STACK_POINTS", points)
        assert dG_matrix(0.5, M).entries.tobytes() == ref.tobytes(), points


def test_dG_matrix_at_zero():
    m = dG_matrix(0.0, 16)
    expected = np.diag(np.arange(1, 17) - 1.0)
    assert np.max(np.abs(m.entries - expected)) < 1e-13
    report = recurrence_scan(0.0, 16)
    assert report.matrix.entries.tobytes() == m.entries.tobytes()
    assert report.sigma_min < 1e-12
    assert report.verdict == "kernel_found"
    kernel = np.linalg.svd(report.matrix.entries)[2][-1]
    cos_sim = abs(kernel[0]) / np.linalg.norm(kernel)
    assert cos_sim > 0.999


def test_dG_matrix_row_relation():
    # the kernel equation multiplied by the common denominator couples modes
    # n and n+-2 only; pick (a1, a3, a5) satisfying the displayed row-3
    # relation and check the cos(3t) component of the multiplied image drops
    A = 0.5
    q = crapper.q_of(A)
    M = 24
    n_grid = angle_grid(A, M)
    m = dG_matrix(A, M)
    a1, a5 = 1.0, 0.7
    lhs_coeff = (1 + A ** 4) * (3 - q) - 4 * A ** 2 * q
    a3 = (A ** 2 * (5 + q) * a5 + A ** 2 * (1 + q) * a1) / lhs_coeff
    vec = np.zeros(M)
    vec[0], vec[2], vec[4] = a1, a3, a5
    image_cos = m.entries @ vec  # cosine coefficients of dG[theta_A](theta)
    image = PeriodicFunction.from_cosine_series(image_cos, n_grid)
    t = grid(n_grid)
    denom = PeriodicFunction.from_samples(
        (1 + A ** 2 + 2 * A * np.cos(t)) * (1 + A ** 2 - 2 * A * np.cos(t)))
    multiplied = mul(denom, image)
    c3 = multiplied.cosine_coefficients(6)[2]
    assert abs(c3) < 1e-10
    # violating the relation makes the same component visibly nonzero
    vec[2] = a3 * 1.05
    multiplied_bad = mul(denom, PeriodicFunction.from_cosine_series(m.entries @ vec, n_grid))
    assert abs(multiplied_bad.cosine_coefficients(6)[2]) > 1e-4


def test_dG_matrix_banded_after_denominator_clearing():
    A = 0.4
    M = 18
    n_grid = angle_grid(A, M)
    m = dG_matrix(A, M)
    t = grid(n_grid)
    denom = PeriodicFunction.from_samples(
        (1 + A ** 2 + 2 * A * np.cos(t)) * (1 + A ** 2 - 2 * A * np.cos(t)))
    cleared = np.empty((M, M))
    for j in range(M):
        img = PeriodicFunction.from_cosine_series(m.entries[:, j], n_grid)
        cleared[:, j] = mul(denom, img).cosine_coefficients(M)
    scale = np.max(np.abs(cleared))
    for k in range(3, M - 1):  # rows 1..2 carry the rank-one mean correction
        for n in range(1, M - 1):
            if abs(k - n) in (0, 2):
                continue
            assert abs(cleared[k - 1, n - 1]) < 1e-9 * scale, (k, n)
    # the mean-correction rows are genuinely occupied
    assert np.max(np.abs(cleared[0:2, :])) > 1e-3 * scale


def test_recurrence_scan_examples():
    scan = recurrence_scan(0.5, 64)
    assert scan.verdict == "injective"
    assert scan.a1_coefficient == pytest.approx(-1.0, abs=1e-12)
    scan0 = recurrence_scan(0.0, 32)
    assert scan0.verdict == "kernel_found"
    assert scan0.kernel_description == "sin t"
    assert abs(np.linalg.svd(scan0.matrix.entries)[2][-1][0]) > 0.999
    with pytest.raises(ValueError):
        recurrence_scan(0.5, 4)


def test_recurrence_scan_refuses_ratios_that_stop_increasing(monkeypatch):
    # at q = -10.5 the ratios n_k = (k - 2 + q)/(A^2 (k + 2 + q)) jump from
    # 9/A^2 at k = 8 to -7/A^2 at k = 9
    monkeypatch.setattr(crapper, "q_of", lambda A: -10.5)
    with pytest.raises(AssertionError, match="monotonically"):
        recurrence_scan(0.5, 64)


def test_recurrence_matches_svd_verdicts():
    for A in (0.2, -0.2, 0.5, -0.5, 0.8, -0.8):
        scan = recurrence_scan(A, 64)
        assert scan.verdict == "injective"
        assert scan.sigma_min > INJECTIVITY_TOL
        direct = np.linalg.svd(dG_matrix(A, 64).entries, compute_uv=False)[-1]
        assert direct == pytest.approx(scan.sigma_min, rel=1e-9)


def test_reduced_coefficients_against_formulas():
    rng = np.random.default_rng(31)
    for _ in range(10):
        A = rng.uniform(0.05, 0.9) * rng.choice([-1.0, 1.0])
        expected_a2 = (1 + A ** 2) ** 3 / (1 + 4 * A ** 2 + A ** 4)
        assert abs(reduced_a2_coefficient(A) - expected_a2) < 1e-12
        assert abs(reduced_a1_coefficient(A) - (-4 * A ** 2)) < 1e-12


def test_recurrence_scan_sigma_min_golden():
    rep0 = recurrence_scan(0.0, 32)
    assert rep0.sigma_min < 1e-12
    rep5 = recurrence_scan(0.5, 64)
    assert rep5.sigma_min > 1e-3
    assert rep5.sigma_min == pytest.approx(GOLDEN_SIGMA_MIN_A05_M64, abs=1e-9)


def test_truncation_stability_of_sigma_min():
    for A in (0.2, 0.5, 0.8):
        s64 = recurrence_scan(A, 64).sigma_min
        s128 = recurrence_scan(A, 128).sigma_min
        assert abs(s128 - s64) < 0.1 * s64


def test_chain_rule_consistency():
    # the w-space Jacobian factors through the angle map: dF = dG~ o dTheta.
    # Compose on a wider truncation and compare leading blocks, since the
    # intermediate theta-space content above M feeds back into low modes.
    A = 0.3
    beta = crapper.beta_of(A)
    n_grid = 512
    M, M_wide = 16, 48
    w_a = crapper.crapper_wave(A, n_grid)
    theta_a = theta_of(w_a)
    f_tilde = lambda w: residual_inf(WaveParams(alpha=0.0, beta=beta), w)
    g_tilde = lambda th: residual_G_tilde(beta, th)
    j_f = jacobian_fd(f_tilde, w_a, M)                                   # cos -> cos
    j_g = jacobian_fd(g_tilde, theta_a, M_wide, basis_in="sine")         # sin -> cos
    j_t = jacobian_loop(theta_of, w_a, M_wide, basis_out="sine")         # cos -> sin
    composed = (j_g.entries @ j_t)[:M, :M]
    rel = np.linalg.norm(j_f.entries - composed) / np.linalg.norm(j_f.entries)
    assert rel < 1e-4


def test_operator_matrix_validation():
    with pytest.raises(ValueError):
        OperatorMatrix(entries=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        OperatorMatrix(entries=np.full((5, 5), np.nan))
    with pytest.raises(ValueError):
        OperatorMatrix(entries=np.zeros((5, 4)))


def test_basis_name_validation():
    base = crapper.crapper_wave(0.2, 128)
    with pytest.raises(ValueError, match="basis"):
        jacobian_fd(lambda w: w, base, 8, basis_in="chebyshev")
    for short in ("cos", "sin"):  # only the full names are spelled
        with pytest.raises(ValueError, match="basis"):
            jacobian_fd(lambda w: w, base, 8, basis_in=short)


def _must_not_evaluate(u):
    raise AssertionError("the residual was called")


def test_a_base_with_a_nan_sample_is_rejected_before_any_residual_call():
    # an infinite sample as well: it makes the step infinite, not NaN
    for bad in (np.nan, np.inf, -np.inf):
        samples = crapper.crapper_wave(0.2, 128).samples.copy()
        samples[5] = bad
        with np.errstate(invalid="ignore"):  # the transform of an inf sample has NaN modes
            base = PeriodicFunction.from_samples(samples)
        with pytest.raises(ValueError, match="^the base has a non-finite sample$"):
            jacobian_fd(_must_not_evaluate, base, 8)
