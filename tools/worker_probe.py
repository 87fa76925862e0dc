"""Probe the Jacobian's worker process: its memory on CLI runs, then where it
runs and what it gives its caller.

    python3 tools/worker_probe.py

Every probe runs in fresh child Pythons of one program, CHILD.  A child pins
itself to the lowest allowed CPU when asked, then imports capwave from the
`src/` next to this script and sets its process up as `capwave.cli.main` does
(`cli._keep_heap`, `cli._one_blas_thread`) before its first timed op.

Memory: per shape and configuration, one child runs a warm-up and 8
in-process `capwave continue` ops of a benchmark shape (SHAPES, with `--g 1
--sigma 1`, outputs in a temporary directory), then idles 1 s.  Every 5 ms this process reads /proc/PID/smaps_rollup of the child and of its
worker (from /proc/PID/task/PID/children).  A row gives caller-plus-worker
`Pss`, peak and at rest (the median over 0.4-0.9 s after the last op, when the
worker has handed its freed heap back), and the worker's `Private_Clean +
Private_Dirty` at rest, in MB of 2^20 bytes, for the child on all allowed CPUs
and pinned to one, where it forks no worker; the last line gives the ratio of
the two at-rest `Pss`.  `Pss` splits each shared page among the processes that
map it, those of other processes on the host included.

Placement: children time `linearization.jacobian_fd` at Crapper's wave of
amplitude 0.3, g = sigma = 1, on two shapes:

    FD:    residual_fd, h 2.5, gamma 0.7, alpha 0.02, M 64 on 256 points
           (the vortical_sheet benchmark's shape; 5 chunks)
    deep:  residual_inf, alpha 0, M 128 on 512 points (15 chunks)

A child counts the chunks it computes itself by wrapping `_chunk_columns`
under its own pid; a Jacobian whose every chunk the caller computed got
nothing from the worker.  The rows:

    co-location  4 children x 150 FD Jacobians, 3 ms apart: per child the
                 Jacobians the caller computed alone; p50/p90 of all
    deep         100 deep Jacobians, 3 ms apart, in one child: p50/p90, idle
                 and with a busy child spinning on the lowest allowed CPU
    one CPU      a child pinned to the lowest allowed CPU: p50 of 50 FD and
                 30 deep Jacobians, the reference for the worker's gain

With one CPU allowed, the memory table has the one-CPU rows only and the
co-location and deep rows print `-` for every number.  Linux only; about
30 s on 2 CPUs.  Any argument prints the usage line to stderr and exits 1.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
USAGE = "usage: python3 tools/worker_probe.py\n"
SHAPES = {
    "deep": "--A 0.3 --alpha-max 0.05 --steps 1",
    "vortical": "--A 0.3 --h 2.5 --gamma 0.7 --M 64 --alpha-max 0.02 --steps 1",
}
OPS = 8  # warm ops per memory child
IDLE = 1.0  # seconds a memory child idles after its last op
PERIOD = 0.005  # seconds between memory samples
REST = (0.4, 0.9)  # the at-rest window, as fractions of the idle time after the last op
COLOCATION = (4, 150)  # children, FD Jacobians each
DEEP = 100  # deep Jacobians, idle and under the busy loop
ONE_CPU = (50, 30)  # FD and deep Jacobians
GAP = 0.003  # seconds between the Jacobians of a placement child

# argv is (src, one_cpu, job, *args): "busy" spins until killed or orphaned;
# "memory" takes (ops, idle, *flags) and prints when its last op ended on the
# CLOCK_MONOTONIC this process shares; "jacobians" takes (gap, shape, count,
# ...) and prints "shape ms caller_chunks chunks" per Jacobian
CHILD = """
import contextlib, io, os, sys, tempfile, time
src, one_cpu, job, *args = sys.argv[1:]
if one_cpu == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
parent = os.getppid()
while job == "busy":
    if os.getppid() != parent:
        sys.exit()
sys.path.insert(0, src)
from capwave import cli
cli._keep_heap()
cli._one_blas_thread()
if job == "memory":
    ops, idle, *flags = args
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # where each op writes its branch.json and branch.csv
        for _ in range(1 + int(ops)):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                if cli.main(["continue", *flags]) != 0:
                    raise SystemExit("the op failed")
        print(time.monotonic(), flush=True)
        time.sleep(float(idle))
else:
    from functools import partial
    from capwave import crapper, linearization
    from capwave.operators import WaveParams, residual_fd, residual_inf
    gap, *runs = args
    beta = crapper.beta_of(0.3)
    shapes = {
        "fd": (partial(residual_fd, WaveParams(beta=beta, alpha=0.02, h=2.5, gamma=0.7, g=1.0,
                                               sigma=1.0)), crapper.crapper_wave(0.3, 256), 64),
        "deep": (partial(residual_inf, WaveParams(beta=beta, alpha=0.0, g=1.0, sigma=1.0)),
                 crapper.crapper_wave(0.3, 512), 128),
    }
    me, mine, columns = os.getpid(), [0], linearization._chunk_columns
    def counted(*args):
        mine[0] += os.getpid() == me  # the worker forked from here runs this too
        return columns(*args)
    linearization._chunk_columns = counted
    for shape, count in zip(runs[::2], runs[1::2]):
        residual, base, M = shapes[shape]
        chunks = len(linearization._mode_chunks(M, 2, base.n_grid))
        for _ in range(int(count)):
            mine[0] = 0
            t = time.perf_counter()
            linearization.jacobian_fd(residual, base, M)
            ms = 1e3 * (time.perf_counter() - t)
            print(shape, ms, mine[0], chunks, flush=True)
            time.sleep(float(gap))
"""


def child(job, *args, one_cpu=False):
    """A child Python running CHILD's `job` with `args`, its stdout piped."""
    return subprocess.Popen([sys.executable, "-c", CHILD, str(SRC), str(int(one_cpu)), job,
                             *map(str, args)], stdout=subprocess.PIPE, text=True)


def output(proc):
    """The stdout of the child `proc`, once it has exited 0."""
    out = proc.communicate()[0]
    if proc.returncode != 0:
        raise SystemExit(f"a probe child exited {proc.returncode}")
    return out


def rollup(pid):
    """{field: kB} of /proc/PID/smaps_rollup, or None once PID is gone."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            lines = fh.read().splitlines()[1:]  # the first line names the range
    except OSError:
        return None
    return {key: int(value.split()[0]) for key, value in (line.split(":", 1) for line in lines)}


def children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(p) for p in fh.read().split()]
    except OSError:
        return []


def footprint(shape, one_cpu, ops, idle):
    """(peak Pss, at-rest Pss, worker private at rest or None) in kB of one child."""
    samples = []  # (time, caller + worker Pss, worker private or None)
    proc = child("memory", ops, idle, *SHAPES[shape].split(), "--g", "1", "--sigma", "1",
                 one_cpu=one_cpu)
    while proc.poll() is None:
        t = time.monotonic()
        caller = rollup(proc.pid)
        workers = [r for r in map(rollup, children(proc.pid)) if r is not None]
        if caller is not None:
            private = sum(r["Private_Clean"] + r["Private_Dirty"] for r in workers)
            samples.append((t, caller["Pss"] + sum(r["Pss"] for r in workers),
                            private if workers else None))
        time.sleep(max(0.0, PERIOD - (time.monotonic() - t)))
    last = float(output(proc).split()[0])
    rest = [s for s in samples if last + REST[0] * idle <= s[0] <= last + REST[1] * idle]
    if not rest:
        raise SystemExit(f"no sample of the {shape} child at rest")
    private = [s[2] for s in rest if s[2] is not None]
    return (max(s[1] for s in samples), statistics.median(s[1] for s in rest),
            statistics.median(private) if private else None)


def memory(ops, idle, shapes):
    """Print the memory table of `shapes`, each child running `ops` ops and idling `idle` s."""
    cpus = len(os.sched_getaffinity(0))
    configs = [(cpus, False), (1, True)] if cpus > 1 else [(1, True)]
    mb = lambda kb: "-" if kb is None else f"{kb / 1024:.1f}"
    print(f"{ops} ops per child, {idle:g} s idle, at rest {REST[0] * idle:g}-{REST[1] * idle:g} s "
          f"after the last op; MB = 2^20 bytes")
    print(f"{'shape':<10}{'cpus':>5}{'peak_pss_mb':>13}{'rest_pss_mb':>13}{'worker_private_mb':>19}")
    ratios = []
    for shape in shapes:
        rest = {}
        for n, one_cpu in configs:
            peak, rest[n], private = footprint(shape, one_cpu, ops, idle)
            print(f"{shape:<10}{n:>5}{mb(peak):>13}{mb(rest[n]):>13}{mb(private):>19}", flush=True)
        if cpus > 1:
            ratios.append(f"{shape} {rest[cpus] / rest[1]:.3f}")
    if ratios:
        print(f"at rest, {cpus} CPUs / 1 CPU: " + ", ".join(ratios))


def run(*runs, one_cpu=False):
    """[(shape, ms, caller chunks, chunks)] of one child making `runs`, pairs
    of shape ("fd" or "deep") and count, in order."""
    out = output(child("jacobians", GAP, *runs, one_cpu=one_cpu))
    return [(s, float(ms), int(mine), int(chunks))
            for s, ms, mine, chunks in (line.split() for line in out.splitlines())]


def caller_only(jacobians):
    return sum(mine == chunks for _, _, mine, chunks in jacobians)


def quantiles(jacobians, shape="fd"):
    """(p50, p90) in ms of the Jacobians of `shape`."""
    deciles = statistics.quantiles([ms for s, ms, _, _ in jacobians if s == shape], n=10)
    return deciles[4], deciles[8]


def placement(colocation=COLOCATION, deep=DEEP, one_cpu=ONE_CPU):
    """Print the placement table, each row from the counts given."""
    allowed = os.sched_getaffinity(0)
    cpus = len(allowed)
    ms = lambda p: "-" if p is None else f"{p[0]:.1f}/{p[1]:.1f}"
    colocated = idle = loaded = None
    if cpus > 1:
        colocated = [run("fd", colocation[1]) for _ in range(colocation[0])]
        idle = quantiles(run("deep", deep), "deep")
        loop = child("busy", one_cpu=True)
        try:
            loaded = quantiles(run("deep", deep), "deep")
        finally:
            loop.kill()
            loop.communicate()
    alone = run("fd", one_cpu[0], "deep", one_cpu[1], one_cpu=True)
    p50 = lambda shape: f"{quantiles(alone, shape)[0]:.1f}"
    rows = [
        ("co-location", f"{colocation[0]} children x {colocation[1]} FD",
         "caller-only Jacobians " + (" ".join(str(caller_only(c)) for c in colocated)
                                     if colocated else "-")
         + f", p50/p90 {ms(quantiles(sum(colocated, [])) if colocated else None)} ms"),
        ("deep", f"{deep} deep",
         f"p50/p90 {ms(idle)} ms idle, {ms(loaded)} ms with a busy loop on CPU {min(allowed)}"),
        ("one CPU", f"{one_cpu[0]} FD, {one_cpu[1]} deep",
         f"p50 {p50('fd')} ms FD, {p50('deep')} ms deep"),
    ]
    print(f"{cpus} CPUs allowed; Jacobians {GAP * 1e3:g} ms apart; ms per Jacobian")
    print(f"{'row':<13}{'jacobians':<26}result")
    for row in rows:
        print(f"{row[0]:<13}{row[1]:<26}{row[2]}")


def main(argv):
    if argv:
        sys.stderr.write(USAGE)
        return 1
    memory(OPS, IDLE, list(SHAPES))
    print()
    placement()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
