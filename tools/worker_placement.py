"""Probe where the Jacobian's worker process runs, and what it gives its caller.

    python3 tools/worker_placement.py

Each probe runs in fresh child Pythons that import capwave from the `src/`
next to this script and time `linearization.jacobian_fd` of one of two
shapes, with `time.perf_counter`:

    FD:    residual_fd, A 0.3, h 2.5, gamma 0.7, alpha 0.02, M 64 on 256 points
           (the vortical_sheet benchmark's shape; 5 chunks)
    deep:  residual_inf, A 0.3, alpha 0, M 128 on 512 points (15 chunks)

at Crapper's wave of amplitude 0.3, g = sigma = 1.  A child counts the
chunks it computes itself by wrapping `linearization._chunk_columns` under
its own pid, so the chunks its forked worker computes are not counted.  A
Jacobian whose every chunk the caller computed got nothing from the worker.
The table has four rows:

    start        40 children, one at a time, each making 12 FD Jacobians
                 back to back: the children whose worker gave no chunk to
                 any of them (a worker that did not get to run at its start)
    co-location  4 children x 150 FD Jacobians, 3 ms apart: per child the
                 Jacobians whose every chunk the caller computed, and the
                 p50/p90 time over all of them
    deep         100 deep Jacobians, 3 ms apart, in one child: p50/p90, idle
                 and then with a busy loop (a child Python) pinned to the
                 lowest allowed CPU, which is killed afterwards
    one CPU      a child pinned to the lowest allowed CPU, which forks no
                 worker: the p50 of 50 FD and 30 deep Jacobians, the
                 reference for the worker's gain

The worker is used on Linux with at least 2 CPUs allowed; elsewhere the
first three rows print `-` for every number, and off Linux so does the last.
The run takes about 48 s on 2 CPUs.  Only the standard library and capwave
are used.  The tool takes no argument: any argument prints the usage line to
stderr and exits 1.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
USAGE = "usage: python3 tools/worker_placement.py\n"
START = (40, 12)  # children, FD Jacobians each
COLOCATION = (4, 150)  # children, FD Jacobians each
DEEP = 100  # deep Jacobians, idle and under the busy loop
ONE_CPU = (50, 30)  # FD and deep Jacobians
GAP = 0.003  # seconds between the Jacobians of the last three rows

# the child: argv is (src, one_cpu, gap, shape, count, shape, count, ...); per
# Jacobian it prints "shape ms caller_chunks chunks"
CHILD = """
import os, sys, time
from functools import partial
src, one_cpu, gap, *runs = sys.argv[1:]
if one_cpu == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, src)
from capwave import crapper, linearization
from capwave.operators import WaveParams, residual_fd, residual_inf
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


def run(*runs, gap=GAP, one_cpu=False):
    """[(shape, ms, caller chunks, chunks)] of one child making `runs`, pairs
    of shape ("fd" or "deep") and count, in order."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(int(one_cpu)), str(gap),
                          *map(str, runs)], capture_output=True, text=True, check=True).stdout
    return [(s, float(ms), int(mine), int(chunks))
            for s, ms, mine, chunks in (line.split() for line in out.splitlines())]


def caller_only(jacobians):
    return sum(mine == chunks for _, _, mine, chunks in jacobians)


def quantiles(jacobians, shape="fd"):
    """(p50, p90) in ms of the Jacobians of `shape`."""
    deciles = statistics.quantiles([ms for s, ms, _, _ in jacobians if s == shape], n=10)
    return deciles[4], deciles[8]


def busy_loop():
    """A child Python spinning on the lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    return subprocess.Popen([sys.executable, "-c",
                             f"import os\nos.sched_setaffinity(0, {{{cpu}}})\nwhile True: pass"])


def report(start=START, colocation=COLOCATION, deep=DEEP, one_cpu=ONE_CPU, busy=True):
    """Print the table, each row from the counts given; with `busy` false
    the deep row's busy-loop numbers are `-`."""
    linux = sys.platform.startswith("linux")
    cpus = len(os.sched_getaffinity(0)) if linux else 1
    cpu = min(os.sched_getaffinity(0)) if linux else "-"
    shared = linux and cpus >= 2
    ms = lambda p: "-" if p is None else f"{p[0]:.1f}/{p[1]:.1f}"
    stranded = children = idle = loaded = alone = None
    if shared:
        stranded = sum(caller_only(run("fd", start[1], gap=0.0)) == start[1]
                       for _ in range(start[0]))
        children = [run("fd", colocation[1]) for _ in range(colocation[0])]
        idle = quantiles(run("deep", deep), "deep")
        if busy:
            loop = busy_loop()
            try:
                loaded = quantiles(run("deep", deep), "deep")
            finally:
                loop.kill()
                loop.wait()
    if linux:
        alone = run("fd", one_cpu[0], "deep", one_cpu[1], one_cpu=True)
    p50 = lambda shape: "-" if alone is None else f"{quantiles(alone, shape)[0]:.1f}"
    rows = [
        ("start", f"{start[0]} children x {start[1]} FD",
         f"no chunk from the worker in {'-' if stranded is None else stranded} of {start[0]}"),
        ("co-location", f"{colocation[0]} children x {colocation[1]} FD",
         "caller-only Jacobians " + (" ".join(str(caller_only(c)) for c in children)
                                     if children else "-")
         + f", p50/p90 {ms(quantiles(sum(children, [])) if children else None)} ms"),
        ("deep", f"{deep} deep",
         f"p50/p90 {ms(idle)} ms idle, {ms(loaded)} ms with a busy loop on CPU {cpu}"),
        ("one CPU", f"{one_cpu[0]} FD, {one_cpu[1]} deep",
         f"p50 {p50('fd')} ms FD, {p50('deep')} ms deep"),
    ]
    print(f"{cpus} CPUs allowed; Jacobians {GAP * 1e3:g} ms apart after the start row; "
          "ms per Jacobian")
    print(f"{'row':<13}{'jacobians':<26}result")
    for row in rows:
        print(f"{row[0]:<13}{row[1]:<26}{row[2]}")


def main(argv):
    if argv:
        sys.stderr.write(USAGE)
        return 1
    report()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
