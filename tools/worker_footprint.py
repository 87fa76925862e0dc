"""Measure the memory of the Jacobian's worker process on CLI runs.

    python3 tools/worker_footprint.py

Per shape and per configuration, one child Python runs a warm-up and then 8
in-process `capwave continue` ops of one benchmark shape (both
`--g 1 --sigma 1`), each writing its branch JSON and CSV into a temporary
directory, then idles for 1 s:

    deep:      --A 0.3 --alpha-max 0.05 --steps 1
    vortical:  --A 0.3 --h 2.5 --gamma 0.7 --M 64 --alpha-max 0.02 --steps 1

Every 5 ms this process reads /proc/PID/smaps_rollup of the child and of its
worker, whose pid it reads from /proc/PID/task/PID/children.  The table gives,
per shape and configuration, the peak `Pss` of caller plus worker over the
run, their `Pss` at rest (the median over 0.4-0.9 s after the last op; the
worker hands its freed heap back after 0.1 s idle) and the worker's `Private_Clean + Private_Dirty` at rest, in MB
of 2^20 bytes.  `cpus` is the child's CPU count: all the CPUs this process
may use, where the worker shares the Jacobians, and one (the child pins
itself to the lowest before it imports capwave), where no worker is forked.
The last line gives the ratio of the two at-rest `Pss` per shape.  With one
CPU allowed, only the one-CPU rows are measured.

`Pss` splits each shared page among the processes that map it, so the sum
of caller and worker counts their copy-on-write pages once.  The library
pages that other processes on the host map too are split with them, so the
numbers move with what else runs.  Only files under /proc are read, and only
the standard library is used; the child imports capwave from the `src/` next
to this script.  The tool takes no argument: any argument prints the usage
line to stderr and exits 1.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
USAGE = "usage: python3 tools/worker_footprint.py\n"
SHAPES = {
    "deep": "--A 0.3 --alpha-max 0.05 --steps 1",
    "vortical": "--A 0.3 --h 2.5 --gamma 0.7 --M 64 --alpha-max 0.02 --steps 1",
}
OPS = 8  # warm ops per child
IDLE = 1.0  # seconds the child idles after its last op
PERIOD = 0.005  # seconds between samples
REST = (0.4, 0.9)  # the at-rest window, as fractions of the idle time after the last op

# the child: argv is (src, one_cpu, ops, idle, *continue flags); it prints the
# CLOCK_MONOTONIC time at which its last op ended, which this process shares
CHILD = """
import contextlib, io, os, sys, tempfile, time
src, one_cpu, ops, idle, *flags = sys.argv[1:]
if one_cpu == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, src)
from capwave.cli import main
with tempfile.TemporaryDirectory() as work:
    os.chdir(work)  # where each op writes its branch.json and branch.csv
    for _ in range(1 + int(ops)):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if main(["continue", *flags]) != 0:
                raise SystemExit("the op failed")
    print(time.monotonic(), flush=True)
    time.sleep(float(idle))
"""


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


def measure(shape, one_cpu, ops, idle):
    """(peak Pss, at-rest Pss, worker private at rest or None) in kB of one child."""
    flags = [*SHAPES[shape].split(), "--g", "1", "--sigma", "1"]
    samples = []  # (time, caller + worker Pss, worker private or None)
    with subprocess.Popen([sys.executable, "-c", CHILD, str(SRC), str(int(one_cpu)), str(ops),
                           str(idle), *flags], stdout=subprocess.PIPE, text=True) as child:
        while child.poll() is None:
            t = time.monotonic()
            caller = rollup(child.pid)
            workers = [r for r in map(rollup, children(child.pid)) if r is not None]
            if caller is not None:
                private = sum(r["Private_Clean"] + r["Private_Dirty"] for r in workers)
                samples.append((t, caller["Pss"] + sum(r["Pss"] for r in workers),
                                private if workers else None))
            time.sleep(max(0.0, PERIOD - (time.monotonic() - t)))
        out = child.stdout.read()
    if child.returncode != 0:
        raise SystemExit(f"the {shape} child exited {child.returncode}")
    last = float(out.split()[0])
    rest = [s for s in samples if last + REST[0] * idle <= s[0] <= last + REST[1] * idle]
    if not rest:
        raise SystemExit(f"no sample of the {shape} child at rest")
    private = [s[2] for s in rest if s[2] is not None]
    return (max(s[1] for s in samples), statistics.median(s[1] for s in rest),
            statistics.median(private) if private else None)


def report(ops, idle, shapes):
    """Print the table of `shapes`, each child running `ops` ops and idling `idle` s."""
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
            peak, rest[n], private = measure(shape, one_cpu, ops, idle)
            print(f"{shape:<10}{n:>5}{mb(peak):>13}{mb(rest[n]):>13}{mb(private):>19}", flush=True)
        if cpus > 1:
            ratios.append(f"{shape} {rest[cpus] / rest[1]:.3f}")
    if ratios:
        print(f"at rest, {cpus} CPUs / 1 CPU: " + ", ".join(ratios))


def main(argv):
    if argv:
        sys.stderr.write(USAGE)
        return 1
    report(OPS, IDLE, list(SHAPES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
