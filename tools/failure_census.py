"""Run a fixed grid of capwave `continue` configurations and count how they end.

    python3 tools/failure_census.py OUTDIR

writes OUTDIR/census.tsv: a header, then one line per run with its exit
code, its cause, the points it accepted, the steps it attempted (both from
the run's report; "-" when it ends before the walk) and its arguments.  The
cause is "-" for a run that exits 0, else the first of CAUSES that its
stderr names, else "unclassified".  The table is byte-deterministic: wall
times go to stdout only.  A change that keeps the solver's behaviour leaves
the table as it was, so two checkouts compare with one diff:

    python3 tools/failure_census.py /tmp/before    # in the parent checkout
    python3 tools/failure_census.py /tmp/after     # in the changed checkout
    diff /tmp/before/census.tsv /tmp/after/census.tsv

After the table, stdout gives the counts by (exit, cause).

The grid holds three probes of where a branch ends (all `--g 1 --sigma 1`):
- the end of a walk: runs whose stall reads as the rounding floor of the
  residual although more modes or a finer grid let them exit 0;
- finite depth with vorticity meeting flat water: A = 0.3 to alpha = 0.02
  in 2 steps at M = 64 over depths h in {0.2, 0.5, 1, 5} and vorticities
  gamma in {-5, -2, 0, 2, 5}, plus gamma = 4 and 4.5 at h = 1, where the
  flat-water linearisation changes sign near the target;
- runs over A in {0.3, -0.5, 0.7}, deep water, h = 1 with gamma in
  {-2, 2, 4.5} and h = 0.5 with gamma = 0, to alpha in {0.02, 0.5, 3} in
  5 steps at M = 64: 43 of the 45, see SWEEP;
and two shallow vortical runs that end in "no convergence" where the
sheet approaches flat water.

The commands run in-process through `capwave.cli.main`, in a temporary
working directory with relative paths, so no absolute path reaches the
table.  capwave is imported from the `src/` next to this script.  About
50 s on two cores.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from capwave.cli import main  # noqa: E402

# key phrases of the solver's failure messages, the most specific first
CAUSES = ("rounding floor", "converged onto flat water", "no convergence",
          "line search stalled", "sigma_min", "non-finite", "metric vanishes")
UNIT = ["--g", "1", "--sigma", "1"]


def _flags(text):
    return ["continue", *text.split(), *UNIT]


WALK_ENDS = [_flags(f) for f in (
    "--A 0.3 --M 32 --alpha-max 0.02 --steps 1 --beta-max 1.4 --beta-steps 2",
    "--A 0.1 --alpha-max 2 --steps 1 --M 16",
    "--A 0.3 --alpha-max 3 --steps 30 --M 64",
    "--A 0.82 --steps 0",
    "--A 0.7 --alpha-max 3 --steps 30",
    "--A 0.5 --alpha-max 3 --steps 30",
    "--A -0.47 --alpha-max 3 --steps 30",
)]
FLAT_WATER = [_flags(f"--A 0.3 --h {h} --gamma {gamma} --alpha-max 0.02 --steps 2 --M 64")
              for h in ("0.2", "0.5", "1", "5") for gamma in ("-5", "-2", "0", "2", "5")]
FLAT_WATER += [_flags(f"--A 0.3 --h 1 --gamma {gamma} --alpha-max 0.02 --steps 2 --M 64")
               for gamma in ("4", "4.5")]
DEPTHS = ("", "--h 1 --gamma -2", "--h 1 --gamma 2", "--h 1 --gamma 4.5", "--h 0.5 --gamma 0")
# less the A = 0.7, h = 0.5 runs to alpha 0.5 and 3, which exit 0 after 25 and 44
# points and took 17 s of the 67 s that the whole grid took on two cores
SWEEP = [_flags(f"--A {A} {depth} --alpha-max {alpha} --steps 5 --M 64")
         for A in ("0.3", "-0.5", "0.7") for depth in DEPTHS for alpha in ("0.02", "0.5", "3")
         if not (A == "0.7" and depth == "--h 0.5 --gamma 0" and alpha != "0.02")]
NO_CONVERGENCE = [_flags(f) for f in (
    "--A 0.12038914404183627 --h 1.7509576002298943 --gamma 1.2781041265073014 --M 32 "
    "--alpha-max 0.01595441933187499 --steps 1",
    "--A -0.15438754408026756 --h 1.2415373179190592 --gamma 1.8619205555928118 --M 48 "
    "--alpha-max 0.016021506542560973 --steps 2",
)]
RUNS = WALK_ENDS + FLAT_WATER + SWEEP + NO_CONVERGENCE
HEADER = "exit\tcause\taccepted\tattempts\targv\n"


def census_line(argv):
    """The table's line for one `continue` run, in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    cause = "-" if code == 0 else next((c for c in CAUSES if c in stderr), "unclassified")
    report = json.loads(out.getvalue()) if out.getvalue() else {}
    counts = [str(report.get(key, "-")) for key in ("accepted", "attempts")]
    return "\t".join([str(code), cause, *counts, " ".join(argv[1:])]) + "\n"


def write_census(outdir, runs=RUNS):
    """Write OUTDIR/census.tsv for `runs`; return the table's lines."""
    table = Path(outdir).resolve() / "census.tsv"
    table.parent.mkdir(parents=True, exist_ok=True)
    here, lines = os.getcwd(), []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in runs:
                start = time.perf_counter()
                lines.append(census_line(argv))
                print(f"{time.perf_counter() - start:7.2f} s  {lines[-1]}", end="", flush=True)
        finally:
            os.chdir(here)
    table.write_text(HEADER + "".join(lines), encoding="utf-8")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.stderr.write("usage: python3 tools/failure_census.py OUTDIR\n")
        raise SystemExit(1)
    begin = time.perf_counter()
    counts = collections.Counter(tuple(line.split("\t")[:2]) for line in write_census(sys.argv[1]))
    print(f"{len(RUNS)} runs in {time.perf_counter() - begin:.1f} s; by (exit, cause):")
    for (code, cause), n in sorted(counts.items()):
        print(f"{n:4d}  exit {code}  {cause}")
