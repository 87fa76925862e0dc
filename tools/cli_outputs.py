"""Write a fixed set of capwave CLI outputs into OUTDIR.

A change that keeps the command line's behaviour leaves every byte of this
set as it was, so two checkouts compare with one diff:

    python3 tools/cli_outputs.py /tmp/before      # in the parent checkout
    python3 tools/cli_outputs.py /tmp/after       # in the changed checkout
    diff -r /tmp/before /tmp/after

The set: deep `continue` at A = 0.3, 0.5 and -0.47 with JSON, CSV and SVGs;
two finite-depth vortical `continue`s with SVGs, one of the benchmark's
shape (h = 2.5, gamma = 0.7, M = 64) and a shallow strip with negative
vorticity and a negative A (h = 0.5, gamma = -2, A = -0.35, M = 48); a 2-D
(alpha, beta) sheet; the steep A = -0.8 starting point, whose lobes reach
two periods away; the default `spectrum`, `verify --A 0.6`, the default
`limit-check` and `limit-check --gamma -1e-1` (a negative value in exponent
form); `profile` with and without `--repeats 2` on the last point of
`deep_0.5` and of `vortical`; and sixteen failures.  Twelve exit 1 and
write nothing: `continue --A 0`, `continue --tol 0`, `continue --h 2 --gamma
nan`, `verify --out missing/verify.json`, `verify --out deep_0.3_svg` (a
directory), `continue --A 0.97` (past what 256 cosine modes serve),
`continue --svg-dir deep_0.3.json/sub` (under a file), `continue --out-json
""` (no path), `continue --out-json same.txt --out-csv same.txt` (one file
for two outputs), `continue --steps 0 --beta-max -1 --beta-steps 2` (a
target at alpha = 0 with beta < 0, refused before the start is solved),
`limit-check --grid 0` (no grid) and `limit-check --h inf`.
Four exit 3.  Two write their partial branch: a `continue` whose residual
overflows on the way to alpha = 1e306, and `continue --A 0.1 --alpha-max 2
--steps 1 --M 16` with SVGs, whose one long step lands on flat water and
is halved until the sheet is walked to alpha = 0.0625 and the step
underflows.  Two write nothing: `continue --A 0.82 --steps 0 --g 1 --sigma
1`, whose start stalls at the rounding floor of the residual, within 2x of
the default tolerance, and `continue --A 0.3 --alpha-start -0.3` (deep
water, M = 64), whose start converges onto flat water.  (The 2-D sheet
exits 3 as well, with its partial branch.)  A step underflow names the last
failure of the step.
Each run's stdout, stderr and exit code sit next to its files;
`capwave.cli.main` silences numpy's overflow warnings, which would print the
absolute path of the module that raised them.  The commands run in-process
through `capwave.cli.main`, with OUTDIR as the working directory and relative
paths, so no absolute path reaches the files.  capwave is imported from the `src/`
next to this script.  About 2 s on two cores (2.6-2.8 s before the CLI kept
the heap between stacked calls).

Under `taskset -c 0` every Jacobian is computed in-process instead of
partly in a worker process, so a diff against a run on two CPUs checks that
both paths write the same bytes.  `capwave.cli.main` pins the OpenBLAS that
numpy bundles to one thread, so a run without OPENBLAS_NUM_THREADS=1 writes
the same bytes as one with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from capwave.cli import main  # noqa: E402

SHEET = ["--alpha-max", "0.02", "--steps", "1", "--g", "1", "--sigma", "1"]


def _continue(name, *flags):
    return name, ["continue", *flags, *SHEET, "--out-json", f"{name}.json",
                  "--out-csv", f"{name}.csv", "--svg-dir", f"{name}_svg"]


RUNS = [
    _continue("deep_0.3", "--A", "0.3"),
    _continue("deep_0.5", "--A", "0.5"),
    _continue("deep_-0.47", "--A", "-0.47"),
    _continue("vortical", "--A", "0.3", "--h", "2.5", "--gamma", "0.7", "--M", "64"),
    _continue("vortical_shallow", "--A", "-0.35", "--h", "0.5", "--gamma", "-2", "--M", "48"),
    _continue("sheet_2d", "--A", "0.3", "--M", "32", "--beta-max", "1.4", "--beta-steps", "2"),
    ("steep_-0.8", ["continue", "--A", "-0.8", "--steps", "0", "--tol", "1e-9",
                    "--g", "1", "--sigma", "1", "--out-json", "steep_-0.8.json",
                    "--out-csv", "steep_-0.8.csv", "--svg-dir", "steep_-0.8_svg"]),
    ("spectrum", ["spectrum", "--out-json", "spectrum.json", "--out-csv", "spectrum.csv"]),
    ("verify", ["verify", "--A", "0.6", "--out", "verify.json"]),
    ("limit_check", ["limit-check", "--out", "limit_check.json"]),
    ("limit_check_gamma_neg", ["limit-check", "--gamma", "-1e-1",
                               "--out", "limit_check_gamma_neg.json"]),
    ("continue_A0", ["continue", "--A", "0", "--out-json", "continue_A0.json",
                     "--out-csv", "continue_A0.csv"]),
    ("continue_tol0", ["continue", "--tol", "0", "--out-json", "continue_tol0.json",
                       "--out-csv", "continue_tol0.csv"]),
    ("continue_gamma_nan", ["continue", "--h", "2", "--gamma", "nan",
                            "--out-json", "continue_gamma_nan.json",
                            "--out-csv", "continue_gamma_nan.csv"]),
    ("verify_missing_dir", ["verify", "--out", "missing/verify.json"]),
    ("verify_out_dir", ["verify", "--out", "deep_0.3_svg"]),
    ("overflow", ["continue", "--A", "0.3", "--alpha-max", "1e306", "--steps", "1",
                  "--M", "16", "--grid", "128", "--g", "1", "--sigma", "1",
                  "--out-json", "overflow.json", "--out-csv", "overflow.csv"]),
    ("long_step_0.1", ["continue", "--A", "0.1", "--alpha-max", "2", "--steps", "1",
                       "--M", "16", "--g", "1", "--sigma", "1",
                       "--out-json", "long_step_0.1.json", "--out-csv", "long_step_0.1.csv",
                       "--svg-dir", "long_step_0.1_svg"]),
    ("continue_mode_cap", ["continue", "--A", "0.97", "--steps", "0"]),
    ("continue_svg_under_file", ["continue", "--A", "0.3", "--steps", "0", "--M", "8",
                                 "--svg-dir", "deep_0.3.json/sub"]),
    ("continue_empty_out_json", ["continue", "--A", "0.3", "--steps", "0", "--M", "8",
                                 "--out-json", ""]),
    ("continue_same_file", ["continue", "--A", "0.3", "--steps", "0", "--M", "8",
                            "--out-json", "same.txt", "--out-csv", "same.txt"]),
    ("continue_beta_negative", ["continue", "--steps", "0", "--beta-max", "-1",
                                "--beta-steps", "2"]),
    ("continue_floor_0.82", ["continue", "--A", "0.82", "--steps", "0", "--g", "1",
                             "--sigma", "1"]),
    ("continue_flat_start", ["continue", "--A", "0.3", "--alpha-start", "-0.3",
                             "--alpha-max", "-0.3", "--steps", "0", "--M", "64",
                             "--g", "1", "--sigma", "1"]),
    ("limit_check_grid0", ["limit-check", "--grid", "0", "--out", "limit_check_grid0.json"]),
    ("limit_check_h_inf", ["limit-check", "--h", "inf", "--out", "limit_check_h_inf.json"]),
]
# (solution file, branch it is the last point of)
POINTS = [("deep_point.json", "deep_0.5.json"), ("vortical_point.json", "vortical.json")]


def run(name, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    Path(f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")
    Path(f"{name}.stderr").write_text(err.getvalue(), encoding="utf-8")
    Path(f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")


def write_outputs(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(outdir)
    try:
        for name, argv in RUNS:
            run(name, argv)
        for point, branch in POINTS:
            with open(branch, encoding="utf-8") as fh:
                last = json.load(fh)["solutions"][-1]
            Path(point).write_text(json.dumps(last) + "\n", encoding="utf-8")
            stem = point[:-len(".json")]
            for tag, extra in (("", []), ("_repeats2", ["--repeats", "2"])):
                run(f"profile_{stem}{tag}",
                    ["profile", "--input", point, "--out-csv", f"profile_{stem}{tag}.csv",
                     "--out-svg", f"profile_{stem}{tag}.svg", *extra])
    finally:
        os.chdir(here)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.stderr.write("usage: python3 tools/cli_outputs.py OUTDIR\n")
        raise SystemExit(1)
    write_outputs(sys.argv[1])
