"""Time two commits against each other with the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --first-seed 701 --claim threshold_sweep:op_s.p50 --out BENCH_N.json

Each commit is exported with `git archive` into its own temporary directory,
so both run from their committed files only.  Each copy first makes one
untimed 5 s warm-up run of every workload of BENCHMARK.json (on the first
seed).  Then, per workload, pair k runs `bench/run.py --trace 0` for the
benchmark's `run_seconds` on seed first_seed + k in both copies, the parent
first in even pairs and the change first in odd ones.  For each end-to-end metric of BENCHMARK.json the summary
gives both sides' medians and quartiles (statistics.quantiles, inclusive),
the parent's IQR, in how many pairs the change was better, how much worse the
change's median is (a fraction; negative when better) against the metric's
bound, and whether the medians differ by more than the parent's IQR.  A
claim WORKLOAD:METRIC is met when the change is better in at least 90 % of
the pairs and its median better by more than the parent's IQR; the record
keeps the verdict as `claim_met`.  Failed ops are counted per side.  Only the standard library is used, and only
`bench/run.py` is run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WARMUP_SECONDS = 5.0


def export(rev: str, into: Path) -> Path:
    """The committed files of `rev`, extracted into `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def src_sha256(copy: Path) -> str:
    """sha256 over the bytes of src/capwave/*.py in name order."""
    digest = hashlib.sha256()
    for path in sorted((copy / "src" / "capwave").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def bench(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run: the JSON object of its last line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {copy} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: dict, metric: dict) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    parent, change = ([r[name] for r in runs[side]] for side in SIDES)
    row = {}
    for side, values in zip(SIDES, (parent, change)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        row.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3,
                    f"{side}_iqr": q3 - q1})
    ratio = row["change_median"] / row["parent_median"]
    better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    worse_by = ratio - 1.0 if lower else 1.0 - ratio
    row.update({"median_ratio": ratio, "change_better_in": f"{better}/{len(parent)}",
                "change_worse_by": worse_by, "bound": metric["bound"],
                "within_bound": worse_by <= metric["bound"],
                "median_diff_beyond_parent_iqr":
                    abs(row["change_median"] - row["parent_median"]) > row["parent_iqr"]})
    digits = {"median_ratio": 4, "change_worse_by": 4}
    return {k: round(v, digits.get(k, 6)) if isinstance(v, float) else v for k, v in row.items()}


def claim_met(row: dict) -> bool:
    better, pairs = map(int, row["change_better_in"].split("/"))
    return (better >= 0.9 * pairs and row["change_worse_by"] < 0.0
            and row["median_diff_beyond_parent_iqr"])


def print_rows(workload: str, result: dict) -> None:
    for name, row in result["summary"].items():
        print(f"{workload:<16}{name:<14}"
              f"parent {row['parent_median']:.6g} [{row['parent_q1']:.6g}, {row['parent_q3']:.6g}]"
              f" iqr {row['parent_iqr']:.3g}  "
              f"change {row['change_median']:.6g} [{row['change_q1']:.6g}, {row['change_q3']:.6g}]"
              f"  ratio {row['median_ratio']:.4f}  better {row['change_better_in']}"
              f"  within bound {row['within_bound']}"
              f"  beyond parent iqr {row['median_diff_beyond_parent_iqr']}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"{workload:<16}{'failed ops':<14}parent {failed['parent']}/{attempted['parent']}"
          f"  change {failed['change']}/{attempted['change']}  correct {result['correct']}")


def run_pairs(copies: dict, workload: str, metrics: list, seeds: list, seconds: float) -> dict:
    runs = {side: [] for side in SIDES}
    attempted = dict.fromkeys(SIDES, 0)
    failed = dict.fromkeys(SIDES, 0)
    correct = True
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            out = bench(copies[side], workload, seed, seconds)
            attempted[side] += out["attempted"]
            failed[side] += out["failed"]
            correct &= out["correct"]
            runs[side].append({"seed": seed, "first": order[0],
                               **{m["name"]: out["metrics"][m["name"]]["value"] for m in metrics}})
    result = {"pairs": len(seeds), "seeds": seeds, "attempted": attempted, "failed": failed,
              "correct": correct}
    result["summary"] = {m["name"]: summarize(runs, m) for m in metrics}
    result["runs"] = runs
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="the commit to compare against")
    ap.add_argument("--change", default="HEAD", help="the commit to time")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the gain to test, if any")
    ap.add_argument("--tmp", help="where the two copies go (default: the system's)")
    ap.add_argument("--out", help="write the runs and the summary as JSON here")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs a side)")

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        copies = {side: export(rev, Path(tmp) / side)
                  for side, rev in zip(SIDES, (args.parent, args.change))}
        spec = json.loads((copies["change"] / "BENCHMARK.json").read_text())
        workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
        metrics = spec["end_to_end"]
        for workload in workloads:
            for side in SIDES:
                bench(copies[side], workload, args.first_seed, WARMUP_SECONDS)
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        report = {
            "command": f"python3 bench/run.py --workload W --seed N --seconds {seconds:g} "
                       f"--trace 0, in git archive copies of {args.parent} (parent) and "
                       f"{args.change} (change), alternating which runs first; one untimed "
                       f"{WARMUP_SECONDS:g} s warm-up run of each workload in each copy first",
            "tool": f"python3 tools/bench_pairs.py --parent {args.parent} --change {args.change} "
                    f"--pairs {args.pairs} --first-seed {args.first_seed}"
                    + (f" --claim {args.claim}" if args.claim else ""),
            "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
            "src_sha256": {side: src_sha256(copies[side]) for side in SIDES},
            "workloads": {},
        }
        for workload in workloads:
            result = run_pairs(copies, workload, metrics, seeds, seconds)
            report["workloads"][workload] = result
            print_rows(workload, result)
            sys.stdout.flush()
    if args.claim:
        workload, metric = args.claim.split(":")
        report["claim"] = args.claim
        report["claim_met"] = claim_met(report["workloads"][workload]["summary"][metric])
        print(f"claim {args.claim}: {'met' if report['claim_met'] else 'not met'}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
