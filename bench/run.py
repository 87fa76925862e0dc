#!/usr/bin/env python3
"""Benchmark of capwave: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/workloads.py): deep_sheet, vortical_sheet,
threshold_sweep and family_restarts.  The last is not in BENCHMARK.json: some
of its ops fail (Newton stalls at A <= -0.69) and its op time is the least
steady.  One caller runs ops in a closed loop: the next op starts when the
previous one has finished and been validated.  A run has a fixed number of
seeded ops, chosen so that they take about S seconds at the seed commit.

--trace 0 prints the end-to-end metrics: setup_s, op_s.p50, results_per_s
and peak_rss_mb, with op counts, fail_frac and validation outcomes.  The time
metrics are scaled to a steady host speed (see reference_s); the wall-clock
figures are printed beside them.  setup_s is the median of three set-ups:
this process's and those of two fresh processes started, one at a time,
before the ops.
--trace 1 runs each op twice, untraced and then traced, and prints the
per-layer metrics with the tracing overhead; it writes the span file and the
per-layer self-time table under bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means capwave (src/) or the test
oracle (tests/_oracles.py) could not be loaded.
"""

import os
import time

T_START = time.perf_counter()
BLAS_THREADS = 1
# set before numpy loads: unpinned BLAS pools made single 160x160 SVDs stall
# for up to 0.6 s on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from tracing import (UNITS, Tracer, layer_metrics, layer_table,  # noqa: E402
                     per_op_counts, self_times)
from workloads import WORKLOADS, OpFailed, ValidationError  # noqa: E402

import numpy as np  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "results_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class LoadError(Exception):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up and reference kernel times, and exit")
    return ap.parse_args(argv)


def load():
    """Import capwave from src/ and the raw-numpy oracle from tests/ of this tree."""
    src = ROOT / "src"
    oracle_path = ROOT / "tests" / "_oracles.py"
    if not (src / "capwave" / "__init__.py").is_file() or not oracle_path.is_file():
        raise LoadError(f"capwave sources or test oracle not found under {ROOT}")
    sys.path.insert(0, str(src))
    import capwave

    if Path(capwave.__file__).resolve().parent != (src / "capwave").resolve():
        raise LoadError(f"imported capwave from {capwave.__file__}, not from {src}")
    for mod in ("cli", "continuation", "crapper", "geometry", "operators", "serialization"):
        importlib.import_module(f"capwave.{mod}")
    spec = importlib.util.spec_from_file_location("capwave_bench_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return capwave, oracles


def set_up(args):
    """Everything before the first timed op; returns the workload and the op inputs."""
    capwave, oracles = load()
    wl = WORKLOADS[args.workload](capwave, oracles)
    inputs = wl.inputs(args.seed, wl.n_ops(args.seconds))
    wl.warm_up()
    return wl, inputs


# -- host speed ------------------------------------------------------------------------

# The host is shared: the same op runs up to 1.8x slower in some minutes than in
# others, in CPU time as much as in wall time, and the speed moves within a
# run too.  A fixed kernel that uses no capwave code runs after every set-up,
# before every op and after the last.  Each op's time is scaled by
# REF_NOMINAL_S over the mean of the kernel's two times around it, and each
# set-up time by REF_NOMINAL_S over the kernel's time just after it, so the
# metrics read as seconds on a host where the kernel takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.2
SETUP_RUNS = 3  # setup_s is the median of this many set-ups
REF_LOOP = 900_000
REF_SVDS = 70
REF_FFTS = 2000
_rng = np.random.default_rng(0)
REF_MATRIX = _rng.standard_normal((64, 64))
REF_SAMPLES = _rng.standard_normal(512)


def reference_s() -> float:
    """Wall time of the reference kernel: an interpreter loop, small SVDs and
    short FFT round trips, about a third each, the kinds of work a capwave op
    spends its time in."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    for _ in range(REF_SVDS):
        np.linalg.svd(REF_MATRIX)
    x = REF_SAMPLES
    for _ in range(REF_FFTS):
        x = np.fft.irfft(np.fft.rfft(x) * 0.5, len(x)) + REF_SAMPLES
    return time.perf_counter() - t0


def set_up_times(args, setup_s: float) -> list[dict]:
    """This process's set-up time and those of SETUP_RUNS - 1 fresh processes
    run one after the other, each with the reference kernel's time after it."""
    runs = [{"setup_s": setup_s, "ref_s": reference_s()}]
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_RUNS - 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return runs


# -- the closed loop -------------------------------------------------------------------


def run_op(wl, inputs, op_id, workdir, tracer=None):
    """Run one op (timed), then validate it and measure its output (untimed)."""
    opdir = workdir / f"op{op_id}{'t' if tracer else ''}"
    opdir.mkdir()
    rec = {"op": op_id, "inputs": inputs, "traced": tracer is not None,
           "results": 0, "failure": None, "invalid": False}
    raw = error = None
    scope = tracer.op(op_id) if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            raw = wl.run(inputs, opdir)
    except Exception as exc:  # any op failure is data; the loop must go on
        error = exc
    rec["seconds"] = time.perf_counter() - t0
    rec["bytes_written"] = sum(p.stat().st_size for p in opdir.rglob("*") if p.is_file())
    if error is not None:
        rec["failure"] = f"{type(error).__name__}: {error}"
    else:
        try:
            rec["results"] = wl.validate(inputs, raw, opdir)
        except OpFailed as exc:
            rec["failure"] = f"{type(exc).__name__}: {exc}"
        except ValidationError as exc:
            rec["failure"] = f"{type(exc).__name__}: {exc}"
            rec["invalid"] = True
    if tracer:
        tracer.add(op_id, "serialization.bytes_written", rec["bytes_written"])
    shutil.rmtree(opdir)
    return rec


def closed_loop(wl, inputs, workdir, tracer=None):
    """Each op in turn.  With a tracer, each op untraced and then traced;
    without one, between runs of the reference kernel, whose mean time around
    the op goes into its record."""
    records = []
    if tracer:
        for op_id, inp in enumerate(inputs):
            records.append(run_op(wl, inp, op_id, workdir))
            records.append(run_op(wl, inp, op_id, workdir, tracer))
        return records
    before = reference_s()
    for op_id, inp in enumerate(inputs):
        rec = run_op(wl, inp, op_id, workdir)
        after = reference_s()
        rec["ref_s"] = 0.5 * (before + after)
        records.append(rec)
        before = after
    return records


# -- metrics ---------------------------------------------------------------------------


def p50(records) -> float:
    """Median op time, a failed op counting as slower than any other."""
    times = sorted(math.inf if r["failure"] else r["seconds"] for r in records)
    value = statistics.median(times)
    if math.isinf(value):  # more than half failed: report the slowest op that did not
        value = max((r["seconds"] for r in records if not r["failure"]), default=0.0)
    return value


def results_per_s(records) -> float:
    return sum(r["results"] for r in records) / sum(r["seconds"] for r in records)


def end_to_end(records, set_ups):
    """The metrics at the reference host speed, the same figures in wall
    time, and the median reference time around the ops."""
    wall = {"setup_s": statistics.median(s["setup_s"] for s in set_ups),
            "op_s.p50": p50(records), "results_per_s": results_per_s(records)}
    scaled = [dict(r, seconds=r["seconds"] * REF_NOMINAL_S / r["ref_s"]) for r in records]
    ref_s = statistics.median(r["ref_s"] for r in records)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * REF_NOMINAL_S / s["ref_s"] for s in set_ups),
        "op_s.p50": p50(scaled),
        "results_per_s": results_per_s(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, wall, ref_s


def environment() -> dict:
    from capwave import _kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the layout of numpy's build record is not a stable API
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "crossing_backend": _kernels.selected_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "capwave").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_counts(workload, seed, records, counts, digest):
    """Compare this run's exact counts per op with an earlier run of the same
    seed and code; any difference is non-determinism, not noise."""
    path = OUT / f"counts-{workload}-seed{seed}.json"
    inputs = {r["op"]: r["inputs"] for r in records}
    known = {}
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            prev = json.load(fh)
        if prev.get("src_sha256") == digest:
            known = prev["ops"]
    drift = []
    for op_id, row in counts.items():
        old = known.get(str(op_id))
        if old is not None and old["inputs"] == inputs[op_id]:
            drift += [(op_id, k, old["counts"][k], v) for k, v in row.items()
                      if old["counts"].get(k) != v]
        else:
            known[str(op_id)] = {"inputs": inputs[op_id], "counts": row}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"src_sha256": digest, "ops": known}, fh, indent=1)
    return drift


def print_table(rows, op_seconds, n_ops, file=None):
    print(f"  {'layer':<14}{'self s/op':>12}{'share':>9}{'spans/op':>11}", file=file)
    for layer, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {layer:<14}{row['self_s'] / n_ops:12.4f}{100 * row['self_s'] / op_seconds:8.1f}%"
              f"{row['spans'] / n_ops:11.1f}", file=file)


def summarize(records):
    attempted = len(records)
    failed = [r for r in records if r["failure"]]
    for r in failed:
        print(f"  op {r['op']}{' traced' if r['traced'] else ''} {r['inputs']}: {r['failure']}")
    return attempted, len(failed), any(r["invalid"] for r in records)


def traced_metrics(args, tracer, records, digest):
    """Per-layer metrics of the traced ops; writes the span file and the
    per-layer self-time table, and checks the exact counts."""
    traced = [r for r in records if r["traced"]]
    op_seconds = sum(r["seconds"] for r in traced)
    metrics = layer_metrics(tracer, len(traced), op_seconds)
    drift = check_counts(args.workload, args.seed, traced, per_op_counts(tracer), digest)
    for op_id, key, old, new in drift:
        print(f"  NON-DETERMINISM op {op_id} {key}: {old} -> {new}")
    untraced_p50 = p50([r for r in records if not r["traced"]])
    traced_p50 = p50(traced)
    metrics.update({
        "trace.op_s.p50.untraced": untraced_p50,
        "trace.op_s.p50.traced": traced_p50,
        "trace.overhead": traced_p50 / untraced_p50,
        "trace.spans": len(tracer.spans) / len(traced),
        "trace.count_drift": float(len(drift)),
    })
    print(f"  tracing overhead {metrics['trace.overhead']:.3f} "
          f"(op_s.p50 traced {traced_p50:.4f} s / untraced {untraced_p50:.4f} s)")
    stem = f"{args.workload}-seed{args.seed}"
    table = layer_table(tracer.spans, self_times(tracer.spans))
    print("  per-layer self time of the traced ops:")
    print_table(table, op_seconds, len(traced))
    with open(OUT / f"layers-{stem}.txt", "w", encoding="utf-8") as fh:
        print(f"{args.workload} seed {args.seed}: {len(traced)} traced ops, "
              f"{op_seconds:.3f} s", file=fh)
        print_table(table, op_seconds, len(traced), file=fh)
    tracer.write_spans(OUT / f"spans-{stem}.jsonl")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    try:
        wl, inputs = set_up(args)
    except LoadError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "ref_s": reference_s()}))
        return 0
    set_ups = None if args.trace else set_up_times(args, setup_s)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        records = closed_loop(wl, inputs, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    attempted, failed, invalid = summarize(records)
    plain = [r for r in records if not r["traced"]]
    n_ok = sum(1 for r in plain if not r["failure"])
    print(f"  ops {len(plain)} (validated {n_ok}, failed {len(plain) - n_ok}), "
          f"results {sum(r['results'] for r in plain)}, "
          f"op seconds {sum(r['seconds'] for r in plain):.3f}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env}
    if args.trace:
        metrics = traced_metrics(args, tracer, records, env["src_sha256"])
        units = UNITS
    else:
        metrics, wall, ref_s = end_to_end(records, set_ups)
        print(f"  fail_frac {failed / attempted:.4f} ({failed}/{attempted})")
        print(f"  reference kernel {ref_s:.4f} s (median), nominal {REF_NOMINAL_S} s; wall "
              + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
        report.update({"reference_s": ref_s, "wall": wall, "set_ups": set_ups})
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<36}{value:16.6g} {units[name]}")

    report.update({"metrics": metrics, "ops": records})
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    result = {"correct": not invalid, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
