"""Span tracing of capwave from outside the package.

The tracer wraps the public functions of every capwave module while one op
runs.  Modules import each other's functions by name (``from .spectral import
mul``) and keep some in module-level tables (``cli._DISPATCH``), so a wrapper
is installed on every capwave module attribute and every value of a
module-level dict that refers to the original, and removed again when the op
ends; untraced ops run the unmodified code.

Each call of a wrapped function becomes a span ``(name, start, end, parent,
op)`` kept in memory until the run ends.  Calls too small or too frequent to
be worth a span are counted instead: ``numpy.fft`` transforms (calls, points,
seconds, computed flops), ``numpy.linalg.svd`` (calls, seconds, slowest call)
and ``PeriodicFunction`` instances built.  Their time stays inside the self
time of the span that made them.  Methods of ``PeriodicFunction`` (``+``,
scalar ``*``, series constructors) are not wrapped either, so their cost is
self time of the calling layer.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)

# Scalar helpers called per sample or per list element (``dumps_fixed`` also
# recurses into itself); a span each would cost more than the work it times.
SKIP = {
    "spectral": {"grid", "mean", "drop_mean", "detect_parity", "validate"},
    "serialization": {"dumps_fixed", "format_float"},
    "crapper": {"beta_of", "q_of", "param_of_beta", "min_grid", "coefficient"},
    "continuation": {"modes_for", "residual_for"},
    "operators": {"wavenumber_k"},
}

FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
                    "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

RESIDUALS = ("operators.residual_inf", "operators.residual_fd")
TRANSFORMS = ("spectral.derivative", "spectral.hilbert", "spectral.hilbert_strip")
GEOMETRY_LAYERS = ("geometry", "kernels")

# Counts that must repeat exactly for one op on one version of the code.
EXACT_COUNTS = ("continuation.newton_iters", "linearization.jacobian_fd.calls",
                "operators.residual_inf.calls", "operators.residual_fd.calls",
                "geometry.crossings_found", "serialization.bytes_written")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _layer_of_module(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    return "kernels" if short == "_kernels" else short


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# -- counters read from the arguments and results of wrapped calls ---------------


def _count_newton(counts, args, kwargs, result, exc):
    if result is not None:
        counts["continuation.newton_iters"] += result.newton_iters


def _count_branch(counts, args, kwargs, result, exc):
    branch = result if result is not None else getattr(exc, "branch", None)
    if branch is not None:
        counts["continuation.steps_attempted"] += len(branch.step_history)
        counts["continuation.steps_accepted"] += sum(1 for s in branch.step_history if s[3])


def _count_jacobian(counts, args, kwargs, result, exc):
    counts["linearization.jacobian_columns"] += _arg(args, kwargs, 2, "M")


def _count_injective(counts, args, kwargs, result, exc):
    counts["geometry.points_checked"] += len(_arg(args, kwargs, 0, "curve").x)
    if result is not None:
        counts["geometry.crossings_found"] += len(result.crossings)


def _count_segments(counts, args, kwargs, result, exc):
    counts["kernels.segments"] += len(_arg(args, kwargs, 0, "x")) - 1


HOOKS = {
    "continuation.newton_solve": _count_newton,
    "continuation.continue_branch": _count_branch,
    "linearization.jacobian_fd": _count_jacobian,
    "geometry.check_injective": _count_injective,
    "kernels.segment_crossings": _count_segments,
}


class Tracer:
    """Records spans and counters for the ops run inside ``with tracer.op(i)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_counts: dict[int, Counter] = defaultdict(Counter)
        self.svd_max_s = 0.0
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name):
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self._op))
        self._stack.append(idx)
        return idx

    def _end(self, idx):
        # finished spans are tuples of atoms, which the garbage collector
        # stops tracking; a growing list of lists would slow later ops
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._end(idx)
                if hook:
                    hook(self.op_counts[self._op], args, kwargs, None, exc)
                raise
            self._end(idx)
            if hook:
                hook(self.op_counts[self._op], args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _fft_wrapper(self, fn, one_d):
        import numpy

        def counted(a, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            dt = time.perf_counter() - t0
            a = numpy.asarray(a)
            points = max(a.size, out.size)  # real side of rfft/irfft counts
            length = max(a.shape[-1], out.shape[-1]) if one_d else points
            c = self.op_counts[self._op]
            c["spectral.fft.calls"] += 1
            c["spectral.fft.points"] += points
            c["spectral.fft.s"] += dt
            c["spectral.fft.flop"] += 5.0 * points * math.log2(max(length, 2))
            return out

        return counted

    def _svd_wrapper(self, fn):
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            c = self.op_counts[self._op]
            c["continuation.svd.calls"] += 1
            c["continuation.svd.s"] += dt
            self.svd_max_s = max(self.svd_max_s, dt)
            return out

        return counted

    def _init_wrapper(self, fn):
        def counted(obj, *args, **kwargs):
            self.op_counts[self._op]["spectral.objects"] += 1
            return fn(obj, *args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, new)

    def _patch_item(self, table, key, new):
        self._patches.append((table, key, table[key], True))
        table[key] = new

    def install(self):
        """Wrap every public capwave function wherever a capwave module names
        it, as an attribute or as a value of a module-level dict."""
        import numpy

        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "capwave" or name.startswith("capwave."))}
        wrappers = {}
        for name, mod in mods.items():
            layer = _layer_of_module(name)
            skip = SKIP.get(layer, ())
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == name
                        and not attr.startswith("_") and attr not in skip):
                    wrappers[fn] = self._span_wrapper(fn, f"{layer}.{attr}")
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch_item(value, key, wrappers[item])
        for attr in FFT_ENTRY_POINTS:
            self._patch(numpy.fft, attr, self._fft_wrapper(getattr(numpy.fft, attr),
                                                           one_d=attr[-1] == "t"))
        self._patch(numpy.linalg, "svd", self._svd_wrapper(numpy.linalg.svd))
        pf = mods["capwave.spectral"].PeriodicFunction
        self._patch(pf, "__init__", self._init_wrapper(pf.__init__))

    def uninstall(self):
        while self._patches:
            owner, key, original, is_item = self._patches.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    @contextmanager
    def op(self, op_id: int):
        """Context in which op `op_id` runs traced, under a root span ``op``."""
        self._op = op_id
        self.install()
        idx = self._begin("op")
        try:
            yield
        finally:
            self._end(idx)
            self.uninstall()
            self._op = -1

    def add(self, op_id: int, key: str, value):
        self.op_counts[op_id][key] += value

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- analysis ----------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered, reach = 0.0, lo
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append((hi - lo) - covered)
    return out


def layer_table(spans, selfs) -> dict:
    """Self seconds and span count per layer; ``op`` is time in no wrapped call."""
    table = defaultdict(lambda: [0.0, 0])
    for rec, s in zip(spans, selfs):
        row = table[layer_of(rec[NAME])]
        row[0] += s
        row[1] += 1
    return {k: {"self_s": v[0], "spans": v[1]} for k, v in sorted(table.items())}


def per_op_counts(tracer: Tracer) -> dict[int, dict]:
    """The EXACT_COUNTS of each traced op."""
    calls = defaultdict(Counter)
    for rec in tracer.spans:
        calls[rec[OP]][rec[NAME] + ".calls"] += 1
    ops = sorted(i for i in set(calls) | set(tracer.op_counts) if i >= 0)
    return {i: {k: int(calls[i][k] if k.endswith(".calls") else tracer.op_counts[i][k])
                for k in EXACT_COUNTS} for i in ops}


def _unit(name: str) -> str:
    if name.endswith((".share", ".accept_ratio", ".overhead")):
        return "1"
    if name.endswith("max_s") or name.startswith("trace.op_s"):
        return "s"
    if name.endswith((".self_s", ".s")):
        return "s/op"
    if name.endswith("residual_us"):
        return "us"
    if name.endswith("bytes_written"):
        return "B/op"
    if name.endswith("gflop_computed"):
        return "GFlop/op"
    if name.endswith("count_drift"):
        return "count"
    return "count/op"


def layer_metrics(tracer: Tracer, n_ops: int, op_seconds: float) -> dict[str, float]:
    """Per-layer metrics: counts and seconds as means per traced op, shares of
    the traced op time, and ``svd.max_s`` as the slowest single call."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, self_s, total_s, layer_self = Counter(), Counter(), Counter(), Counter()
    linesearch = geo_spans = 0
    for rec, s in zip(spans, selfs):
        name = rec[NAME]
        calls[name] += 1
        self_s[name] += s
        total_s[name] += rec[END] - rec[START]
        layer_self[layer_of(name)] += s
        if layer_of(name) in GEOMETRY_LAYERS:
            geo_spans += 1
        if (name in RESIDUALS and rec[PARENT] >= 0
                and spans[rec[PARENT]][NAME] == "continuation.newton_solve"):
            linesearch += 1
    counts = Counter()
    for c in tracer.op_counts.values():
        counts.update(c)
    per = 1.0 / max(n_ops, 1)
    res_calls = sum(calls[r] for r in RESIDUALS)
    attempted = counts["continuation.steps_attempted"]
    return {
        "continuation.newton_solve.calls": calls["continuation.newton_solve"] * per,
        "continuation.newton_solve.self_s": self_s["continuation.newton_solve"] * per,
        "continuation.newton_iters": counts["continuation.newton_iters"] * per,
        "continuation.linesearch_evals": linesearch * per,
        "continuation.steps_attempted": attempted * per,
        "continuation.steps_accepted": counts["continuation.steps_accepted"] * per,
        "continuation.accept_ratio": (counts["continuation.steps_accepted"] / attempted
                                      if attempted else 0.0),
        "continuation.svd.calls": counts["continuation.svd.calls"] * per,
        "continuation.svd.s": counts["continuation.svd.s"] * per,
        "continuation.svd.max_s": tracer.svd_max_s,
        "linearization.jacobian_fd.calls": calls["linearization.jacobian_fd"] * per,
        "linearization.jacobian_fd.self_s": self_s["linearization.jacobian_fd"] * per,
        "linearization.jacobian_columns": counts["linearization.jacobian_columns"] * per,
        "linearization.jacobian_fd.share": total_s["linearization.jacobian_fd"] / op_seconds,
        "operators.residual_inf.calls": calls["operators.residual_inf"] * per,
        "operators.residual_inf.self_s": self_s["operators.residual_inf"] * per,
        "operators.residual_fd.calls": calls["operators.residual_fd"] * per,
        "operators.residual_fd.self_s": self_s["operators.residual_fd"] * per,
        "operators.residual_us": (1e6 * sum(total_s[r] for r in RESIDUALS) / res_calls
                                  if res_calls else 0.0),
        "spectral.self_s": layer_self["spectral"] * per,
        "spectral.mul.calls": calls["spectral.mul"] * per,
        "spectral.mul.self_s": self_s["spectral.mul"] * per,
        "spectral.transform.calls": sum(calls[t] for t in TRANSFORMS) * per,
        "spectral.transform.self_s": sum(self_s[t] for t in TRANSFORMS) * per,
        "spectral.objects": counts["spectral.objects"] * per,
        "spectral.fft.calls": counts["spectral.fft.calls"] * per,
        "spectral.fft.points": counts["spectral.fft.points"] * per,
        "spectral.fft.s": counts["spectral.fft.s"] * per,
        "spectral.fft.gflop_computed": counts["spectral.fft.flop"] * per / 1e9,
        "geometry.check_injective.calls": calls["geometry.check_injective"] * per,
        "geometry.check_injective.self_s": self_s["geometry.check_injective"] * per,
        "geometry.surface_profile.self_s": self_s["geometry.surface_profile"] * per,
        "geometry.points_checked": counts["geometry.points_checked"] * per,
        "geometry.crossings_found": counts["geometry.crossings_found"] * per,
        "geometry.spans": geo_spans * per,
        "geometry.share": sum(layer_self[g] for g in GEOMETRY_LAYERS) / op_seconds,
        "kernels.segment_crossings.calls": calls["kernels.segment_crossings"] * per,
        "kernels.segment_crossings.s": total_s["kernels.segment_crossings"] * per,
        "kernels.segments": counts["kernels.segments"] * per,
        "serialization.self_s": layer_self["serialization"] * per,
        "serialization.bytes_written": counts["serialization.bytes_written"] * per,
        "cli.main.self_s": self_s["cli.main"] * per,
    }


# the names layer_metrics reports, read off an empty trace
PER_LAYER_NAMES = tuple(layer_metrics(Tracer(), 1, 1.0)) + (
    "trace.op_s.p50.untraced", "trace.op_s.p50.traced", "trace.overhead",
    "trace.spans", "trace.count_drift")
UNITS = {name: _unit(name) for name in PER_LAYER_NAMES}
