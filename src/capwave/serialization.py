"""Deterministic on-disk formats: solution/branch JSON, CSV summaries, SVG.

Floating-point values are printed with 17 significant digits (lossless for
IEEE doubles) and every object is written with a fixed field order, so
identical inputs produce byte-identical files.  Infinite depth is stored as
JSON null / CSV "inf".
"""

from __future__ import annotations

import json
import math

import numpy as np

from .continuation import Branch, WaveSolution
from .operators import WaveParams
from .spectral import PeriodicFunction

FORMAT_VERSION = 1

BRANCH_CSV_COLUMNS = ("A_start", "alpha", "beta", "gamma", "h", "residual_inf_norm",
                      "b_or_qhat", "steepness", "injective", "above_bed", "newton_iters")


def format_float(x: float) -> str:
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        return "-0.0"  # "%.17g" gives "-0", which JSON reads back as the integer 0
    return "%.17g" % x if math.isfinite(x) else "null"


def dumps_fixed(obj, indent: int = 0) -> str:
    """JSON writer with %.17g floats and insertion-ordered keys."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(str(k))}: {dumps_fixed(v, indent + 1)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps_fixed(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {dumps_fixed(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    return json.dumps(obj)


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a full disk raises at write or close, with no filename
        exc.filename = exc.filename or str(path)
        raise


def write_json(path, obj) -> None:
    write_text(path, dumps_fixed(obj) + "\n")


# -- solutions ------------------------------------------------------------------


def solution_to_dict(sol: WaveSolution) -> dict:
    p = sol.params
    return {
        "format_version": FORMAT_VERSION,
        "params": {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma,
                   "h": None if p.is_infinite else p.h, "g": p.g, "sigma": p.sigma},
        "depth_mode": "infinite" if p.is_infinite else "finite",
        "n_grid": sol.w.n_grid,
        "cosine_coeffs": list(sol.w.cosine_coefficients(sol.modes)),
        "residual_norm": sol.residual_norm,
        "diagnostics": {"b_or_qhat": sol.b_or_qhat, "newton_iters": sol.newton_iters,
                        "sigma_min": sol.sigma_min, **sol.geometry},
    }


def _float_or_nan(v) -> float:
    # format_float writes NaN (and inf) as null
    return math.nan if v is None else float(v)


def _check_document(d, what: str) -> None:
    """Refuse a `what` document that is not a JSON object of FORMAT_VERSION."""
    if not isinstance(d, dict):
        raise ValueError(f"a {what} must be a JSON object")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {d.get('format_version')!r}")


def solution_from_dict(d: dict) -> WaveSolution:
    """Inverse of `solution_to_dict`; a document of the wrong shape raises
    KeyError, TypeError or ValueError."""
    _check_document(d, "solution")
    pr = d["params"]
    h = float(pr["h"]) if pr["h"] is not None else math.inf
    params = WaveParams(alpha=float(pr["alpha"]), beta=float(pr["beta"]), g=float(pr["g"]),
                        sigma=float(pr["sigma"]), gamma=float(pr["gamma"]), h=h)
    coeffs = np.asarray(d["cosine_coeffs"], dtype=float)
    if coeffs.ndim != 1:
        raise ValueError("cosine_coeffs must be a list of numbers")
    if not np.isfinite(coeffs).all():  # a JSON null reads as NaN
        raise ValueError("cosine_coeffs must be finite numbers")
    w = PeriodicFunction.from_cosine_series(coeffs, d["n_grid"])
    diag = dict(d.get("diagnostics", {}))  # the pops leave the solve's report
    return WaveSolution(params=params, w=w,
                        residual_norm=_float_or_nan(d["residual_norm"]),
                        b_or_qhat=_float_or_nan(diag.pop("b_or_qhat", None)),
                        newton_iters=int(diag.pop("newton_iters", 0)),
                        modes=len(coeffs),
                        sigma_min=_float_or_nan(diag.pop("sigma_min", None)),
                        residual_history=(), geometry=diag)


# -- branches -------------------------------------------------------------------


def branch_to_dict(branch: Branch) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "start_A": branch.start_A,
        "solutions": [solution_to_dict(s) for s in branch.solutions],
        "step_history": [{"alpha": a, "beta": b, "step": s, "accepted": acc}
                         for (a, b, s, acc) in branch.step_history],
    }


def branch_from_dict(d: dict) -> Branch:
    """Inverse of `branch_to_dict`; a document of the wrong shape raises
    KeyError, TypeError or ValueError."""
    _check_document(d, "branch")
    branch = Branch(start_A=float(d["start_A"]))
    branch.solutions = [solution_from_dict(s) for s in d["solutions"]]
    branch.step_history = [(e["alpha"], e["beta"], e["step"], bool(e["accepted"]))
                           for e in d["step_history"]]
    return branch


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)) and math.isfinite(v):
        return format_float(v)
    return str(v)  # ints, strings, and inf, -inf, nan as the CSV files spell them


def csv_text(columns, rows) -> str:
    """CSV with a header line; floats with 17 digits, bools as true/false."""
    lines = [",".join(columns)] + [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def branch_csv_text(branch: Branch) -> str:
    return csv_text(BRANCH_CSV_COLUMNS, [
        (branch.start_A, s.params.alpha, s.params.beta, s.params.gamma,
         s.params.h, s.residual_norm, s.b_or_qhat,
         s.geometry["steepness"], s.geometry["injective"], s.geometry["above_bed"],
         s.newton_iters)
        for s in branch.solutions])


# -- profile SVG -------------------------------------------------------------------


def profile_svg_text(x, y, crossings) -> str:
    """Unit-square SVG polyline with 5% margins; crossings drawn as circles."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    span = max(float(np.max(x) - np.min(x)), float(np.max(y) - np.min(y)), 1e-30)
    scale = 0.9 / span
    x0 = 0.5 - 0.5 * scale * (np.max(x) + np.min(x))
    y0 = 0.5 + 0.5 * scale * (np.max(y) + np.min(y))
    px = x0 + scale * x
    py = y0 - scale * y  # SVG y points down
    pts = " ".join(["%.6f,%.6f"] * len(px)) % tuple(np.column_stack((px, py)).ravel().tolist())
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">',
             f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="0.003"/>']
    for cx, cy in np.asarray(crossings, dtype=float).reshape(-1, 2):
        parts.append(f'<circle cx="{x0 + scale * cx:.6f}" cy="{y0 - scale * cy:.6f}" '
                     'r="0.01" fill="none" stroke="red" stroke-width="0.003"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
