"""The benchmark workloads: seeded op inputs, the timed op, and the
validation of its result outside the timed span.

A run's inputs are one Latin-hypercube sample: every input range is cut into
as many strata as the run has ops, and each op takes one stratum of each
range.  Op cost varies by a factor of up to 30 across a range, and it moves
in whole Newton iterations or bisection steps, so the mix of cheap and costly
ops must not depend on the seed: which strata go together in one op is fixed,
and the seed only places each op inside its strata and sets the order of the
ops.  The number of ops follows from the run's seconds and a fixed nominal op
time, never from how fast the ops ran, so a run of one version of the code
and a run of another time the same inputs.  The inputs of a run depend on its
seed and op count only.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

# CLI default Newton tolerance; converged sheet points read 1e-15 to 1e-13
# both through capwave and through the raw-numpy oracle
SHEET_TOL = 1e-11
RESTART_COEFF_TOL = 1e-6  # criterion-10 bound on the coefficient mismatch
THRESHOLD_A = 0.4546     # self-intersection threshold of the explicit family
THRESHOLD_ATOL = 2e-3
MIN_OPS = 3
PAIRING_SEED = 0  # which strata of the ranges go together, the same in every run


class OpFailed(Exception):
    """The op produced no result: nonzero exit or missing output."""


class ValidationError(Exception):
    """The op produced a result that is wrong."""


def latin_hypercube(rng, k: int, ranges) -> list[list[float]]:
    """k points; along each range, one in the middle half of each of its k
    equal strata.  The pairing of strata comes from PAIRING_SEED; `rng` only
    places each point inside its strata, so the spread of op cost across seeds
    stays small."""
    pairing = np.random.default_rng(PAIRING_SEED)
    cols = []
    for lo, hi in ranges:
        u = (pairing.permutation(k) + rng.uniform(0.25, 0.75, k)) / k
        cols.append([round(float(lo + (hi - lo) * v), 6) for v in u])
    return [list(p) for p in zip(*cols)]


class Workload:
    name = ""
    why = ""
    # mean op seconds at the seed commit (2-core x86 host, BLAS on 1 thread)
    op_s_nominal = 1.0
    ranges: tuple[tuple[float, float], ...] = ()
    residual_grids: tuple[int, ...] = ()
    geometry_grids: tuple[int, ...] = ()

    def __init__(self, capwave, oracles):
        self.cw = capwave
        self.oracles = oracles

    def n_ops(self, seconds: float) -> int:
        return max(MIN_OPS, round(seconds / self.op_s_nominal))

    def inputs(self, seed: int, n: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        ops = [self.make_input(i, p)
               for i, p in enumerate(latin_hypercube(rng, n, self.ranges))]
        return [ops[j] for j in rng.permutation(n)]

    def warm_up(self):
        """Fill the grid and FFT plan caches at every size the ops use."""
        cw = self.cw
        A = 0.3
        for n in self.residual_grids:
            w = cw.crapper.crapper_wave(A, n)
            cw.operators.residual_inf(cw.operators.WaveParams(0.0, cw.crapper.beta_of(A)), w)
            cw.operators.residual_fd(cw.operators.WaveParams(0.01, cw.crapper.beta_of(A),
                                                             h=2.0, gamma=0.5), w)
        for n in self.geometry_grids:
            cw.geometry.surface_profile(cw.crapper.crapper_wave(A, n), 1.0)


# -- continuation sheets through the CLI -------------------------------------------


class Sheet(Workload):
    """One op: an in-process ``capwave continue`` writing into its own directory.

    One continuation step after the start point keeps an op near 2 s, so a
    run holds about ten ops and its median moves little with any one of them.
    """

    steps = 1
    svg = True

    def argv(self, inp: dict, workdir: Path) -> list[str]:
        args = ["continue", "--A", str(inp["A"]), "--alpha-max", str(inp["alpha_max"]),
                "--steps", str(self.steps), "--g", "1", "--sigma", "1",
                "--out-json", str(workdir / "branch.json"),
                "--out-csv", str(workdir / "branch.csv")]
        if "h" in inp:
            args += ["--h", str(inp["h"]), "--gamma", str(inp["gamma"])]
        if "M" in inp:
            args += ["--M", str(inp["M"])]
        if self.svg:
            args += ["--svg-dir", str(workdir / "svg")]
        return args

    def run(self, inp: dict, workdir: Path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cw.cli.main(self.argv(inp, workdir))
        return code, err.getvalue()

    def validate(self, inp: dict, raw, workdir: Path) -> int:
        code, err = raw
        if code != 0:
            raise OpFailed(f"exit code {code}: {err.strip()}")
        path = workdir / "branch.json"
        if not (workdir / "branch.csv").is_file() or not path.is_file():
            raise OpFailed("branch JSON or CSV missing")
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return self.check_branch(inp, data, workdir)

    def check_branch(self, inp: dict, data: dict, workdir: Path | None = None) -> int:
        cw = self.cw
        branch = cw.serialization.branch_from_dict(data)
        want = self.steps + 1
        if len(branch.solutions) != want:
            raise ValidationError(f"{len(branch.solutions)} accepted points, expected {want}")
        if branch.start_A != inp["A"]:
            raise ValidationError(f"branch starts at A={branch.start_A}, asked {inp['A']}")
        for i, (sol, raw) in enumerate(zip(branch.solutions, data["solutions"])):
            deep = sol.depth.is_infinite
            residual = cw.operators.residual_inf if deep else cw.operators.residual_fd
            r = residual(sol.params, sol.w).norm_inf()
            if not r < SHEET_TOL:
                raise ValidationError(f"point {i}: residual {r:.3e} >= {SHEET_TOL}")
            if deep:
                r_oracle = self.oracle_residual(raw)
                if not r_oracle < SHEET_TOL:
                    raise ValidationError(f"point {i}: oracle residual {r_oracle:.3e}")
        if workdir is not None and self.svg:
            n_svg = len(list((workdir / "svg").glob("step_*.svg")))
            if n_svg != want:
                raise ValidationError(f"{n_svg} SVG files, expected {want}")
        return want

    def oracle_residual(self, sol: dict) -> float:
        """Deep residual of a stored point by the raw-numpy oracle, built from
        the JSON coefficients without capwave's spectral code."""
        a = np.asarray(sol["cosine_coeffs"], dtype=float)
        n_grid = int(sol["n_grid"])
        t = 2.0 * np.pi * np.arange(n_grid) / n_grid
        k = np.arange(1, len(a) + 1)
        cos, sin = np.cos(np.outer(t, k)), np.sin(np.outer(t, k))
        w = cos @ a
        wp = -sin @ (k * a)
        cwp = cos @ (k * a)
        wpp = -cos @ (k * k * a)
        p = sol["params"]
        r = self.oracles.deep_residual_on_samples(p["alpha"], p["beta"], w, wp, cwp, wpp)
        return float(np.max(np.abs(r)))


class DeepSheet(Sheet):
    name = "deep_sheet"
    why = ("the paper's main computation on the user-facing path: deep-water "
           "continue at M=128 with JSON, CSV and SVG output")
    op_s_nominal = 2.5
    # |A|, alpha_max; the sign of A alternates along the design, so half the
    # ops of every run start below zero
    ranges = ((0.15, 0.44), (0.02, 0.05))
    residual_grids = (512,)
    geometry_grids = (1024,)

    def make_input(self, i, p):
        mag, x = p
        return {"A": mag if i % 2 == 0 else -mag, "alpha_max": x}


class VorticalSheet(Sheet):
    name = "vortical_sheet"
    why = ("finite depth with vorticity: the same Newton/Jacobian layers through "
           "residual_fd and hilbert_strip, twice the mul calls per evaluation")
    op_s_nominal = 2.0
    svg = False
    ranges = ((0.2, 0.4), (1.5, 4.0), (-1.0, 1.0))
    residual_grids = (256,)
    geometry_grids = (1024,)

    def make_input(self, i, p):
        a, h, gamma = p
        return {"A": a, "h": h, "gamma": gamma, "M": 64, "alpha_max": 0.02}


# -- restarts on the pure-capillary curve --------------------------------------------


class FamilyRestarts(Workload):
    name = "family_restarts"
    why = ("perturbed Newton restarts on the Crapper curve, M from 16 to 160: "
           "Jacobian-bound with geometry off, so geometry work is bypassed")
    op_s_nominal = 1.0
    # one coordinate over the 1.4 of parameter space in -[0.1,0.8] and [0.1,0.8]
    ranges = ((0.0, 1.4),)
    residual_grids = (64, 128, 256, 512)

    def make_input(self, i, p):
        u = p[0]
        A = -0.8 + u if u < 0.7 else u - 0.6
        return {"A": round(A, 6)}

    def run(self, inp, workdir):
        return self.cw.continuation.crapper_curve_check([inp["A"]])

    def validate(self, inp, rep, workdir=None) -> int:
        if not rep["all_on_family"]:
            raise ValidationError("restart left the explicit family")
        err = rep["max_coefficient_error"]
        if not err < RESTART_COEFF_TOL:
            raise ValidationError(f"coefficient error {err:.3e} >= {RESTART_COEFF_TOL}")
        return 1


# -- the self-intersection threshold --------------------------------------------------


class ThresholdSweep(Workload):
    name = "threshold_sweep"
    why = ("bisection for the self-intersection threshold A*: nearly all time in "
           "the segment-crossing sweep, so Newton work is bypassed")
    op_s_nominal = 2.0
    ranges = ((0.2, 0.4), (0.5, 0.9))
    # one grid for every op: a mix of grids makes the op times bimodal
    geometry_grids = (1024,)

    def make_input(self, i, p):
        return {"lo": p[0], "hi": p[1], "n_grid": 1024}

    def run(self, inp, workdir):
        return self.cw.geometry.critical_self_intersection_A(
            tol=1e-3, n_grid=inp["n_grid"], lo=inp["lo"], hi=inp["hi"])

    def validate(self, inp, a_star, workdir=None) -> int:
        if not abs(a_star - THRESHOLD_A) <= THRESHOLD_ATOL:
            raise ValidationError(f"threshold {a_star} outside {THRESHOLD_A} +- {THRESHOLD_ATOL}")
        return 1


WORKLOADS = {w.name: w for w in (DeepSheet, VorticalSheet, FamilyRestarts, ThresholdSweep)}
