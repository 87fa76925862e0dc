"""Command-line front end.

Subcommands: verify | spectrum | continue | profile | limit-check.  Flags can
also come from a JSON config file (--config PATH); explicit flags win.  All
outputs are UTF-8 and byte-deterministic for a fixed configuration.

Exit codes: 0 success, 1 usage/config error, an unwritable output, another
OS error (its message alone) or out of memory, 2 tolerance failure, 3 solver
failure (partial branch saved; nothing is written when the first point fails).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import itertools
import json
import math
import os
import re
import sys
from functools import partial

import numpy as np

from . import crapper, geometry
from .continuation import (
    DEFAULT_M,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    NewtonError,
    StepUnderflowError,
    continue_branch,
)
from .linearization import INJECTIVITY_TOL, angle_grid, jacobian_fd, recurrence_scan
from .operators import WaveParams, bernoulli_b, residual_G, residual_fd, residual_inf, theta_of
from .serialization import (
    branch_csv_text,
    branch_to_dict,
    csv_text,
    dumps_fixed,
    profile_svg_text,
    solution_from_dict,
    write_json,
    write_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_SOLVER = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)  # --g must not match --grid
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        super().__init__(*args, **kwargs)
        # argparse alone takes -1e-3, -inf or -nan for a flag, not for a value
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    @property
    def flag_types(self):  # dest -> type of every flag but --help, to check config values
        return {a.dest: a.type for a in self._actions if a.default is not argparse.SUPPRESS}

    def error(self, message):
        raise CliError(message)


def _add_constants(p):
    # only the commands that leave scaled variables need dimensional constants
    p.add_argument("--g", type=float, default=9.81, help="gravity")
    p.add_argument("--sigma", type=float, default=0.074, help="surface tension coefficient")


def build_parser():
    top = _Parser(prog="capwave",
                  description="Steady capillary-gravity waves in the conformal "
                              "formulation: verification, spectra, continuation.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the explicit pure-capillary family")
    p.add_argument("--A", type=float, default=0.5, help="family parameter in (-1, 1)")
    p.add_argument("--grid", type=int, default=None, help="collocation points (unset: from A)")
    p.add_argument("--out", type=str, default=None, help="JSON report path")

    p = sub.add_parser("spectrum", help="linearisation spectrum along the family")
    p.add_argument("--A-values", type=str, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                   help="comma-separated parameters")
    p.add_argument("--M", type=int, default=64, help="sine modes kept")
    p.add_argument("--out-json", type=str, default=None, help="JSON report path")
    p.add_argument("--out-csv", type=str, default=None, help="CSV table path")

    p = sub.add_parser("continue", help="continue the solution sheet in (alpha, beta)")
    p.add_argument("--A", type=float, default=0.3, help="starting parameter (nonzero)")
    p.add_argument("--alpha-start", type=float, default=0.0, help="first alpha (<= 0)")
    p.add_argument("--alpha-max", type=float, default=0.05, help="last alpha")
    p.add_argument("--steps", type=int, default=10, help="alpha steps")
    p.add_argument("--beta-max", type=float, default=None,
                   help="sweep beta rows up to this value (row-major 2-D grid)")
    p.add_argument("--beta-steps", type=int, default=None, help="beta rows")
    p.add_argument("--h", type=float, default=None, help="conformal depth (unset: deep water)")
    p.add_argument("--gamma", type=float, default=0.0, help="constant vorticity")
    p.add_argument("--M", type=int, default=DEFAULT_M, help="cosine modes")
    p.add_argument("--grid", type=int, default=None, help="grid points (unset: from M and A)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="Newton residual tolerance")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, help="Newton iterations")
    p.add_argument("--out-json", type=str, default="branch.json", help="branch JSON path")
    p.add_argument("--out-csv", type=str, default="branch.csv", help="branch CSV path")
    p.add_argument("--svg-dir", type=str, default=None, help="one profile SVG per step")
    _add_constants(p)

    p = sub.add_parser("profile", help="surface curve of a stored solution")
    p.add_argument("--input", type=str, default=None, help="solution JSON")
    p.add_argument("--out-csv", type=str, default=None, help="profile CSV path")
    p.add_argument("--out-svg", type=str, default=None, help="profile SVG path")
    p.add_argument("--repeats", type=int, default=1, help="periods drawn")

    p = sub.add_parser("limit-check", help="finite-depth residual decay towards the deep limit")
    p.add_argument("--A", type=float, default=0.5, help="family parameter in (-1, 1)")
    p.add_argument("--gamma", type=float, default=1.0, help="constant vorticity")
    p.add_argument("--h", type=float, default=2.0, help="conformal depth")
    p.add_argument("--alphas", type=str, default="1e-2,1e-3,1e-4",
                   help="comma-separated positive alphas")
    p.add_argument("--grid", type=int, default=None, help="collocation points (unset: from A)")
    p.add_argument("--out", type=str, default=None, help="JSON report path")
    _add_constants(p)
    for p in sub.choices.values():
        p.add_argument("--config", type=str, default=None, help="JSON file of flag defaults")
    top.commands = sub.choices
    return top


# JSON types a config value may have, and their name, by the type of its flag
# (bool is an int subclass in Python but never a number here)
_JSON_TYPES = {float: ((int, float), "a number"), int: ((int,), "an integer"),
               str: ((str,), "a string")}


def _config_defaults(path, flag_types):
    """The flag values of a config file, checked against their flags; a null
    value leaves the flag's own default."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    defaults = {}
    for key, val in cfg.items():
        dest = key.replace("-", "_")
        if dest not in flag_types:
            raise CliError(f"unknown config key {key!r}")
        kind = flag_types[dest]
        if val is None:
            continue
        types, name = _JSON_TYPES[kind]
        if isinstance(val, bool) or not isinstance(val, types):
            raise CliError(f"config key {key!r} needs {name}, got {val!r}")
        defaults[dest] = val
    return defaults


def _floats(flag, text):
    """The comma-separated numbers of `flag`: at least one, since a check of
    nothing must not pass."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise CliError(f"bad {flag}: {exc}")
    if not values:
        raise CliError(f"{flag} needs at least one value")
    return values


def _emit(report, path=None, outputs=()):
    """End a command: write each (writer, path, content) of `outputs` that
    has a path, in turn (a generator builds each when it is due), then the
    report's text to `path` if given, and raise the first failure only after
    all; print the report; return exit 2 if it says it did not pass."""
    text = dumps_fixed(report) + "\n"
    failures = []
    for writer, out, content in itertools.chain(outputs, [(write_text, path, text)]):
        if not out:
            continue
        try:
            writer(out, content)
        except OSError as exc:
            failures.append(exc)
    if failures:
        raise failures[0]
    sys.stdout.write(text)
    return EXIT_OK if report.get("passed", True) else EXIT_TOLERANCE


# -- verify ---------------------------------------------------------------------


# verify's checks of Crapper's exact wave, each with the law of its rounding
# (floor, c, p, q): the tolerance is max(floor, c * eps * n^q * minW^-p) on n
# points, minW = ((1-|A|)/(1+|A|))^4 the least conformal metric.  p and q
# are fitted to the exact wave's values over |A| = 0.3..0.95 on min_grid(A,
# 512) and 4096 points, where they rise above a few ulps (|A| >= 0.6); c is
# the power of ten at least 10x the largest ratio read there.  The floor
# holds where the law is lower, below |A| ~ 0.75, and keeps those reports'
# bytes.  Past the fit the exact wave's residual outgrows its law (4x at
# 0.99), so minW stops at its value at |A| = 0.95 and verify fails where the
# rounding is no longer resolved
_VERIFY_LAWS = {"identity_residual": (1e-12, 100.0, 0.5, 0),
                "residual_inf_norm": (1e-9, 10.0, 1.5, 0),
                "bernoulli_deviation": (1e-11, 1.0, 1.0, 0),
                "residual_G_norm": (1e-10, 100.0, 0.25, 1),
                "theta_route_mismatch": (1e-10, 10.0, 1.0, 0)}


def _family(args):
    """The checked --A, --grid (unset: min_grid(A, 512)), Crapper's wave, beta_A."""
    A = crapper._check_param(args.A)
    n = crapper.min_grid(A, 512) if args.grid is None else args.grid
    return A, n, crapper.crapper_wave(A, n), crapper.beta_of(A)


def cmd_verify(args):
    A, n, w, beta = _family(args)
    a = min(abs(A), 0.95)
    checks, min_w = {}, ((1.0 - a) / (1.0 + a)) ** 4

    def record(name, value):
        floor, c, p, q = _VERIFY_LAWS[name]
        tol = max(floor, c * sys.float_info.epsilon * n ** q * min_w ** -p)
        checks[name] = {"value": value, "tolerance": tol, "pass": bool(value < tol)}

    record("identity_residual", crapper.verify_identity(A, n))
    params = WaveParams(alpha=0.0, beta=beta)
    record("residual_inf_norm", residual_inf(params, w).norm_inf())
    record("bernoulli_deviation", abs(bernoulli_b(0.0, w) - 1.0))
    if A != 0.0:
        theta = crapper.crapper_theta(A, n)
        record("residual_G_norm", residual_G(beta, theta).norm_inf())
        record("theta_route_mismatch",
               float(np.max(np.abs(theta_of(w).samples - theta.samples))))
    report = {"command": "verify", "A": A, "n_grid": n, "beta": beta,
              "checks": checks, "passed": all(c["pass"] for c in checks.values())}
    return _emit(report, args.out)


# -- spectrum ---------------------------------------------------------------------


def _spectrum_row(A, M):
    scan = recurrence_scan(A, M)
    beta = crapper.beta_of(A)
    n_grid = angle_grid(A, M)
    theta = crapper.crapper_theta(A, n_grid)
    fd = jacobian_fd(partial(residual_G, beta), theta, M, basis_in="sine")
    an = scan.matrix  # dG_matrix(A, M) on the same angle_grid(A, M)
    mismatch = float(np.linalg.norm(fd.entries - an.entries)
                     / np.linalg.norm(an.entries))
    consistent = (scan.verdict == "injective") == (scan.sigma_min > INJECTIVITY_TOL)
    return {"A": A, "sigma_min": scan.sigma_min, "verdict": scan.verdict,
            "kernel": scan.kernel_description, "fd_mismatch": mismatch,
            "a1_coefficient": scan.a1_coefficient, "a2_coefficient": scan.a2_coefficient,
            "consistent": consistent}


def cmd_spectrum(args):
    rows = [_spectrum_row(A, args.M) for A in _floats("--A-values", args.A_values)]
    passed = all(r["consistent"] and r["fd_mismatch"] <= 1e-4 for r in rows)
    report = {"command": "spectrum", "M": args.M, "rows": rows, "passed": passed}
    cols = ("A", "sigma_min", "verdict", "kernel", "fd_mismatch",
            "a1_coefficient", "a2_coefficient", "consistent")
    table = csv_text(cols, [[r[c] for c in cols] for r in rows])
    return _emit(report, args.out_json, [(write_text, args.out_csv, table)])


# -- continue ----------------------------------------------------------------------


def _build_schedule(args, beta0):
    if args.steps < 0:
        raise CliError("--steps must be at least 0")
    alphas = list(np.linspace(args.alpha_start, args.alpha_max, args.steps + 1))
    rows = 1 if args.beta_steps is None else args.beta_steps
    if rows < 1:
        raise CliError("--beta-steps must be at least 1")
    if (rows > 1) != (args.beta_max is not None):
        raise CliError("--beta-max and --beta-steps >= 2 go together")
    betas = list(np.linspace(beta0, args.beta_max, rows)) if rows > 1 else [beta0]
    schedule = []
    for row, b in enumerate(betas):
        row_alphas = alphas if row % 2 == 0 else list(reversed(alphas))
        for a in row_alphas:  # serpentine keeps consecutive targets adjacent
            if not schedule or schedule[-1] != (a, b):
                schedule.append((a, b))
    return schedule


def cmd_continue(args):
    # |A| < 1, A != 0, alpha-start <= 0, no gamma in deep water, and a positive
    # beta and (alpha > 0) a finite wavenumber at every target are checked by
    # the library before it solves; a finite --h and distinct files by `main`
    for flag, path in (("--out-json", args.out_json), ("--out-csv", args.out_csv)):
        if not path:  # every run writes both files
            raise CliError(f"{flag} needs a path")
    beta0 = crapper.beta_of(args.A)
    schedule = _build_schedule(args, beta0)
    code = EXIT_OK
    try:
        branch = continue_branch(args.A, schedule, h=math.inf if args.h is None else args.h,
                                 gamma=args.gamma, M=args.M,
                                 n_grid=args.grid, tol=args.tol, max_iter=args.max_iter,
                                 g=args.g, sigma=args.sigma)
    except StepUnderflowError as exc:
        sys.stderr.write(f"capwave continue: {exc}\n")
        branch = exc.branch
        code = EXIT_SOLVER

    def outputs():  # one SVG at a time; a directory not made fails each of them
        yield write_json, args.out_json, branch_to_dict(branch)
        yield write_text, args.out_csv, branch_csv_text(branch)
        if args.svg_dir:
            yield (lambda path, _: os.makedirs(path, exist_ok=True)), args.svg_dir, None
            for i, sol in enumerate(branch.solutions):
                yield (write_text, os.path.join(args.svg_dir, f"step_{i:04d}.svg"),
                       _solution_svg(sol)[0])

    _emit({"command": "continue", "accepted": len(branch.solutions),
           "attempts": len(branch.step_history),
           "out_json": args.out_json, "out_csv": args.out_csv}, outputs=outputs())
    return code


# -- profile -----------------------------------------------------------------------


def _solution_svg(sol, repeats=1):
    """SVG of `repeats` periods of a solution's surface with its crossings
    marked, and the crossings of one period."""
    curve = geometry.solution_curve(sol.params, sol.w)
    crossings = geometry.check_injective(curve).crossings
    shifts = [r * curve.period for r in range(repeats)]
    x = np.concatenate([curve.x + s for s in shifts])
    y = np.tile(curve.y, len(shifts))
    marks = np.concatenate([crossings + np.array([s, 0.0]) for s in shifts])
    return profile_svg_text(x, y, marks), crossings


def cmd_profile(args):
    if not args.input:
        raise CliError("profile needs --input SOLUTION.json")
    if args.repeats < 1:
        raise CliError("--repeats must be at least 1")
    try:
        with open(args.input, encoding="utf-8") as fh:
            sol = solution_from_dict(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        # KeyError, TypeError: a field is missing or has the wrong JSON type
        raise CliError(f"cannot load solution {args.input}: {exc}")
    # CSV at the stored grid so the profile round-trips losslessly
    curve_csv = geometry.solution_curve(sol.params, sol.w, n_points=sol.w.n_grid)
    svg, crossings = _solution_svg(sol, args.repeats)
    points = csv_text(("X", "Y"), zip(curve_csv.x, curve_csv.y))
    return _emit({"command": "profile", "input": args.input, "points": len(curve_csv.x),
                  "injective": bool(len(crossings) == 0), "crossings": int(len(crossings))},
                 outputs=[(write_text, args.out_csv, points), (write_text, args.out_svg, svg)])


# -- limit-check ---------------------------------------------------------------------


def cmd_limit_check(args):
    alphas = _floats("--alphas", args.alphas)
    if any(a <= 0 for a in alphas):
        raise CliError("--alphas must be positive (the limit is taken from above)")
    A, n, w, beta = _family(args)
    base = residual_inf(WaveParams(alpha=0.0, beta=beta, g=args.g, sigma=args.sigma), w)

    def difference(alpha):
        p = WaveParams(alpha=alpha, beta=beta, g=args.g, sigma=args.sigma,
                       gamma=args.gamma, h=args.h)
        return (residual_fd(p, w) - base).norm_inf()

    diffs = [difference(a) for a in alphas]
    exact_zero = difference(0.0)
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    flat = all(d == 0.0 for d in diffs)  # flat water solves FD and F alike
    report = {"command": "limit-check", "A": A, "gamma": args.gamma, "h": args.h,
              "n_grid": n, "alphas": alphas, "differences": diffs,
              "strictly_decreasing": decreasing,
              "zero_at_nonpositive_alpha": bool(exact_zero == 0.0),
              "passed": bool((decreasing or flat) and exact_zero == 0.0)}
    return _emit(report, args.out)


# -- entry -------------------------------------------------------------------------

# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _glibc():
    """The C library through ctypes where it is glibc, else None."""
    with contextlib.suppress(AttributeError, ValueError, OSError):  # no confstr, no such name
        if (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return ctypes.CDLL(None)
    return None


def _keep_heap():
    """On glibc, keep the heap that a stacked residual call frees for the
    next one: glibc trims the top of the heap after each call, and the next
    call faults those pages in again (17k-33k minor faults per `continue` at
    M = 128; a few dozen with the heap kept).  A raised trim threshold
    freezes glibc's dynamic mmap threshold, so that is set to the ceiling
    the dynamic one climbs to, and stack-sized buffers stay on the heap.
    The setting is the process's, so `main` makes it, not the import; it has
    the effect of MALLOC_TRIM_THRESHOLD_ and MALLOC_MMAP_THRESHOLD_ in the
    environment.  Does nothing on another C library."""
    mallopt = getattr(_glibc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long))
    mallopt(_M_TRIM_THRESHOLD, 256 * 1024 * 1024)


def _one_blas_thread():
    """Pin the OpenBLAS that numpy bundles to one thread: the bits of its
    solves and SVDs depend on its thread count, which follows the CPUs the
    process may use, so the outputs would depend on the machine.  One thread
    was also the faster at M = 128 on 2 CPUs (BENCH_21.json).  The setting
    is the process's, so `main` makes it, not the import.  Does nothing
    where numpy bundles no such library (another BLAS, a system numpy)."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                       "libscipy_openblas64_*")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable here, or no such symbol
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        set_threads(1)


_DISPATCH = {"verify": cmd_verify, "spectrum": cmd_spectrum, "continue": cmd_continue,
             "profile": cmd_profile, "limit-check": cmd_limit_check}


def main(argv=None) -> int:
    _keep_heap()
    _one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # the file replaces the defaults; parsed again, explicit flags win
            sub = parser.commands[args.command]
            sub.set_defaults(**_config_defaults(args.config, sub.flag_types))
            args = parser.parse_args(argv)
        if getattr(args, "h", None) is not None and math.isinf(args.h):  # continue, limit-check
            raise CliError("--h must be finite (continue without --h is deep water)")
        seen = {}  # real path -> the first flag that named it
        for dest, path in vars(args).items():  # no result lost to a bad output path
            if dest == "svg_dir" and path:
                # the nearest existing ancestor, which makedirs would build on;
                # exists("taken/") is false for a file, so the walk starts at "taken"
                up = path.rstrip(os.sep) or path
                while up and not os.path.exists(up):
                    up = os.path.dirname(up)
                if up and not os.path.isdir(up):
                    raise CliError(f"--svg-dir {path}: {up} exists and is not a directory")
            if dest.startswith("out") and path and os.path.isdir(path):  # --out, --out-*
                raise CliError(f"output file {path} is a directory")
            if dest.startswith("out") and path and not os.path.isdir(os.path.dirname(path) or "."):
                raise CliError(f"no directory for output file {path}")
            if path and (dest.startswith("out") or dest in ("svg_dir", "input", "config")):
                flag = f"--{dest.replace('_', '-')} {path}"  # an output would replace a file
                first = seen.setdefault(os.path.realpath(path), flag)
                if first != flag:
                    raise CliError(f"{first} and {flag} name the same file")
        # a trial that overflows is a failed step; numpy's warnings about it
        # would print module paths before the one-line message
        with np.errstate(over="ignore", invalid="ignore"):
            return _DISPATCH[args.command](args)
    except (CliError, ValueError) as exc:  # DegenerateMetricError is a ValueError
        sys.stderr.write(f"capwave: {exc}\n")
        return EXIT_USAGE
    except NewtonError as exc:
        sys.stderr.write(f"capwave: {exc}\n")
        return EXIT_SOLVER
    except OSError as exc:  # an output file that cannot be written, or no file at all
        what = "" if exc.filename is None else f"cannot write {exc.filename}: "
        sys.stderr.write(f"capwave: {what}{exc.strerror or exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:  # a grid or mode count too large for this machine
        sys.stderr.write(f"capwave: out of memory{': ' if str(exc) else ''}{exc}\n")
        return EXIT_USAGE


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
