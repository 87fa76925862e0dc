"""Free-surface reconstruction and physical admissibility checks.

A profile w on the conformal grid maps to the surface curve

    S = { ((t + C w(t))/k, w(t)/k) : t in R },

which advances by one wavelength 2*pi/k per period of t.  A valid wave must
keep this curve injective (no trapped air pockets) and above the bed
(w > -kh in finite depth); both are checked here, along with the
crest-to-trough steepness and the parameter threshold where the explicit
pure-capillary family starts self-intersecting.

`solution_curve` draws a solution at the physical wavenumber k(alpha, beta)
(strip conjugation at d = hk in finite depth) when alpha > 0 and in conformal
units (k = 1) otherwise; `solution_report` holds the flags of every Newton
solution.  Each crossing is counted once per period (see `check_injective`).
The threshold bisection draws the explicit family from F_A's closed form
(`crapper.circle_samples`) instead of through `surface_profile`'s transforms,
and sweeps the polyline check_injective would sweep, built by swept()'s
builder from the least and greatest x its guard has taken; a curve with a
point past its period's mirror axes has crossed itself and is not swept
(crapper_profile_injective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import crapper
from ._kernels import ENDPOINT_BAND, segment_crossings
from .spectral import PeriodicFunction, hilbert, hilbert_strip, grid
from .operators import WaveParams, conformal_metric

GEOMETRY_POINTS = 1024


@dataclass(frozen=True)
class SurfaceCurve:
    """One period of the free surface; x advances by 2*pi/k per period."""

    x: np.ndarray
    y: np.ndarray
    k: float

    def __post_init__(self):
        if len(self.x) != len(self.y) or len(self.x) < 4:
            raise ValueError("curve needs matching x/y arrays with >= 4 points")
        if not self.k > 0.0:
            raise ValueError("wavenumber must be positive")
        self.x.flags.writeable = False
        self.y.flags.writeable = False

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.k

    def swept(self) -> tuple[np.ndarray, np.ndarray]:
        """The polyline that check_injective sweeps: the base period and its
        copies x + k*period for k below ceil((R - min x) / period), R = max(max
        x, x[0] + period), where the base's segments end, closed by point 0 of
        the next copy."""
        if len(self.x) < 64:
            raise ValueError("injectivity check needs at least 64 points")
        return _whole_periods(self.x, self.y, self.period, self.x.min(), self.x.max())


def _whole_periods(x, y, period, x_min, x_max):
    """SurfaceCurve.swept() of the period (x, y) whose least and greatest x are
    x_min and x_max, written into two arrays; copy 0 too is x + 0.0, so a -0.0
    in x turns +0.0 as in every other copy."""
    n = len(x)
    count = math.ceil((max(x_max, x[0] + period) - x_min) / period)
    sx, sy = np.empty(count * n + 1), np.empty(count * n + 1)
    for k in range(count):
        np.add(x, k * period, out=sx[k * n:(k + 1) * n])
        sy[k * n:(k + 1) * n] = y
    sx[-1], sy[-1] = x[0] + count * period, y[0]
    return sx, sy


@dataclass(frozen=True)
class InjectivityReport:
    crossings: np.ndarray  # (n, 2) crossing points, each on its base-period segment


def surface_profile(w: PeriodicFunction, k: float, d: float | None = None,
                    n_points: int | None = None) -> SurfaceCurve:
    """Surface curve ((t + C w)/k, w/k); strip conjugation when d is given."""
    if not k > 0.0:
        raise ValueError("wavenumber must be positive")
    conformal_metric(w, d)  # rejects degenerate parameterisations
    if n_points is not None and n_points != w.n_grid:
        w = w.resample(n_points)
    cw = hilbert(w) if d is None else hilbert_strip(w, d)
    t = grid(w.n_grid)
    return SurfaceCurve(x=(t + cw.samples) / k, y=w.samples / k, k=k)


def check_injective(curve: SurfaceCurve) -> InjectivityReport:
    """Crossings of the periodic curve, one per pair of segments that meet,
    counted where the lower segment of the pair lies in the base period (see
    SurfaceCurve.swept)."""
    hits = segment_crossings(*curve.swept(), owned=len(curve.x))
    return InjectivityReport(crossings=hits)


def solution_curve(params: WaveParams, w: PeriodicFunction,
                   n_points: int | None = None) -> SurfaceCurve:
    """Surface of a solution (see the module docstring), on `n_points` or
    max(GEOMETRY_POINTS, grid of w) points."""
    k = params.k if params.alpha > 0.0 else 1.0
    d = None if params.is_infinite or params.alpha <= 0.0 else params.h * k
    return surface_profile(w, k, d=d, n_points=n_points or max(GEOMETRY_POINTS, w.n_grid))


def solution_report(params: WaveParams, w: PeriodicFunction) -> dict:
    """The diagnostics that a solution file keeps, in file order; violations
    never fail the solve, only mark it."""
    curve = solution_curve(params, w)
    count = len(check_injective(curve).crossings)
    finite = params.alpha > 0.0 and not params.is_infinite
    return {"steepness": steepness(w), "injective": count == 0,
            "above_bed": check_above_bed(w, curve.k, params.h) if finite else True,
            "crossing_count": count}


def check_above_bed(w: PeriodicFunction, k: float, h: float) -> bool:
    """Whether the surface stays above the bed: min w > -k*h."""
    if not (k > 0.0 and h > 0.0 and math.isfinite(h)):
        raise ValueError("above-bed check needs k > 0 and finite h > 0")
    return bool(np.min(w.samples) + k * h > 0.0)


def steepness(w: PeriodicFunction) -> float:
    """Crest-to-trough height over wavelength, (max w - min w)/(2*pi).

    Independent of the wavenumber: both coordinates of the surface scale by 1/k.
    """
    return float((np.max(w.samples) - np.min(w.samples)) / (2.0 * math.pi))


def crapper_profile_injective(A: float, n_grid: int) -> bool:
    """Whether the explicit profile at A is injective on n_grid points, drawn
    from F_A's closed form (see crapper) with check_injective's refusals.  No
    metric refusal is needed: W >= ((1-|A|)/(1+|A|))^4 >= 6.4e-10 at |A| <=
    A_CAP, far above surface_profile's floor.

    A point more than ENDPOINT_BAND left of x[0] (0.0 exactly, from
    circle_samples) or right of x[0] + 2*pi answers "crosses" at once.  The
    curve C(t) = (x(t), y(t)) is symmetric about every line x = k*pi: f(t) =
    t - x(t) is odd and 2*pi-periodic, and y is even.  If x(t1) > 2*pi for
    some t1 in (0, 2*pi), then x(s) = 2*pi at some s in (0, t1), as x(0) =
    0, so C(4*pi - s) = (4*pi - x(s), y(s)) = C(s), and s != pi as x(pi) =
    pi: two parameters reach one point.  A point left of x = 0 meets its
    mirror image C(-s) = C(s) likewise.  Within the band, rounding can put a
    point a few ulps past an axis where the sweep counts no crossing, so
    those curves are swept.  Every other curve is decided by the sweep on
    the polyline check_injective sweeps (swept()'s, built from the guard's
    x_min and x_max): its early returns answer for the curves that rise in x
    and the injective ones past the fold, its sort for a loop inside the
    period (A < 0)."""
    A = crapper._check_param(A)
    x, y = crapper.circle_samples(A, n_grid)
    if n_grid < 64:
        raise ValueError("injectivity check needs at least 64 points")
    x_min, x_max = x.min(), x.max()
    if x_min < x[0] - ENDPOINT_BAND or x_max > x[0] + 2.0 * math.pi + ENDPOINT_BAND:
        return False
    return not len(segment_crossings(*_whole_periods(x, y, 2.0 * math.pi, x_min, x_max), n_grid))


def critical_self_intersection_A(tol: float = 1e-3, n_grid: int = 2048,
                                 lo: float = 0.2, hi: float = 0.9) -> float:
    """Bisect the parameter where the explicit pure-capillary profiles start
    to self-intersect; injective below, crossing above, bracket width <= tol."""
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if tol < 1e-4:
        raise ValueError(f"tol below 1e-4 is refused on every grid (a fixed floor), got {tol:g}")
    if crapper_profile_injective(hi, n_grid):
        raise RuntimeError(f"expected a self-intersecting profile at A={hi}")
    while not crapper_profile_injective(lo, n_grid):
        lo *= 0.5
        if abs(lo) < 1e-3:
            raise RuntimeError("failed to bracket the self-intersection threshold")
    if hi <= lo:  # the loop below would not run and return the midpoint
        raise ValueError(f"need lo < hi once lo is injective, got lo={lo}, hi={hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if crapper_profile_injective(mid, n_grid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
