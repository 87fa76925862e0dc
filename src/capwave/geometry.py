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
and each check stops at the first pass that decides it (crapper_profile_injective):
x rising, the closed period as two chains (the sweep's own early return, on
the polyline it would sweep), then the mirror axes; the sweep is the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import crapper
from ._kernels import _two_chains, pairs_cross, segment_crossings
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
        """The polyline that check_injective sweeps: copies x + k*period of the
        base period up to the segment of the last point past it at or left of
        R = max(max x, x[0] + period), where the base's segments end; no copy
        with every point right of R is built."""
        n, period = len(self.x), self.period
        if n < 64:
            raise ValueError("injectivity check needs at least 64 points")
        reach, left = max(self.x.max(), self.x[0] + period), self.x.min()
        x, stop = [], n + 1  # the base period closed by point n
        for k in range(math.ceil((reach - left) / period)):
            if left + k * period > reach:
                break
            x.append(self.x + k * period)
            if k:
                stop = k * n + 2 + np.flatnonzero(x[-1] <= reach)[-1]
        y = np.concatenate([self.y] * len(x) + [self.y[:1]])
        return np.concatenate(x + [self.x[:1] + len(x) * period])[:stop], y[:stop]


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
    A_CAP, far above surface_profile's floor.  The first pass that decides
    answers:
    - x rising strictly;
    - "injective": the closed base period (points 0..n of two periods) is
      two y-monotone chains split at t = pi (_kernels._two_chains), and no
      point lies left of x[0] or right of x[0] + period.  x[0] = 0.0, so
      swept() then builds one copy and closes it at point n: the sweep would
      take this polyline and return at the same test.  The guard matters:
      past A* at A > 0 the period alone is still two chains, and its lobes
      cross on x = 2*pi, between its end and the next copy's start;
    - "crosses": a pair across a shared mirror axis x = k*pi, where the
      lobes close, in two periods;
    - the sweep, the authority, which no curve of the family reaches."""
    A = crapper._check_param(A)
    x, y = crapper.circle_samples(A, n_grid)
    if n_grid < 64:
        raise ValueError("injectivity check needs at least 64 points")
    period = 2.0 * math.pi  # SurfaceCurve's at k = 1
    # swept()'s start, or more: a segment past its end meets no base one in x
    xx, yy = np.concatenate((x, x + period)), np.concatenate((y, y))
    closed = xx[:n_grid + 1], yy[:n_grid + 1]
    if (closed[0][1:] > closed[0][:-1]).all():
        return True
    if x.min() >= x[0] and x.max() <= x[0] + period and _two_chains(*closed):
        return True
    if pairs_cross(xx, yy, *mirror_axis_pairs(xx, n_grid)):
        return False
    return not len(segment_crossings(*SurfaceCurve(x=x, y=y, k=1.0).swept(), n_grid))


def mirror_axis_pairs(x: np.ndarray, owned: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) of segments across a shared line x = k*pi, i below `owned`.
    Each of the two has an end on either side of that line (floor(x/pi) is
    monotone in x), so their x-ranges meet, and pairs_cross takes them as
    they are."""
    q = np.floor(x / math.pi)
    axial = np.flatnonzero(q[1:] != q[:-1])
    a, b = q[axial], q[axial + 1]
    lo, hi = np.minimum(a, b), np.maximum(a, b)  # across the lines k*pi, lo < k <= hi
    mine = np.searchsorted(axial, owned)
    i, j = np.nonzero(np.maximum.outer(lo[:mine], lo) < np.minimum.outer(hi[:mine], hi))
    return axial[i], axial[j]


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
