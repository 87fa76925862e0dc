"""Segment-crossing sweep behind the injectivity check.

A pair of segments can only cross where both their x-ranges and their
y-ranges overlap.  Sorting the segments by their left end and searching each
right end in that order gives, for every segment, the window of later
segments that overlap it in x; the y-ranges prune those pairs further, and
only the survivors get the four orientation tests.  Only pairs with a
segment below the index `owned` are built (a periodic curve owns its base
period; the other pairs repeat them); their x-ranges meet, so the pair test
checks the y-ranges only.
A segment of a surface curve overlaps a handful of others, so the sweep
costs O(n log n) plus the candidate pairs, not the n^2 / 2 of the pairwise
sweep in tests/_oracles.py, whose orientation arithmetic it shares: both
return the same points bit for bit, in the same order, except for pairs
whose boxes are disjoint, which rounding on nearly collinear points can make
the pairwise tests report as crossing.

Where x rises strictly, a segment overlaps only its neighbours in x, so the
sweep returns before it sorts; Crapper's curves do below |A| = sqrt(2) - 1,
where x' first vanishes.  So it does where y rises strictly on points 0..J
and falls strictly on J..end (or the other way round) and the points before
J lie left of x[J], the ones after it right: segments of one chain that are
not neighbours have disjoint y-ranges, and the two chains meet in x only in
the neighbour pair at J.  Every injective Crapper curve past the fold splits
so at t = pi; geometry.crapper_profile_injective sweeps such a curve on its
closed period, the polyline swept, so none of them is sorted.  A tie or a
NaN fails a strict comparison and is sorted.  The stable sort (timsort)
merges the few monotone runs of a surface curve's left ends in under half
the default sort's time.
Ties do not change the output: a pair is formed once whichever end ranks
first, and the crossings are put in (i, j) order at the end.
"""

from __future__ import annotations

import numpy as np

ENDPOINT_BAND = 1e-12
_NONE = (np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),) * 2  # no crossing


def selected_backend() -> str:
    """Name of the crossing kernel; only the numpy sweep exists, but benchmark
    records still store this name with every run."""
    return "numpy"


def segment_crossings(x: np.ndarray, y: np.ndarray, owned: int) -> np.ndarray:
    """Proper pairwise intersections of the open polyline (x, y) whose lower
    segment index is below `owned`: an (n, 2) array, ordered by i and then j."""
    i, j, px, py = _sweep(x, y, owned)
    if not len(i):
        return np.empty((0, 2))
    order = np.lexsort((j, i))
    return np.column_stack((px[order], py[order]))


def _sweep(x, y, owned):
    x = np.ascontiguousarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 4:
        raise ValueError("need at least 4 polyline points")
    if (x[1:] > x[:-1]).all() or _two_chains(x, y):  # only neighbours pass the boxes
        return _NONE
    xlo, xhi = np.minimum(x[:-1], x[1:]), np.maximum(x[:-1], x[1:])
    # in order of left ends, each segment pairs with the later ones whose left
    # end lies in its x-range: every pair of overlapping x-ranges, once.  An
    # owned row takes that whole window, any other row the owned segments in
    # it; both are runs of `order` followed by its owned entries, and the
    # owned entries of ranks > r start at after[r]
    order = np.argsort(xlo, kind="stable")
    mine = order < owned
    after = np.cumsum(mine) + len(order)
    stop = np.searchsorted(xlo[order], xhi[order], side="right")
    start = np.where(mine, np.arange(1, len(order) + 1), after)
    count = np.where(mine, stop, after[stop - 1]) - start
    first = np.repeat(order, count)
    second = np.concatenate((order, order[mine]))[
        np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)]
    return _crossings(x, y, np.minimum(first, second), np.maximum(first, second))


def _two_chains(x, y):
    """Whether y rises strictly on points 0..J and falls strictly on J..end, or
    the other way round, at an inner point J with max x[:J] < x[J] < min x[J+1:]."""
    first = np.greater if y[1] > y[0] else np.less  # a tie or a NaN gives J = 0
    J = int(np.argmin(first(y[1:], y[:-1])))
    return J > 0 and bool(first(y[J:-1], y[J + 1:]).all()) and x[:J].max() < x[J] < x[J + 1:].min()


def _crossings(x, y, i, j):
    """Arrays i, j, px, py of the proper crossings of pairs whose x-ranges meet:
    j >= i + 2, y-ranges that meet and a point outside ENDPOINT_BAND of the ends."""
    ax, ay, bx, by = x[:-1], y[:-1], x[1:], y[1:]
    ylo, yhi = np.minimum(ay, by), np.maximum(ay, by)
    keep = (j >= i + 2) & (ylo[j] <= yhi[i]) & (ylo[i] <= yhi[j])
    if not keep.any():
        return _NONE
    i, j = i[keep], j[keep]
    Ax, Ay, Bx, By = ax[i], ay[i], bx[i], by[i]
    Cx, Cy, Dx, Dy = ax[j], ay[j], bx[j], by[j]
    ex, ey = Dx - Cx, Dy - Cy
    d1 = ex * (Ay - Cy) - ey * (Ax - Cx)
    d2 = ex * (By - Cy) - ey * (Bx - Cx)
    d3 = (Bx - Ax) * (Cy - Ay) - (By - Ay) * (Cx - Ax)
    d4 = (Bx - Ax) * (Dy - Ay) - (By - Ay) * (Dx - Ax)
    proper = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    i, j, d1, d2 = i[proper], j[proper], d1[proper], d2[proper]
    s = d1 / (d1 - d2)
    px = x[i] + s * (x[i + 1] - x[i])
    py = y[i] + s * (y[i + 1] - y[i])
    e = np.array((i, i + 1, j, j + 1))
    far = ~((np.abs(px - x[e]) <= ENDPOINT_BAND) & (np.abs(py - y[e]) <= ENDPOINT_BAND)).any(axis=0)
    return i[far], j[far], px[far], py[far]
