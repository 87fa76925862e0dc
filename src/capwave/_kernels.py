"""Segment-crossing sweep behind the injectivity check.

A pair of segments can only cross where both their x-ranges and their
y-ranges overlap.  Sorting the segments by their left end and searching each
right end in that order gives, for every segment, the window of later
segments that overlap it in x; the y-ranges prune those pairs further, and
only the survivors get the four orientation tests.  Only pairs with a
segment below the index `owned` are built (a periodic curve owns its base
period; the other pairs repeat them).  A segment of a surface curve overlaps
a handful of others, so the sweep costs O(n log n) plus the candidate pairs,
not the n^2 / 2 of the pairwise sweep in tests/_oracles.py, whose orientation
arithmetic it shares: both return the same points bit for bit, in the same
order, except for pairs whose boxes are disjoint, which rounding on nearly
collinear points can make the pairwise tests report as crossing.
"""

from __future__ import annotations

import numpy as np

ENDPOINT_BAND = 1e-12


def selected_backend() -> str:
    """Name of the crossing kernel; only the numpy sweep exists, but benchmark
    records still store this name with every run."""
    return "numpy"


def segment_crossings(x: np.ndarray, y: np.ndarray, owned: int) -> np.ndarray:
    """Proper pairwise intersections of the open polyline (x, y) whose lower
    segment index is below `owned`.

    Adjacent segments are skipped; intersections within ENDPOINT_BAND of a segment
    endpoint are excluded.  Returns an (n, 2) array of crossing coordinates,
    ordered by the index of the first segment and then of the second.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 4:
        raise ValueError("need at least 4 polyline points")
    ax, ay = x[:-1], y[:-1]
    bx, by = x[1:], y[1:]
    xlo, xhi = np.minimum(ax, bx), np.maximum(ax, bx)
    ylo, yhi = np.minimum(ay, by), np.maximum(ay, by)
    # in order of left ends, each segment pairs with the later ones whose left
    # end lies in its x-range: every pair of overlapping x-ranges, once.  An
    # owned row takes that whole window, any other row the owned segments in
    # it; both are runs of `cols`, every rank and then the owned ranks, and
    # the owned ranks >= r start at owned_from[r]
    order = np.argsort(xlo)
    rank = np.arange(len(order))
    mine = order < owned
    cols = np.concatenate((rank, rank[mine]))
    owned_from = np.concatenate(([0], np.cumsum(mine))) + len(order)
    stop = np.searchsorted(xlo[order], xhi[order], side="right")
    start = np.where(mine, rank + 1, owned_from[rank + 1])
    count = np.where(mine, stop, owned_from[stop]) - start
    first = np.repeat(rank, count)
    second = cols[np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)]
    i = np.minimum(order[first], order[second])
    j = np.maximum(order[first], order[second])
    keep = (j >= i + 2) & (ylo[j] <= yhi[i]) & (ylo[i] <= yhi[j])
    i, j = i[keep], j[keep]
    Ax, Ay, Bx, By = ax[i], ay[i], bx[i], by[i]
    d1 = (bx[j] - ax[j]) * (Ay - ay[j]) - (by[j] - ay[j]) * (Ax - ax[j])
    d2 = (bx[j] - ax[j]) * (By - ay[j]) - (by[j] - ay[j]) * (Bx - ax[j])
    d3 = (Bx - Ax) * (ay[j] - Ay) - (By - Ay) * (ax[j] - Ax)
    d4 = (Bx - Ax) * (by[j] - Ay) - (By - Ay) * (bx[j] - Ax)
    proper = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    if not proper.any():
        return np.empty((0, 2))
    i, j, d1, d2 = i[proper], j[proper], d1[proper], d2[proper]
    s = d1 / (d1 - d2)
    px = x[i] + s * (x[i + 1] - x[i])
    py = y[i] + s * (y[i + 1] - y[i])
    e = np.stack((i, i + 1, j, j + 1))
    near = ((np.abs(px - x[e]) <= ENDPOINT_BAND) & (np.abs(py - y[e]) <= ENDPOINT_BAND)).any(axis=0)
    hits = np.lexsort((j, i))
    hits = hits[~near[hits]]
    return np.column_stack((px[hits], py[hits]))
