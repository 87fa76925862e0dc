"""Print one sha256 over the decisions of the `A*` path, so two versions of
`src/` compare with one line:

    PYTHONPATH=/path/to/other/src python3 tools/astar_digest.py
    python3 tools/astar_digest.py

Hashed, in this order: `crapper_profile_injective(A, n)` for A = -0.95 ...
0.95 by 0.001 and for A = s*A* + d, s = +-1, d = -1e-3 ... 1e-3 in 201
steps, each at 64, 256, 1024 and 2048 points (one byte per decision); then
the bits of `critical_self_intersection_A` on its default bracket at 64 ...
4096 points and on three brackets of the benchmark's threshold_sweep at
1024 and 2048 points, the values the tests pin; then the decisions within
+-200 ulps of each grid's leave flip, at 64 ... 4096 points and both signs.
The leave flip is the smallest |A| whose `crapper.circle_samples` curve has
a point outside [x[0], x[0] + 2*pi]; it is bisected on circle_samples
alone, so every version of the check is hashed on the same values.  There
a check that reads single points and one that tests pairs of segments can
disagree.  capwave is imported from PYTHONPATH when it is there, else from
the `src/` next to this script.  About 2 s on one core.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from capwave.crapper import circle_samples  # noqa: E402
from capwave.geometry import (  # noqa: E402
    crapper_profile_injective,
    critical_self_intersection_A,
)

A_STAR = 0.45467001645201083  # where Crapper's curve first touches itself
GRIDS = (64, 256, 1024, 2048)
BRACKETS = [(64, 0.2, 0.9), (128, 0.2, 0.9), (256, 0.2, 0.9), (512, 0.2, 0.9),
            (1024, 0.2, 0.9), (2048, 0.2, 0.9), (4096, 0.2, 0.9)]
BRACKETS += [(n, lo, hi) for n in (1024, 2048)
             for lo, hi in ((0.25, 0.6), (0.35, 0.85), (0.3979, 0.5021))]
FLIP_GRIDS = (64, 128, 256, 512, 1024, 2048, 4096)
FLIP_ULPS = 200


def parameters() -> list[float]:
    """The values of A checked on every grid, in hashing order."""
    near = np.linspace(-1e-3, 1e-3, 201)
    return [float(A) for A in (*np.linspace(-0.95, 0.95, 1901),
                               *(A_STAR + near), *(-A_STAR + near))]


def leaves_period(A: float, n: int) -> bool:
    """Whether the closed-form curve at A has a point outside [x[0], x[0] + 2*pi]."""
    x, _ = circle_samples(A, n)
    return bool(x.min() < x[0] or x.max() > x[0] + 2.0 * math.pi)


def leave_flip(sign: float, n: int) -> float:
    """The smallest |A| in (0, 0.99] at which sign*|A| leaves its period on n
    points, by bisection down to adjacent floats."""
    lo, hi = 0.0, 0.99
    while np.nextafter(lo, 1.0) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if leaves_period(sign * mid, n) else (mid, hi)
    return hi


def flip_values(sign: float, n: int, ulps: int = FLIP_ULPS) -> list[float]:
    """sign * a for the 2*ulps + 1 floats a within `ulps` ulps of the leave flip."""
    bits = np.array(leave_flip(sign, n)).view(np.int64) + np.arange(-ulps, ulps + 1)
    return [sign * float(a) for a in bits.view(np.float64)]


def digest(values=None, grids=GRIDS, brackets=BRACKETS, flip_grids=FLIP_GRIDS) -> str:
    """sha256 of the decisions on `values` (default: parameters()), the
    bisections on `brackets` and the decisions near the leave flips of
    `flip_grids`, as hex."""
    values = parameters() if values is None else values
    h = hashlib.sha256()
    for n in grids:
        h.update(bytes(crapper_profile_injective(A, n) for A in values))
    for n, lo, hi in brackets:
        h.update(struct.pack("<d", critical_self_intersection_A(tol=1e-3, n_grid=n, lo=lo, hi=hi)))
    for n in flip_grids:
        for sign in (1.0, -1.0):
            h.update(bytes(crapper_profile_injective(A, n) for A in flip_values(sign, n)))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
