"""Print one sha256 over the decisions of the `A*` path, so two versions of
`src/` compare with one line:

    PYTHONPATH=/path/to/other/src python3 tools/astar_digest.py
    python3 tools/astar_digest.py

Hashed, in this order: `crapper_profile_injective(A, n)` for A = -0.95 ...
0.95 by 0.001 and for A = s*A* + d, s = +-1, d = -1e-3 ... 1e-3 in 201
steps, each at 64, 256, 1024 and 2048 points (one byte per decision); then
the bits of `critical_self_intersection_A` on its default bracket at 64 ...
4096 points and on three brackets of the benchmark's threshold_sweep at
1024 and 2048 points, the values the tests pin.  capwave is imported from
PYTHONPATH when it is there, else from the `src/` next to this script.
About 1 s on one core.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

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


def parameters() -> list[float]:
    """The values of A checked on every grid, in hashing order."""
    near = np.linspace(-1e-3, 1e-3, 201)
    return [float(A) for A in (*np.linspace(-0.95, 0.95, 1901),
                               *(A_STAR + near), *(-A_STAR + near))]


def digest(values=None, grids=GRIDS, brackets=BRACKETS) -> str:
    """sha256 of the decisions on `values` (default: parameters()) and the
    bisections on `brackets`, as hex."""
    values = parameters() if values is None else values
    h = hashlib.sha256()
    for n in grids:
        h.update(bytes(crapper_profile_injective(A, n) for A in values))
    for n, lo, hi in brackets:
        h.update(struct.pack("<d", critical_self_intersection_A(tol=1e-3, n_grid=n, lo=lo, hi=hi)))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
