"""Crapper's explicit pure-capillary waves and their closed-form identities.

The family is parameterised by A in (-1, 1):

    w_A(t)   = 2(1-A^2)/(1+A^2+2A cos t) - 2          (zero-mean profile)
    beta_A   = (1+A^2)/(1-A^2)                        (scaled surface tension)
    q_A      = 1/beta_A

w_A is the boundary trace of the disc-analytic F_A(z) = 2(1-Az)/(1+Az) - 2,
which pins the cosine coefficients to 4(-A)^n and gives machine-accurate
values for w_A', 1+C w_A' and the tangent angle theta_A without ever
differentiating on the grid.  The imaginary part of that trace, C w_A, gives
the surface abscissa t + C w_A, so `circle_samples` draws each curve and its
profile in one pass on the cos t and sin t that `spectral` keeps per grid;
`family_distance` measures coefficients against 4(-A)^n.
"""

from __future__ import annotations

import numpy as np

from .operators import check_principal_branch
from .spectral import PeriodicFunction, _grid_arrays, grid

A_CAP = 0.99
GRID_TOL = 1e-15  # min_grid resolves the family's coefficients to this size


def _check_param(A: float) -> float:
    A = float(A)
    if not abs(A) < 1.0:
        raise ValueError(f"Crapper parameter must satisfy |A| < 1, got {A}")
    if abs(A) > A_CAP:
        raise ValueError(f"|A| capped at {A_CAP}; spectral resolution grows without bound")
    return A


def beta_of(A: float) -> float:
    """Scaled surface-tension coefficient of the wave with parameter A."""
    A = _check_param(A)
    return (1.0 + A * A) / (1.0 - A * A)


def q_of(A: float) -> float:
    """Reciprocal coefficient q_A = 1/beta_A."""
    return 1.0 / beta_of(A)


def param_of_beta(beta: float, sign: float = 1.0) -> float:
    """Invert beta_A on a half-line: A = +-sqrt((beta-1)/(beta+1)), beta >= 1."""
    if beta < 1.0:
        raise ValueError(f"beta_A >= 1 always; got {beta}")
    return float(np.copysign(np.sqrt((beta - 1.0) / (beta + 1.0)), sign))


def min_grid(A: float, least: float = 0) -> int:
    """Smallest power-of-two grid of at least 64 and `least` points resolving
    the family at |A| to GRID_TOL; its coefficients decay like |A|^n, so
    n ~ 2 log(tol)/log|A| suffices, and 64 covers every |A| below ~0.35.  Every
    default grid derived from A is one, of 5M/2 points for M modes at least
    (`continue_branch`, `crapper_curve_check`), 256 (`angle_grid`) or 512
    (`verify`, `limit-check`).
    """
    A = abs(float(A))
    need = max(least, 2.0 * np.log(GRID_TOL) / np.log(A) if A > 0.0 else 0.0)
    n = 64
    while n < need:
        n *= 2
    return n


def family_distance(A: float, a: np.ndarray) -> float:
    """max_n |a_n - 4(-A)^n| over the cosine coefficients a_1, a_2, ... given:
    how far a profile sits from w_A, mode by mode."""
    n = np.arange(1, len(a) + 1)
    return float(np.max(np.abs(a - 4.0 * (-A) ** n)))


def circle_samples(A: float, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (t + C w_A, w_A) on the grid: the surface abscissa
    Im F_A(e^{it}) + t and the profile Re F_A(e^{it}), over the one denominator
    1 + A^2 + 2A cos t."""
    t, *_, cos, sin = _grid_arrays(n_grid)
    den = 1.0 + A * A + 2.0 * A * cos
    x = 4.0 * A * sin
    x /= den
    np.subtract(t, x, out=x)
    y = 2.0 * (1.0 - A * A) / den
    y -= 2.0
    return x, y


def crapper_wave(A: float, n_grid: int) -> PeriodicFunction:
    """The profile w_A on the grid (even, zero-mean).

    Built from the exact cosine coefficients 4(-A)^n rather than closed-form
    samples: exact coefficients keep the n^2 amplification of the second
    derivative free of sampling noise, and the sample values still match the
    closed form to rounding once the tail drops below machine precision.  The
    formula covers A = 0: every coefficient is a zero (-0.0 on the odd modes
    at A = +0.0), and every sample +0.0, flat water.
    """
    A = _check_param(A)
    n = np.arange(1, n_grid // 2)
    coeffs = 4.0 * (-A) ** n
    return PeriodicFunction.from_cosine_series(coeffs, n_grid)


def crapper_theta(A: float, n_grid: int) -> PeriodicFunction:
    """Tangent angle theta_A = atan2(w_A', 1 + C w_A') of the wave surface.

    The slope components (w_A', 1 + C w_A') are the real and imaginary parts
    of the closed form i(1-Az)^2/(1+Az)^2 on |z| = 1, so the result is
    accurate to rounding; |theta_A| stays below 4*atan|A| < pi, hence the
    principal branch is the continuous one.  A jump in the sampled angle
    means the branch assumption broke, and is rejected.
    """
    A = _check_param(A)
    z = np.exp(1j * grid(n_grid))
    phi = 1j * (1.0 - A * z) ** 2 / (1.0 + A * z) ** 2
    th = np.arctan2(phi.real, phi.imag)
    check_principal_branch(th, "branch jump detected in the tangent angle")
    return PeriodicFunction.from_samples(th)


def verify_identity(A: float, n_grid: int) -> float:
    """Max grid residual of the algebraic identity that closes the
    pure-capillary verification:

        |1-Az|^2/|1+Az|^2 + 8A(1+A^2)cos t/(|1+Az|^2 |1-Az|^2)
            = |1+Az|^2/|1-Az|^2      on z = e^{it}.
    """
    A = _check_param(A)
    t = grid(n_grid)
    z = np.exp(1j * t)
    p2 = np.abs(1.0 + A * z) ** 2
    m2 = np.abs(1.0 - A * z) ** 2
    lhs = m2 / p2 + 8.0 * A * (1.0 + A * A) * np.cos(t) / (p2 * m2)
    rhs = p2 / m2
    return float(np.max(np.abs(lhs - rhs)))
