"""Residual operators for steady capillary-gravity waves in conformal variables.

Scaled parameters (alpha, beta) = (g/(c^2 k), sigma k/c^2) in deep water, or
(g/(k lambda^2), k sigma/lambda^2) with lambda = m/h - gamma*h/2 in finite
depth.  The profile unknown is a zero-mean even 2pi-periodic w.  One
record, `WaveParams`, carries (alpha, beta), the depth h (inf for deep water)
and the vorticity gamma, and gives k, lambda and m.  Every residual and
`theta_of` takes one profile or a stack of them (a `PeriodicFunction` of
shape (k, n)) and acts row by row; the scalars b and qhat are then one per row.

Deep water:

    F(alpha, beta, w) = w'' - (w'/2beta) C(B) - ((1 + C w')/2beta) B,
    B = W^(-1/2) - (b - 2 alpha w) W^(1/2),
    W = w'^2 + (1 + C w')^2,
    b(alpha, w) = ([W^(-1/2)] + 2 alpha [w W^(1/2)]) / [W^(1/2)],

so that B, and with it the residual, has zero mean.  Flat water w = 0 solves
with b = 1; the Crapper pair (beta_A, w_A) solves at alpha = 0.

Finite depth with constant vorticity gamma enters through the strip
conjugation C_d with d = h*k(alpha, beta), k(alpha, beta) = sqrt(g beta/(alpha
sigma)), and the vorticity bracket

    V = 1 + gamma (alpha^3 sigma/(g^3 beta))^(1/4) *
          ( [w^2]/(2h) sqrt(alpha sigma/(g beta)) + C_d(w w') - w - w C_d w' ),

    A = V^2 W_d^(-1/2) - (qhat - 2 alpha w) W_d^(1/2),
    FD(alpha, beta, w) = w'' - (w'/2beta) C_d(A) - ((1 + C_d w')/2beta) A,

with qhat the scalar that gives the residual zero mean (it enters affinely,
so it is isolated in closed form).  For alpha <= 0 every finite-depth object
continuously extends to its deep alpha = 0 counterpart, which keeps the whole
family defined on an open interval around alpha = 0.

F and FD share one slope/metric rule (w', 1 + C w' and W, with C or C_d) and
one assembly of w'' - (w'/2beta) C(A) - ((1 + C w')/2beta) A: each supplies
only its bracket (B or A), the conjugate of it and its head (b or qhat).

The angle formulation: Theta(w) = atan2(w', 1 + C w'), exp(C Theta(w)) =
W(w)^(1/2), and at alpha = 0 the w-residual factors through

    G(theta) = theta' - exp(-C theta)/(2beta)
               + ([exp(-C theta)]/[exp(C theta)]) exp(C theta)/(2beta),

whose zero set matches F(0, beta, .) under w -> Theta(w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .spectral import (
    DegenerateMetricError,
    PeriodicFunction,
    derivative,
    hilbert,
    hilbert_strip,
    mean,
    mul,
    pf_atan2,
    pf_cos,
    pf_exp,
    pf_sin,
)

import numpy as np

METRIC_FLOOR = 1e-12  # a smaller W on the grid is a degenerate parameterisation


@dataclass(frozen=True)
class WaveParams:
    """Scaled parameters, the physical constants they were built from, the
    conformal depth h (inf: deep water, which forces gamma = 0) and gamma;
    alpha > 0 needs a finite wavenumber k(alpha, beta)."""

    alpha: float
    beta: float
    g: float = 1.0
    sigma: float = 1.0
    gamma: float = 0.0
    h: float = math.inf

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma))):
            raise ValueError("alpha, beta and gamma must be finite, got "
                             f"alpha={self.alpha}, beta={self.beta}, gamma={self.gamma}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (0.0 < self.g < math.inf and 0.0 < self.sigma < math.inf):
            raise ValueError(f"g and sigma must be positive and finite: {self.g}, {self.sigma}")
        if not self.h > 0.0:
            raise ValueError(f"depth must be positive, got {self.h}")
        if math.isinf(self.h) and self.gamma != 0.0:
            raise ValueError("infinite depth forces zero vorticity")
        if self.alpha > 0.0:  # refuse a point whose residual could not compute its scales
            self.k
            if not self.is_infinite:
                self.vorticity_scales

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.h)

    @property
    def k(self) -> float:
        """Wavenumber k(alpha, beta); needs alpha > 0."""
        return wavenumber_k(self.alpha, self.beta, self.g, self.sigma)

    @property
    def lam(self) -> float:
        """Mean-flow scale lambda = sqrt(g/(k alpha)), the wave speed c in deep
        water; needs alpha > 0."""
        return math.sqrt(self.g / (self.k * self.alpha))

    @property
    def m(self) -> float:
        """Mass flux m = h*lambda + h^2*gamma/2 (nan in deep water); needs alpha > 0."""
        return self.h * self.lam + 0.5 * self.h ** 2 * self.gamma

    @property
    def vorticity_scales(self) -> tuple[float, float]:
        """gamma (alpha^3 sigma/(g^3 beta))^(1/4) and sqrt(alpha sigma/(g beta)),
        the scales of FD's vorticity bracket, for alpha > 0."""
        try:
            return (self.gamma * (self.alpha ** 3 * self.sigma / (self.g ** 3 * self.beta)) ** 0.25,
                    math.sqrt(self.alpha * self.sigma / (self.g * self.beta)))
        except (OverflowError, ZeroDivisionError):
            raise ValueError("finite-depth vorticity scales leave the float range "
                             "(extreme alpha, g or sigma)") from None


def wavenumber_k(alpha: float, beta: float, g: float = 1.0, sigma: float = 1.0) -> float:
    """k(alpha, beta) = sqrt(g*beta/(alpha*sigma)); diverges as alpha -> 0+."""
    if not alpha > 0.0:
        raise ValueError("no finite wavenumber for alpha <= 0 (deep-limit branch)")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    scale = alpha * sigma
    if not scale > 0.0:
        raise ValueError("alpha*sigma underflows to zero: no finite wavenumber")
    k = math.sqrt(g * beta / scale)
    if math.isinf(k):
        raise ValueError(f"alpha={alpha:.3g}: g*beta/(alpha*sigma) overflows, no finite wavenumber")
    return k


# -- slope, metric and angle ----------------------------------------------------------


def _slope_metric(w: PeriodicFunction, d: float | None = None):
    """w', 1 + C w' (C deep for d=None, else the strip transform at depth d)
    and the samples of W = w'^2 + (1 + C w')^2, checked to be >= METRIC_FLOOR."""
    wp = derivative(w)
    one_cwp = 1.0 + (hilbert(wp) if d is None else hilbert_strip(wp, d))
    # squared grid-locally, not through padded FFT products: the metric is
    # positive at every sample and its inverse square root amplifies any
    # delocalised rounding near its minimum (steep waves get within 1e-4 of
    # the degenerate threshold)
    W = wp.samples ** 2 + one_cwp.samples ** 2
    if (W.min(axis=-1) < METRIC_FLOOR).any():
        raise DegenerateMetricError("conformal metric vanishes on the grid")
    return wp, one_cwp, W


def conformal_metric(w: PeriodicFunction, d: float | None = None) -> np.ndarray:
    """Samples of W(w) = w'^2 + (1 + C w')^2, with C the deep transform
    (d=None) or the strip transform at depth d.  Raises DegenerateMetricError
    when the metric is not bounded away from zero on the grid."""
    return _slope_metric(w, d)[2]


def theta_of(w: PeriodicFunction) -> PeriodicFunction:
    """Tangent angle Theta(w) = atan2(w', 1 + C w') on the principal branch.

    Valid while the surface slope angle stays inside (-pi, pi); a jump
    between adjacent grid points means the branch was left and is rejected.
    -Theta is the boundary argument of 1 + C w' - i w', analytic in the disc,
    1 at the centre and (on the principal branch) without zeros, so Theta has
    mean zero for any profile, even or not.  It is returned as computed: its
    mean is rounding, plus aliases on a grid too coarse for Theta.
    """
    wp, one_cwp, _ = _slope_metric(w)
    th = pf_atan2(wp, one_cwp)
    check_principal_branch(th.samples, "tangent angle leaves the principal branch")
    return th


def check_principal_branch(th, message):
    """Raise ValueError(message) when sampled tangent angles (one function or
    a stack) jump by more than pi/2 between adjacent grid points, the last
    and the first included: the angle left the principal branch of atan2."""
    closed = np.concatenate([th, th[..., :1]], axis=-1)
    if np.any(np.max(np.abs(np.diff(closed)), axis=-1) > 0.5 * np.pi):
        raise ValueError(message)


def _slope_roots(w, d=None):
    """w', 1 + C w' and W^(1/2), W^(-1/2) as functions of their samples; W
    itself, read by both powers, goes on return."""
    wp, one_cwp, W = _slope_metric(w, d)
    return wp, one_cwp, *(PeriodicFunction._of_samples(np.power(W, r)) for r in (0.5, -0.5))


def _square(f):
    return mul(f, f)


def _assemble(beta, wp, one_cwp, a_fun, ca_fun):
    """w'' - (w'/2beta) C(A) - ((1 + C w')/2beta) A: F and FD differ only in
    the bracket A, its conjugate C(A) and the head inside A."""
    half = 0.5 / beta
    return derivative(wp) - half * mul(wp, ca_fun) - half * mul(one_cwp, a_fun)


# -- deep-water residual -----------------------------------------------------------


def _deep_pieces(alpha, w):
    """w', 1 + C w', the bracket B and the head b."""
    wp, one_cwp, whalf, winvhalf = _slope_roots(w)
    w_whalf = mul(w, whalf)
    b = (mean(winvhalf) + 2.0 * alpha * mean(w_whalf)) / mean(whalf)
    # B as its modes alone, all that `_assemble` reads: the samples of W^(+-1/2)
    # and the pending transform of w W^(1/2) that B's would read go on return
    bracket = winvhalf - b * whalf + (2.0 * alpha) * w_whalf
    return wp, one_cwp, PeriodicFunction(bracket.coeffs), b


def bernoulli_b(alpha: float, w: PeriodicFunction) -> float:
    """b(alpha, w) = ([W^(-1/2)] + 2 alpha [w W^(1/2)]) / [W^(1/2)]."""
    return _deep_pieces(alpha, w)[-1]


def residual_inf(params: WaveParams, w: PeriodicFunction) -> PeriodicFunction:
    """Deep-water residual F(alpha, beta, w); zero iff (alpha, beta, w) is a
    steady wave in scaled variables.  Mean-free by construction of b."""
    return _residual_inf(params.alpha, params.beta, w)


def _residual_inf(alpha, beta, w):
    """F at floats (alpha, beta), or, with a leading axis, at columns (p, 1)."""
    wp, one_cwp, bracket, _ = _deep_pieces(alpha, w)
    return _assemble(beta, wp, one_cwp, bracket, hilbert(bracket))


# -- angle-formulation residuals ---------------------------------------------------


def angle_terms(beta: float, theta: PeriodicFunction):
    """(e^{C theta}, e^{-C theta}, 1/(2b), r/(2b)) with the mean ratio
    r = [e^{-C theta}]/[e^{C theta}]: the pieces of G, of its pushed-forward
    form and of its linearisation."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    ct = hilbert(theta)
    ep = pf_exp(ct)
    em = pf_exp(-ct)
    half = 0.5 / beta
    return ep, em, half, half * (mean(em) / mean(ep))


def residual_G(beta: float, theta: PeriodicFunction) -> PeriodicFunction:
    """G(theta) = theta' - e^{-C theta}/(2b) + ([e^{-C theta}]/[e^{C theta}]) e^{C theta}/(2b)."""
    ep, em, half, half_r = angle_terms(beta, theta)
    return derivative(theta) - half * em + half_r * ep


def residual_G_tilde(beta: float, theta: PeriodicFunction) -> PeriodicFunction:
    """The pushed-forward w-residual evaluated directly from its own display:

        Gt(theta) = (e^{C th} sin th)'
                    - (1/2b) e^{C th} sin th * C(e^{-C th})
                    + (r/2b) e^{C th} sin th * C(e^{C th})
                    - (1/2b) e^{C th} cos th * e^{-C th}
                    + (r/2b) e^{C th} cos th * e^{C th},

    with r = [e^{-C th}]/[e^{C th}].  Identically equal to
    e^{C th} sin th * C(G) + e^{C th} cos th * G, which the tests exercise.
    """
    ep, em, half, half_r = angle_terms(beta, theta)
    eps_ = mul(ep, pf_sin(theta))
    epc = mul(ep, pf_cos(theta))
    return (derivative(eps_)
            - half * mul(eps_, hilbert(em))
            + half_r * mul(eps_, hilbert(ep))
            - half * mul(epc, em)
            + half_r * mul(epc, ep))


# -- finite-depth residual ----------------------------------------------------------


def _finite_depth_pieces(params: WaveParams, w: PeriodicFunction):
    """w', 1 + C_d w', the bracket A, its conjugate C_d(A) and the head qhat
    that makes the residual mean-free, for alpha > 0."""
    if params.is_infinite:
        raise ValueError("finite-depth residual with alpha > 0 needs a finite depth h")
    alpha, h = params.alpha, params.h
    d = h * params.k
    pref, root = params.vorticity_scales
    wp, one_cwp, whalf, winvhalf = _slope_roots(w, d)
    const = mean(mul(w, w)) / (2.0 * h) * root
    # V and its inner sum are temporaries: V^2 reads only V's modes, so the
    # pending computations that V's unread samples hold go as soon as it is formed
    v2 = _square(1.0 + pref * (const + hilbert_strip(mul(w, wp), d)
                               - w - mul(w, one_cwp - 1.0)))

    # p as its modes alone too, since its samples are never read: the pending
    # transforms of its two products go now, not when the call returns
    p = PeriodicFunction((mul(v2, winvhalf) + (2.0 * alpha) * mul(w, whalf)).coeffs)
    del v2, winvhalf  # read for the last time: they go before the conjugations
    cp = hilbert_strip(p, d)
    cwhalf = hilbert_strip(whalf, d)
    num = mean(mul(wp, cp)) + mean(mul(one_cwp, p))
    den = mean(mul(wp, cwhalf)) + mean(mul(one_cwp, whalf))
    if np.any(den == 0.0):
        raise ValueError("finite-depth head qhat undefined: its denominator is 0 "
                         "(extreme alpha, g or sigma)")
    qhat = num / den
    # A = p - qhat W_d^(1/2) and C_d(A) from the pieces already transformed, as
    # their modes alone (as B in `_deep_pieces`): the samples of W^(1/2) and the
    # pending transforms of p, C_d p and C_d W^(1/2) go on return
    return (wp, one_cwp, PeriodicFunction((p - qhat * whalf).coeffs),
            PeriodicFunction((cp - qhat * cwhalf).coeffs), qhat)


def q_hat(params: WaveParams, w: PeriodicFunction) -> float:
    """Scaled hydraulic head: the scalar that makes the finite-depth residual
    mean-free.  Continuously extends to b(0, w) for alpha <= 0.  The physical
    head is Q = params.lam ** 2 * q_hat(params, w), at alpha > 0."""
    if params.alpha <= 0.0:
        return bernoulli_b(0.0, w)
    return _finite_depth_pieces(params, w)[-1]


def residual_fd(params: WaveParams, w: PeriodicFunction) -> PeriodicFunction:
    """Finite-depth residual FD(alpha, beta, w) with constant vorticity.

    For alpha <= 0 this is, by continuous extension, exactly the deep-water
    residual at alpha = 0 (same code path, so the difference is literal zero).
    """
    if params.alpha <= 0.0:
        return residual_inf(replace(params, alpha=0.0, gamma=0.0, h=math.inf), w)
    return _assemble(params.beta, *_finite_depth_pieces(params, w)[:-1])


# -- physical parameter recovery ------------------------------------------------------


def params_from_physical(k: float, lam: float | None = None, m: float | None = None,
                         h: float = math.inf, gamma: float = 0.0,
                         g: float = 1.0, sigma: float = 1.0) -> WaveParams:
    """Forward change of variables from (k, lambda) or (k, m) to (alpha, beta)."""
    if lam is None:
        if m is None:
            raise ValueError("need lambda or the mass flux m")
        if math.isinf(h):
            raise ValueError("mass flux is not finite in infinite depth; pass lambda")
        lam = m / h - 0.5 * gamma * h
    if not (k > 0.0 and lam > 0.0):
        raise ValueError("need k > 0 and lambda > 0")
    return WaveParams(alpha=g / (k * lam ** 2), beta=k * sigma / lam ** 2,
                      g=g, sigma=sigma, gamma=gamma, h=h)
