"""Independent reference computations used by the tests.

Everything here is raw numpy on purpose: closed-form boundary values of the
disc-analytic generator of the explicit wave family, trapezoid quadrature for
means, and a self-contained FFT Hilbert transform.  None of it goes through
the package code paths it is used to check.  The exceptions are
`jacobian_loop`, the column-by-column Jacobian that the stacked `jacobian_fd`
must reproduce bit for bit (it calls the residual on one function at a time),
`mul_eager`, the product that recomputes its operands' 2x-grid samples at
every call, which the cached ones of `spectral.mul` must reproduce bit for bit,
and `coeffs_two_pass`/`samples_two_pass`, the transforms that rescaled after
pocketfft had run, which the one-pass ones of `spectral` must reproduce bit for
bit on finite data (but for the sign of a real part of -0.0, see `spectral`).
So are `add_negated`, the expression that the one-pass difference replaced,
and `plus_minus_stack`, the +-step stack that `jacobian_fd` builds with the
same expression and that pins its modes on bases holding signed zeros, inf
and nan.  So is `periodic_extension`, the gather that built the whole
extension of the period before it was joined from shifted copies; the
polyline that `check_injective` sweeps must equal it bit for bit.  So is
`pair_crossings`, the pair test as the sweep ran it with both boxes and its
points sorted, which the kernel's yes/no answers and its sweep without the
x-box test must agree with.  And so is `residual_G_tilde`, the pushed-forward
angle residual compared with G.  `bordered_sheet` evaluates capwave's own
`residual_fd`: it checks the continuation, not the residual, with a solve,
a Jacobian and a start of its own.  `odd_block` evaluates capwave's own
residuals too: it checks the block that the cosine-only solver never forms,
with a difference loop of its own.
"""

import numpy as np


def crapper_samples(A, t):
    """w_A(t) as `crapper.wave_samples` computed it before `crapper.circle_samples`
    gave the profile too; the one-pass form must reproduce it bit for bit."""
    return 2.0 * (1.0 - A * A) / (1.0 + A * A + 2.0 * A * np.cos(t)) - 2.0


def crapper_conjugate(A, t):
    return -4.0 * A * np.sin(t) / (1.0 + A * A + 2.0 * A * np.cos(t))


def abscissa_samples(A, t):
    """t + C w_A = t + Im F_A(e^{it}), as `crapper.abscissa_samples` computed
    it, on its own, before `crapper.circle_samples` shared the denominator;
    the one-pass form must reproduce it bit for bit."""
    return t - 4.0 * A * np.sin(t) / (1.0 + A * A + 2.0 * A * np.cos(t))


def metric_samples(A, t):
    """W = ((1+A^2-2A cos t)/(1+A^2+2A cos t))^2, the metric of Crapper's
    curve, as `crapper.metric_samples` computed it; `crapper` no longer
    forms W, since no |A| <= A_CAP brings it near the metric floor."""
    c = 2.0 * A * np.cos(t)
    return ((1.0 + A * A - c) / (1.0 + A * A + c)) ** 2


def generator_derivatives(A, t):
    """(w', 1 + Cw', w'', Cw'') from dF_A/dt on |z| = 1."""
    z = np.exp(1j * t)
    f1 = -4.0 * A / (1.0 + A * z) ** 2          # F_A'
    f2 = 8.0 * A * A / (1.0 + A * z) ** 3       # F_A''
    first = 1j * z * f1                          # w' + i C w' (modulo +i)
    second = -z * f1 - z * z * f2                # w'' + i C w''
    return first.real, first.imag + 1.0, second.real, second.imag


def theta_samples(A, t):
    return 2.0 * (np.angle(1.0 + A * np.exp(1j * t)) - np.angle(1.0 - A * np.exp(1j * t)))


def exp_conjugate_theta_samples(A, t):
    """exp(C theta_A) = (1+A^2-2A cos t)/(1+A^2+2A cos t)."""
    return (1.0 + A * A - 2.0 * A * np.cos(t)) / (1.0 + A * A + 2.0 * A * np.cos(t))


def steepness_closed_form(A):
    """Crest-to-trough height over wavelength of the wave A: 4|A|/(pi*(1-A^2))."""
    return 4.0 * abs(A) / (np.pi * (1.0 - A * A))


def crapper_threshold():
    """The parameter A* at which Crapper's curve first touches itself.

    The curve x(t) = t - 4A sin t/(1+A^2+2A cos t), y = w_A(t) is symmetric
    about its trough line x = 0 (x is odd in t), so it first meets its mirror
    image where its first interior minimum of x reaches that line: x = x' = 0
    there.  x'(t) = 1 - 4A((1+A^2) cos t + 2A)/(1+A^2+2A cos t)^2 vanishes
    where cos^2 t = 2 - (1+A^2)^2/(4A^2), so x has an interior maximum and
    minimum on (0, pi) once A > sqrt(2) - 1, the minimum at cos t = -c0.  x
    there falls through 0 as A grows; the bisection runs to the last bit.
    """
    def x_at_min(A):
        c0 = np.sqrt(2.0 - (1.0 + A * A) ** 2 / (4.0 * A * A))
        t = np.pi - np.arccos(c0)
        return t - 4.0 * A * np.sin(t) / (1.0 + A * A + 2.0 * A * np.cos(t))

    lo, hi = np.sqrt(2.0) - 1.0, 0.6  # x > 0 at lo (where c0 = 0), x < 0 at hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if x_at_min(mid) > 0.0 else (lo, mid)
    return float(0.5 * (lo + hi))


def sheet_rate_exponent(h, gamma):
    """Exponent p in ||w(alpha) - w_A||_inf = O(alpha^p) along the solution
    sheet at beta_A as alpha -> 0: 3/4 in finite depth with gamma != 0, 1
    otherwise.  The vorticity bracket carries gamma (alpha^3 sigma/(g^3
    beta))^(1/4), so it leads wherever it is present; gravity's 2 alpha w is
    O(alpha); and the strip departs from deep water only through the depth
    d = hk, which grows as alpha^(-1/2), by an exponentially small amount."""
    return 0.75 if np.isfinite(h) and gamma != 0.0 else 1.0


def flat_water_diagonal(alpha, beta, m, h=np.inf, gamma=0.0, g=1.0, sigma=1.0):
    """Entry (m, m) of the residual's Jacobian at flat water w = 0, on cosine
    modes m (the matrix is diagonal there), derived by hand.

    With w = cos mt, C_d w' = m coth(m d) cos mt, d = h k and k = sqrt(g
    beta/(alpha sigma)); to first order W_d^(+-1/2) = 1 +- C_d w', V^2 = 1 -
    2 pref w with pref = gamma (alpha^3 sigma/(g^3 beta))^(1/4), and the head
    stays 1 (mode m >= 1 has no mean).  So A = -2 C_d w' - 2 pref w + 2 alpha
    w, and FD = w'' - A/(2 beta) gives

        -m^2 + (m coth(m h k) + pref - alpha)/beta,

    and deep water -m^2 + (m - alpha)/beta.  Finite depth at alpha <= 0 is
    deep water at alpha = 0, FD's own extension there.
    """
    m = np.asarray(m, dtype=float)
    if np.isinf(h) or alpha <= 0.0:
        return -m ** 2 + (m - (alpha if np.isinf(h) else 0.0)) / beta
    k = np.sqrt(g * beta / (alpha * sigma))
    pref = gamma * (alpha ** 3 * sigma / (g ** 3 * beta)) ** 0.25
    return -m ** 2 + (m / np.tanh(m * h * k) + pref - alpha) / beta


def flat_water_alpha(beta, h, gamma, lo=0.0, hi=3.0, g=1.0, sigma=1.0):
    """The alpha in [lo, hi] where the mode-1 entry of `flat_water_diagonal`,
    negative at lo and positive at hi, changes sign: where the sheet leaves
    flat water, by bisection to the last bit."""
    def entry(alpha):
        return flat_water_diagonal(alpha, beta, 1.0, h, gamma, g, sigma)

    if not entry(lo) < 0.0 < entry(hi):
        raise ValueError(f"no sign change of the mode-1 entry on [{lo}, {hi}]")
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if entry(mid) < 0.0 else (lo, mid)
    return float(0.5 * (lo + hi))


def walk_steps(step_history):
    """The step of each entry of a continuation's step history, recomputed:
    its alpha minus the alpha of the last accepted entry before it (0 for
    the first entry, the start)."""
    steps, last = [], None
    for alpha, _, _, accepted in step_history:
        steps.append(0.0 if last is None else alpha - last)
        last = alpha if accepted else last
    return steps


def resolving_grid(A):
    """The smallest power of two of at least 64 points past which the family's
    coefficients 4(-A)^n fall below 1e-15: crapper.min_grid(A) with no floor."""
    A, n = abs(A), 64
    if A > 0.0:
        need = 2.0 * np.log(1e-15) / np.log(A)
        while n < need:
            n *= 2
    return n


def grid_for_modes(M, A):
    """Continuation's grid for M modes before the grid rules merged: a power
    of two of n >= 5M/2 points that also resolves the family at A."""
    n = 64
    while 2 * n < 5 * M or n < resolving_grid(A):
        n *= 2
    return n


def family_grid(A):
    """verify's and limit-check's grid before the grid rules merged."""
    return max(512, resolving_grid(A))


def angle_grid_rule(A, M):
    """The grid of dG_matrix's theta_A before the grid rules merged."""
    return max(256, 4 * M, resolving_grid(A))


def trapezoid_mean(samples):
    """Trapezoid quadrature of the 2pi-periodic extension over one period."""
    closed = np.concatenate([samples, samples[:1]])
    return np.trapezoid(closed) / len(samples)


def fft_hilbert(samples, d=np.inf):
    """The conjugation: mode multiplier -i sgn(m), or -i sgn(m) coth(|m| d) in
    a strip of depth d."""
    n = len(samples)
    c = np.fft.fft(samples)
    m = np.fft.fftfreq(n, 1.0 / n)
    c[1:] *= -1j * np.sign(m[1:]) / np.tanh(np.abs(m[1:]) * d)
    c[0] = c[n // 2] = 0.0
    return np.fft.ifft(c).real


def kappa_tail_bound(d, p=0):
    """sup over m >= 1 of m^(p+1) lambda_m, lambda_m = 2/(e^(2md) - 1) the gap
    between the strip's and the half-plane's mode-m multipliers: a direct max
    over 2md <= 700, past which e^(2md) overflows and the terms are negligible."""
    m = np.arange(1, 1 + int(350.0 / d))
    return float(np.max(m ** (p + 1) * 2.0 / np.expm1(2.0 * m * d)))


def fft_derivative(samples):
    n = len(samples)
    c = np.fft.fft(samples)
    m = np.fft.fftfreq(n, 1.0 / n)
    c = 1j * m * c
    c[n // 2] = 0.0
    return np.fft.ifft(c).real


def bernoulli_spread(params, w_samples):
    """max E - min E over the grid of w's samples, E = V^2/(2W) + alpha w -
    beta kappa: Bernoulli's law on the free surface x = t + C w, y = w in
    scaled variables (V^2/W is the squared speed, kappa the curvature).  C is
    the strip conjugation at d = hk in finite depth at alpha > 0, else the
    half-plane one; finite depth at alpha <= 0 is deep water at alpha = 0, as
    FD is.  V is the vorticity bracket of the `operators` docstring,

        V = 1 + gamma (alpha^3 sigma/(g^3 beta))^(1/4)
                  ([w^2]/(2hk) + C_d(w w') - w - w C_d w'),

    in plain sample algebra, and V = 1 at alpha <= 0.  This V is not
    independent of `_finite_depth_pieces`: it is the same display, and no
    derivation of the surface speed apart from it has been made.  No
    bracket, head or assembly of a residual is used."""
    alpha, d, V = params.alpha, np.inf, 1.0
    wp = fft_derivative(w_samples)
    if np.isfinite(params.h):
        if alpha > 0.0:
            d = params.h * np.sqrt(params.g * params.beta / (alpha * params.sigma))
            pref = params.gamma * (alpha ** 3 * params.sigma
                                   / (params.g ** 3 * params.beta)) ** 0.25
            V = 1.0 + pref * (trapezoid_mean(w_samples ** 2) / (2.0 * d)
                              + fft_hilbert(w_samples * wp, d) - w_samples
                              - w_samples * fft_hilbert(wp, d))
        alpha = max(alpha, 0.0)
    wpp = fft_derivative(wp)
    xp, xpp = 1.0 + fft_hilbert(wp, d), fft_hilbert(wpp, d)
    W = xp ** 2 + wp ** 2
    kappa = (xp * wpp - wp * xpp) / W ** 1.5
    E = 0.5 * V ** 2 / W + alpha * w_samples - params.beta * kappa
    return float(E.max() - E.min())


def deep_residual_on_samples(alpha, beta, w, wp, cwp, wpp):
    """Straight-line evaluation of the deep-water residual from prepared
    ingredient samples; plain sample-wise algebra and trapezoid means."""
    W = wp ** 2 + (1.0 + cwp) ** 2
    whalf = np.sqrt(W)
    winvhalf = 1.0 / whalf
    b = (trapezoid_mean(winvhalf) + 2.0 * alpha * trapezoid_mean(w * whalf)) \
        / trapezoid_mean(whalf)
    bracket = winvhalf - (b - 2.0 * alpha * w) * whalf
    cbracket = fft_hilbert(bracket - bracket.mean())
    return wpp - wp * cbracket / (2.0 * beta) - (1.0 + cwp) * bracket / (2.0 * beta)


def pairwise_crossings(x, y, band, owned=None, skip_disjoint_boxes=False):
    """Reference crossing sweep: orientation tests on every pair of
    non-adjacent segments whose lower index is below `owned` (default: every
    segment), 256 rows of lower segments at a time.  With
    `skip_disjoint_boxes`, a pair whose closed bounding boxes do not meet is
    not tested, as in `segment_crossings`: on nearly collinear points
    rounding can make the orientation tests report such a pair."""
    n = len(x) - 1
    ax, ay = x[:-1], y[:-1]
    bx, by = x[1:], y[1:]
    xlo, xhi = np.minimum(ax, bx), np.maximum(ax, bx)
    ylo, yhi = np.minimum(ay, by), np.maximum(ay, by)
    pts = []
    chunk = 256
    jj = np.arange(n)[None, :]
    rows = n - 2 if owned is None else min(owned, n - 2)
    for i0 in range(0, max(rows, 0), chunk):
        i1 = min(i0 + chunk, rows)
        idx = np.arange(i0, i1)
        Ax, Ay = ax[idx, None], ay[idx, None]
        Bx, By = bx[idx, None], by[idx, None]
        d1 = (bx[None, :] - ax[None, :]) * (Ay - ay[None, :]) - (by[None, :] - ay[None, :]) * (Ax - ax[None, :])
        d2 = (bx[None, :] - ax[None, :]) * (By - ay[None, :]) - (by[None, :] - ay[None, :]) * (Bx - ax[None, :])
        d3 = (Bx - Ax) * (ay[None, :] - Ay) - (By - Ay) * (ax[None, :] - Ax)
        d4 = (Bx - Ax) * (by[None, :] - Ay) - (By - Ay) * (bx[None, :] - Ax)
        proper = (d1 * d2 < 0.0) & (d3 * d4 < 0.0) & (jj >= (idx[:, None] + 2))
        if skip_disjoint_boxes:
            proper &= ((xlo[None, :] <= xhi[idx, None]) & (xlo[idx, None] <= xhi[None, :])
                       & (ylo[None, :] <= yhi[idx, None]) & (ylo[idx, None] <= yhi[None, :]))
        for i_loc, j in zip(*np.nonzero(proper)):
            i = i0 + i_loc
            s = d1[i_loc, j] / (d1[i_loc, j] - d2[i_loc, j])
            px = x[i] + s * (x[i + 1] - x[i])
            py = y[i] + s * (y[i + 1] - y[i])
            near = False
            for e in (i, i + 1, j, j + 1):
                if abs(px - x[e]) <= band and abs(py - y[e]) <= band:
                    near = True
                    break
            if not near:
                pts.append((px, py))
    return np.array(pts, dtype=float).reshape(-1, 2)


def pair_crossings(x, y, i, j, band):
    """Proper crossings of segments i and j of the polyline (x, y), for each
    pair with j >= i + 2 whose closed boxes meet and none within `band` of an
    endpoint: an (n, 2) array of points, ordered by i and then j."""
    ax, ay, bx, by = x[:-1], y[:-1], x[1:], y[1:]
    xlo, xhi = np.minimum(ax, bx), np.maximum(ax, bx)
    ylo, yhi = np.minimum(ay, by), np.maximum(ay, by)
    keep = ((j >= i + 2) & (xlo[j] <= xhi[i]) & (xlo[i] <= xhi[j])
            & (ylo[j] <= yhi[i]) & (ylo[i] <= yhi[j]))
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
    near = ((np.abs(px - x[e]) <= band) & (np.abs(py - y[e]) <= band)).any(axis=0)
    hits = np.lexsort((j, i))
    hits = hits[~near[hits]]
    return np.column_stack((px[hits], py[hits]))


def periodic_extension(curve):
    """The periodic extension of the curve as a gather: point m is point
    m mod n moved by (m div n) periods, up to ceil(x-span / period) * n."""
    n = len(curve.x)
    span = max(np.max(curve.x), curve.x[0] + curve.period) - np.min(curve.x)
    shift, idx = np.divmod(np.arange(int(np.ceil(span / curve.period)) * n + 1), n)
    return curve.x[idx] + shift * curve.period, curve.y[idx]


def jacobian_loop(residual, base, M, step=None, basis_in="cosine", basis_out="cosine"):
    """Central-difference Jacobian entries built one column at a time, two
    one-function residual calls per column, as `jacobian_fd` did before it
    evaluated stacks."""
    from capwave.spectral import PeriodicFunction

    def unit_mode(basis, j, n_grid):
        f = np.zeros(j)
        f[-1] = 1.0
        if basis == "cosine":
            return PeriodicFunction.from_cosine_series(f, n_grid)
        return PeriodicFunction.from_sine_series(f, n_grid)

    def project(f, basis, M):
        return f.cosine_coefficients(M) if basis == "cosine" else sine_coefficients(f, M)

    if step is None:
        step = 1e-6 * (1.0 + base.norm_inf())
    n_grid = base.n_grid
    cols = np.empty((M, M))
    for j in range(1, M + 1):
        e = unit_mode(basis_in, j, n_grid)
        rp = residual(base + step * e)
        rm = residual(base - step * e)
        cols[:, j - 1] = project(rp - rm, basis_out, M) / (2.0 * step)
    return cols


def odd_block(params, w, M):
    """The odd block of the linearised residual at the even point w: sine
    modes 1..M in, sine coefficients 1..M out, by central differences one
    column at a time (`jacobian_loop`, not `jacobian_fd`, whose rows are
    cosine only), of F in deep water and of FD otherwise, as `newton_solve`
    picks.  At a solution translation lies in its kernel: F(w(. + s)) =
    F(w)(. + s), so the block maps w' = -sum m a_m sin mt to zero, up to
    the modes past M."""
    from capwave import operators

    residual = operators.residual_inf if params.is_infinite else operators.residual_fd
    return jacobian_loop(lambda u: residual(params, u), w, M, basis_in="sine", basis_out="sine")


def mul_eager(f, g):
    """`spectral.mul` without its cache: both operands resized to the 2x grid
    and inverse-transformed afresh, and the samples of the product computed
    at once, as every product was before representations were computed on
    first read."""
    from capwave.spectral import PeriodicFunction, _coeffs_of, _resize, _samples_of

    f._check_grid(g)
    n = f.n_grid
    fine = _samples_of(_resize(f.coeffs, 2 * n)) * _samples_of(_resize(g.coeffs, 2 * n))
    c = _resize(_coeffs_of(fine), n)
    return PeriodicFunction(c, _samples_of(c))


def coeffs_two_pass(samples, out=None):
    """Modes as `spectral._coeffs_of` computed them before pocketfft applied
    the 1/n: the forward transform, then a complex division by n."""
    c = np.fft.fft(samples, out=out)
    c /= samples.shape[-1]
    return c


def samples_two_pass(coeffs, out=None):
    """Samples as `spectral._samples_of` computed them before it took the real
    part first: the inverse transform, a complex product with n, then a copy
    of the real part."""
    s = np.fft.ifft(coeffs, out=out)
    s *= coeffs.shape[-1]
    return s.real.copy()


def add_negated(f, g):
    """f - g as `PeriodicFunction.__sub__` computed it before it was one
    pass: f plus the negated g, a temporary on each representation."""
    return f + (-g)


def plus_minus_stack(base, basis, modes, step):
    """The +-step stack of `jacobian_fd`: the unit modes scaled by step, that
    stack and its negation concatenated, and base added to every row (its
    modes are the reference, written apart from `linearization` so that a
    change there that moves a bit on a special base shows)."""
    from capwave.spectral import PeriodicFunction

    series = (np.arange(1, modes[-1] + 1) == modes[:, None]).astype(float)
    if basis == "cosine":
        e = step * PeriodicFunction.from_cosine_series(series, base.n_grid)
    else:
        e = step * PeriodicFunction.from_sine_series(series, base.n_grid)
    return base + PeriodicFunction(np.concatenate([e.coeffs, -e.coeffs]))


def residual_G_tilde(beta, theta):
    """The pushed-forward w-residual evaluated directly from its own display:

        Gt(theta) = (e^{C th} sin th)'
                    - (1/2b) e^{C th} sin th * C(e^{-C th})
                    + (r/2b) e^{C th} sin th * C(e^{C th})
                    - (1/2b) e^{C th} cos th * e^{-C th}
                    + (r/2b) e^{C th} cos th * e^{C th},

    with r = [e^{-C th}]/[e^{C th}].  Identically equal to
    e^{C th} sin th * C(G) + e^{C th} cos th * G, row by row on a stack.
    """
    from capwave.operators import angle_terms
    from capwave.spectral import PeriodicFunction, derivative, hilbert, mul

    ep, em, half, half_r = angle_terms(beta, theta)
    eps_ = mul(ep, PeriodicFunction.from_samples(np.sin(theta.samples)))
    epc = mul(ep, PeriodicFunction.from_samples(np.cos(theta.samples)))
    return (derivative(eps_)
            - half * mul(eps_, hilbert(em))
            + half_r * mul(eps_, hilbert(ep))
            - half * mul(epc, em)
            + half_r * mul(epc, ep))


def bordered_sheet(beta, h, gamma, eps_values, M, n):
    """Points of the finite-depth sheet at beta met from the flat-water end:
    a list of (alpha, a_1..a_M), one per eps in `eps_values`, in their order.

    Near the pitchfork alpha is a poor parameter and the amplitude a good one,
    so a bordered Newton solve fixes a_1 = eps and takes (alpha, a_2, .., a_M)
    as the unknowns of the M equations "cosine modes 1..M of residual_fd(w) =
    0", w = sum a_m cos mt on n points.  Its Jacobian is a central difference
    of 1e-7 per unknown; the modes and the samples are plain numpy.  Each eps
    takes at most 12 steps to bring every mode below 1e-13.  The first eps
    starts from w = eps cos t at `flat_water_alpha`, and each later one from
    the point before it, so the values should run away from 0.  Stop short of
    a_1 = 4(-A) at alpha = 0: FD depends on alpha through alpha^(3/4) there,
    and the bordered Jacobian is singular.
    """
    from capwave.operators import WaveParams, residual_fd
    from capwave.spectral import PeriodicFunction

    cos = np.cos(np.outer(np.arange(1, M + 1), 2.0 * np.pi * np.arange(n) / n))

    def modes(alpha, a):  # cosine modes 1..M of FD at each row of a
        w = PeriodicFunction.from_samples(a @ cos)
        r = residual_fd(WaveParams(alpha, beta, gamma=gamma, h=h), w).samples
        return 2.0 * np.fft.rfft(r)[..., 1:M + 1].real / n

    step = 1e-7
    alpha, a, points = flat_water_alpha(beta, h, gamma), np.zeros(M), []
    for eps in eps_values:
        a[0] = eps
        for _ in range(12):
            r = modes(alpha, a)
            if np.max(np.abs(r)) < 1e-13:
                break
            jac = np.empty((M, M))
            jac[:, 0] = (modes(alpha + step, a) - modes(alpha - step, a)) / (2.0 * step)
            e = step * np.eye(M)[1:]
            pm = modes(alpha, np.concatenate([a + e, a - e]))
            jac[:, 1:] = (pm[:M - 1] - pm[M - 1:]).T / (2.0 * step)
            dx = np.linalg.solve(jac, -r)
            alpha, a[1:] = alpha + dx[0], a[1:] + dx[1:]
        else:
            raise RuntimeError(f"no convergence at a_1 = {eps}: residual {np.max(np.abs(r)):.3g}")
        points.append((alpha, a.copy()))
    return points


def sine_coefficients(f, n_modes):
    """Coefficients b_n of the odd part of the PeriodicFunction f, f_odd = sum
    b_n sin nt, behind the grid check of `cosine_coefficients`."""
    from capwave.spectral import _check_grid_holds

    _check_grid_holds(f.n_grid, n_modes)
    return -2.0 * f.coeffs[..., 1 : 1 + n_modes].imag


def zeros(n):
    """Flat water, w = 0, as a PeriodicFunction on n points (behind the grid
    check of `from_cosine_series`)."""
    from capwave.spectral import PeriodicFunction

    return PeriodicFunction.from_cosine_series([], n)


def longdouble_samples(a, n):
    """(w, w', C w', w'') on n points in np.longdouble, w = sum a_m cos mt for
    the cosine coefficients a = (a_1, a_2, ..): the arguments after (alpha,
    beta) of `deep_residual_on_samples`.  Each is an inverse FFT of modes
    multiplied by 1, i k, |k| and -k^2; np.fft transforms long double in its
    own precision (numpy >= 2.0)."""
    a = np.asarray(a, dtype=np.longdouble)
    m = np.arange(1, len(a) + 1)
    c = np.zeros(n, dtype=np.clongdouble)
    c[m] = c[n - m] = a / 2
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.longdouble)
    return tuple(n * np.fft.ifft(c * mult).real
                 for mult in (np.ones(n, dtype=np.longdouble), 1j * k, np.abs(k), -k * k))
