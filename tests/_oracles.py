"""Independent reference computations used by the tests.

Everything here is raw numpy on purpose: closed-form boundary values of the
disc-analytic generator of the explicit wave family, trapezoid quadrature for
means, and a self-contained FFT Hilbert transform.  None of it goes through
the package code paths it is used to check.
"""

import numpy as np


def crapper_samples(A, t):
    return 2.0 * (1.0 - A * A) / (1.0 + A * A + 2.0 * A * np.cos(t)) - 2.0


def crapper_conjugate(A, t):
    return -4.0 * A * np.sin(t) / (1.0 + A * A + 2.0 * A * np.cos(t))


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


def trapezoid_mean(samples):
    """Trapezoid quadrature of the 2pi-periodic extension over one period."""
    closed = np.concatenate([samples, samples[:1]])
    return np.trapezoid(closed) / len(samples)


def fft_hilbert(samples):
    n = len(samples)
    c = np.fft.fft(samples)
    m = np.fft.fftfreq(n, 1.0 / n)
    c = -1j * np.sign(m) * c
    c[n // 2] = 0.0
    return np.fft.ifft(c).real


def fft_derivative(samples):
    n = len(samples)
    c = np.fft.fft(samples)
    m = np.fft.fftfreq(n, 1.0 / n)
    c = 1j * m * c
    c[n // 2] = 0.0
    return np.fft.ifft(c).real


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


def pairwise_crossings(x, y, band):
    """Reference crossing sweep: orientation tests on every pair of
    non-adjacent segments, 256 rows at a time."""
    n = len(x) - 1
    ax, ay = x[:-1], y[:-1]
    bx, by = x[1:], y[1:]
    pts = []
    chunk = 256
    jj = np.arange(n)[None, :]
    for i0 in range(0, max(n - 2, 0), chunk):
        i1 = min(i0 + chunk, n - 2)
        idx = np.arange(i0, i1)
        Ax, Ay = ax[idx, None], ay[idx, None]
        Bx, By = bx[idx, None], by[idx, None]
        d1 = (bx[None, :] - ax[None, :]) * (Ay - ay[None, :]) - (by[None, :] - ay[None, :]) * (Ax - ax[None, :])
        d2 = (bx[None, :] - ax[None, :]) * (By - ay[None, :]) - (by[None, :] - ay[None, :]) * (Bx - ax[None, :])
        d3 = (Bx - Ax) * (ay[None, :] - Ay) - (By - Ay) * (ax[None, :] - Ax)
        d4 = (Bx - Ax) * (by[None, :] - Ay) - (By - Ay) * (bx[None, :] - Ax)
        proper = (d1 * d2 < 0.0) & (d3 * d4 < 0.0) & (jj >= (idx[:, None] + 2))
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
