"""2pi-periodic functions as paired grid samples and Fourier modes.

Everything downstream (wave residuals, Newton solves, surface geometry) is
built on three exact Fourier-multiplier operators acting on trigonometric
interpolants:

    derivative      mode m -> i*m
    hilbert         mode m -> -i*sgn(m)            (cos mt -> sin mt)
    hilbert_strip   mode m -> -i*sgn(m)*coth(|m|d) (conjugation for a strip
                                                    of conformal depth d)

The modes are kept in plain ``np.fft.fft`` order (mean at index 0, Nyquist
mode at n/2).  Nonlinear algebra happens sample by sample on the collocation
grid; products are evaluated on a 2x zero-padded grid and
truncated back, so the retained band of a product of two band-limited
functions is alias-free.  Whether a mean is zero is decided when an operator
needs it, never stored.
"""

from __future__ import annotations

import numpy as np

MEAN_TOL = 1e-13
DEGENERATE_TOL = 1e-12


class DegenerateMetricError(ValueError):
    """A sample-wise quantity required to stay away from zero got below 1e-12,
    or an operator met non-finite samples."""


_GRIDS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def grid(n_grid: int) -> np.ndarray:
    """Collocation points t_j = 2*pi*j/n_grid."""
    return _grid_pair(n_grid)[0]


def _grid_pair(n_grid):
    if n_grid not in _GRIDS:
        if n_grid < 4 or n_grid % 2 != 0:
            raise ValueError(f"n_grid must be even and >= 4, got {n_grid}")
        t = 2.0 * np.pi * np.arange(n_grid) / n_grid
        # mode numbers in FFT order: 0 .. n/2-1, -n/2 .. -1
        m = np.fft.fftfreq(n_grid, 1.0 / n_grid)
        t.flags.writeable = False
        m.flags.writeable = False
        _GRIDS[n_grid] = (t, m)
    return _GRIDS[n_grid]


def _coeffs_of(samples):
    return np.fft.fft(samples) / len(samples)


def _samples_of(coeffs):
    return (np.fft.ifft(coeffs) * len(coeffs)).real


def _resize(coeffs, n_new):
    """Modes of the same trigonometric interpolant on an n_new-point grid.

    Growing splits the Nyquist mode evenly between +-n/2; shrinking folds
    the modes +-n_new/2 onto the new Nyquist mode, which for a real signal
    carries their combined real part.
    """
    n = len(coeffs)
    out = np.zeros(n_new, dtype=complex)
    if n_new > n:
        h = n // 2
        out[:h] = coeffs[:h]
        out[n_new - h + 1:] = coeffs[h + 1:]
        out[n_new - h] = 0.5 * coeffs[h]
        out[h] = 0.5 * np.conj(coeffs[h])
    else:
        h = n_new // 2
        out[:h] = coeffs[:h]
        out[h + 1:] = coeffs[n - h + 1:]
        out[h] = (coeffs[n - h] + np.conj(coeffs[h])).real
    return out


class PeriodicFunction:
    """Real 2pi-periodic function on an even collocation grid.

    Carries both representations at all times: ``samples`` on t_j = 2*pi*j/n
    and complex modes ``coeffs`` in FFT order (index k holds mode k for
    k < n/2 and mode k - n above; the mean sits at 0, the Nyquist mode at
    n/2), normalised so that f(t) = sum_m coeffs[m] * exp(i*m*t).  Instances
    are immutable; all operations return new objects and are safe to
    evaluate in parallel.
    """

    __slots__ = ("n_grid", "samples", "coeffs")

    def __init__(self, samples, coeffs):
        self.n_grid = len(samples)
        self.samples = samples
        self.coeffs = coeffs
        samples.flags.writeable = False
        coeffs.flags.writeable = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_samples(cls, values):
        values = np.asarray(values, dtype=float).copy()
        if len(values) % 2 != 0:
            raise ValueError("grid length must be even")
        return cls(values, _coeffs_of(values))

    @classmethod
    def from_coeffs(cls, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex).copy()
        return cls(_samples_of(coeffs), coeffs)

    @classmethod
    def from_cosine_series(cls, a, n_grid):
        """Build sum a[j]*cos((j+1)*t); len(a) must be < n_grid/2."""
        half = 0.5 * np.asarray(a, dtype=float)
        return cls._from_modes(half, half, n_grid)

    @classmethod
    def from_sine_series(cls, b, n_grid):
        """Build sum b[j]*sin((j+1)*t); len(b) must be < n_grid/2."""
        b = np.asarray(b, dtype=float)
        return cls._from_modes(-0.5j * b, 0.5j * b, n_grid)

    @classmethod
    def _from_modes(cls, pos, neg, n_grid):
        """Modes 1, 2, .. set to `pos` and modes -1, -2, .. to `neg`."""
        if len(pos) >= n_grid // 2:
            raise ValueError("too many modes for the grid")
        c = np.zeros(n_grid, dtype=complex)
        j = np.arange(1, len(pos) + 1)
        c[j] = pos
        c[n_grid - j] = neg
        return cls(_samples_of(c), c)

    @classmethod
    def zeros(cls, n_grid):
        return cls.from_samples(np.zeros(n_grid))

    # -- basic accessors -----------------------------------------------------

    @property
    def t(self):
        return grid(self.n_grid)

    def cosine_coefficients(self, n_modes):
        """Coefficients a_n of the even part, f_even = a_0 + sum a_n cos nt."""
        if n_modes >= self.n_grid // 2:
            raise ValueError("n_modes exceeds grid resolution")
        return 2.0 * self.coeffs[1 : 1 + n_modes].real

    def sine_coefficients(self, n_modes):
        """Coefficients b_n of the odd part, f_odd = sum b_n sin nt."""
        if n_modes >= self.n_grid // 2:
            raise ValueError("n_modes exceeds grid resolution")
        return -2.0 * self.coeffs[1 : 1 + n_modes].imag

    def resample(self, n_grid):
        """Spectral resampling (exact for band-limited data)."""
        if n_grid == self.n_grid:
            return self
        c = _resize(self.coeffs, n_grid)
        return PeriodicFunction(_samples_of(c), c)

    def norm_inf(self):
        return float(np.max(np.abs(self.samples)))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PeriodicFunction):
            self._check_grid(other)
            return PeriodicFunction(self.samples + other.samples, self.coeffs + other.coeffs)
        other = float(other)
        c = self.coeffs.copy()
        c[0] += other
        return PeriodicFunction(self.samples + other, c)

    __radd__ = __add__

    def __neg__(self):
        return PeriodicFunction(-self.samples, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PeriodicFunction):
            return mul(self, other)
        other = float(other)
        return PeriodicFunction(self.samples * other, self.coeffs * other)

    __rmul__ = __mul__

    def _check_grid(self, other):
        if self.n_grid != other.n_grid:
            raise ValueError(f"grid mismatch: {self.n_grid} vs {other.n_grid}")


# -- linear multiplier operators ----------------------------------------------


def mean(f: PeriodicFunction) -> float:
    """Mean over one period (mode-0 coefficient)."""
    return float(f.coeffs[0].real)


def _mean_is_zero(f):
    return abs(mean(f)) < MEAN_TOL * (1.0 + np.max(np.abs(f.samples)))


def drop_mean(f: PeriodicFunction) -> PeriodicFunction:
    """Subtract the scalar mean; cheap way to feed hilbert with intermediates."""
    return f if _mean_is_zero(f) else f - mean(f)


def _require_zero_mean(f, name):
    if _mean_is_zero(f):
        return
    # an inf or nan sample makes the mean non-finite, so it lands here too
    if not np.all(np.isfinite(f.samples)):
        raise DegenerateMetricError(f"{name} got non-finite samples")
    raise ValueError(f"{name} requires a zero-mean input (mean={mean(f):.3e}); "
                     "subtract the mean explicitly first")


def _multiply(f, mult):
    c = f.coeffs * mult
    c[f.n_grid // 2] = 0.0  # Nyquist mode has no odd-derivative representation
    return PeriodicFunction(_samples_of(c), c)


def derivative(f: PeriodicFunction) -> PeriodicFunction:
    m = _grid_pair(f.n_grid)[1]
    return _multiply(f, 1j * m)


def hilbert(f: PeriodicFunction) -> PeriodicFunction:
    """Periodic Hilbert transform: cos mt -> sin mt, sin mt -> -cos mt."""
    _require_zero_mean(f, "hilbert")
    m = _grid_pair(f.n_grid)[1]
    return _multiply(f, -1j * np.sign(m))


def hilbert_strip(f: PeriodicFunction, d: float) -> PeriodicFunction:
    """Conjugation operator for a strip of depth d: mode multiplier
    -i*sgn(m)*coth(|m|d).  Tends to `hilbert` as d -> infinity."""
    if not d > 0.0:
        raise ValueError(f"strip depth must be positive, got {d}")
    _require_zero_mean(f, "hilbert_strip")
    m = _grid_pair(f.n_grid)[1]
    mult = np.ones(f.n_grid)
    nz = m != 0
    mult[nz] = 1.0 / np.tanh(np.abs(m[nz]) * d)
    return _multiply(f, -1j * np.sign(m) * mult)


def kappa_tail_bound(d: float, p: int = 0) -> float:
    """sup over m >= 1 of m^(p+1) * 2/(e^(2md) - 1).

    Controls how fast the strip conjugation approaches the half-plane one:
    the mode-m discrepancy multiplier is lambda_m = 2/(e^(2|m|d)-1).
    """
    if not d > 0.0:
        raise ValueError(f"strip depth must be positive, got {d}")
    if p < 0:
        raise ValueError("p must be >= 0")
    best = 0.0
    prev = np.inf
    m = 1
    while True:
        term = m ** (p + 1) * 2.0 / np.expm1(2.0 * m * d)
        best = max(best, term)
        # terms decay monotonically once past the (possible) interior maximum
        if term < prev and term < 1e-17 * (1.0 + best):
            return best
        prev = term
        m += 1
        if m > 100000:  # pragma: no cover - d tiny enough to be unusable anyway
            return best


# -- sample-wise nonlinear algebra ----------------------------------------------


def mul(f: PeriodicFunction, g: PeriodicFunction) -> PeriodicFunction:
    """De-aliased product: evaluate on the 2x grid, truncate back."""
    f._check_grid(g)
    n = f.n_grid
    fine = _samples_of(_resize(f.coeffs, 2 * n)) * _samples_of(_resize(g.coeffs, 2 * n))
    c = _resize(_coeffs_of(fine), n)
    return PeriodicFunction(_samples_of(c), c)


def pf_exp(f: PeriodicFunction) -> PeriodicFunction:
    return PeriodicFunction.from_samples(np.exp(f.samples))


def pf_pow(f: PeriodicFunction, r: float) -> PeriodicFunction:
    if r != int(r) or r < 0:
        if np.min(f.samples) < DEGENERATE_TOL:
            raise DegenerateMetricError("pow base not bounded away from zero")
    return PeriodicFunction.from_samples(np.power(f.samples, r))


def pf_sin(f: PeriodicFunction) -> PeriodicFunction:
    return PeriodicFunction.from_samples(np.sin(f.samples))


def pf_cos(f: PeriodicFunction) -> PeriodicFunction:
    return PeriodicFunction.from_samples(np.cos(f.samples))


def pf_atan2(y: PeriodicFunction, x: PeriodicFunction) -> PeriodicFunction:
    """Sample-wise atan2(y, x)."""
    y._check_grid(x)
    return PeriodicFunction.from_samples(np.arctan2(y.samples, x.samples))
