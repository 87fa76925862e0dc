"""2pi-periodic functions as paired grid samples and Fourier modes.

Everything downstream (wave residuals, Newton solves, surface geometry) is
built on three exact Fourier-multiplier operators acting on trigonometric
interpolants:

    derivative      mode m -> i*m
    hilbert         mode m -> -i*sgn(m)            (cos mt -> sin mt)
    hilbert_strip   mode m -> -i*sgn(m)*coth(|m|d) (conjugation for a strip
                                                    of conformal depth d)

The modes are kept in plain ``np.fft.fft`` order (mean at index 0, Nyquist
mode at n/2): the forward FFT with its 1/n applied inside pocketfft.  The
samples are n times the real part of the inverse FFT.  Each is one pass with
the bits of the complex scaling it replaced, except that a real part of -0.0
keeps its sign and one beside a non-finite imaginary part is no longer NaN.
The multipliers of `derivative` and `hilbert` are built once per grid, those
of `hilbert_strip` once per depth in a bounded cache.  Nonlinear algebra
happens sample by sample on the collocation grid; products are evaluated on a
2x zero-padded grid and truncated back, so the retained band of a product of
two band-limited functions is alias-free.  The conjugations zero mode 0, so
they accept any mean: the mean of their input is never tested.

Two buffers that nothing else holds are transformed in place (numpy's
``out=``): the 2x-grid modes from `_resize` that `_fine_samples` inverts, and
the complex buffer whose real part holds the 2x-grid product in `mul`.  Every
other transform reads a cached representation and writes a new array.  The
bits are those of the transforms without ``out=``, which cast a real input
to complex in a buffer of their own.

A `PeriodicFunction` holds one function (arrays of shape (n,)) or a stack of
them (shape (..., n), one function per row).  Every transform acts along the
last axis, `mean` gives one value per row, and a check raises when any row
fails it.  A stack row carries the same bits as the one-function computation
on that row, so a stack of finite-difference perturbations is one residual
call, not many.

A `PeriodicFunction` is made from its modes, given by the expression of the
operation that made it (a forward transform when it is made from samples).
Its samples are handed over by a sample-wise operation, deferred by
arithmetic (`f + g` adds the samples of f and g when its samples are read),
or else the inverse transform of the modes; they and its samples on the 2x
zero-padded grid are computed once, on first read, so a transform that
nothing reads never runs.  A deferred result holds its operands' pending
computations, not the operands with their modes; an operand read as well
computes its samples a second time, with the same bits (no residual does).
So a result whose samples stay unread keeps alive all that they would need:
a caller that reads only its modes rebuilds it as `PeriodicFunction(f.coeffs)`
(a residual's brackets, a Jacobian chunk's rows), which lets that go.
Every array is frozen read-only.  Two threads that force the same samples at
once compute the same bits and one of them is kept: the race is benign.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class DegenerateMetricError(ValueError):
    """A sample-wise quantity required to stay away from zero got below 1e-12,
    or a conjugation met a non-finite input (an overflowed trial)."""


_GRIDS: dict[int, tuple[np.ndarray, ...]] = {}


def _check_grid_holds(n_grid, M=0):
    """The one grid contract: n_grid even and >= 4, holding modes 1..M for 0 <= M < n_grid/2."""
    if n_grid < 4 or n_grid % 2:
        raise ValueError(f"n_grid must be even and >= 4, got {n_grid}")
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    if M >= n_grid // 2:
        raise ValueError(f"M = {M} needs at least {2 * M + 2} grid points, got {n_grid}")


def grid(n_grid: int) -> np.ndarray:
    """Collocation points t_j = 2*pi*j/n_grid."""
    return _grid_arrays(n_grid)[0]


def _grid_arrays(n_grid):
    """(t, m, derivative multiplier, hilbert multiplier, cos t, sin t), read-only."""
    if n_grid not in _GRIDS:
        _check_grid_holds(n_grid)
        t = 2.0 * np.pi * np.arange(n_grid) / n_grid
        # mode numbers in FFT order: 0 .. n/2-1, -n/2 .. -1
        m = np.fft.fftfreq(n_grid, 1.0 / n_grid)
        _GRIDS[n_grid] = tuple(map(_frozen, (t, m, 1j * m, -1j * np.sign(m), np.cos(t), np.sin(t))))
    return _GRIDS[n_grid]


def _coeffs_of(samples, out=None):
    # pocketfft multiplies by 1/n in its last pass, as the division by n did
    return np.fft.fft(samples, norm="forward", out=out)


def _samples_of(coeffs, out=None):
    # the real part of ifft(c) * (n + 0j), without the complex product
    return np.fft.ifft(coeffs, out=out).real * coeffs.shape[-1]


def _resize(coeffs, n_new):
    """Modes of the same trigonometric interpolant on an n_new-point grid.

    Growing splits the Nyquist mode evenly between +-n/2; shrinking folds
    the modes +-n_new/2 onto the new Nyquist mode, which for a real signal
    carries their combined real part.
    """
    n = coeffs.shape[-1]
    out = np.empty(coeffs.shape[:-1] + (n_new,), dtype=complex)
    # a[..., j] through a.T[j]: a scalar, not a 0-d array, for one function
    c_t, out_t = coeffs.T, out.T
    if n_new > n:
        h = n // 2
        out[..., :h] = coeffs[..., :h]
        out[..., n_new - h + 1:] = coeffs[..., h + 1:]
        out[..., h + 1:n_new - h] = 0.0  # the padding
        out_t[n_new - h] = 0.5 * c_t[h]
        out_t[h] = 0.5 * np.conj(c_t[h])
    else:
        h = n_new // 2
        out[..., :h] = coeffs[..., :h]
        out[..., h + 1:] = coeffs[..., n - h + 1:]
        out_t[h] = (c_t[n - h] + np.conj(c_t[h])).real
    return out


def _frozen(a):
    a.flags.writeable = False
    return a


def _later(f):
    """A function that returns f's samples when called: f's pending sample
    computation itself, or a function holding the array f has already.  A
    deferred result keeps alive what it will read, not f with its modes."""
    s = f._samples
    return s if callable(s) else (lambda: s)


def _per_row(x):
    """A scalar as a float, or one value per row as a column that broadcasts
    along the grid axis."""
    if isinstance(x, np.ndarray) and x.ndim:
        return x.astype(float, copy=False)[..., None]
    return float(x)


class PeriodicFunction:
    """Real 2pi-periodic function on an even collocation grid.

    Has ``samples`` on t_j = 2*pi*j/n and complex modes ``coeffs`` in FFT
    order (index k holds mode k for k < n/2 and mode k - n above; the mean
    sits at 0, the Nyquist mode at n/2), normalised so that
    f(t) = sum_m coeffs[m] * exp(i*m*t).  Both have shape (..., n): one
    function, or a stack of them with one per row.  The modes are given
    when the function is made; the samples, and the samples on the 2x grid
    that `mul` multiplies, on first read, then cached.  Every array handed
    out is read-only.  Instances are immutable; all operations return new
    objects and are safe to evaluate in parallel (two threads forcing the
    same samples compute the same bits).
    """

    __slots__ = ("n_grid", "_samples", "_coeffs", "_fine")
    # numpy arrays of per-row scalars defer to our operators: rows * f
    __array_ufunc__ = None

    def __init__(self, coeffs, samples=None):
        """Modes `coeffs` (kept and frozen, not copied) on a grid of their last
        axis.  `samples` is an array, a function of no arguments that computes
        it on first read (dropped once it has run, which frees the operands it
        holds), or None: the inverse transform of the modes, on first read."""
        self.n_grid = coeffs.shape[-1]
        if samples is None:
            samples = lambda: _samples_of(coeffs)
        self._samples = samples if callable(samples) else _frozen(samples)
        self._coeffs = _frozen(coeffs)
        self._fine = None

    @property
    def samples(self):
        s = self._samples
        if callable(s):
            self._samples = s = _frozen(s())
        return s

    @property
    def coeffs(self):
        return self._coeffs

    def _fine_samples(self):
        """Samples on the 2x zero-padded grid, the operand of `mul`."""
        f = self._fine
        if f is None:
            c = _resize(self.coeffs, 2 * self.n_grid)
            self._fine = f = _frozen(_samples_of(c, out=c))
        return f

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_samples(cls, values):
        return cls._of_samples(np.asarray(values, dtype=float).copy())

    @classmethod
    def _of_samples(cls, s):
        """The function with samples `s` (kept, not copied); its modes are
        their forward transform."""
        _check_grid_holds(s.shape[-1])
        return cls(_coeffs_of(s), s)

    @classmethod
    def from_cosine_series(cls, a, n_grid):
        """Build sum a[..., j]*cos((j+1)*t), a row per series; a.shape[-1] < n_grid/2."""
        half = 0.5 * np.asarray(a, dtype=float)
        return cls._from_modes(half, half, n_grid)

    @classmethod
    def from_sine_series(cls, b, n_grid):
        """Build sum b[..., j]*sin((j+1)*t), a row per series; b.shape[-1] < n_grid/2."""
        b = np.asarray(b, dtype=float)
        return cls._from_modes(-0.5j * b, 0.5j * b, n_grid)

    @classmethod
    def _from_modes(cls, pos, neg, n_grid):
        """Modes 1, 2, .. set to pos[..., 0], pos[..., 1], .. and -1, -2, .. to neg's."""
        _check_grid_holds(n_grid, pos.shape[-1])
        j = np.arange(1, pos.shape[-1] + 1)
        c = np.zeros(pos.shape[:-1] + (n_grid,), dtype=complex)
        c[..., j] = pos
        c[..., n_grid - j] = neg
        return cls(c)

    # -- basic accessors -----------------------------------------------------

    def cosine_coefficients(self, n_modes):
        """Coefficients a_n of the even part, f_even = a_0 + sum a_n cos nt."""
        _check_grid_holds(self.n_grid, n_modes)
        return 2.0 * self.coeffs[..., 1 : 1 + n_modes].real

    def resample(self, n_grid):
        """Spectral resampling (exact for band-limited data)."""
        if n_grid == self.n_grid:
            return self
        _check_grid_holds(n_grid)
        return PeriodicFunction(_resize(self.coeffs, n_grid))

    def norm_inf(self):
        return float(np.max(np.abs(self.samples)))

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other, op):
        """op(self, other) for a function `other`, on samples and on modes."""
        self._check_grid(other)
        fs, gs = _later(self), _later(other)
        return PeriodicFunction(op(self.coeffs, other.coeffs), lambda: op(fs(), gs()))

    def __add__(self, other):
        """Sum with a function, a scalar, or one scalar per row."""
        if isinstance(other, PeriodicFunction):
            return self._combine(other, np.add)
        other = _per_row(other)
        s = _later(self)
        c = np.empty(np.broadcast_shapes(self.coeffs.shape, np.shape(other)),
                     dtype=complex)  # a stack when self is not
        c[...] = self.coeffs
        c[..., :1] += other
        return PeriodicFunction(c, lambda: s() + other)

    __radd__ = __add__

    def __neg__(self):
        s = _later(self)
        return PeriodicFunction(-self.coeffs, lambda: -s())

    def __sub__(self, other):
        """One pass: f - g has the bits of f + (-g), but for the sign of a
        nan that g carried."""
        if isinstance(other, PeriodicFunction):
            return self._combine(other, np.subtract)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PeriodicFunction):
            return mul(self, other)
        other = _per_row(other)
        s = _later(self)
        return PeriodicFunction(self.coeffs * other, lambda: s() * other)

    __rmul__ = __mul__

    def _check_grid(self, other):
        if self.n_grid != other.n_grid:
            raise ValueError(f"grid mismatch: {self.n_grid} vs {other.n_grid}")


# -- linear multiplier operators ----------------------------------------------


def mean(f: PeriodicFunction):
    """Mean over one period (mode-0 coefficient): a float, or an array with
    one value per row of a stack."""
    if f.coeffs.ndim == 1:
        return float(f.coeffs[0].real)
    return f.coeffs[..., 0].real


def _multiply(f, mult, conjugation=None):
    if conjugation and not np.isfinite(f.coeffs).all():  # an overflowed trial: a failed step
        raise DegenerateMetricError(f"{conjugation} got non-finite samples")
    c = f.coeffs * mult
    c[..., f.n_grid // 2] = 0.0  # Nyquist mode has no odd-derivative representation
    return PeriodicFunction(c)


def derivative(f: PeriodicFunction) -> PeriodicFunction:
    return _multiply(f, _grid_arrays(f.n_grid)[2])


def hilbert(f: PeriodicFunction) -> PeriodicFunction:
    """Periodic Hilbert transform: cos mt -> sin mt, sin mt -> -cos mt, mean -> 0."""
    return _multiply(f, _grid_arrays(f.n_grid)[3], "hilbert")


def hilbert_strip(f: PeriodicFunction, d: float) -> PeriodicFunction:
    """Conjugation operator for a strip of depth d: mode multiplier
    -i*sgn(m)*coth(|m|d), 0 at the mean.  Tends to `hilbert` as d -> infinity."""
    if not d > 0.0:
        raise ValueError(f"strip depth must be positive, got {d}")
    return _multiply(f, _strip_multiplier(f.n_grid, d), "hilbert_strip")


@lru_cache(maxsize=16)  # a continuation meets a new depth at every step
def _strip_multiplier(n_grid, d):
    m = _grid_arrays(n_grid)[1]
    mult = np.ones(n_grid)
    nz = m != 0
    mult[nz] = 1.0 / np.tanh(np.abs(m[nz]) * d)
    return _frozen(-1j * np.sign(m) * mult)


# -- sample-wise nonlinear algebra ----------------------------------------------


def mul(f: PeriodicFunction, g: PeriodicFunction) -> PeriodicFunction:
    """De-aliased product: multiply the samples on the 2x grid (each
    operand's, computed once and kept), truncate back."""
    f._check_grid(g)
    ff, gf = f._fine_samples(), g._fine_samples()
    fine = np.empty(np.broadcast_shapes(ff.shape, gf.shape), dtype=complex)
    np.multiply(ff, gf, out=fine.real)
    fine.imag = 0.0  # the cast of the real product that the transform made
    return PeriodicFunction(_resize(_coeffs_of(fine, out=fine), f.n_grid))
