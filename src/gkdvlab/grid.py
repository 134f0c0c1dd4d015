"""Periodic spectral discretization of the line.

The domain is the torus [-L, L) sampled at N equispaced points, standing in
for the whole real line (data is expected to decay well inside the box).
Fourier transforms follow the symmetric 1/sqrt(2*pi) convention, discretized
as Riemann sums, so that grid norms approximate their continuum values:

    u_hat(xi_k) = dx/sqrt(2*pi) * sum_j u(x_j) exp(-i x_j xi_k),
    u(x_j)      = dxi/sqrt(2*pi) * sum_k u_hat(xi_k) exp(i x_j xi_k),

with xi_k = pi*k/L for k = -N/2 .. N/2-1 (stored in FFT order).
The `Grid` methods are the one transform layer: `forward`/`inverse` hold
this convention, whose phase exp(-i x0 xi_k) = (-1)^k comes from the first
sample x0 = -L, and the real pair `real_forward`/`real_inverse` (real
samples and the modes k = 0 .. N/2) is translation-free, the plain scaled
real FFTs, with coefficients about the box's left edge, (-1)^k u_hat(xi_k).
All the solvers and the free flow do with these is translation-invariant,
so the phase enters only where a symmetric-convention spectrum becomes a
half spectrum (`Field.from_spectrum`). A centred time axis is the
periodic grid of its samples and transforms through `forward`/`inverse`.
Raw numpy FFTs elsewhere only meet round trips, products or |F|^2, where
scale and phase cancel: `solver._fine_samples`, `_nonlinearity` and
`_WindowPlan.distance`, and `norms._lag_folded_weight`.
The module also holds the `Field` type, whose dtype says whether a field is
real and follows from how the field was built: float64 from real-typed
samples or from the edge-based modes 0 .. N/2 (`Field.from_half`, which
keeps them), complex128 from complex samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class Grid:
    """Spatial grid on [-L, L) with N modes.

    Attributes
    ----------
    half_length : float
        L, positive and finite; the domain is [-L, L).
    n_modes : int
        N, even, >= 8.
    """

    half_length: float
    n_modes: int

    def __post_init__(self) -> None:
        if self.n_modes < 8 or self.n_modes % 2 != 0:
            raise ValueError(f"n_modes must be even and >= 8, got {self.n_modes}")
        if not 0 < self.half_length < np.inf:
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_modes

    @property
    def x(self) -> np.ndarray:
        """Sample points -L, -L+dx, ..., L-dx."""
        return -self.half_length + self.dx * np.arange(self.n_modes)

    @property
    def dxi(self) -> float:
        """Frequency spacing pi/L."""
        return np.pi / self.half_length

    @cached_property
    def xi(self) -> np.ndarray:
        """Frequencies pi*k/L, k = -N/2..N/2-1, in FFT order; built once per
        grid and read-only."""
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.n_modes, d=self.dx))

    @property
    def xi_max(self) -> float:
        """Nyquist magnitude pi*(N/2)/L."""
        return np.pi * (self.n_modes // 2) / self.half_length

    @property
    def inverse_scale(self) -> float:
        """dxi*N/sqrt(2*pi), the factor of the inverse transforms on a raw
        inverse DFT (whose own 1/N it cancels)."""
        return self.dxi * self.n_modes / SQRT_2PI

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Samples u(x_j) -> coefficients u_hat(xi_k) along the last axis;
        leading axes are a batch. The FFT's own output takes the scale and
        phase in place."""
        raw = np.fft.fft(values)
        return np.multiply((self.dx / SQRT_2PI) * _phase(self.n_modes), raw, out=raw)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients u_hat(xi_k) -> samples u(x_j) along the last axis;
        leading axes are a batch."""
        raw = np.fft.ifft(coeffs * _phase(self.n_modes))
        return np.multiply(self.inverse_scale, raw, out=raw)

    def real_forward(self, values: np.ndarray) -> np.ndarray:
        """Real samples u(x_j) -> the coefficients (-1)^k u_hat(xi_k) of the
        modes k = 0 .. N/2 (FFT order: the non-negative frequencies, then the
        Nyquist mode) along the last axis; leading axes are a batch. The
        other modes of real samples are their conjugates."""
        raw = np.fft.rfft(values)
        return np.multiply(self.dx / SQRT_2PI, raw, out=raw)

    def real_inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of the modes k = 0 .. N/2, as `real_forward` gives
        them -> real samples u(x_j) along the last axis; leading axes are a batch.

        The samples are those of the spectrum whose modes N/2+1 .. N-1 are
        the conjugates of modes N/2-1 .. 1. Of modes 0 and N/2, which have
        no partner, the real part is taken (the imaginary part adds only an
        imaginary part to the samples), so for such a spectrum the result
        is the real part of `inverse` of its modes (-1)^k coeffs.
        """
        raw = np.fft.irfft(coeffs, self.n_modes)
        return np.multiply(self.inverse_scale, raw, out=raw)

    def multiply(self, values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Apply the Fourier multiplier `symbol` (on `xi`, FFT order) to samples
        along the last axis; leading axes are a batch.

        Scale and phase cancel in a round trip, so the raw DFT pair does it
        with fewer roundings than `inverse(forward(values) * symbol)`.
        """
        return np.fft.ifft(np.fft.fft(values) * symbol)


def make_grid(L: float, N: int) -> Grid:
    """Build the periodic grid on [-L, L) with N modes (N even, >= 8)."""
    return Grid(half_length=float(L), n_modes=int(N))


@dataclass(frozen=True)
class Field:
    """Physical samples u(x_j) on a grid: float64 from bool, integer and
    floating samples, complex128 from complex ones whatever their imaginary
    part. Consumers route by dtype, so real data given by their spectrum
    take `Field.from_half` or `Field.from_spectrum`, not the complex inverse.

    Immutable: `values` is stored read-only; all operations return new
    fields. A writeable or borrowed array is copied. A read-only array that
    owns its data and needs no conversion is taken over without a copy;
    numpy lets its owner set it writeable again, so the caller must not.
    `spectral_values(f)` returns the spectrum u_hat(xi_k), in FFT order
    under the 1/sqrt(2*pi) convention, and `half_spectrum(f)` the
    edge-based modes 0 .. N/2 of a real field. A field built from its half
    spectrum keeps that half, read-only, beside its samples, and keeps no
    other array.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    _half: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.shape != (self.grid.n_modes,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with N={self.grid.n_modes}"
            )
        v = v.astype(np.float64 if v.dtype.kind in "biuf" else np.complex128, copy=False)
        object.__setattr__(self, "values", _owned_readonly(v, self.values))

    @classmethod
    def from_half(cls, grid: Grid, half: np.ndarray) -> "Field":
        """The real field with the edge-based modes 0 .. N/2 `half`, shape
        (N/2+1,), as `grid.real_forward` gives them: float64 samples
        `grid.real_inverse(half)`, and the half kept read-only under the
        copy rule of `values`. ValueError for any other shape."""
        h = np.asarray(half, dtype=np.complex128)
        if h.shape != (grid.n_modes // 2 + 1,):
            raise ValueError(f"half spectrum shape {h.shape}, expected ({grid.n_modes // 2 + 1},)")
        h = _owned_readonly(h, half)
        f = cls(grid, _readonly(grid.real_inverse(h)))
        object.__setattr__(f, "_half", h)
        return f

    @classmethod
    def from_spectrum(cls, grid: Grid, coeffs: np.ndarray) -> "Field":
        """The real field with the Hermitian spectrum `coeffs`, shape (N,),
        in FFT order and the symmetric convention: `from_half` of its modes
        0 .. N/2 times the phase (-1)^k; the other modes are not read.
        ValueError for any other shape."""
        hat = np.asarray(coeffs, dtype=np.complex128)
        if hat.shape != (grid.n_modes,):
            raise ValueError(f"spectrum shape {hat.shape}, expected ({grid.n_modes},)")
        modes = grid.n_modes // 2 + 1
        return cls.from_half(grid, _readonly(hat[:modes] * _phase(grid.n_modes)[:modes]))


def _owned_readonly(v: np.ndarray, given) -> np.ndarray:
    """`v` (the converted view of `given`), stored read-only: copied unless
    it owns its data and is either a new array made by the dtype conversion
    or read-only. A read-only array is taken over, not copied; its owner can
    still reset its writeable flag and must not."""
    if not v.flags.owndata or (v is given and v.flags.writeable):
        v = v.copy()
    v.flags.writeable = False
    return v


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark a freshly made array read-only, so that a field shares it
    instead of copying it."""
    a.flags.writeable = False
    return a


def field_from_function(grid: Grid, fn) -> Field:
    """Sample a callable u(x) on the grid."""
    return Field(grid, fn(grid.x))


@lru_cache(maxsize=16)
def _phase(n_modes: int) -> np.ndarray:
    """exp(-i x0 xi_k) for x0 = -L is exactly (-1)^k; self-inverse.

    Cached per n_modes and read-only: every transform shares the array.
    """
    phase = 1.0 - 2.0 * (np.arange(n_modes) % 2).astype(np.float64)
    phase.flags.writeable = False
    return phase


@lru_cache(maxsize=16)
def _half_weights(n_modes: int) -> np.ndarray:
    """Parseval weights (1, 2, ..., 2, 1) of the modes 0 .. N/2 of a real
    field: each mode 0 < k < N/2 stands for its conjugate partner too.

    Cached per n_modes and read-only.
    """
    half = n_modes // 2
    weights = np.full(half + 1, 2.0)
    weights[0] = weights[half] = 1.0
    return _readonly(weights)


def spectral_values(f: Field) -> np.ndarray:
    """Spectral coefficients u_hat(xi_k) of f: the transform of its samples."""
    return f.grid.forward(f.values)


def half_spectrum(f: Field) -> np.ndarray:
    """The edge-based coefficients of the modes 0 .. N/2 of a field with
    (float64) real samples, the input of `grid.real_inverse`: the half a
    field built by `Field.from_half` keeps (read-only), else the real
    transform of its samples."""
    if f._half is not None:
        return f._half
    return f.grid.real_forward(f.values)
