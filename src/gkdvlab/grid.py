"""Periodic spectral discretization of the line.

The domain is the torus [-L, L) sampled at N equispaced points, standing in
for the whole real line (data is expected to decay well inside the box).
Fourier transforms follow the symmetric 1/sqrt(2*pi) convention, discretized
as Riemann sums, so that grid norms approximate their continuum values:

    u_hat(xi_k) = dx/sqrt(2*pi) * sum_j u(x_j) exp(-i x_j xi_k),
    u(x_j)      = dxi/sqrt(2*pi) * sum_k u_hat(xi_k) exp(i x_j xi_k),

with xi_k = pi*k/L for k = -N/2 .. N/2-1 (stored in FFT order).
The `Grid` methods `forward`, `inverse`, the real pair `real_forward`/
`real_inverse` (real samples and the modes k = 0 .. N/2), and
`from_dft`/`to_dft` (between these coefficients and raw DFT ones) are the
one place this convention is written down; other modules transform the x
axis through them, except three kernels on raw numpy FFTs:
`norms.bilinear_multiplier` (scale and phase cancel in its convolution),
the solver's padded product, whose tables come from `to_dft`/`from_dft`,
and the real route of `spacetime.free_evolution`, whose cached propagator
table carries `real_inverse`'s phase (-1)^k and which applies the grid's
`inverse_scale` after its `irfft`.
Along the time axis `spacetime` holds the transform pair; the Picard
distance and its weight (`norms._lag_folded_weight`) run raw numpy FFTs
there, since only |F|^2 against a weight enters them.
The module also holds the `Field` type, whose dtype says whether a field is
real (`is_real` is applied when a field is built from complex samples; one
built by `Field.from_spectrum` from a Hermitian spectrum gets float64
samples from `real_inverse` and is not scanned), and `apply_multiplier`.
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

    def from_dft(self, raw: np.ndarray) -> np.ndarray:
        """Transform-convention coefficients from raw DFT coefficients.

        Scales and phase-corrects the last axis; leading axes are a batch.
        """
        return (self.dx / SQRT_2PI) * _phase(self.n_modes) * raw

    def to_dft(self, coeffs: np.ndarray) -> np.ndarray:
        """Raw DFT coefficients from transform-convention ones (the inverse
        of `from_dft`) along the last axis; leading axes are a batch."""
        return (SQRT_2PI / self.dx) * _phase(self.n_modes) * coeffs

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Samples u(x_j) -> coefficients u_hat(xi_k) along the last axis;
        leading axes are a batch. The FFT's own output takes `from_dft`'s
        scale and phase in place."""
        raw = np.fft.fft(values)
        return np.multiply((self.dx / SQRT_2PI) * _phase(self.n_modes), raw, out=raw)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients u_hat(xi_k) -> samples u(x_j) along the last axis;
        leading axes are a batch."""
        raw = np.fft.ifft(coeffs * _phase(self.n_modes))
        return np.multiply(self.inverse_scale, raw, out=raw)

    def real_forward(self, values: np.ndarray) -> np.ndarray:
        """Real samples u(x_j) -> the coefficients u_hat(xi_k) of the modes
        k = 0 .. N/2 (FFT order: the non-negative frequencies, then the
        Nyquist mode) along the last axis; leading axes are a batch. The
        other modes of real samples are their conjugates."""
        raw = np.fft.rfft(values)
        return np.multiply((self.dx / SQRT_2PI) * _half_phase(self.n_modes), raw, out=raw)

    def real_inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of the modes k = 0 .. N/2 -> real samples u(x_j)
        along the last axis; leading axes are a batch.

        The samples are those of the spectrum whose modes N/2+1 .. N-1 are
        the conjugates of modes N/2-1 .. 1. Of modes 0 and N/2, which have
        no partner, the real part is taken (the imaginary part adds only an
        imaginary part to the samples), so for such a spectrum the result
        equals `inverse(coeffs).real`.
        """
        raw = np.fft.irfft(coeffs * _half_phase(self.n_modes), self.n_modes)
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


def is_real(values: np.ndarray) -> bool:
    """Whether complex samples count as real data: max |imag| <= 1e-12 *
    max |real|, with no absolute floor (that would drop the imaginary part
    of a small field). `Field` applies it when a field is built from
    complex samples. NaN samples do not fail it."""
    return not np.abs(values.imag).max() > 1e-12 * np.abs(values.real).max()


@dataclass(frozen=True)
class Field:
    """Physical samples u(x_j) on a grid, float64 when real: bool, integer
    and floating samples, and complex ones that pass `is_real` (their real
    part). Other complex samples are complex128. Consumers route by dtype.

    Immutable: `values` is stored read-only; all operations return new
    fields. A writeable or borrowed array is copied. A read-only array that
    owns its data and needs no conversion is taken over without a copy;
    numpy lets its owner set it writeable again, so the caller must not.
    `spectral_values(f)` returns the spectrum u_hat(xi_k), in FFT order
    under the 1/sqrt(2*pi) convention; the real field with a given
    Hermitian spectrum is `Field.from_spectrum(grid, coeffs)`, which keeps
    that spectrum, so `spectral_values` returns it without a transform.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    _spectrum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.shape != (self.grid.n_modes,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with N={self.grid.n_modes}"
            )
        v = v.astype(np.float64 if v.dtype.kind in "biuf" else np.complex128, copy=False)
        if v.dtype == np.complex128 and is_real(v):
            v = v.real
        object.__setattr__(self, "values", _owned_readonly(v, self.values))

    @classmethod
    def from_spectrum(cls, grid: Grid, coeffs: np.ndarray) -> "Field":
        """The real field with the Hermitian spectrum `coeffs` (FFT order,
        mode N-k the conjugate of mode k, as a real field's is), stored
        read-only beside its float64 samples under the copy rule of
        `values`. The samples are `grid.real_inverse` of the modes 0 .. N/2;
        the other modes are not read."""
        hat = np.asarray(coeffs, dtype=np.complex128)
        f = cls(grid, _readonly(grid.real_inverse(hat[: grid.n_modes // 2 + 1])))
        object.__setattr__(f, "_spectrum", _owned_readonly(hat, coeffs))
        return f


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


def _half_phase(n_modes: int) -> np.ndarray:
    """`_phase` on the modes 0 .. N/2 of the real pair (a read-only view)."""
    return _phase(n_modes)[: n_modes // 2 + 1]


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
    """Spectral coefficients u_hat(xi_k) of f: the spectrum it was built
    from, if any (read-only), else the transform of its samples."""
    if f._spectrum is not None:
        return f._spectrum
    return f.grid.forward(f.values)


def half_spectrum(f: Field) -> np.ndarray:
    """The coefficients of the modes 0 .. N/2 of a field with (float64) real
    samples, the input of `grid.real_inverse`."""
    if f._spectrum is not None:
        return f._spectrum[: f.grid.n_modes // 2 + 1]
    return f.grid.real_forward(f.values)


def apply_multiplier(f: Field, symbol: np.ndarray) -> Field:
    """Multiply the spectrum by `symbol` (given on grid.xi)."""
    return Field(f.grid, _readonly(f.grid.inverse(spectral_values(f) * symbol)))

