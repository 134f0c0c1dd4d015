"""Periodic spectral discretization of the line.

The domain is the torus [-L, L) sampled at N equispaced points, standing in
for the whole real line (data is expected to decay well inside the box).
Fourier transforms follow the symmetric 1/sqrt(2*pi) convention, discretized
as Riemann sums, so that grid norms approximate their continuum values:

    u_hat(xi_k) = dx/sqrt(2*pi) * sum_j u(x_j) exp(-i x_j xi_k),
    u(x_j)      = dxi/sqrt(2*pi) * sum_k u_hat(xi_k) exp(i x_j xi_k),

with xi_k = pi*k/L for k = -N/2 .. N/2-1 (stored in FFT order).
The `Grid` methods `forward`, `inverse` and `from_dft` (for raw DFT output)
are the one place this convention is written down; every other module
transforms the x axis through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)

PHYSICAL = "physical"
SPECTRAL = "spectral"


@dataclass(frozen=True)
class Grid:
    """Spatial grid on [-L, L) with N modes.

    Attributes
    ----------
    half_length : float
        L; the domain is [-L, L).
    n_modes : int
        N, even, >= 8.
    """

    half_length: float
    n_modes: int

    def __post_init__(self) -> None:
        if self.n_modes < 8 or self.n_modes % 2 != 0:
            raise ValueError(f"n_modes must be even and >= 8, got {self.n_modes}")
        if not self.half_length > 0:
            raise ValueError(f"half_length must be positive, got {self.half_length}")

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

    @property
    def xi(self) -> np.ndarray:
        """Frequencies pi*k/L, k = -N/2..N/2-1, in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_modes, d=self.dx)

    @property
    def xi_max(self) -> float:
        """Nyquist magnitude pi*(N/2)/L."""
        return np.pi * (self.n_modes // 2) / self.half_length

    @property
    def nyquist_index(self) -> int:
        return self.n_modes // 2

    def from_dft(self, raw: np.ndarray) -> np.ndarray:
        """Transform-convention coefficients from raw DFT coefficients.

        Scales and phase-corrects the last axis; leading axes are a batch.
        """
        return (self.dx / SQRT_2PI) * _phase(self.n_modes) * raw

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Samples u(x_j) -> coefficients u_hat(xi_k) along the last axis;
        leading axes are a batch."""
        return self.from_dft(np.fft.fft(values))

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients u_hat(xi_k) -> samples u(x_j) along the last axis;
        leading axes are a batch."""
        return (self.dxi * self.n_modes / SQRT_2PI) * np.fft.ifft(coeffs * _phase(self.n_modes))

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
    """Complex samples on a grid, tagged physical or spectral.

    Immutable: `values` is stored read-only; all operations return new
    fields. Physical values are samples u(x_j); spectral values are
    u_hat(xi_k) in FFT order under the 1/sqrt(2*pi) convention.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    rep: str = PHYSICAL

    def __post_init__(self) -> None:
        if self.rep not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {self.rep!r}")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n_modes,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with N={self.grid.n_modes}"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray, rep: str | None = None) -> "Field":
        return Field(self.grid, values, self.rep if rep is None else rep)


def field_from_samples(grid: Grid, values: np.ndarray) -> Field:
    return Field(grid, values, PHYSICAL)


def field_from_function(grid: Grid, fn) -> Field:
    """Sample a callable u(x) on the grid (physical representation)."""
    return Field(grid, np.asarray(fn(grid.x), dtype=np.complex128), PHYSICAL)


@lru_cache(maxsize=16)
def _phase(n_modes: int) -> np.ndarray:
    phase = 1.0 - 2.0 * (np.arange(n_modes) % 2).astype(np.float64)
    phase.flags.writeable = False
    return phase


def boundary_phase(n_modes: int) -> np.ndarray:
    """exp(-i x0 xi_k) for x0 = -L is exactly (-1)^k; self-inverse.

    Cached per n_modes and read-only: every transform shares the array.
    """
    return _phase(n_modes)


def to_spectral(f: Field) -> Field:
    if f.rep != PHYSICAL:
        raise ValueError("to_spectral expects a physical-representation field")
    return Field(f.grid, f.grid.forward(f.values), SPECTRAL)


def to_physical(f: Field) -> Field:
    if f.rep != SPECTRAL:
        raise ValueError("to_physical expects a spectral-representation field")
    return Field(f.grid, f.grid.inverse(f.values), PHYSICAL)


def spectral_values(f: Field) -> np.ndarray:
    """Spectral coefficients of f regardless of its representation."""
    return f.values if f.rep == SPECTRAL else f.grid.forward(f.values)


def physical_values(f: Field) -> np.ndarray:
    return f.values if f.rep == PHYSICAL else f.grid.inverse(f.values)


def apply_multiplier(f: Field, symbol: np.ndarray) -> Field:
    """Multiply the spectrum by `symbol` (given on grid.xi), keeping f's
    representation."""
    coeffs = spectral_values(f) * symbol
    if f.rep == SPECTRAL:
        return Field(f.grid, coeffs, SPECTRAL)
    return Field(f.grid, f.grid.inverse(coeffs), PHYSICAL)


def l2_norm(f: Field) -> float:
    """Discrete L^2 norm; Parseval makes both representations agree."""
    if f.rep == PHYSICAL:
        return float(np.sqrt(f.grid.dx * np.sum(np.abs(f.values) ** 2)))
    return float(np.sqrt(f.grid.dxi * np.sum(np.abs(f.values) ** 2)))


def airy_propagate(f: Field, t: float) -> Field:
    """Free dispersive flow: multiply each mode by exp(i t xi^3).

    Unit-modulus symbol, so every H^s norm is preserved exactly.
    """
    return apply_multiplier(f, np.exp(1j * t * f.grid.xi**3))


def bessel_multiplier(f: Field, s: float) -> Field:
    """Smoothing operator of order -s: spectrum times (1 + xi^2)^(s/2)."""
    return apply_multiplier(f, (1.0 + f.grid.xi**2) ** (s / 2.0))


def derivative(f: Field, order: int = 1) -> Field:
    """Exact spectral derivative: spectrum times (i xi)^order."""
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    return apply_multiplier(f, (1j * f.grid.xi) ** order)


def dealias(f: Field, degree: int) -> Field:
    """Zero modes with |xi| > xi_max * 2/(degree+1).

    The generalized 3/2-type rule: products of `degree` retained modes
    cannot alias back onto the retained band. degree=2 recovers the
    classical 2/3 cutoff.
    """
    if degree < 2:
        raise ValueError(f"dealias degree must be >= 2, got {degree}")
    cutoff = f.grid.xi_max * 2.0 / (degree + 1.0)
    return apply_multiplier(f, (np.abs(f.grid.xi) <= cutoff).astype(np.float64))


def dyadic_project(f: Field, n_block: int) -> Field:
    """Sharp restriction to the dyadic shell <xi> in [n_block, 2*n_block).

    Since <xi> >= 1 the shells with n_block = 1, 2, 4, ... partition all
    frequencies, so summing the projections over blocks up to the grid
    maximum reconstructs the field.
    """
    if n_block < 1 or (n_block & (n_block - 1)) != 0:
        raise ValueError(f"n_block must be a power of two >= 1, got {n_block}")
    bracket = np.sqrt(1.0 + f.grid.xi**2)
    mask = (bracket >= n_block) & (bracket < 2 * n_block)
    return apply_multiplier(f, mask.astype(np.float64))


def dyadic_blocks(grid: Grid) -> list[int]:
    """All block scales needed to cover the grid's frequencies."""
    blocks = [1]
    top = np.sqrt(1.0 + grid.xi_max**2)
    while 2 * blocks[-1] <= top:
        blocks.append(2 * blocks[-1])
    return blocks
