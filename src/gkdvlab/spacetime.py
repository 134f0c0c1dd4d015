"""Space-time fields on the (x, t) box and the smooth time cutoffs.

A SpaceTimeField samples u(x, t) on the spatial grid times a uniform time
axis. The canonical axis for dispersive-weight analysis is the centered box
[-T_span/2, T_span/2) with an even sample count, so that t = 0 is a node
and the 2D transform

    F u(xi, tau) = dx*dt/(2*pi) * sum_{j,m} u(x_j, t_m) e^{-i x_j xi - i t_m tau}

approximates the continuum one. Trajectories from the time stepper use the
same type with a one-sided axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .grid import (
    SQRT_2PI,
    Field,
    Grid,
    _owned_readonly,
    _readonly,
    half_spectrum,
    is_real,
    spectral_values,
)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TimeAxis:
    """Uniform time samples t0, t0+dt, ..., t0+(n-1)*dt."""

    t0: float
    dt: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @cached_property
    def t(self) -> np.ndarray:
        """The samples, built once per axis and read-only."""
        return _readonly(self.t0 + self.dt * np.arange(self.n_samples))

    @property
    def span(self) -> float:
        return self.dt * self.n_samples

    @property
    def dtau(self) -> float:
        return TWO_PI / self.span

    @cached_property
    def tau(self) -> np.ndarray:
        """Temporal frequencies in FFT order, built once per axis and
        read-only."""
        return _readonly(TWO_PI * np.fft.fftfreq(self.n_samples, d=self.dt))

    @property
    def tau_max(self) -> float:
        return np.pi / self.dt

    @property
    def is_centered(self) -> bool:
        """Centered box [-span/2, span/2) with an even sample count >= 16."""
        return (
            self.n_samples >= 16
            and self.n_samples % 2 == 0
            and abs(self.t0 + 0.5 * self.span) <= 1e-12 * self.span
        )


def centered_axis(t_span: float, m_t: int) -> TimeAxis:
    """The canonical box [-t_span/2, t_span/2) with m_t samples (even >= 16)."""
    if m_t < 16 or m_t % 2 != 0:
        raise ValueError(f"m_t must be even and >= 16, got {m_t}")
    dt = t_span / m_t
    return TimeAxis(t0=-0.5 * t_span, dt=dt, n_samples=m_t)


def midpoint_axis(t_end: float, n_samples: int, t_start: float = 0.0) -> TimeAxis:
    """Midpoint samples of [t_start, t_end]; Riemann sums over the full axis
    integrate constants exactly."""
    dt = (t_end - t_start) / n_samples
    return TimeAxis(t0=t_start + 0.5 * dt, dt=dt, n_samples=n_samples)


@dataclass(frozen=True)
class SpaceTimeField:
    """(n_samples x N) samples u(x_j, t_m), read-only: float64 when given
    real (bool, integer or floating) samples, complex128 otherwise. A
    writeable or borrowed array is copied, as for `Field`."""

    grid: Grid
    taxis: TimeAxis
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        v = v.astype(np.float64 if v.dtype.kind in "biuf" else np.complex128, copy=False)
        if v.shape != (self.taxis.n_samples, self.grid.n_modes):
            raise ValueError(
                f"values shape {v.shape}, expected "
                f"({self.taxis.n_samples}, {self.grid.n_modes})"
            )
        object.__setattr__(self, "values", _owned_readonly(v, self.values))

    def with_values(self, values: np.ndarray) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.taxis, values)


def require_same_axes(*fields: SpaceTimeField) -> None:
    first = fields[0]
    for other in fields[1:]:
        if first.grid != other.grid or first.taxis != other.taxis:
            raise ValueError("space-time fields must share grid and time axis")


def _time_forward(taxis: TimeAxis, values: np.ndarray) -> np.ndarray:
    """Transform along the time axis (axis 0), in the x axis's convention:
    dt/sqrt(2*pi) * sum_m values(t_m) e^{-i t_m tau}."""
    phase = np.exp(-1j * taxis.t0 * taxis.tau)
    raw = np.fft.fft(values, axis=0)
    return np.multiply((taxis.dt / SQRT_2PI) * phase[:, None], raw, out=raw)


def st_spectral_values(u: SpaceTimeField) -> np.ndarray:
    """The 2D transform F u(xi, tau) of the samples, both axes in FFT order."""
    return _time_forward(u.taxis, u.grid.forward(u.values))


def st_to_physical(grid: Grid, taxis: TimeAxis, coeffs: np.ndarray) -> SpaceTimeField:
    """The field whose 2D transform is `coeffs` (inverse of st_spectral_values):
    the inverse of `_time_forward`, then the grid's inverse transform."""
    phase = np.exp(1j * taxis.t0 * taxis.tau)
    hat_x = np.fft.ifft(coeffs * phase[:, None], axis=0)
    np.multiply(taxis.dtau * taxis.n_samples / SQRT_2PI, hat_x, out=hat_x)
    return SpaceTimeField(grid, taxis, _readonly(grid.inverse(hat_x)))


def st_l2(u: SpaceTimeField) -> float:
    return float(np.sqrt(u.grid.dx * u.taxis.dt * np.sum(np.abs(u.values) ** 2)))


# ---------------------------------------------------------------------------
# smooth time cutoffs


def _glue(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def smooth_step(s) -> np.ndarray:
    """C-infinity monotone step: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=np.float64)
    f = _glue(s)
    return f / (f + _glue(1.0 - s))


def bump_profile(t) -> np.ndarray:
    """Smooth even bump: 1 on [-1, 1], 0 outside [-2, 2]."""
    return smooth_step(2.0 - np.abs(np.asarray(t, dtype=np.float64)))


@dataclass(frozen=True)
class Cutoff:
    """The rescaled bump eta_T(t) = eta(t/T): 1 on [-T, T], 0 outside [-2T, 2T]."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError("cutoff scale must be positive")

    def __call__(self, t) -> np.ndarray:
        return bump_profile(np.asarray(t, dtype=np.float64) / self.scale)


@lru_cache(maxsize=8)
def _propagator(grid: Grid, taxis: TimeAxis) -> np.ndarray:
    """The free-propagator table exp(i t_m xi_k^3), cached and read-only."""
    table = np.exp(1j * np.outer(taxis.t, grid.xi**3))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _half_propagator(grid: Grid, taxis: TimeAxis) -> np.ndarray:
    """`_propagator` on the modes 0 .. N/2 of the grid's real pair, cached
    and read-only."""
    table = np.exp(1j * np.outer(taxis.t, grid.xi[: grid.n_modes // 2 + 1] ** 3))
    table.flags.writeable = False
    return table


def _free_coeffs(phi: Field, taxis: TimeAxis, profile: np.ndarray | None) -> np.ndarray:
    """x-spectral coefficients exp(i t xi^3) phi_hat of the free flow at the
    samples of `taxis`, times the sampled time profile when one is given."""
    coeffs = _propagator(phi.grid, taxis) * spectral_values(phi)[None, :]
    if profile is not None:
        coeffs = coeffs * profile[:, None]
    return coeffs


def free_evolution(phi: Field, grid_taxis: TimeAxis, cutoff: Cutoff | None = None) -> SpaceTimeField:
    """Sample the free flow t -> exp(i t xi^3) phi_hat, optionally times a cutoff.

    The per-time inverse transforms are evaluated in one batched FFT. Real
    data (`grid.is_real`) evolve on the modes 0 .. N/2 through the grid's
    real pair into float64 samples, the real part of the complex route's;
    other data take the complex route into complex128 samples.
    """
    grid = phi.grid
    profile = None if cutoff is None else cutoff(grid_taxis.t)
    if is_real(phi.values):
        coeffs = _half_propagator(grid, grid_taxis) * half_spectrum(phi)[None, :]
        if profile is not None:
            coeffs *= profile[:, None]
        values = grid.real_inverse(coeffs)
    else:
        values = grid.inverse(_free_coeffs(phi, grid_taxis, profile))
    return SpaceTimeField(grid, grid_taxis, _readonly(values))


def apply_time_cutoff(u: SpaceTimeField, cutoff: Cutoff) -> SpaceTimeField:
    return u.with_values(_readonly(u.values * cutoff(u.taxis.t)[:, None]))
