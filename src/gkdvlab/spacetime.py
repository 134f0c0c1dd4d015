"""Space-time fields on the (x, t) box and the smooth time cutoff.

A SpaceTimeField samples u(x, t) on the spatial grid times a uniform time
axis. The canonical axis for dispersive-weight analysis is the centered box
[-T_span/2, T_span/2) with an even sample count, so that t = 0 is a node
and the 2D transform

    F u(xi, tau) = dx*dt/(2*pi) * sum_{j,m} u(x_j, t_m) e^{-i x_j xi - i t_m tau}

approximates the continuum one. Trajectories from the time stepper use the
same type with a one-sided axis.

A field drawn from its (xi, tau) spectrum on a band of columns keeps the
band's x-spectral coefficients beside its samples (`_band_spectrum`), so
the norms read them without an x transform and sum only the band.

The free flow of real data evolves the edge-based modes 0 .. N/2 of the
grid's real pair through one cached table of plain rows exp(i t xi^3),
`_half_propagator`, and `grid.real_inverse` finishes it. The centred time
axis is the periodic grid of its samples, so the time transforms are that
grid's `forward`/`inverse` on the transposed array; this module calls no
numpy FFT itself.

The time cutoff eta_T(t) = eta(t/T) of scale T is `time_cutoff(t, T)`;
`free_evolution` and `apply_time_cutoff` take its scale T as `cutoff`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .grid import (
    Field,
    Grid,
    _owned_readonly,
    _readonly,
    half_spectrum,
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
    if not 0 < t_span < np.inf:
        raise ValueError(f"t_span must be positive and finite, got {t_span}")
    dt = t_span / m_t
    return TimeAxis(t0=-0.5 * t_span, dt=dt, n_samples=m_t)


def midpoint_axis(t_end: float, n_samples: int) -> TimeAxis:
    """Midpoint samples of [0, t_end]; Riemann sums over the full axis
    integrate constants exactly."""
    dt = t_end / n_samples
    return TimeAxis(t0=0.5 * dt, dt=dt, n_samples=n_samples)


@dataclass(frozen=True)
class SpaceTimeField:
    """(n_samples x N) samples u(x_j, t_m), read-only: float64 when given
    real (bool, integer or floating) samples, complex128 otherwise. A
    writeable or borrowed array is copied, as for `Field`.

    A field built from the x-spectral coefficients of a band of columns
    (`_with_band`) keeps them read-only beside its samples, as `Field` keeps
    its half spectrum; `_band_spectrum` returns them. Any field built from
    samples, `with_values` included, keeps none."""

    grid: Grid
    taxis: TimeAxis
    values: np.ndarray = field(repr=False)
    _band: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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


def _with_band(
    grid: Grid, taxis: TimeAxis, values: np.ndarray, columns: np.ndarray, hat_x: np.ndarray
) -> SpaceTimeField:
    """The field with samples `values` whose x-spectral coefficients are
    `hat_x` (time samples x len(columns)) on the grid's modes `columns`
    and zero on the others. `columns` and `hat_x` are kept as given and
    must be read-only."""
    u = SpaceTimeField(grid, taxis, values)
    object.__setattr__(u, "_band", (columns, hat_x))
    return u


def _band_spectrum(u: SpaceTimeField) -> tuple[np.ndarray | slice, np.ndarray]:
    """(columns, hat_x): the grid's modes `columns` and the x-spectral
    coefficients of u on them, per time sample. For a field that keeps its
    band these are the kept arrays (read-only); otherwise all modes and the
    transform of the samples."""
    if u._band is not None:
        return u._band
    return slice(None), u.grid.forward(u.values)


def require_same_axes(*fields: SpaceTimeField) -> None:
    first = fields[0]
    for other in fields[1:]:
        if first.grid != other.grid or first.taxis != other.taxis:
            raise ValueError("space-time fields must share grid and time axis")


def _time_grid(taxis: TimeAxis) -> Grid:
    """The periodic grid of a centred axis's samples: its transform pair is
    the time axis's, with tau in the role of xi. ValueError for an axis
    that is not centred."""
    if not taxis.is_centered:
        raise ValueError("the time transforms need the centered time box")
    return Grid(0.5 * taxis.span, taxis.n_samples)


def _time_forward(taxis: TimeAxis, values: np.ndarray) -> np.ndarray:
    """Transform along the time axis (axis 0), in the x axis's convention:
    dt/sqrt(2*pi) * sum_m values(t_m) e^{-i t_m tau}."""
    return _time_grid(taxis).forward(values.T).T


def _time_inverse(taxis: TimeAxis, coeffs: np.ndarray) -> np.ndarray:
    """The inverse of `_time_forward` along axis 0, column by column:
    dtau/sqrt(2*pi) * sum_m coeffs(tau_m) e^{i t tau_m}."""
    return _time_grid(taxis).inverse(coeffs.T).T


def st_l2(u: SpaceTimeField) -> float:
    return float(np.sqrt(u.grid.dx * u.taxis.dt * np.sum(np.abs(u.values) ** 2)))


# ---------------------------------------------------------------------------
# the smooth time cutoff


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


def time_cutoff(t, T: float) -> np.ndarray:
    """The smooth even cutoff eta_T(t) = eta(t/T): 1 on [-T, T], 0 outside
    [-2T, 2T]. ValueError unless T > 0."""
    if not T > 0:
        raise ValueError("cutoff scale must be positive")
    return smooth_step(2.0 - np.abs(np.asarray(t, dtype=np.float64) / T))


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
    return _readonly(np.exp(1j * np.outer(taxis.t, grid.xi[: grid.n_modes // 2 + 1] ** 3)))


def free_evolution(phi: Field, grid_taxis: TimeAxis, cutoff: float | None = None) -> SpaceTimeField:
    """Sample the free flow t -> exp(i t xi^3) phi_hat, optionally times the
    time cutoff of scale T = `cutoff`.

    The per-time inverse transforms are evaluated in one batched FFT. The
    route follows the data's dtype (`Field.is_real`, which builds no
    samples): float64 (real) data evolve on the modes 0 .. N/2 into float64
    samples, through `_half_propagator` and `grid.real_inverse`; complex128
    data evolve on all N modes through `grid.inverse` into complex128
    samples.
    """
    grid = phi.grid
    real = phi.is_real
    if real:
        coeffs = _half_propagator(grid, grid_taxis) * half_spectrum(phi)[None, :]
    else:
        coeffs = _propagator(grid, grid_taxis) * spectral_values(phi)[None, :]
    if cutoff is not None:
        coeffs *= time_cutoff(grid_taxis.t, cutoff)[:, None]
    values = grid.real_inverse(coeffs) if real else grid.inverse(coeffs)
    return SpaceTimeField(grid, grid_taxis, _readonly(values))


def apply_time_cutoff(u: SpaceTimeField, cutoff: float) -> SpaceTimeField:
    """u times the time cutoff of scale T = `cutoff`; a kept band is
    multiplied by the same rows."""
    eta = time_cutoff(u.taxis.t, cutoff)[:, None]
    values = _readonly(u.values * eta)
    if u._band is None:
        return u.with_values(values)
    columns, hat_x = u._band
    return _with_band(u.grid, u.taxis, values, columns, _readonly(hat_x * eta))
