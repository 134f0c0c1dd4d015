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

import numpy as np

from .grid import Field, Grid, boundary_phase, spectral_values

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

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)

    @property
    def span(self) -> float:
        return self.dt * self.n_samples

    @property
    def dtau(self) -> float:
        return TWO_PI / self.span

    @property
    def tau(self) -> np.ndarray:
        """Temporal frequencies in FFT order."""
        return TWO_PI * np.fft.fftfreq(self.n_samples, d=self.dt)

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
    """(n_samples x N) complex samples u(x_j, t_m)."""

    grid: Grid
    taxis: TimeAxis
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.taxis.n_samples, self.grid.n_modes):
            raise ValueError(
                f"values shape {v.shape}, expected "
                f"({self.taxis.n_samples}, {self.grid.n_modes})"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.taxis, values)


def require_same_axes(*fields: SpaceTimeField) -> None:
    first = fields[0]
    for other in fields[1:]:
        if first.grid != other.grid or first.taxis != other.taxis:
            raise ValueError("space-time fields must share grid and time axis")


def st_spectral_values(u: SpaceTimeField) -> np.ndarray:
    """The 2D transform F u(xi, tau) of the samples, both axes in FFT order."""
    phase_x = boundary_phase(u.grid.n_modes)
    phase_t = np.exp(-1j * u.taxis.t0 * u.taxis.tau)
    scale = u.grid.dx * u.taxis.dt / TWO_PI
    return scale * phase_t[:, None] * phase_x[None, :] * np.fft.fft2(u.values)


def st_to_physical(grid: Grid, taxis: TimeAxis, coeffs: np.ndarray) -> SpaceTimeField:
    """The field whose 2D transform is `coeffs` (inverse of st_spectral_values)."""
    phase_x = boundary_phase(grid.n_modes)
    phase_t = np.exp(1j * taxis.t0 * taxis.tau)
    scale = grid.dxi * taxis.dtau * grid.n_modes * taxis.n_samples / TWO_PI
    values = scale * np.fft.ifft2(coeffs * phase_t[:, None] * phase_x[None, :])
    return SpaceTimeField(grid, taxis, values)


def st_l2(u: SpaceTimeField) -> float:
    return float(np.sqrt(u.grid.dx * u.taxis.dt * np.sum(np.abs(u.values) ** 2)))


def st_zero(grid: Grid, taxis: TimeAxis) -> SpaceTimeField:
    return SpaceTimeField(grid, taxis, np.zeros((taxis.n_samples, grid.n_modes), np.complex128))


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


def free_evolution(phi: Field, grid_taxis: TimeAxis, cutoff: Cutoff | None = None) -> SpaceTimeField:
    """Sample the free flow t -> exp(i t xi^3) phi_hat, optionally times a cutoff.

    The per-time inverse transforms are evaluated in one batched FFT.
    """
    grid = phi.grid
    hat = spectral_values(phi)
    t = grid_taxis.t
    coeffs = np.exp(1j * np.outer(t, grid.xi**3)) * hat[None, :]
    if cutoff is not None:
        coeffs = coeffs * cutoff(t)[:, None]
    return SpaceTimeField(grid, grid_taxis, grid.inverse(coeffs))


def apply_time_cutoff(u: SpaceTimeField, cutoff: Cutoff) -> SpaceTimeField:
    return u.with_values(u.values * cutoff(u.taxis.t)[:, None])


def band_project(u: SpaceTimeField, xi_band: float) -> tuple[SpaceTimeField, float]:
    """Sharp restriction to |xi| <= xi_band.

    Returns the projected field and the relative L^2 mass of the discarded
    high band (0 when nothing is discarded).
    """
    hat_x = np.fft.fft(u.values, axis=1)
    mask = np.abs(u.grid.xi) <= xi_band
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(np.abs(hat_x) ** 2))
        kept = float(np.sum(np.abs(hat_x[:, mask]) ** 2))
    if not np.isfinite(total) or total == 0.0:
        discarded = 0.0
    else:
        discarded = max(0.0, (total - kept) / total)
    out = np.fft.ifft(hat_x * mask[None, :], axis=1)
    return u.with_values(out), discarded


def spectral_support_radius(u: SpaceTimeField, rel_tol: float = 1e-12) -> float:
    """Largest |xi| whose column carries more than rel_tol of the peak
    column's L^2 mass. Non-finite fields report the full grid band."""
    hat_x = np.fft.fft(u.values, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        col = np.sqrt(np.sum(np.abs(hat_x) ** 2, axis=0))
    if not np.all(np.isfinite(col)):
        return float(u.grid.xi_max)
    peak = float(col.max())
    if peak == 0.0:
        return 0.0
    active = col > rel_tol * peak
    return float(np.max(np.abs(u.grid.xi[active])))
