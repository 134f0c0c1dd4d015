"""Evolution of u_t + u_xxx + u^7 u_x = 0 on the periodic grid.

Two routes to the same solution:

* a reference integrator (integrating-factor RK4: the stiff linear phase
  exp(i t xi^3) is applied exactly, classical RK4 handles the transformed
  nonlinearity), and
* the cutoff Duhamel map

      Gamma(v)(t) = eta_T(t) * int_0^t S(t-s) N(eta*v + eta_T*z)(s) ds,

  with z the (already cutoff) free evolution of the data and
  N(w) = -d_x(w^8)/8 = -w^7 w_x, iterated to its fixed point. The local
  solution is u = v + z; both routes must agree, which is the main
  cross-validation of this module.

The degree-8 product is evaluated alias-free on an 8x zero-padded grid and
the unpaired Nyquist mode is zeroed after every nonlinear evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    Grid,
    PHYSICAL,
    physical_values,
    spectral_values,
)
from .norms import xsb_norm
from .params import b_index, sigma_index
from .spacetime import (
    Cutoff,
    SpaceTimeField,
    TimeAxis,
    band_project,
    centered_axis,
    free_evolution,
    require_same_axes,
    st_zero,
)

PAD_FACTOR = 8
NONLINEARITY_DEGREE = 8
BLOWUP_THRESHOLD = 1e8


class BlowupError(RuntimeError):
    """Raised when the state stops being finite."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"solution blew up at step {step}")


def _resize_spectrum(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Zero-pad or truncate a raw DFT spectrum to length m.

    With n the shorter of the input length and m, keeps the modes
    |k| < n/2; the unpaired Nyquist mode of that n-point grid stays zero.
    """
    half = min(coeffs.shape[-1], m) // 2
    out = np.zeros(coeffs.shape[:-1] + (m,), dtype=np.complex128)
    out[..., :half] = coeffs[..., :half]
    out[..., -(half - 1):] = coeffs[..., -(half - 1):]
    return out


def fine_samples(grid: Grid, values_phys: np.ndarray) -> np.ndarray:
    """Samples of the band-limited interpolant on a PAD_FACTOR-times finer grid."""
    n = grid.n_modes
    m = PAD_FACTOR * n
    c = np.fft.fft(values_phys, axis=-1)
    return np.fft.ifft(_resize_spectrum(c, m), axis=-1) * (m / n)


def _power8_coeffs(grid: Grid, values_phys: np.ndarray) -> np.ndarray:
    """Alias-free raw DFT coefficients of u^8 on the coarse grid."""
    n = grid.n_modes
    m = PAD_FACTOR * n
    fine = fine_samples(grid, values_phys)
    with np.errstate(over="ignore", invalid="ignore"):
        w = fine**NONLINEARITY_DEGREE
    cw = np.fft.fft(w, axis=-1) * (n / m)
    return _resize_spectrum(cw, n)


def nonlinearity_coeffs(grid: Grid, values_phys: np.ndarray) -> np.ndarray:
    """Spectral coefficients (transform convention) of -d_x(u^8)/8.

    Accepts a single state or a batch of states in the leading axis.
    """
    hat = grid.from_dft(_power8_coeffs(grid, values_phys))
    return (-1j * grid.xi / NONLINEARITY_DEGREE) * hat


def nonlinearity(u: Field) -> Field:
    """The divergence-form nonlinearity N(u) = -d_x(u^8)/8, dealiased."""
    vals = physical_values(u)
    if np.max(np.abs(vals.imag)) > 1e-10 * max(1.0, np.max(np.abs(vals.real))):
        raise ValueError("nonlinearity expects a real physical-space field")
    coeffs = nonlinearity_coeffs(u.grid, vals.real.astype(np.complex128))
    if not np.all(np.isfinite(coeffs)):
        raise BlowupError(step=-1, message="nonlinearity overflowed")
    return Field(u.grid, u.grid.inverse(coeffs), PHYSICAL)


def conserved_quantities(u: Field) -> tuple[float, float, float]:
    """(mean, mass, energy) = (int u, int u^2, int (u_x^2/2 - u^9/72)).

    The quadratic pieces use exact spectral sums; the u^9 integral is taken
    on the padded grid where it is alias-free.
    """
    vals = physical_values(u).real
    grid = u.grid
    c = np.fft.fft(vals)
    mean = grid.dx * float(np.sum(vals))
    mass = grid.dx * float(np.sum(vals**2))
    kinetic = 0.5 * grid.dx / grid.n_modes * float(np.sum(np.abs(1j * grid.xi * c) ** 2))
    fine = fine_samples(grid, vals).real
    dx_fine = grid.dx / PAD_FACTOR
    potential = dx_fine * float(np.sum(fine**NONLINEARITY_DEGREE * fine)) / 72.0
    return mean, mass, kinetic - potential


@dataclass
class Diagnostics:
    step: np.ndarray
    time: np.ndarray
    mean: np.ndarray
    mass: np.ndarray
    energy: np.ndarray


@dataclass
class Trajectory:
    """Sampled solution plus per-step conservation diagnostics (None when
    loaded from a dump, which does not store them)."""

    u: SpaceTimeField
    dt: float
    scheme: str
    diagnostics: Diagnostics | None = None
    seed: int | None = None
    blown_up: bool = False
    first_bad_step: int | None = None


def _diag_row(grid: Grid, hat: np.ndarray) -> tuple[float, float, float]:
    return conserved_quantities(Field(grid, grid.inverse(hat), PHYSICAL))


def evolve_reference(
    phi: Field,
    T: float,
    dt: float,
    output_stride: int | None = None,
    diag_stride: int = 1,
    seed: int | None = None,
) -> Trajectory:
    """March the equation with integrating-factor RK4 from data phi to time T.

    T/dt must be an integer number of steps (at most 1e7). The trajectory is
    sampled every `output_stride` steps (auto-chosen to keep about a
    thousand samples); diagnostics are recorded every `diag_stride` steps.
    A non-finite state stops the run and flags the trajectory as blown up.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    n_steps_f = T / dt
    n_steps = int(round(n_steps_f))
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-8 * max(1.0, n_steps):
        raise ValueError(f"T/dt = {n_steps_f} must be a positive integer")
    if n_steps > 10_000_000:
        raise ValueError("more than 1e7 steps requested")
    if output_stride is None:
        output_stride = max(1, n_steps // 1024)
        while n_steps % output_stride:
            output_stride -= 1
    if n_steps % output_stride:
        raise ValueError("output_stride must divide the number of steps")

    grid = phi.grid
    vals = physical_values(phi)
    if np.max(np.abs(vals.imag)) > 1e-10 * max(1.0, float(np.max(np.abs(vals.real)))):
        raise ValueError("evolve_reference expects real data")
    hat = spectral_values(phi.with_values(vals.real.astype(np.complex128), PHYSICAL))

    lin = 1j * grid.xi**3
    e_full = np.exp(dt * lin)
    e_half = np.exp(0.5 * dt * lin)

    def rhs(state_hat: np.ndarray) -> np.ndarray:
        return nonlinearity_coeffs(grid, grid.inverse(state_hat))

    n_out = n_steps // output_stride + 1
    samples = np.empty((n_out, grid.n_modes), dtype=np.complex128)
    samples[0] = grid.inverse(hat)

    diag_steps, diag_time = [0], [0.0]
    d0 = _diag_row(grid, hat)
    diag_mean, diag_mass, diag_energy = [d0[0]], [d0[1]], [d0[2]]

    blown_up = False
    first_bad = None
    k_out = 1
    for step in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            n1 = rhs(hat)
            a = e_half * (hat + 0.5 * dt * n1)
            n2 = rhs(a)
            b = e_half * hat + 0.5 * dt * n2
            n3 = rhs(b)
            c = e_full * hat + dt * e_half * n3
            n4 = rhs(c)
            hat = e_full * hat + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)

        if not np.all(np.isfinite(hat)):
            blown_up = True
            first_bad = step
            break

        if step % diag_stride == 0 or step == n_steps:
            m0, m1, m2 = _diag_row(grid, hat)
            diag_steps.append(step)
            diag_time.append(step * dt)
            diag_mean.append(m0)
            diag_mass.append(m1)
            diag_energy.append(m2)
        if step % output_stride == 0:
            samples[k_out] = grid.inverse(hat)
            k_out += 1

    taxis = TimeAxis(t0=0.0, dt=dt * output_stride, n_samples=k_out)
    traj_field = SpaceTimeField(grid, taxis, samples[:k_out])
    diags = Diagnostics(
        step=np.asarray(diag_steps),
        time=np.asarray(diag_time),
        mean=np.asarray(diag_mean),
        mass=np.asarray(diag_mass),
        energy=np.asarray(diag_energy),
    )
    return Trajectory(
        u=traj_field,
        dt=dt,
        scheme="ifrk4",
        diagnostics=diags,
        seed=seed,
        blown_up=blown_up,
        first_bad_step=first_bad,
    )


# ---------------------------------------------------------------------------
# Duhamel map and Picard iteration


def duhamel_gamma(v: SpaceTimeField, z: SpaceTimeField, T: float) -> SpaceTimeField:
    """One application of the cutoff Duhamel map.

    z must already carry its eta_T cutoff (it is the caller's cutoff free
    evolution of the data); v gets the unit-scale cutoff here. The time
    integral uses the trapezoid rule at the axis spacing, with the free
    propagator applied exactly between nodes. The output vanishes for
    |t| >= 2T by construction.
    """
    require_same_axes(v, z)
    taxis = v.taxis
    if not taxis.is_centered:
        raise ValueError("duhamel_gamma needs the centered time box (t = 0 a node)")
    grid = v.grid
    t = taxis.t
    eta_unit = Cutoff(1.0)
    eta_t = Cutoff(T)

    with np.errstate(over="ignore", invalid="ignore"):
        w = eta_unit(t)[:, None] * v.values + z.values
    if not np.all(np.isfinite(w)):
        raise BlowupError(step=-1, message="non-finite state entering the Duhamel map")

    active = np.max(np.abs(w), axis=1) > 0.0
    forcing = np.zeros_like(w)
    if np.any(active):
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = nonlinearity_coeffs(grid, w[active])
        if not np.all(np.isfinite(coeffs)):
            raise BlowupError(step=-1, message="nonlinearity overflowed in the Duhamel map")
        forcing[active] = coeffs

    # integrand of the mild form: exp(-i s xi^3) N(w)(s)
    phases = np.exp(-1j * np.outer(t, grid.xi**3))
    integrand = phases * forcing
    mids = 0.5 * taxis.dt * (integrand[1:] + integrand[:-1])
    cumulative = np.vstack(
        [np.zeros((1, grid.n_modes), dtype=np.complex128), np.cumsum(mids, axis=0)]
    )
    j0 = int(np.argmin(np.abs(t)))
    cumulative = cumulative - cumulative[j0]

    out_hat = np.conj(phases) * cumulative * eta_t(t)[:, None]
    return SpaceTimeField(grid, taxis, grid.inverse(out_hat))


@dataclass
class PicardResult:
    """Fixed-point iteration record for the Duhamel map."""

    v: SpaceTimeField
    z: SpaceTimeField
    distances: list[float]
    ratios: list[float]
    converged: bool
    iterations: int
    blown_up: bool
    discarded_band_mass: float
    xi_band: float
    sigma: float
    b: float

    @property
    def final_ratio(self) -> float | None:
        return self.ratios[-1] if self.ratios else None


def picard_solve(
    phi_omega: Field,
    T: float,
    tol: float,
    max_iter: int = 25,
    taxis: TimeAxis | None = None,
    xi_band: float = 8.0,
    eps: float = 0.05,
) -> PicardResult:
    """Iterate v <- Gamma(v) from v = 0 until successive iterates are closer
    than tol in the dispersive-weighted norm.

    Distances are measured on the band |xi| <= xi_band projection of the
    iterates (the weighted norm requires a resolvable band); the largest
    relative mass discarded by that projection is reported. Non-convergence
    within max_iter is a result state, not an error; a non-finite iterate
    marks the run as blown up.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if taxis is None:
        taxis = centered_axis(t_span=4.0, m_t=2048)
    sigma = sigma_index(eps)
    b = b_index(eps)

    z = free_evolution(phi_omega, taxis, cutoff=Cutoff(T))
    v = st_zero(phi_omega.grid, taxis)

    distances: list[float] = []
    ratios: list[float] = []
    discarded = 0.0
    converged = False
    blown_up = False
    iterations = 0

    for _ in range(max_iter):
        iterations += 1
        try:
            v_next = duhamel_gamma(v, z, T)
        except BlowupError:
            blown_up = True
            break
        with np.errstate(over="ignore", invalid="ignore"):
            peak = float(np.max(np.abs(v_next.values)))
        if not np.isfinite(peak) or peak > BLOWUP_THRESHOLD:
            blown_up = True
            break
        diff = v_next.with_values(v_next.values - v.values)
        projected, lost = band_project(diff, xi_band)
        discarded = max(discarded, lost)
        d = xsb_norm(projected, sigma, b)
        if not np.isfinite(d):
            blown_up = True
            break
        if distances:
            prev = distances[-1]
            if prev > 0.0:
                ratios.append(d / prev)
        distances.append(d)
        v = v_next
        if d <= tol:
            converged = True
            break

    if converged and ratios and not ratios[-1] < 1.0:
        converged = False
    return PicardResult(
        v=v,
        z=z,
        distances=distances,
        ratios=ratios,
        converged=converged and not blown_up,
        iterations=iterations,
        blown_up=blown_up,
        discarded_band_mass=discarded,
        xi_band=xi_band,
        sigma=sigma,
        b=b,
    )


def reconstruct_solution(result: PicardResult) -> SpaceTimeField:
    """u = v + z, valid as a solution of the equation for |t| <= T."""
    return result.v.with_values(result.v.values + result.z.values)


def pde_residual(u: SpaceTimeField, interval: tuple[float, float]) -> np.ndarray:
    """Relative residual ||u_t + u_xxx + u^7 u_x||_{L^2_x} / ||u||_{L^2_x}
    per time sample inside `interval`.

    The time derivative uses a centered fourth-order stencil (independent of
    how u was produced); spatial terms are spectral with exact dealiasing.
    """
    grid = u.grid
    taxis = u.taxis
    vals = u.values.real
    dt = taxis.dt
    t = taxis.t
    inner = (t >= interval[0]) & (t <= interval[1])
    idx = np.nonzero(inner)[0]
    idx = idx[(idx >= 2) & (idx <= taxis.n_samples - 3)]
    if idx.size == 0:
        raise ValueError("interval leaves no interior samples for the stencil")

    u_t = (-vals[idx + 2] + 8.0 * vals[idx + 1] - 8.0 * vals[idx - 1] + vals[idx - 2]) / (12.0 * dt)
    u_xxx = grid.multiply(vals[idx], (1j * grid.xi) ** 3).real
    nl = grid.inverse(nonlinearity_coeffs(grid, vals[idx])).real

    residual = u_t + u_xxx - nl
    res_norm = np.sqrt(grid.dx * np.sum(residual**2, axis=1))
    u_norm = np.sqrt(grid.dx * np.sum(vals[idx] ** 2, axis=1))
    return res_norm / np.maximum(u_norm, 1e-300)
