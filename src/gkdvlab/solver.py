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

`evolve_reference` runs the first route and `picard_solve` the second;
`nonlinearity_coeffs` is the one evaluation of N that both use. Both
routes hold the state as x-spectral coefficients (the grid's transform
convention; a space-time state is an m_t x N array of them) and return to
physical samples only for output and for the blow-up test. The
degree-8 product of the real state goes from N coefficients by one real
inverse FFT to the smallest padded grid of M >= 9N/2 points, where it is
alias-free, and the unpaired Nyquist mode is zeroed after every nonlinear
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import SQRT_2PI, Field, Grid, _readonly, is_real
from .norms import _require_resolved, _xsb_sum
from .params import b_index, sigma_index
from .spacetime import (
    Cutoff,
    SpaceTimeField,
    TimeAxis,
    _free_coeffs,
    _propagator,
    _time_forward,
    centered_axis,
)

NONLINEARITY_DEGREE = 8
BLOWUP_THRESHOLD = 1e8


class BlowupError(RuntimeError):
    """Raised when the state stops being finite."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"solution blew up at step {step}")


def _fine_size(n: int) -> int:
    """Smallest even M >= (d+1)N/2 for the degree d = NONLINEARITY_DEGREE.

    On M points a product of d modes |k| < N/2 cannot alias onto those modes
    (Orszag's padding rule for degree d), and since M > (d+1)(N/2-1) the
    mean of a degree-(d+1) product is alias-free too.
    """
    m = -(-(NONLINEARITY_DEGREE + 1) * n // 2)
    return m + m % 2


def _fine_samples(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """Real samples, on the `_fine_size` grid, of the real state with
    coefficients `hat` (last axis; leading axes are a batch).

    Only the modes 0 <= k < N/2 are read: a real state's other modes are
    their conjugates, and the unpaired Nyquist mode is dropped.
    """
    n = grid.n_modes
    m = _fine_size(n)
    return np.fft.irfft(grid.to_dft(hat)[..., : n // 2], m) * (m / n)


def _eighth_power(w: np.ndarray) -> np.ndarray:
    """w**8 by three squarings, in place."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            np.multiply(w, w, out=w)
    return w


def _power8_coeffs(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """Alias-free raw DFT coefficients of u^8 on the coarse grid (u real).

    The coarse spectrum is Hermitian; its Nyquist mode stays zero.
    """
    n = grid.n_modes
    half = n // 2
    w = _eighth_power(_fine_samples(grid, hat))
    low = np.fft.rfft(w)[..., :half] * (n / w.shape[-1])
    out = np.zeros(low.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :half] = low
    out[..., half + 1:] = np.conj(low[..., :0:-1])
    return out


def nonlinearity_coeffs(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """Coefficients of -d_x(u^8)/8 from the coefficients `hat` of the real
    state u (transform convention, last axis; leading axes are a batch)."""
    return (-1j * grid.xi / NONLINEARITY_DEGREE) * grid.from_dft(_power8_coeffs(grid, hat))


def conserved_quantities(grid: Grid, hat: np.ndarray) -> tuple[float, float, float]:
    """(mean, mass, energy) = (int u, int u^2, int (u_x^2/2 - u^9/72)) of the
    real state with coefficients `hat`.

    The quadratic pieces are exact spectral sums (Parseval); the u^9
    integral is taken on the padded grid where it is alias-free.
    """
    power = np.abs(hat) ** 2
    mean = SQRT_2PI * float(hat[0].real)
    mass = grid.dxi * float(np.sum(power))
    kinetic = 0.5 * grid.dxi * float(np.sum(grid.xi**2 * power))
    fine = _fine_samples(grid, hat)
    dx_fine = 2.0 * grid.half_length / fine.shape[-1]
    potential = dx_fine * float(np.sum(_eighth_power(fine.copy()) * fine)) / 72.0
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
    vals = phi.values
    if not is_real(vals):
        raise ValueError("evolve_reference expects real data")
    hat = grid.forward(vals.real)

    lin = 1j * grid.xi**3
    e_full = np.exp(dt * lin)
    e_half = np.exp(0.5 * dt * lin)

    n_out = n_steps // output_stride + 1
    samples = np.empty((n_out, grid.n_modes), dtype=np.complex128)
    samples[0] = grid.inverse(hat)

    diag_steps = [0]
    diag_rows = [conserved_quantities(grid, hat)]

    blown_up = False
    first_bad = None
    k_out = 1
    for step in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            n1 = nonlinearity_coeffs(grid, hat)
            a = e_half * (hat + 0.5 * dt * n1)
            n2 = nonlinearity_coeffs(grid, a)
            b = e_half * hat + 0.5 * dt * n2
            n3 = nonlinearity_coeffs(grid, b)
            c = e_full * hat + dt * e_half * n3
            n4 = nonlinearity_coeffs(grid, c)
            hat = e_full * hat + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)

        if not np.all(np.isfinite(hat)):
            blown_up = True
            first_bad = step
            break

        if step % diag_stride == 0 or step == n_steps:
            diag_steps.append(step)
            diag_rows.append(conserved_quantities(grid, hat))
        if step % output_stride == 0:
            samples[k_out] = grid.inverse(hat)
            k_out += 1

    taxis = TimeAxis(t0=0.0, dt=dt * output_stride, n_samples=k_out)
    traj_field = SpaceTimeField(grid, taxis, samples[:k_out])
    steps = np.asarray(diag_steps)
    mean, mass, energy = np.asarray(diag_rows).T
    diags = Diagnostics(step=steps, time=steps * dt, mean=mean, mass=mass, energy=energy)
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


def _cutoff_window(taxis: TimeAxis, eta_T: np.ndarray) -> tuple[slice, int]:
    """The rows of `taxis` the Duhamel map works on, and the row of t = 0
    within them.

    They are the rows where eta_T != 0 (and t = 0), plus one zero guard row
    on each side for the trapezoid sum, clipped to the axis. The map
    vanishes on every other row.
    """
    if not taxis.is_centered:
        raise ValueError("the Duhamel map needs the centered time box (t = 0 a node)")
    j0 = int(np.argmin(np.abs(taxis.t)))
    support = np.append(np.flatnonzero(eta_T), j0)
    rows = slice(max(int(support.min()) - 1, 0), min(int(support.max()) + 2, taxis.n_samples))
    return rows, j0 - rows.start


def _duhamel_window(
    grid: Grid,
    dt: float,
    j0: int,
    propagator: np.ndarray,
    conj_propagator: np.ndarray,
    v_hat: np.ndarray,
    z_hat: np.ndarray,
    eta: np.ndarray,
    eta_T: np.ndarray,
) -> np.ndarray:
    """One application of the cutoff Duhamel map to x-spectral coefficients,
    on the rows of a `_cutoff_window`; the map vanishes on the other rows.

    Every array holds those rows only: the propagator table exp(i t xi^3)
    and its conjugate, v_hat and z_hat, and the unit-scale and T-scale
    cutoffs eta and eta_T sampled on them. j0 is the row of t = 0 among
    them. z must already carry its eta_T cutoff (it is the cutoff free
    evolution of the data); v gets eta here. The time integral uses the
    trapezoid rule at the axis spacing dt, with the free propagator applied
    exactly between nodes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = eta[:, None] * v_hat + z_hat
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

    # integrand of the mild form, exp(-i s xi^3) N(w)(s), and its cumulative
    # trapezoid sums from t = 0, each in place with its operands in the order
    # of the out-of-place expressions (a swapped product can differ by an ulp)
    integrand = np.multiply(conj_propagator, forcing, out=forcing)
    out = np.empty_like(integrand)
    out[0] = 0.0
    np.add(integrand[1:], integrand[:-1], out=out[1:])
    np.multiply(0.5 * dt, out[1:], out=out[1:])
    np.cumsum(out[1:], axis=0, out=out[1:])
    np.subtract(out, out[j0].copy(), out=out)
    np.multiply(propagator, out, out=out)
    return np.multiply(out, eta_T[:, None], out=out)


@dataclass
class PicardResult:
    """Fixed-point iteration record for the Duhamel map.

    `v_hat` and `z_hat` are the x-spectral coefficients (m_t x N, on
    `taxis`) of the last iterate and of the cutoff free evolution of the
    data; `v` and `z` are their physical samples, built on first use.
    """

    grid: Grid
    taxis: TimeAxis
    v_hat: np.ndarray
    z_hat: np.ndarray
    distances: list[float]
    ratios: list[float]
    converged: bool
    iterations: int
    blown_up: bool
    discarded_band_mass: float
    xi_band: float
    sigma: float
    b: float

    @cached_property
    def v(self) -> SpaceTimeField:
        return SpaceTimeField(self.grid, self.taxis, _readonly(self.grid.inverse(self.v_hat)))

    @cached_property
    def z(self) -> SpaceTimeField:
        return SpaceTimeField(self.grid, self.taxis, _readonly(self.grid.inverse(self.z_hat)))

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

    Distances are measured on the band |xi| <= xi_band (at least one
    frequency step) of the iterates' difference, since the weighted norm
    requires a resolvable band; the share of the returned iterate's mass
    outside that band is reported. Non-convergence within max_iter is a
    result state, not an error; a non-finite iterate, or one whose physical
    peak exceeds BLOWUP_THRESHOLD, marks the run as blown up.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    grid = phi_omega.grid
    if not xi_band >= grid.dxi:
        raise ValueError(f"xi_band must be at least one frequency step {grid.dxi}")
    if taxis is None:
        taxis = centered_axis(t_span=4.0, m_t=2048)
    sigma = sigma_index(eps)
    b = b_index(eps)

    eta, eta_T = Cutoff(1.0)(taxis.t), Cutoff(T)(taxis.t)
    z_full = _free_coeffs(phi_omega, taxis, eta_T)
    # iterate on the cutoff's rows only
    rows, j0 = _cutoff_window(taxis, eta_T)
    propagator = _propagator(grid, taxis)[rows]
    conj_propagator = np.conj(propagator)
    eta, eta_T, z_hat = eta[rows], eta_T[rows], z_full[rows]
    v_hat = np.zeros_like(z_hat)
    outside = np.abs(grid.xi) > xi_band
    # The distance is the weighted norm of the difference on the band's
    # columns. They are time-transformed over the full axis from a buffer
    # that is zero off the window's rows; their |F|^2 goes into a power
    # buffer that is zero off the band, so the weighted sum runs over all N
    # columns in the order `xsb_norm` sums them. A band whose edge the tau
    # axis resolves resolves every difference, which lies inside it.
    band = np.flatnonzero(~outside)
    band_diff = np.zeros((taxis.n_samples, band.size), dtype=np.complex128)
    power = np.zeros((taxis.n_samples, grid.n_modes))
    band_resolved = 2.0 * float(np.max(np.abs(grid.xi[band]))) ** 3 <= taxis.tau_max
    # |u(x)| <= dxi/sqrt(2 pi) * sum_k |u_hat(xi_k)|: an iterate whose bound
    # stays below half the threshold (room for the transform's rounding)
    # needs no inverse transform for the blow-up test
    peak_bound = grid.dxi / SQRT_2PI

    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    blown_up = False
    iterations = 0

    for _ in range(max_iter):
        iterations += 1
        try:
            v_next = _duhamel_window(
                grid, taxis.dt, j0, propagator, conj_propagator, v_hat, z_hat, eta, eta_T
            )
        except BlowupError:
            blown_up = True
            break
        with np.errstate(over="ignore", invalid="ignore"):
            bound = peak_bound * float(np.max(np.sum(np.abs(v_next), axis=1)))
            if not bound <= 0.5 * BLOWUP_THRESHOLD:
                peak = float(np.max(np.abs(grid.inverse(v_next))))
                if not np.isfinite(peak) or peak > BLOWUP_THRESHOLD:
                    blown_up = True
                    break
        np.subtract(v_next[:, band], v_hat[:, band], out=band_diff[rows])
        if not band_resolved:
            _require_resolved(grid, taxis, band_diff, band)
        power[:, band] = np.abs(_time_forward(taxis, band_diff)) ** 2
        d = _xsb_sum(grid, taxis, power, sigma, b)
        if distances and distances[-1] > 0.0:
            ratios.append(d / distances[-1])
        distances.append(d)
        v_hat = v_next
        if d <= tol:
            converged = True
            break

    if converged and ratios and not ratios[-1] < 1.0:
        converged = False
    col = np.sum(np.abs(v_hat) ** 2, axis=0)
    total = float(np.sum(col))
    discarded = float(np.sum(col[outside])) / total if total > 0.0 else 0.0
    v_full = np.zeros_like(z_full)
    v_full[rows] = v_hat
    return PicardResult(
        grid=grid,
        taxis=taxis,
        v_hat=v_full,
        z_hat=z_full,
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
    return result.v.with_values(_readonly(result.v.values + result.z.values))
