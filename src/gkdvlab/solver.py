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

`evolve_reference` runs the first route and `picard_solve` the second.
Both hold the real state as the coefficients of its modes 0 .. N/2 in the
grid's translation-free real pair (see `grid`; no phase appears here): the
integrator one row, the Picard iteration one row per time sample of the
cutoff's window. They return to physical samples only for output and for
the blow-up test. One kernel evaluates N for both: the modes |k| < N/2 go
by one real inverse FFT to the smallest padded grid of M >= 9N/2 points,
where the degree-8 product is alias-free, and one real FFT of u^8 times a
cached per-grid table gives N on the modes 0 .. N/2, the unpaired Nyquist
mode zero. The integrator shares each state's padded samples between its
conservation diagnostic and the next step's first stage. The Picard
iteration takes what does not depend on the data (the window's rows, the
cutoffs and propagator on them, the distance's weight) from one cached
plan per (grid, axis, T, weight, band), and measures each distance on the
window's rows alone: a short FFT, of a length that holds every lag of the
window, against the weight folded onto those lags. Both solvers refuse
complex or non-finite data at entry, and `picard_solve` refuses there its
invalid arguments and a band the tau axis does not resolve; inside its
loop only the blow-up test on each iterate's peak can stop it early.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grid import (
    SQRT_2PI,
    Field,
    Grid,
    _half_weights,
    _readonly,
    half_spectrum,
    require_real_finite,
)
from .norms import _lag_folded_weight, _require_band
from .params import b_index, sigma_index, validate_epsilon
from .spacetime import (
    Cutoff,
    SpaceTimeField,
    TimeAxis,
    _half_propagator,
)

NONLINEARITY_DEGREE = 8
BLOWUP_THRESHOLD = 1e8


def _fine_size(n: int) -> int:
    """Smallest even M >= (d+1)N/2 for the degree d = NONLINEARITY_DEGREE.

    On M points a product of d modes |k| < N/2 cannot alias onto those modes
    (Orszag's padding rule for degree d), and since M > (d+1)(N/2-1) the
    mean of a degree-(d+1) product is alias-free too.
    """
    m = -(-(NONLINEARITY_DEGREE + 1) * n // 2)
    return m + m % 2


@lru_cache(maxsize=8)
def _fine_tables(grid: Grid) -> tuple[float, np.ndarray]:
    """The padded product's two per-grid factors, cached (the table read-only).

    The real inverse FFT to M points of `hat * to_fine`, the scalar
    (sqrt(2 pi)/dx) (M/N), gives the padded samples of the state with the
    coefficients `hat` (modes 0 .. N/2-1). `from_fine` (modes 0 .. N/2) is
    dx/sqrt(2 pi) times N/M and the symbol -i xi/8, so that the first N/2+1
    modes of the real FFT of u^8 times it are the coefficients of
    -d_x(u^8)/8; its Nyquist entry is zero.
    """
    n = grid.n_modes
    m = _fine_size(n)
    half = n // 2
    to_fine = (SQRT_2PI / grid.dx) * (m / n)
    symbol = (-1j * (n / m) / NONLINEARITY_DEGREE) * grid.xi[: half + 1]
    from_fine = (grid.dx / SQRT_2PI) * symbol
    from_fine[half] = 0.0
    return to_fine, _readonly(from_fine)


def _fine_samples(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """Real samples, on the `_fine_size` grid, of the real state whose modes
    0 .. N/2 (or all N) have coefficients `hat` (last axis; leading axes are
    a batch).

    Only the modes 0 <= k < N/2 are read: a real state's other modes are
    their conjugates, and the unpaired Nyquist mode is dropped.
    """
    half = grid.n_modes // 2
    return np.fft.irfft(hat[..., :half] * _fine_tables(grid)[0], _fine_size(grid.n_modes))


def _eighth_power(w: np.ndarray) -> np.ndarray:
    """w**8 by three squarings, in place."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            np.multiply(w, w, out=w)
    return w


def _fine_pair(grid: Grid, hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state's `_fine_samples` u and their `_eighth_power`, formed once
    for its conservation diagnostic and the next step's first stage."""
    u = _fine_samples(grid, hat)
    return u, _eighth_power(u.copy())


def _nonlinearity(grid: Grid, w8: np.ndarray) -> np.ndarray:
    """Coefficients of -d_x(u^8)/8 on the modes 0 .. N/2 (the Nyquist mode
    zero) from the padded samples `w8` of u^8 (last axis; leading axes are a
    batch)."""
    raw = np.fft.rfft(w8)[..., : grid.n_modes // 2 + 1]
    return np.multiply(raw, _fine_tables(grid)[1], out=raw)


def conserved_quantities(
    grid: Grid, hat: np.ndarray, fine: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float, float]:
    """(mean, mass, energy) = (int u, int u^2, int (u_x^2/2 - u^9/72)) of the
    real state whose modes 0 .. N/2 have coefficients `hat`.

    The quadratic pieces are exact spectral sums (Parseval) over the half
    spectrum, with weights (1, 2, ..., 2, 1): each mode 0 < k < N/2 stands
    for its conjugate partner too. The u^9 integral is taken on the padded
    grid, where it is alias-free, from `fine`, the state's `_fine_pair`
    (u, u^8).
    """
    u, w8 = fine
    half = grid.n_modes // 2
    weighted = _half_weights(grid.n_modes) * (hat.real**2 + hat.imag**2)
    mean = SQRT_2PI * float(hat[0].real)
    mass = grid.dxi * float(np.sum(weighted))
    kinetic = 0.5 * grid.dxi * float(grid.xi[: half + 1] ** 2 @ weighted)
    dx_fine = 2.0 * grid.half_length / u.shape[-1]
    potential = dx_fine * float(w8 @ u) / 72.0
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


def _require_stride(name: str, stride: int) -> None:
    """ValueError unless a stride in steps is >= 1."""
    if not stride >= 1:
        raise ValueError(f"{name} must be >= 1, got {stride}")


def _step_count(t_end: float, dt: float, output_stride: int | None) -> tuple[int, int]:
    """(n_steps, stride): t_end/dt as a whole number of steps, 1 .. 1e7, and
    the trajectory's sampling stride, `output_stride`, which must be >= 1
    and divide n_steps, or for None the largest divisor of n_steps that is
    at most 1/1024 of it, or 1; ValueError otherwise."""
    if output_stride is not None:
        _require_stride("output_stride", output_stride)
    if not dt > 0:
        raise ValueError("dt must be positive")
    n_steps_f = t_end / dt
    n_steps = int(round(n_steps_f)) if np.isfinite(n_steps_f) else 0
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-8 * max(1.0, n_steps):
        raise ValueError(f"t_end must be a whole number of steps dt, got t_end/dt = {n_steps_f}")
    if n_steps > 10_000_000:
        raise ValueError(f"t_end must be at most 1e7 steps dt, got {n_steps}")
    if output_stride is None:
        output_stride = max(1, n_steps // 1024)
        while n_steps % output_stride:
            output_stride -= 1
    elif n_steps % output_stride:
        raise ValueError(f"output_stride must divide the {n_steps} steps t_end/dt")
    return n_steps, output_stride


def evolve_reference(
    phi: Field,
    t_end: float,
    dt: float,
    output_stride: int | None,
    diag_stride: int,
    seed: int | None,
) -> Trajectory:
    """March the equation with integrating-factor RK4 from data phi to t_end.

    t_end/dt must be a whole number of steps, and the trajectory is sampled
    every `output_stride` steps (`_step_count`); diagnostics are recorded
    every `diag_stride` >= 1 steps. `seed` is the master seed the trajectory
    records (None: none). A non-finite state stops the run and flags the
    trajectory as blown up.

    The data must be real (a float64 `Field`) and finite. The state is the
    coefficients of the modes 0 .. N/2 (`half_spectrum`),
    the rows are its `grid.real_inverse`, and each state's padded samples
    are formed once, for its diagnostic and the next step's first stage.
    """
    n_steps, output_stride = _step_count(t_end, dt, output_stride)
    _require_stride("diag_stride", diag_stride)

    grid = phi.grid
    require_real_finite(phi, "evolve_reference")
    hat = half_spectrum(phi)

    lin = 1j * grid.xi[: grid.n_modes // 2 + 1] ** 3
    e_full = np.exp(dt * lin)
    e_half = np.exp(0.5 * dt * lin)

    n_out = n_steps // output_stride + 1
    samples = np.empty((n_out, grid.n_modes))
    samples[0] = grid.real_inverse(hat)

    fine = _fine_pair(grid, hat)
    diag_steps = [0]
    diag_rows = [conserved_quantities(grid, hat, fine)]

    blown_up = False
    first_bad = None
    k_out = 1
    for step in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            n1 = _nonlinearity(grid, fine[1])
            a = e_half * (hat + 0.5 * dt * n1)
            n2 = _nonlinearity(grid, _eighth_power(_fine_samples(grid, a)))
            b = e_half * hat + 0.5 * dt * n2
            n3 = _nonlinearity(grid, _eighth_power(_fine_samples(grid, b)))
            c = e_full * hat + dt * e_half * n3
            n4 = _nonlinearity(grid, _eighth_power(_fine_samples(grid, c)))
            hat = e_full * hat + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)

        if not np.all(np.isfinite(hat)):
            blown_up = True
            first_bad = step
            break

        fine = _fine_pair(grid, hat)
        if step % diag_stride == 0 or step == n_steps:
            diag_steps.append(step)
            diag_rows.append(conserved_quantities(grid, hat, fine))
        if step % output_stride == 0:
            samples[k_out] = grid.real_inverse(hat)
            k_out += 1

    taxis = TimeAxis(t0=0.0, dt=dt * output_stride, n_samples=k_out)
    # the full array is taken over; a blown-up run's rows are copied
    rows = samples if k_out == n_out else samples[:k_out]
    traj_field = SpaceTimeField(grid, taxis, _readonly(rows))
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
    j0 = int(np.argmin(np.abs(taxis.t)))
    support = np.append(np.flatnonzero(eta_T), j0)
    rows = slice(max(int(support.min()) - 1, 0), min(int(support.max()) + 2, taxis.n_samples))
    return rows, j0 - rows.start


@dataclass(frozen=True)
class _WindowPlan:
    """What `picard_solve` needs of one (grid, axis, T, s, b, band) besides
    the data, built once by `_window_plan`; every array is read-only.

    `rows` and `j0` are the `_cutoff_window`; `eta` and `eta_T` the unit-
    and T-scale cutoffs and `propagator`/`conj_propagator` the free-
    propagator rows exp(i t_m xi_k^3) of the modes 0 .. N/2 (a view of
    `_half_propagator`'s rows) and their conjugate, all on those rows;
    `length` and `weight` the `_lag_folded_weight` of the band's columns on
    them. `distance` is a raw FFT: only |F|^2 against that weight enters.
    """

    rows: slice
    j0: int
    eta: np.ndarray
    eta_T: np.ndarray
    propagator: np.ndarray
    conj_propagator: np.ndarray
    length: int
    weight: np.ndarray

    def distance(self, padded: np.ndarray) -> float:
        """The distance of a band difference from `padded`, `length` x
        n_band: its window rows first, zeros below them."""
        spectrum = np.fft.fft(padded, axis=0)
        return float(np.sqrt(np.vdot(self.weight, spectrum.real**2 + spectrum.imag**2)))


@lru_cache(maxsize=8)
def _window_plan(
    grid: Grid, taxis: TimeAxis, T: float, s: float, b: float, n_band: int
) -> _WindowPlan:
    """The cached `_WindowPlan` of a Picard iteration with cutoff scale T,
    distance weight (s, b) and band columns 0 .. n_band-1."""
    eta, eta_T = Cutoff(1.0)(taxis.t), Cutoff(T)(taxis.t)
    rows, j0 = _cutoff_window(taxis, eta_T)
    propagator = _half_propagator(grid, taxis)[rows]
    length, weight = _lag_folded_weight(grid, taxis, s, b, n_band, rows.stop - rows.start)
    return _WindowPlan(
        rows=rows,
        j0=j0,
        eta=_readonly(eta[rows]),
        eta_T=_readonly(eta_T[rows]),
        propagator=propagator,
        conj_propagator=_readonly(np.conj(propagator)),
        length=length,
        weight=weight,
    )


def _duhamel_window(
    grid: Grid, dt: float, plan: _WindowPlan, v_hat: np.ndarray, z_hat: np.ndarray
) -> np.ndarray:
    """One application of the cutoff Duhamel map to the coefficients of the
    modes 0 .. N/2 of a real state, on the rows of the plan's
    `_cutoff_window`; the map vanishes on the other rows.

    v_hat and z_hat hold those rows only, as do the plan's propagator table
    exp(i t xi^3), its conjugate and the cutoffs eta and eta_T; the plan's
    j0 is the row of t = 0 among them. z must already carry its eta_T cutoff (it is
    the cutoff free evolution of the data); v gets eta here. The time
    integral uses the trapezoid rule at the axis spacing dt, with the free
    propagator applied exactly between nodes. The nonlinearity's Nyquist
    mode is zero, so the output's is too. A state whose eighth power
    overflows gives a non-finite output, which the caller's peak test reads.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # the rows where w is zero (the guard rows) give N(0) = 0 exactly,
        # so the kernel runs on every row
        w = plan.eta[:, None] * v_hat + z_hat
        forcing = _nonlinearity(grid, _eighth_power(_fine_samples(grid, w)))

        # integrand of the mild form, exp(-i s xi^3) N(w)(s), and its
        # cumulative trapezoid sums from t = 0, each in place with its
        # operands in the order of the out-of-place expressions (a swapped
        # product can differ by an ulp)
        integrand = np.multiply(plan.conj_propagator, forcing, out=forcing)
        out = np.empty_like(integrand)
        out[0] = 0.0
        np.add(integrand[1:], integrand[:-1], out=out[1:])
        np.multiply(0.5 * dt, out[1:], out=out[1:])
        np.cumsum(out[1:], axis=0, out=out[1:])
        np.subtract(out, out[plan.j0].copy(), out=out)
        np.multiply(plan.propagator, out, out=out)
        return np.multiply(out, plan.eta_T[:, None], out=out)


@dataclass
class PicardResult:
    """Fixed-point iteration record for the Duhamel map.

    `v_hat` and `z_hat` are the edge-based coefficients of the modes
    0 .. N/2 (the grid's real pair; m_t x (N/2+1), on `taxis`) of the last
    iterate and of the cutoff free evolution of the data; `v` and `z` are
    their float64 samples (`grid.real_inverse`), built on first use.
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
        return SpaceTimeField(self.grid, self.taxis, _readonly(self.grid.real_inverse(self.v_hat)))

    @cached_property
    def z(self) -> SpaceTimeField:
        return SpaceTimeField(self.grid, self.taxis, _readonly(self.grid.real_inverse(self.z_hat)))

    @property
    def final_ratio(self) -> float | None:
        return self.ratios[-1] if self.ratios else None


def _picard_arguments(
    grid: Grid, taxis: TimeAxis, tol: float, max_iter: int, xi_band: float, eps: float
) -> None:
    """ValueError unless the data-independent arguments of a Picard
    iteration hold: tol > 0, max_iter >= 1, a centered axis, a valid eps
    and a band |xi| <= xi_band at least one frequency step wide."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not max_iter >= 1:
        raise ValueError("max_iter must be >= 1")
    if not taxis.is_centered:
        raise ValueError("the Duhamel map needs the centered time box (t = 0 a node)")
    validate_epsilon(eps)
    if not xi_band >= grid.dxi:
        raise ValueError(f"xi_band must be >= one frequency step pi / half_length = {grid.dxi:.6g}")


def _picard_band(grid: Grid, taxis: TimeAxis, xi_band: float) -> int:
    """The number n_band of the distance's band columns, the modes
    0 .. n_band-1 with xi <= xi_band, of a Picard iteration on `taxis`
    whose arguments passed `_picard_arguments`.

    Raises AliasingError unless the tau axis resolves the band's highest
    mode: then it resolves every difference of iterates, which lies inside
    the band.
    """
    n_band = int(np.count_nonzero(grid.xi[: grid.n_modes // 2] <= xi_band))
    _require_band(taxis, float(grid.xi[n_band - 1]))
    return n_band


def picard_solve(
    phi_omega: Field,
    T: float,
    tol: float,
    max_iter: int,
    taxis: TimeAxis,
    xi_band: float,
    eps: float,
) -> PicardResult:
    """Iterate v <- Gamma(v) from v = 0 until successive iterates are closer
    than tol in the dispersive-weighted norm.

    Distances are measured on the band |xi| <= xi_band of the iterates'
    difference, since the weighted norm requires a resolvable band; the
    share of the returned iterate's mass outside that band is reported.
    The arguments (`_picard_arguments`), the data (real and finite, else
    ValueError) and the band (`_picard_band`) are checked at entry.
    Non-convergence within max_iter is a result state, not an error; an
    iterate whose physical peak is not finite or exceeds BLOWUP_THRESHOLD,
    the one check in the loop, marks the run as blown up.

    The iterates are real, and the iteration holds the coefficients of
    their modes 0 .. N/2 on the cutoff's rows only. A distance is summed
    from those rows alone: an L-point FFT of the band's columns xi >= 0, L
    the window's `_lag_folded_weight` length, against that weight, whose
    folding stands for the columns xi < 0. It equals the full-axis sum to
    round-off.
    """
    grid = phi_omega.grid
    _picard_arguments(grid, taxis, tol, max_iter, xi_band, eps)
    require_real_finite(phi_omega, "picard_solve")
    n_band = _picard_band(grid, taxis, xi_band)
    sigma = sigma_index(eps)
    b = b_index(eps)

    half = grid.n_modes // 2
    mode_weights = _half_weights(grid.n_modes)
    # The distance is the weighted norm of the difference on the band's
    # columns (a prefix of the modes 0 .. N/2-1; the Nyquist column of every
    # iterate is zero).
    band = slice(0, n_band)
    plan = _window_plan(grid, taxis, float(T), float(sigma), float(b), n_band)
    z_hat = plan.propagator * half_spectrum(phi_omega)[None, :] * plan.eta_T[:, None]
    v_hat = np.zeros_like(z_hat)
    outside = np.abs(grid.xi[: half + 1]) > xi_band
    # the band's difference on the window's rows, zero-padded to the plan's
    # FFT length
    padded_diff = np.zeros((plan.length, n_band), dtype=np.complex128)
    band_diff = padded_diff[: z_hat.shape[0]]
    # |u(x)| <= dxi/sqrt(2 pi) * sum_k |u_hat(xi_k)| over all N modes: an
    # iterate whose bound stays below half the threshold (room for the
    # transform's rounding) needs no inverse transform for the blow-up test
    peak_bound = (grid.dxi / SQRT_2PI) * mode_weights

    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    blown_up = False
    iterations = 0

    for _ in range(max_iter):
        iterations += 1
        v_next = _duhamel_window(grid, taxis.dt, plan, v_hat, z_hat)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = float(np.max(np.abs(v_next) @ peak_bound))
            if not bound <= 0.5 * BLOWUP_THRESHOLD:
                # a NaN or infinite peak fails the comparison too
                peak = float(np.max(np.abs(grid.real_inverse(v_next))))
                if not peak <= BLOWUP_THRESHOLD:
                    blown_up = True
                    break
        np.subtract(v_next[:, band], v_hat[:, band], out=band_diff)
        d = plan.distance(padded_diff)
        if distances and distances[-1] > 0.0:
            ratios.append(d / distances[-1])
        distances.append(d)
        v_hat = v_next
        if d <= tol:
            converged = True
            break

    if converged and ratios and not ratios[-1] < 1.0:
        converged = False
    col = mode_weights * np.sum(np.abs(v_hat) ** 2, axis=0)
    total = float(np.sum(col))
    discarded = float(np.sum(col[outside])) / total if total > 0.0 else 0.0
    v_full = np.zeros((taxis.n_samples, half + 1), dtype=np.complex128)
    z_full = np.zeros_like(v_full)
    v_full[plan.rows] = v_hat
    z_full[plan.rows] = z_hat
    return PicardResult(
        grid=grid,
        taxis=taxis,
        v_hat=v_full,
        z_hat=z_full,
        distances=distances,
        ratios=ratios,
        converged=converged,
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
