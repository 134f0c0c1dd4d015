from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdvlab import solver
from gkdvlab.cli import build_data
from gkdvlab.config import load_config, parse_float_list
from gkdvlab.grid import SQRT_2PI, Field, Grid, field_from_function, half_spectrum, make_grid
from gkdvlab.norms import AliasingError, _half_xsb_weight, xsb_norm
from gkdvlab.params import b_index, sigma_index
from gkdvlab.solver import (
    BLOWUP_THRESHOLD,
    _duhamel_window,
    _eighth_power,
    _fine_pair,
    _fine_samples,
    _fine_size,
    _window_plan,
    conserved_quantities,
    evolve_reference,
    picard_solve,
    reconstruct_solution,
)
from gkdvlab.spacetime import (
    SpaceTimeField,
    _propagator,
    centered_axis,
    free_evolution,
    midpoint_axis,
    st_l2,
    time_cutoff,
)
from gkdvlab.streams import child_seed
from gkdvlab.wiener import sampler

from conftest import (
    EPS,
    MAX_ITER,
    airy_propagate,
    banded_bump,
    edge_based,
    former_from_dft,
    former_real_forward,
    former_real_inverse,
    former_to_dft,
    former_xsb_norm,
    free_coeffs,
    full_axis_distance,
    random_real_field,
)

LWP_PRESET = Path(__file__).parents[1] / "configs" / "lwp.ini"


def nonlinearity_coeffs(grid, hat):
    """Coefficients of -d_x(u^8)/8 from the full spectrum `hat` of the real
    state u (transform convention, last axis; leading axes are a batch):
    the full-spectrum oracle around the solvers' shared kernel.

    The kernel works on the real pair's edge-based coefficients and gives
    the modes 0 .. N/2; the modes N/2+1 .. N-1 are the conjugates of modes
    N/2-1 .. 1.
    """
    n = grid.n_modes
    half = n // 2
    fine = _fine_samples(grid, edge_based(hat[..., :half]))
    low = edge_based(solver._nonlinearity(grid, _eighth_power(fine)))
    out = np.empty(low.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : half + 1] = low
    out[..., half + 1 :] = np.conj(low[..., half - 1 : 0 : -1])
    return out


def _nonlinearity(f):
    """Samples of N(f) = -d_x(f^8)/8 from the coefficients of real data f."""
    return f.grid.inverse(nonlinearity_coeffs(f.grid, f.grid.forward(f.values.real)))


class TestNonlinearity:
    def test_zero_maps_to_zero(self, grid512):
        z = field_from_function(grid512, lambda x: 0.0 * x)
        assert np.max(np.abs(_nonlinearity(z))) == 0.0

    def test_constant_maps_to_zero(self, grid512):
        c = field_from_function(grid512, lambda x: 0.0 * x + 1.3)
        assert np.max(np.abs(_nonlinearity(c))) <= 1e-13

    def test_sine_matches_symbolic_oracle(self):
        # N(sin) = -sin^7(x) cos(x), alias-free on the 9N/2 padded grid
        g = make_grid(np.pi, 256)
        out = _nonlinearity(field_from_function(g, np.sin))
        exact = -np.sin(g.x) ** 7 * np.cos(g.x)
        assert np.max(np.abs(out.real - exact)) <= 1e-10
        assert np.max(np.abs(out.imag)) <= 1e-12

    def test_rejects_complex_data(self, grid64):
        # the nonlinearity is the real one; both solvers refuse complex data
        f = field_from_function(grid64, lambda x: np.exp(1j * x))
        with pytest.raises(ValueError, match="evolve_reference expects real data"):
            evolve_reference(f, 1e-3, 1e-4, output_stride=None, diag_stride=1, seed=None)
        with pytest.raises(ValueError, match="picard_solve expects real data"):
            picard_solve(f, 0.25, tol=1e-10, max_iter=MAX_ITER, taxis=centered_axis(4.0, 256),
                         xi_band=4.0, eps=EPS)

    def test_rejects_finite_half_whose_samples_overflow(self, grid64):
        # the samples of a field built from its half are built on the first
        # read, inside the entry check; a finite half whose inverse
        # overflows is refused there, as when the samples were built at once
        half = np.full(33, 1e307, np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for solve, name in [
                (lambda f: evolve_reference(f, 1e-3, 1e-4, output_stride=None, diag_stride=1,
                                            seed=None), "evolve_reference"),
                (lambda f: picard_solve(f, 0.25, tol=1e-10, max_iter=MAX_ITER,
                                        taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS),
                 "picard_solve"),
            ]:
                f = Field.from_half(grid64, half)
                assert np.all(np.isfinite(half_spectrum(f))) and "values" not in vars(f)
                with pytest.raises(ValueError, match=f"{name} expects finite data"):
                    solve(f)


def _full_band_data(grid, seed, amplitude):
    """Real samples whose spectrum fills every mode |k| < N/2, scaled to
    max |u| = amplitude."""
    n = grid.n_modes
    half = n // 2
    rng = np.random.default_rng(seed)
    c = np.zeros(n, dtype=np.complex128)
    c[:half] = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    c[0] = c[0].real
    c[half + 1:] = np.conj(c[1:half][::-1])
    u = np.fft.ifft(c).real
    return amplitude * u / np.max(np.abs(u))


def _padded_oracle(grid, values, m):
    """Reference for the degree-8 product: the complex route on an m-point
    zero-padded grid (m = 8N is the former solver path).

    Returns the coefficients of -d_x(u^8)/8 and the energy
    int (u_x^2/2 - u^9/72).
    """
    n = grid.n_modes
    half = n // 2
    c = np.fft.fft(values, axis=-1)
    padded = np.zeros(c.shape[:-1] + (m,), dtype=np.complex128)
    padded[..., :half] = c[..., :half]
    padded[..., -(half - 1):] = c[..., -(half - 1):]
    fine = np.fft.ifft(padded, axis=-1) * (m / n)
    cw = np.fft.fft(fine**8, axis=-1) * (n / m)
    raw = np.zeros(c.shape, dtype=np.complex128)
    raw[..., :half] = cw[..., :half]
    raw[..., -(half - 1):] = cw[..., -(half - 1):]
    coeffs = (-1j * grid.xi / 8) * former_from_dft(grid, raw)
    kinetic = 0.5 * grid.dx / n * float(np.sum(np.abs(1j * grid.xi * c) ** 2))
    potential = 2.0 * grid.half_length / m * float(np.sum(fine.real**8 * fine.real)) / 72.0
    return coeffs, kinetic - potential


def _rel_max(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestPaddedProduct:
    # N = 10 is a grid size not divisible by 4.
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 64, 512]),
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.floats(0.25, 1.5),
    )
    def test_matches_eightfold_complex_oracle(self, n, seed, amplitude):
        grid = make_grid(4.0, n)
        vals = _full_band_data(grid, seed, amplitude)
        ref_coeffs, ref_energy = _padded_oracle(grid, vals, 8 * n)
        hat = grid.forward(vals)
        assert _rel_max(nonlinearity_coeffs(grid, hat), ref_coeffs) <= 1e-13
        half_hat = grid.real_forward(vals)
        energy = conserved_quantities(grid, half_hat, _fine_pair(grid, half_hat))[2]
        assert abs(energy - ref_energy) <= 1e-13 * abs(ref_energy)

    # Degree-8 products reach |k| <= 4N - 8, which a 4N grid folds onto
    # |k| >= 8: at N <= 16 that misses the kept band |k| < N/2, so
    # under-padding is shown on the larger grids.
    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([64, 512]), seed=st.integers(0, 2**32 - 1))
    def test_fourfold_padding_aliases(self, n, seed):
        grid = make_grid(4.0, n)
        vals = _full_band_data(grid, seed, 1.0)
        exact, _ = _padded_oracle(grid, vals, 8 * n)
        under, _ = _padded_oracle(grid, vals, 4 * n)
        assert _rel_max(under, exact) > 1e3 * 1e-13

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([8, 10, 64, 512]), seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_rows_bitwise(self, n, seed):
        grid = make_grid(4.0, n)
        batch = grid.forward(
            np.stack([_full_band_data(grid, seed + k, 0.5 + 0.25 * k) for k in range(5)])
        )
        rows = np.stack([nonlinearity_coeffs(grid, row) for row in batch])
        assert np.array_equal(nonlinearity_coeffs(grid, batch), rows)


class TestConservedQuantities:
    def test_zero_field(self, grid512):
        hat = np.zeros(257, np.complex128)
        assert conserved_quantities(grid512, hat, _fine_pair(grid512, hat)) == (0.0, 0.0, 0.0)

    def test_sine_closed_form(self):
        g = make_grid(np.pi, 128)
        hat = g.real_forward(np.sin(g.x))
        mean, mass, energy = conserved_quantities(g, hat, _fine_pair(g, hat))
        assert abs(mean) <= 1e-13
        assert mass == pytest.approx(np.pi, rel=1e-13)
        # energy = (1/2) int cos^2 = pi/2; the odd u^9 term integrates to 0
        assert energy == pytest.approx(np.pi / 2, rel=1e-13)

    @pytest.mark.parametrize("n", [8, 10, 512])
    def test_matches_full_spectrum_sums(self, n):
        # real data with every mode, the unpaired Nyquist mode included, which
        # the half-spectrum weights count once
        g = make_grid(4.0, n)
        vals = np.random.default_rng(n).standard_normal(n)
        hat = g.real_forward(vals)
        got = conserved_quantities(g, hat, _fine_pair(g, hat))
        ref = _full_spectrum_diagnostics(g, g.forward(vals))
        assert abs(got[0] - ref[0]) <= 1e-13 * np.max(np.abs(vals))
        assert got[1:] == pytest.approx(ref[1:], rel=1e-13, abs=0.0)


class TestEvolveReference:
    def test_zero_data_stays_zero(self, grid512):
        z = field_from_function(grid512, lambda x: 0.0 * x)
        traj = evolve_reference(z, 0.01, 1e-3, output_stride=None, diag_stride=1, seed=None)
        assert np.max(np.abs(traj.u.values)) == 0.0
        assert np.max(np.abs(traj.diagnostics.mass)) == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_refused(self, grid64, monkeypatch, value):
        # refused at entry, before the data's transform
        values = banded_bump(grid64, amplitude=1.0, band=2.0).values.copy()
        values[5] = value
        monkeypatch.setattr(Grid, "real_forward", _must_not_run)
        with pytest.raises(ValueError, match="evolve_reference expects finite data"):
            evolve_reference(
                Field(grid64, values), 1e-3, 1e-4, output_stride=None, diag_stride=1, seed=None
            )

    def test_linear_regime_matches_free_flow(self, grid512):
        phi = field_from_function(grid512, lambda x: 1e-8 * np.exp(-(x**2)))
        traj = evolve_reference(phi, 1.0, 1e-3, output_stride=None, diag_stride=1000, seed=None)
        final = traj.u.values[-1]
        lin = airy_propagate(phi, 1.0).values
        assert np.max(np.abs(final - lin)) <= 1e-8 * np.max(np.abs(lin))

    def test_fourth_order_self_convergence(self):
        # Richardson oracle: with a dt/8 self-reference the error ratio under
        # halving sits in the fourth-order window
        g = make_grid(32.0, 256)
        phi = field_from_function(g, lambda x: np.exp(-(x**2)))
        T, base = 0.5, 2048

        def final(dt):
            traj = evolve_reference(phi, T, dt, output_stride=None, diag_stride=10**9, seed=None)
            return traj.u.values[-1]

        ref = final(T / (8 * base))
        e1 = np.max(np.abs(final(T / base) - ref))
        e2 = np.max(np.abs(final(T / (2 * base)) - ref))
        assert 12.0 <= e1 / e2 <= 20.0

    def test_mean_preserved_exactly(self, grid512):
        phi = field_from_function(grid512, lambda x: np.exp(-(x**2)))
        traj = evolve_reference(phi, 0.02, 1e-3, output_stride=None, diag_stride=1, seed=None)
        d = traj.diagnostics
        assert np.max(np.abs(d.mean - d.mean[0])) <= 1e-12

    def test_short_run_conservation(self, grid512):
        phi = field_from_function(grid512, lambda x: np.exp(-(x**2)))
        traj = evolve_reference(phi, 0.05, 1e-4, output_stride=None, diag_stride=50, seed=None)
        d = traj.diagnostics
        assert np.max(np.abs(d.mass - d.mass[0])) <= 1e-10 * abs(d.mass[0])
        assert np.max(np.abs(d.energy - d.energy[0])) <= 1e-10 * abs(d.energy[0])

    def test_blowup_is_flagged_with_step(self):
        g = make_grid(16.0, 128)
        phi = field_from_function(g, lambda x: 10.0 * np.exp(-(x**2)))
        traj = evolve_reference(phi, 0.5, 1e-2, output_stride=None, diag_stride=1, seed=None)
        assert traj.blown_up
        assert traj.first_bad_step is not None and traj.first_bad_step >= 1

    def test_non_integer_step_count_rejected(self, grid512):
        phi = field_from_function(grid512, lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError):
            evolve_reference(phi, 1.0, 3e-4, output_stride=None, diag_stride=1, seed=None)

    @pytest.mark.parametrize(
        "output_stride, diag_stride, message",
        [
            (None, 0, "diag_stride must be >= 1, got 0"),
            (None, -2, "diag_stride must be >= 1, got -2"),
            (-5, 1, "output_stride must be >= 1, got -5"),  # -5 divides the 10 steps
            (0, 1, "output_stride must be >= 1, got 0"),
        ],
    )
    def test_strides_checked_at_entry(self, grid64, monkeypatch, output_stride, diag_stride,
                                      message):
        # refused before the data are read, let alone a step taken
        monkeypatch.setattr(solver, "require_real_finite", _must_not_run)
        phi = banded_bump(grid64)
        with pytest.raises(ValueError, match=message):
            evolve_reference(phi, 1e-3, 1e-4, output_stride=output_stride,
                             diag_stride=diag_stride, seed=None)


def _full_spectrum_nonlinearity(grid, hat):
    """The former kernel on all N coefficients: padded samples from the
    raw DFT coefficients, u^8 by three squarings, its low modes rescaled
    and extended by conjugate symmetry, then the convention and -i xi/8."""
    n = grid.n_modes
    half = n // 2
    m = _fine_size(n)
    w = np.fft.irfft(former_to_dft(grid, hat)[..., :half], m) * (m / n)
    low = np.fft.rfft(_eighth_power(w))[..., :half] * (n / m)
    raw = np.zeros(low.shape[:-1] + (n,), dtype=np.complex128)
    raw[..., :half] = low
    raw[..., half + 1:] = np.conj(low[..., :0:-1])
    return (-1j * grid.xi / 8) * former_from_dft(grid, raw)


def _full_spectrum_diagnostics(grid, hat):
    """The former conservation diagnostic: full-spectrum Parseval sums and
    its own padded samples for the u^9 integral."""
    n = grid.n_modes
    m = _fine_size(n)
    power = np.abs(hat) ** 2
    fine = np.fft.irfft(former_to_dft(grid, hat)[: n // 2], m) * (m / n)
    potential = 2.0 * grid.half_length / m * float(np.sum(_eighth_power(fine.copy()) * fine)) / 72.0
    kinetic = 0.5 * grid.dxi * float(np.sum(grid.xi**2 * power))
    return SQRT_2PI * float(hat[0].real), grid.dxi * float(np.sum(power)), kinetic - potential


def _full_spectrum_evolve(phi, n_steps, dt):
    """The former IF-RK4 loop on all N complex coefficients, with a row and
    a diagnostic after every step; returns (rows, diagnostics, first bad
    step or None)."""
    grid = phi.grid
    hat = grid.forward(phi.values.real)
    lin = 1j * grid.xi**3
    e_full = np.exp(dt * lin)
    e_half = np.exp(0.5 * dt * lin)
    rows = [grid.inverse(hat).real]
    diags = [_full_spectrum_diagnostics(grid, hat)]
    for step in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            n1 = _full_spectrum_nonlinearity(grid, hat)
            a = e_half * (hat + 0.5 * dt * n1)
            n2 = _full_spectrum_nonlinearity(grid, a)
            b = e_half * hat + 0.5 * dt * n2
            n3 = _full_spectrum_nonlinearity(grid, b)
            c = e_full * hat + dt * e_half * n3
            n4 = _full_spectrum_nonlinearity(grid, c)
            hat = e_full * hat + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
        if not np.all(np.isfinite(hat)):
            return np.array(rows), np.array(diags), step
        rows.append(grid.inverse(hat).real)
        diags.append(_full_spectrum_diagnostics(grid, hat))
    return np.array(rows), np.array(diags), None


class TestHalfSpectrumLoop:
    """The half-spectrum loop reproduces the former full-spectrum one to
    round-off."""

    @pytest.mark.parametrize("data", ["bump", "full-band"])
    def test_matches_full_spectrum_loop(self, grid512, data):
        if data == "bump":
            phi = field_from_function(grid512, lambda x: np.exp(-(x**2)))
        else:
            phi = field_from_function(grid512, lambda x: _full_band_data(grid512, 11, 1.0))
        n_steps, dt = 200, 1e-4
        rows, diags, bad = _full_spectrum_evolve(phi, n_steps, dt)
        traj = evolve_reference(phi, n_steps * dt, dt, output_stride=1, diag_stride=1, seed=None)
        assert bad is None and not traj.blown_up
        assert traj.u.values.dtype == np.float64
        assert np.max(np.abs(traj.u.values - rows)) <= 1e-14
        d = traj.diagnostics
        assert np.max(np.abs(d.mean - diags[:, 0])) <= 1e-13 * np.max(np.abs(diags[:, 0]))
        for got, ref in ((d.mass, diags[:, 1]), (d.energy, diags[:, 2])):
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    def test_blowup_at_the_same_step(self):
        g = make_grid(16.0, 128)
        phi = field_from_function(g, lambda x: 10.0 * np.exp(-(x**2)))
        _, _, bad = _full_spectrum_evolve(phi, 50, 1e-2)
        traj = evolve_reference(phi, 0.5, 1e-2, output_stride=None, diag_stride=1, seed=None)
        assert bad is not None
        assert traj.blown_up and traj.first_bad_step == bad

    def test_four_padded_evaluations_per_step(self, grid512, monkeypatch):
        # every state's padded samples are formed once, for the next step's
        # first stage and its diagnostic alike; stages 2-4 form their own
        m = _fine_size(grid512.n_modes)
        calls = []
        irfft = np.fft.irfft

        def counting(a, n=None, *args, **kwargs):
            calls.append(n == m)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting)
        phi = field_from_function(grid512, lambda x: np.exp(-(x**2)))
        traj = evolve_reference(phi, 10 * 1e-4, 1e-4, output_stride=10, diag_stride=1, seed=None)
        assert traj.diagnostics.step.size == 11
        assert sum(calls) == 4 * 10 + 1


def _cutoffs(ta, T):
    return time_cutoff(ta.t, 1.0), time_cutoff(ta.t, T)


class TestDuhamelGamma:
    """The cutoff Duhamel map, as `picard_solve` applies it."""

    def test_zero_inputs_give_zero(self, grid64):
        zero = field_from_function(grid64, lambda x: 0.0 * x)
        res = picard_solve(zero, 0.25, tol=1e-10, max_iter=1,
                           taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS)
        assert np.max(np.abs(res.v_hat)) == 0.0

    def test_output_vanishes_outside_cutoff(self, grid64):
        ta = centered_axis(4.0, 256)
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        T = 0.25
        out = picard_solve(phi, T, tol=1e-10, max_iter=1, taxis=ta, xi_band=4.0, eps=EPS).v_hat
        outside = np.abs(ta.t) >= 2 * T
        assert np.max(np.abs(out[outside])) == 0.0
        assert np.max(np.abs(out)) > 0.0

    def test_needs_centered_axis(self, grid64):
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        with pytest.raises(ValueError, match="centered time box"):
            picard_solve(phi, 0.25, tol=1e-10, max_iter=MAX_ITER, taxis=midpoint_axis(1.0, 64),
                         xi_band=4.0, eps=EPS)


class _Blowup(Exception):
    """The full-axis oracle's non-finite state."""


def _must_not_run(*args):
    raise AssertionError("ran past the solver's entry checks")


def _full_axis_gamma(grid, ta, v_hat, z_hat, eta, eta_T):
    """The Duhamel map computed on every row of the time axis: the
    reference the windowed kernel must reproduce bit for bit."""
    w = eta[:, None] * v_hat + z_hat
    if not np.all(np.isfinite(w)):
        raise _Blowup
    active = np.max(np.abs(w), axis=1) > 0.0
    forcing = np.zeros_like(w)
    if np.any(active):
        coeffs = nonlinearity_coeffs(grid, w[active])
        if not np.all(np.isfinite(coeffs)):
            raise _Blowup
        forcing[active] = coeffs
    propagator = _propagator(grid, ta)
    integrand = np.conj(propagator) * forcing
    mids = 0.5 * ta.dt * (integrand[1:] + integrand[:-1])
    cumulative = np.vstack(
        [np.zeros((1, grid.n_modes), dtype=np.complex128), np.cumsum(mids, axis=0)]
    )
    cumulative = cumulative - cumulative[int(np.argmin(np.abs(ta.t)))]
    return propagator * cumulative * eta_T[:, None]


def _full_axis_picard(phi, T, tol, max_iter, ta, xi_band, eps):
    """`picard_solve` with every iterate on the full time axis."""
    grid = phi.grid
    sigma, b = sigma_index(eps), b_index(eps)
    eta, eta_T = time_cutoff(ta.t, 1.0), time_cutoff(ta.t, T)
    z_hat = free_coeffs(phi, ta, eta_T)
    v_hat = np.zeros_like(z_hat)
    outside = np.abs(grid.xi) > xi_band
    distances, ratios = [], []
    converged = blown_up = False
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            iterations += 1
            try:
                v_next = _full_axis_gamma(grid, ta, v_hat, z_hat, eta, eta_T)
            except _Blowup:
                blown_up = True
                break
            peak = float(np.max(np.abs(grid.inverse(v_next))))
            if not np.isfinite(peak) or peak > BLOWUP_THRESHOLD:
                blown_up = True
                break
            diff = v_next - v_hat
            diff[:, outside] = 0.0
            d = former_xsb_norm(grid, ta, diff, sigma, b)
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
    return {
        "distances": distances,
        "ratios": ratios,
        "iterations": iterations,
        "converged": converged and not blown_up,
        "blown_up": blown_up,
        "discarded_band_mass": float(np.sum(col[outside])) / total if total > 0.0 else 0.0,
        "v": grid.inverse(v_hat),
        "z": grid.inverse(z_hat),
    }


def _sampled_bump(grid, amplitude, band):
    """`banded_bump`'s data given as samples alone, as `io.load_field` gives
    them, so that `picard_solve` transforms them."""
    return Field(grid, banded_bump(grid, amplitude, band).values)


def _assert_matches_oracle(res, ref, from_samples=False):
    """Discrete outcomes exactly; the distances (summed in another order)
    and the band mass to 1e-13 relative, the ratios to 2e-13, and the
    samples to 1e-14 of their peak.

    Data given as samples enter through `real_forward` here and `forward`
    in the oracle, so their coefficients differ by an ulp. A distance is
    then a difference of O(1) iterates, and its round-off is bounded by
    1e-13 of the first distance (the size of the first iterate, since the
    iteration starts from zero) rather than of its own size. The ratios are
    quotients of such distances; only their count is compared.
    """
    assert res.iterations == ref["iterations"]
    assert res.converged == ref["converged"]
    assert res.blown_up == ref["blown_up"]
    assert len(res.ratios) == len(ref["ratios"])
    floor = 1e-13 * ref["distances"][0] if from_samples and ref["distances"] else 0.0
    assert res.distances == pytest.approx(ref["distances"], rel=1e-13, abs=floor)
    if not from_samples:
        assert res.ratios == pytest.approx(ref["ratios"], rel=2e-13, abs=0.0)
    assert res.discarded_band_mass == pytest.approx(
        ref["discarded_band_mass"], rel=1e-13, abs=0.0
    )
    for got, want in ((res.v.values, ref["v"]), (res.z.values, ref["z"])):
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestWindowedPicard:
    """The half-spectrum iteration on the cutoff's rows reproduces the
    full-spectrum, full-axis one to round-off."""

    @pytest.mark.parametrize(
        "amplitude, T",
        [
            (1.8, 0.25),  # the lwp preset's amplitude at its largest T
            (1.8, 1.0 / 32.0),  # 7 nonzero cutoff rows
            (0.5, 2.0),  # the cutoff covers the whole axis
            (3.0, 0.25),  # blows up at the third iterate
        ],
    )
    def test_matches_full_axis_iteration(self, grid64, amplitude, T):
        # the data given as samples, as `io.load_field` gives them, and
        # built from their spectrum, as the ensemble's samples are
        ta = centered_axis(4.0, 256)
        for from_samples, make in ((True, _sampled_bump), (False, banded_bump)):
            phi = make(grid64, amplitude, 2.0)
            res = picard_solve(phi, T, tol=1e-10, max_iter=25, taxis=ta, xi_band=4.0, eps=EPS)
            ref = _full_axis_picard(phi, T, 1e-10, 25, ta, 4.0, EPS)
            _assert_matches_oracle(res, ref, from_samples)
            assert res.v_hat.shape == res.z_hat.shape == (256, 33)
            assert res.blown_up == (amplitude == 3.0)
        if T == 2.0:
            assert np.all(time_cutoff(ta.t, T) > 0.0)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_matches_oracle_on_preset_draws(self, seed):
        # 50 randomized draws of the lwp preset at its largest T, where the
        # iteration runs longest and fails most often
        cfg = load_config(LWP_PRESET)
        sample = sampler(build_data(cfg), cfg["random"]["distribution"])
        ta = centered_axis(cfg["time"]["t_span"], cfg["time"]["m_t"])
        lwp, eps = cfg["lwp"], cfg["model"]["epsilon"]
        T = parse_float_list(lwp["t_grid"])[0]
        base = child_seed(seed, 0)
        for index in range(50):
            phi = sample(child_seed(base, index))
            args = (phi, T, lwp["tol"], lwp["max_iter"], ta, lwp["xi_band"], eps)
            _assert_matches_oracle(picard_solve(*args), _full_axis_picard(*args))

    @pytest.mark.parametrize(
        "amplitude, band, oracle_aliases",
        [
            (1.8, 2.0, True),  # at the first iterate
            (1.8, 0.4, True),  # the first difference resolves, the second aliases
            (0.05, 0.4, False),  # converges at the first iterate
        ],
    )
    def test_band_too_wide_for_tau_axis(
        self, grid64, monkeypatch, amplitude, band, oracle_aliases
    ):
        # 2 (31 dxi)^3 ~ 451 exceeds tau_max ~ 201: the band is refused at
        # entry, before any Duhamel application, whatever the data. The
        # full-axis oracle checks each difference's own band instead, and
        # runs on where the differences stay narrow.
        ta = centered_axis(4.0, 256)
        xi_band = grid64.xi_max
        for make in (_sampled_bump, banded_bump):
            phi = make(grid64, amplitude, band)
            if oracle_aliases:
                with pytest.raises(AliasingError):
                    _full_axis_picard(phi, 0.25, 1e-10, 25, ta, xi_band, EPS)
            else:
                assert _full_axis_picard(phi, 0.25, 1e-10, 25, ta, xi_band, EPS)["converged"]
            with monkeypatch.context() as m:
                m.setattr(solver, "_duhamel_window", _must_not_run)
                with pytest.raises(AliasingError, match=r"\|xi\| <= 6.087 needs tau_max >= 451.0"):
                    picard_solve(
                        phi, 0.25, tol=1e-10, max_iter=25, taxis=ta, xi_band=xi_band, eps=EPS
                    )

    @pytest.mark.parametrize("data", ["bump", "full-band"])
    def test_nyquist_column_stays_zero(self, grid64, data):
        # the kernel's Nyquist mode is zero, so every iterate's is, even when
        # the data carry one; the distance's band leaves that column out
        if data == "bump":
            phi = banded_bump(grid64, 1.8, 2.0)
        else:
            phi = Field(grid64, 0.2 * random_real_field(grid64, 3).values)
        ta = centered_axis(4.0, 256)
        for max_iter in range(1, 6):
            res = picard_solve(
                phi, 0.25, tol=1e-30, max_iter=max_iter, taxis=ta, xi_band=4.0, eps=EPS
            )
            assert res.iterations == max_iter and not res.blown_up
            assert np.all(res.v_hat[:, 32] == 0.0)
        if data == "full-band":
            assert np.max(np.abs(res.z_hat[:, 32])) > 0.0


class TestLagFoldedDistance:
    """The distance from the window's rows alone, an L-point FFT against
    the plan's lag-folded weight, against the full-axis transform summed
    with the folded weight."""

    S, B = sigma_index(0.05), b_index(0.05)

    @pytest.mark.parametrize(
        "T, length",
        [(0.25, 135), (0.125, 72), (0.0625, 36), (0.03125, 18), (2.0, 256)],
    )
    def test_matches_full_axis_distance_on_preset_grid(self, grid64, T, length):
        # random band differences on the window's rows: every lag and every
        # tau carries power; at T = 2 the window is the whole axis, L = m_t
        ta = centered_axis(4.0, 256)
        plan = _window_plan(grid64, ta, T, self.S, self.B, 21)
        n_rows = plan.rows.stop - plan.rows.start
        assert plan.length == length and plan.weight.shape == (length, 21)
        rng = np.random.default_rng(11)
        for _ in range(10):
            diff = rng.standard_normal((n_rows, 21)) + 1j * rng.standard_normal((n_rows, 21))
            padded = np.zeros((length, 21), dtype=np.complex128)
            padded[:n_rows] = diff
            want = full_axis_distance(grid64, ta, plan.rows, diff, self.S, self.B)
            assert plan.distance(padded) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_whole_axis_weight_is_the_folded_weight(self, grid64):
        # T = 2: the window is the whole axis, every lag is kept, L = m_t
        ta = centered_axis(4.0, 256)
        plan = _window_plan(grid64, ta, 2.0, self.S, self.B, 21)
        assert plan.rows == slice(0, 256)
        folded = _half_xsb_weight(grid64, ta, self.S, self.B)[:, :21]
        scaled = folded * (grid64.dxi * ta.dt / 256)
        assert np.max(np.abs(plan.weight - scaled)) <= 1e-14 * np.max(scaled)

    def test_matches_full_axis_distance_on_acceptance_05_grid(self):
        # criterion 5's solve (N = 512, m_t = 2048, xi_band 8, T = 1/16):
        # each returned distance against the oracle's of the same iterates
        g = make_grid(32.0, 512)
        ta = centered_axis(4.0, 2048)
        T = 1.0 / 16.0
        res = picard_solve(banded_bump(g, 1.0, 2.0), T, tol=1e-11, max_iter=MAX_ITER, taxis=ta,
                           xi_band=8.0, eps=EPS)
        assert res.converged and res.iterations == 5
        n_band = int(np.count_nonzero(g.xi[:256] <= 8.0))
        plan = _window_plan(g, ta, T, res.sigma, res.b, n_band)
        assert plan.length == 270
        z_hat = res.z_hat[plan.rows]
        v_hat = np.zeros_like(z_hat)
        for d in res.distances:
            v_next = _duhamel_window(g, ta.dt, plan, v_hat, z_hat)
            diff = (v_next - v_hat)[:, :n_band]
            want = full_axis_distance(g, ta, plan.rows, diff, res.sigma, res.b)
            assert d == pytest.approx(want, rel=1e-13, abs=0.0)
            v_hat = v_next
        assert np.array_equal(v_hat, res.v_hat[plan.rows])

    @pytest.mark.parametrize("T", [0.25, 0.125, 0.0625, 0.03125, 2.0])
    def test_propagator_rows_are_the_former_unphased_rows(self, grid64, T):
        # the cached half table carries real_inverse's phase; the plan flips
        # its rows back, so Picard multiplies by exp(i t_m xi_k^3) as before
        ta = centered_axis(4.0, 256)
        plan = _window_plan(grid64, ta, T, self.S, self.B, 21)
        former = np.exp(1j * np.outer(ta.t, grid64.xi[:33] ** 3))[plan.rows]
        assert plan.propagator.tobytes() == former.tobytes()
        assert plan.conj_propagator.tobytes() == np.conj(former).tobytes()

    def test_plan_cached_and_read_only(self, grid64):
        ta = centered_axis(4.0, 256)
        plan = _window_plan(grid64, ta, 0.25, self.S, self.B, 21)
        assert _window_plan(grid64, centered_axis(4.0, 256), 0.25, self.S, self.B, 21) is plan
        for table in (plan.eta, plan.eta_T, plan.propagator, plan.conj_propagator, plan.weight):
            with pytest.raises(ValueError):
                table[0] = 0.0
        with pytest.raises(AttributeError):
            plan.length = 256


def _band_oracle(u, xi_band):
    """The physical route for a difference field u: x-FFT, sharp mask, inverse
    FFT; returns the projected field and the relative discarded mass."""
    hat_x = np.fft.fft(u.values, axis=1)
    keep = np.abs(u.grid.xi) <= xi_band
    lost = np.sum(np.abs(hat_x[:, ~keep]) ** 2) / np.sum(np.abs(hat_x) ** 2)
    return u.with_values(np.fft.ifft(hat_x * keep, axis=1)), float(lost)


def _pde_residual(u, interval):
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
    hat = grid.forward(vals[idx])
    spatial = grid.inverse((1j * grid.xi) ** 3 * hat - nonlinearity_coeffs(grid, hat)).real

    residual = u_t + spatial
    res_norm = np.sqrt(grid.dx * np.sum(residual**2, axis=1))
    u_norm = np.sqrt(grid.dx * np.sum(vals[idx] ** 2, axis=1))
    return res_norm / np.maximum(u_norm, 1e-300)


class TestPicardSolve:
    def test_zero_data_converges_immediately(self, grid64):
        phi = field_from_function(grid64, lambda x: 0.0 * x)
        res = picard_solve(phi, 0.25, tol=1e-12, max_iter=MAX_ITER, taxis=centered_axis(4.0, 256),
                           xi_band=4.0, eps=EPS)
        assert res.converged
        assert res.iterations == 1
        assert res.ratios == []
        assert np.max(np.abs(res.v.values)) == 0.0

    def test_tiny_data_contracts_below_half(self, grid512):
        phi = banded_bump(grid512, amplitude=1e-6, band=2.0)
        res = picard_solve(phi, 1.0 / 16.0, tol=1e-30, max_iter=4,
                           taxis=centered_axis(4.0, 2048), xi_band=8.0, eps=EPS)
        assert res.distances[0] > 0.0
        assert all(r < 0.5 for r in res.ratios)

    def test_fixed_point_residual_at_exit(self, grid64):
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        ta = centered_axis(4.0, 256)
        tol = 1e-9
        res = picard_solve(phi, 0.125, tol=tol, max_iter=MAX_ITER, taxis=ta, xi_band=4.0, eps=EPS)
        assert res.converged
        v_hat = grid64.forward(res.v.values)
        gamma_v = _full_axis_gamma(
            grid64, ta, v_hat, grid64.forward(res.z.values), *_cutoffs(ta, 0.125)
        )
        diff = SpaceTimeField(grid64, ta, grid64.inverse(gamma_v - v_hat))
        projected, _ = _band_oracle(diff, 4.0)
        assert xsb_norm(projected, res.sigma, res.b) <= tol

    def test_first_distance_matches_physical_oracle(self, grid64):
        # from v = 0 the first difference is the first iterate itself
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        res = picard_solve(phi, 0.125, tol=1e-10, max_iter=1,
                           taxis=centered_axis(4.0, 256), xi_band=2.0, eps=EPS)
        projected, lost = _band_oracle(res.v, 2.0)
        assert res.discarded_band_mass == pytest.approx(lost, rel=1e-12)
        assert res.distances[0] == pytest.approx(
            xsb_norm(projected, res.sigma, res.b), rel=1e-12
        )

    def test_band_mask_mass_accounting(self, grid64):
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        res = picard_solve(phi, 0.125, tol=1e-10, max_iter=1,
                           taxis=centered_axis(4.0, 256), xi_band=2.0, eps=EPS)
        projected, _ = _band_oracle(res.v, 2.0)
        lost = res.discarded_band_mass
        assert 0.0 < lost < 1.0
        total = st_l2(res.v) ** 2
        assert st_l2(projected) ** 2 + lost * total == pytest.approx(total, rel=1e-10)

    def test_converged_discarded_mass_is_share_of_returned_iterate(self, grid64):
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        res = picard_solve(phi, 0.125, tol=1e-10, max_iter=MAX_ITER, taxis=centered_axis(4.0, 256),
                           xi_band=2.0, eps=EPS)
        assert res.converged and res.iterations > 1
        _, lost = _band_oracle(res.v, 2.0)
        assert res.discarded_band_mass == pytest.approx(lost, rel=1e-12)

    def test_full_band_discards_nothing(self):
        # a band covering every mode leaves the difference untouched
        g = make_grid(16.0, 16)
        phi = banded_bump(g, amplitude=1.0, band=2.0)
        res = picard_solve(phi, 0.125, tol=1e-10, max_iter=1,
                           taxis=centered_axis(4.0, 256), xi_band=g.xi_max, eps=EPS)
        assert res.discarded_band_mass == 0.0
        assert res.distances[0] == pytest.approx(xsb_norm(res.v, res.sigma, res.b), rel=1e-12)

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_rejects_band_below_one_frequency_step(self, grid64, fraction):
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        with pytest.raises(ValueError):
            picard_solve(phi, 0.125, tol=1e-10, max_iter=MAX_ITER, taxis=centered_axis(4.0, 256),
                         xi_band=fraction * grid64.dxi, eps=EPS)

    def test_cutoffs_evaluated_once_per_solve(self, grid64, monkeypatch):
        # the two cutoffs are sampled when the window plan is built, and a
        # second solve on the same plan samples none
        solver._window_plan.cache_clear()
        calls = []
        profile = solver.time_cutoff
        monkeypatch.setattr(solver, "time_cutoff", lambda t, T: calls.append(1) or profile(t, T))
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        for _ in range(2):
            res = picard_solve(phi, 0.125, tol=1e-30, max_iter=5,
                               taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS)
            assert res.iterations == 5
            assert len(calls) == 2

    @pytest.mark.parametrize("value", [1e40])
    def test_non_finite_state_blows_up(self, grid64, value):
        # data whose eighth power overflows stop the iteration at its first
        # iterate
        values = banded_bump(grid64, amplitude=1.0, band=2.0).values.copy()
        values[5] = value
        res = picard_solve(Field(grid64, values), 0.125, tol=1e-10, max_iter=MAX_ITER,
                           taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS)
        assert res.blown_up and not res.converged
        assert res.iterations == 1 and res.distances == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_refused(self, grid64, monkeypatch, value):
        # refused at entry, before the data's transform or any Duhamel
        # application
        values = banded_bump(grid64, amplitude=1.0, band=2.0).values.copy()
        values[5] = value
        monkeypatch.setattr(solver, "half_spectrum", _must_not_run)
        monkeypatch.setattr(solver, "_duhamel_window", _must_not_run)
        with pytest.raises(ValueError, match="picard_solve expects finite data"):
            picard_solve(Field(grid64, values), 0.125, tol=1e-10, max_iter=MAX_ITER,
                         taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS)

    def test_physical_samples_only_when_needed(self, grid64, monkeypatch):
        # the coefficient bound clears every iterate of moderate data from the
        # blow-up test, and v and z are transformed on first use only
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        # the data's samples, built on their first read, are checked at entry
        assert np.all(np.isfinite(phi.values))
        calls = []
        inverse = Grid.real_inverse
        monkeypatch.setattr(
            Grid, "real_inverse", lambda self, c: calls.append(1) or inverse(self, c)
        )
        res = picard_solve(phi, 0.125, tol=1e-10, max_iter=MAX_ITER, taxis=centered_axis(4.0, 256),
                           xi_band=4.0, eps=EPS)
        assert res.converged and res.iterations > 1
        assert calls == []
        assert res.v is res.v and res.z is res.z
        assert len(calls) == 2

    def test_cross_validates_against_reference(self):
        # the fixed point plus the free evolution must follow the time
        # stepper on [0, T]
        g = make_grid(32.0, 512)
        phi = banded_bump(g, amplitude=1.0, band=2.0)
        T = 1.0 / 16.0
        ta = centered_axis(4.0, 2048)
        res = picard_solve(phi, T, tol=1e-11, max_iter=MAX_ITER, taxis=ta, xi_band=8.0, eps=EPS)
        assert res.converged
        u = reconstruct_solution(res)
        stride = 20
        traj = evolve_reference(
            phi, T, ta.dt / stride, output_stride=stride, diag_stride=10**9, seed=None
        )
        j0 = int(np.argmin(np.abs(ta.t)))
        for k in range(traj.u.taxis.n_samples):
            a = u.values[j0 + k].real
            b = traj.u.values[k].real
            err = np.sqrt(np.sum((a - b) ** 2) / np.sum(b**2))
            assert err <= 1e-6

    def test_interior_pde_residual(self, grid64):
        # the discrete fixed point obeys the equation up to the trapezoid
        # quadrature's O(dt^2); this axis leaves a 3x margin under 1e-4
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        ta = centered_axis(4.0, 1024)
        T = 0.25
        res = picard_solve(phi, T, tol=1e-10, max_iter=MAX_ITER, taxis=ta, xi_band=4.0, eps=EPS)
        assert res.converged
        u = reconstruct_solution(res)
        rel = _pde_residual(u, (-T / 2, T / 2))
        assert np.max(rel) <= 1e-4

    def test_contraction_monotone_in_T(self, grid64):
        phi = banded_bump(grid64, amplitude=1.5, band=2.0)
        ta = centered_axis(4.0, 256)
        finals = []
        for T in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
            res = picard_solve(phi, T, tol=1e-10, max_iter=MAX_ITER, taxis=ta, xi_band=4.0, eps=EPS)
            assert res.converged
            finals.append(res.final_ratio)
        assert finals[0] >= finals[1] >= finals[2]

    def test_nonconvergence_is_a_state(self, grid64):
        phi = banded_bump(grid64, amplitude=2.5, band=2.0)
        res = picard_solve(phi, 0.25, tol=1e-10, max_iter=10,
                           taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS)
        assert not res.converged
        assert res.blown_up or res.iterations == 10


def test_realness_is_decided_once_per_sample(grid64, monkeypatch):
    # the sampler takes real data only and builds each float64 sample from
    # the half of its Hermitian spectrum, which the sample keeps; the free
    # flow and both solvers read the dtype and that half, and transform no
    # samples
    phi = banded_bump(grid64, amplitude=1.0, band=2.0)
    sample = sampler(phi, "gaussian")
    monkeypatch.setattr(Grid, "forward", _must_not_run)
    monkeypatch.setattr(Grid, "real_forward", _must_not_run)
    phi_omega = sample(5)
    assert phi_omega.values.dtype == np.float64
    g = sample.coefficients(5)
    assert np.array_equal(half_spectrum(phi_omega), sample.half * (g @ sample.stack))
    for T in (0.125, 0.25, 0.5):
        assert free_evolution(phi_omega, midpoint_axis(T, 16)).values.dtype == np.float64
    res = picard_solve(phi_omega, 0.125, tol=1e-10, max_iter=3, taxis=centered_axis(4.0, 256),
                       xi_band=4.0, eps=EPS)
    assert res.v.values.dtype == res.z.values.dtype == np.float64
    traj = evolve_reference(phi_omega, 0.01, 1e-3, output_stride=None, diag_stride=1, seed=None)
    assert traj.u.values.dtype == np.float64


def _former_fine_tables(grid):
    """The padded product's former tables, built from the former
    `to_dft`/`from_dft`, so that they carry the boundary phase (-1)^k."""
    n = grid.n_modes
    m = _fine_size(n)
    half = n // 2
    to_fine = former_to_dft(grid, np.full(n, m / n))[:half]
    from_fine = former_from_dft(grid, (-1j * (n / m) / 8) * grid.xi)[: half + 1]
    from_fine[half] = 0.0
    return to_fine, from_fine


def _former_half_spectrum(f):
    """The former `half_spectrum`: the symmetric-convention modes 0 .. N/2
    (of a kept half, the sign pattern taken out)."""
    if f._half is not None:
        return edge_based(f._half)
    return former_real_forward(f.grid, f.values)


def _use_former_convention(monkeypatch):
    """Run the solvers on the former phased primitives: the real pair with
    the phase (-1)^k, the symmetric-convention half spectrum and the phased
    tables. The window plan's propagator rows were the unphased ones then
    as now (`test_propagator_rows_are_the_former_unphased_rows`)."""
    monkeypatch.setattr(Grid, "real_inverse", lambda grid, c: former_real_inverse(grid, c))
    monkeypatch.setattr(solver, "half_spectrum", _former_half_spectrum)
    monkeypatch.setattr(solver, "_fine_tables", _former_fine_tables)


def _desk_and_lwp_data():
    """(id, data) on the desk grid (L = 32, N = 512) and the lwp grid
    (L = 16, N = 64): sampled data, data built from a spectrum, and preset
    draws of lwp-ensemble."""
    desk, lwp = make_grid(32.0, 512), make_grid(16.0, 64)
    cfg = load_config(LWP_PRESET)
    sample = sampler(build_data(cfg), cfg["random"]["distribution"])
    return [
        ("desk-sampled", field_from_function(desk, lambda x: np.exp(-(x**2)))),
        ("desk-banded", banded_bump(desk, 1.0, 2.0)),
        ("lwp-sampled", Field(lwp, banded_bump(lwp, 1.8, 2.0).values)),
    ] + [(f"lwp-draw-{k}", sample(child_seed(42, k))) for k in range(3)]


class TestFormerConvention:
    """The translation-free real pair moves the boundary phase (-1)^k out of
    the solvers; every moved factor is an exact sign flip, so each output
    equals the former phased route's bit for bit."""

    @pytest.mark.parametrize("half_length,n_modes", [(32.0, 512), (16.0, 64), (4.0, 10)])
    def test_tables_are_the_former_tables_up_to_the_sign_pattern(self, half_length, n_modes):
        grid = make_grid(half_length, n_modes)
        to_fine, from_fine = solver._fine_tables(grid)
        former_to, former_from = _former_fine_tables(grid)
        assert np.array_equal(edge_based(np.full(n_modes // 2, to_fine)), former_to)
        assert np.array_equal(edge_based(from_fine), former_from)

    def test_evolve_reference_rows_and_diagnostics(self, monkeypatch):
        for name, phi in _desk_and_lwp_data():
            args = (phi, 20 * 1e-4, 1e-4, 1, 1, None)
            new = evolve_reference(*args)
            with monkeypatch.context() as m:
                _use_former_convention(m)
                former = evolve_reference(*args)
            assert new.u.values.tobytes() == former.u.values.tobytes(), name
            for field in ("step", "time", "mean", "mass", "energy"):
                got, want = getattr(new.diagnostics, field), getattr(former.diagnostics, field)
                assert got.tobytes() == want.tobytes(), (name, field)

    def test_picard_records(self, monkeypatch):
        desk_axis, lwp_axis = centered_axis(4.0, 2048), centered_axis(4.0, 256)
        for name, phi in _desk_and_lwp_data():
            if name.startswith("desk"):
                args = (phi, 1.0 / 16.0, 1e-11, MAX_ITER, desk_axis, 8.0, EPS)
            else:
                args = (phi, 0.25, 1e-10, MAX_ITER, lwp_axis, 4.0, EPS)
            new = picard_solve(*args)
            with monkeypatch.context() as m:
                _use_former_convention(m)
                former = picard_solve(*args)
                former_v, former_z = former.v.values, former.z.values  # built on first use
            for record in ("distances", "ratios", "converged", "iterations", "blown_up",
                           "discarded_band_mass"):
                assert getattr(new, record) == getattr(former, record), (name, record)
            assert np.array_equal(new.v_hat, edge_based(former.v_hat)), name
            assert np.array_equal(new.z_hat, edge_based(former.z_hat)), name
            # equal values; an exact zero sample may change sign
            assert np.array_equal(new.v.values, former_v), name
            assert np.array_equal(new.z.values, former_z), name
