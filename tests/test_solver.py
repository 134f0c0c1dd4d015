import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdvlab.grid import field_from_function, make_grid
from gkdvlab.norms import _xsb_from_x_coeffs, xsb_norm
from gkdvlab.params import b_index, sigma_index
from gkdvlab.solver import (
    BLOWUP_THRESHOLD,
    BlowupError,
    conserved_quantities,
    duhamel_gamma,
    evolve_reference,
    nonlinearity,
    nonlinearity_coeffs,
    pde_residual,
    picard_solve,
    reconstruct_solution,
)
from gkdvlab.spacetime import (
    Cutoff,
    SpaceTimeField,
    _free_coeffs,
    _propagator,
    centered_axis,
    free_evolution,
    midpoint_axis,
    st_l2,
)
from gkdvlab.grid import airy_propagate

from conftest import banded_bump


class TestNonlinearity:
    def test_zero_maps_to_zero(self, grid512):
        z = field_from_function(grid512, lambda x: 0.0 * x)
        assert np.max(np.abs(nonlinearity(z).values)) == 0.0

    def test_constant_maps_to_zero(self, grid512):
        c = field_from_function(grid512, lambda x: 0.0 * x + 1.3)
        assert np.max(np.abs(nonlinearity(c).values)) <= 1e-13

    def test_sine_matches_symbolic_oracle(self):
        # N(sin) = -sin^7(x) cos(x), alias-free on the 9N/2 padded grid
        g = make_grid(np.pi, 256)
        out = nonlinearity(field_from_function(g, np.sin))
        exact = -np.sin(g.x) ** 7 * np.cos(g.x)
        assert np.max(np.abs(out.values.real - exact)) <= 1e-10
        assert np.max(np.abs(out.values.imag)) <= 1e-12

    def test_rejects_complex_data(self, grid512):
        f = field_from_function(grid512, lambda x: np.exp(1j * x))
        with pytest.raises(ValueError):
            nonlinearity(f)


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
    coeffs = (-1j * grid.xi / 8) * grid.from_dft(raw)
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
        energy = conserved_quantities(grid, hat)[2]
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
        assert conserved_quantities(grid512, np.zeros(512, np.complex128)) == (0.0, 0.0, 0.0)

    def test_sine_closed_form(self):
        g = make_grid(np.pi, 128)
        mean, mass, energy = conserved_quantities(g, g.forward(np.sin(g.x)))
        assert abs(mean) <= 1e-13
        assert mass == pytest.approx(np.pi, rel=1e-13)
        # energy = (1/2) int cos^2 = pi/2; the odd u^9 term integrates to 0
        assert energy == pytest.approx(np.pi / 2, rel=1e-13)


class TestEvolveReference:
    def test_zero_data_stays_zero(self, grid512):
        z = field_from_function(grid512, lambda x: 0.0 * x)
        traj = evolve_reference(z, 0.01, 1e-3)
        assert np.max(np.abs(traj.u.values)) == 0.0
        assert np.max(np.abs(traj.diagnostics.mass)) == 0.0

    def test_linear_regime_matches_free_flow(self, grid512):
        phi = field_from_function(grid512, lambda x: 1e-8 * np.exp(-(x**2)))
        traj = evolve_reference(phi, 1.0, 1e-3, diag_stride=1000)
        final = traj.u.values[-1]
        lin = airy_propagate(phi, 1.0).values
        assert np.max(np.abs(final - lin)) <= 1e-8 * np.max(np.abs(lin))

    def test_fourth_order_self_convergence(self):
        # Richardson oracle: with a dt/8 self-reference the error ratio under
        # halving sits in the fourth-order window
        g = make_grid(32.0, 256)
        phi = field_from_function(g, lambda x: np.exp(-(x**2)))
        T, base = 0.5, 2048
        ref = evolve_reference(phi, T, T / (8 * base), diag_stride=10**9).u.values[-1]
        e1 = np.max(np.abs(evolve_reference(phi, T, T / base, diag_stride=10**9).u.values[-1] - ref))
        e2 = np.max(
            np.abs(evolve_reference(phi, T, T / (2 * base), diag_stride=10**9).u.values[-1] - ref)
        )
        assert 12.0 <= e1 / e2 <= 20.0

    def test_mean_preserved_exactly(self, grid512):
        phi = field_from_function(grid512, lambda x: np.exp(-(x**2)))
        traj = evolve_reference(phi, 0.02, 1e-3)
        d = traj.diagnostics
        assert np.max(np.abs(d.mean - d.mean[0])) <= 1e-12

    def test_short_run_conservation(self, grid512):
        phi = field_from_function(grid512, lambda x: np.exp(-(x**2)))
        traj = evolve_reference(phi, 0.05, 1e-4, diag_stride=50)
        d = traj.diagnostics
        assert np.max(np.abs(d.mass - d.mass[0])) <= 1e-10 * abs(d.mass[0])
        assert np.max(np.abs(d.energy - d.energy[0])) <= 1e-10 * abs(d.energy[0])

    def test_blowup_is_flagged_with_step(self):
        g = make_grid(16.0, 128)
        phi = field_from_function(g, lambda x: 10.0 * np.exp(-(x**2)))
        traj = evolve_reference(phi, 0.5, 1e-2)
        assert traj.blown_up
        assert traj.first_bad_step is not None and traj.first_bad_step >= 1

    def test_non_integer_step_count_rejected(self, grid512):
        phi = field_from_function(grid512, lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError):
            evolve_reference(phi, 1.0, 3e-4)


def _cutoffs(ta, T):
    return Cutoff(1.0)(ta.t), Cutoff(T)(ta.t)


class TestDuhamelGamma:
    def test_zero_inputs_give_zero(self, grid64):
        ta = centered_axis(4.0, 256)
        zero = np.zeros((256, 64), np.complex128)
        out = duhamel_gamma(grid64, ta, zero, zero, *_cutoffs(ta, 0.25))
        assert np.max(np.abs(out)) == 0.0

    def test_output_vanishes_outside_cutoff(self, grid64):
        ta = centered_axis(4.0, 256)
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        T = 0.25
        z_hat = grid64.forward(free_evolution(phi, ta, cutoff=Cutoff(T)).values)
        out = duhamel_gamma(grid64, ta, np.zeros_like(z_hat), z_hat, *_cutoffs(ta, T))
        outside = np.abs(ta.t) >= 2 * T
        assert np.max(np.abs(out[outside])) == 0.0
        assert np.max(np.abs(out)) > 0.0

    def test_needs_centered_axis(self, grid64):
        ta = midpoint_axis(1.0, 64)
        zero = np.zeros((64, 64), np.complex128)
        with pytest.raises(ValueError):
            duhamel_gamma(grid64, ta, zero, zero, *_cutoffs(ta, 0.25))


def _full_axis_gamma(grid, ta, v_hat, z_hat, eta, eta_T):
    """The Duhamel map computed on every row of the time axis: the
    reference the windowed kernel must reproduce bit for bit."""
    w = eta[:, None] * v_hat + z_hat
    if not np.all(np.isfinite(w)):
        raise BlowupError(step=-1)
    active = np.max(np.abs(w), axis=1) > 0.0
    forcing = np.zeros_like(w)
    if np.any(active):
        coeffs = nonlinearity_coeffs(grid, w[active])
        if not np.all(np.isfinite(coeffs)):
            raise BlowupError(step=-1)
        forcing[active] = coeffs
    propagator = _propagator(grid, ta)
    integrand = np.conj(propagator) * forcing
    mids = 0.5 * ta.dt * (integrand[1:] + integrand[:-1])
    cumulative = np.vstack(
        [np.zeros((1, grid.n_modes), dtype=np.complex128), np.cumsum(mids, axis=0)]
    )
    cumulative = cumulative - cumulative[int(np.argmin(np.abs(ta.t)))]
    return propagator * cumulative * eta_T[:, None]


def _full_axis_picard(phi, T, tol, max_iter, ta, xi_band, eps=0.05):
    """`picard_solve` with every iterate on the full time axis."""
    grid = phi.grid
    sigma, b = sigma_index(eps), b_index(eps)
    eta, eta_T = Cutoff(1.0)(ta.t), Cutoff(T)(ta.t)
    z_hat = _free_coeffs(phi, ta, eta_T)
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
            except BlowupError:
                blown_up = True
                break
            peak = float(np.max(np.abs(grid.inverse(v_next))))
            if not np.isfinite(peak) or peak > BLOWUP_THRESHOLD:
                blown_up = True
                break
            diff = v_next - v_hat
            diff[:, outside] = 0.0
            d = _xsb_from_x_coeffs(grid, ta, diff, sigma, b)
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


class TestWindowedPicard:
    """The iteration on the cutoff's rows reproduces the full-axis one bit
    for bit."""

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
        phi = banded_bump(grid64, amplitude=amplitude, band=2.0)
        ta = centered_axis(4.0, 256)
        res = picard_solve(phi, T, tol=1e-10, max_iter=25, taxis=ta, xi_band=4.0)
        ref = _full_axis_picard(phi, T, 1e-10, 25, ta, 4.0)
        assert res.distances == ref["distances"]
        assert res.ratios == ref["ratios"]
        assert res.iterations == ref["iterations"]
        assert res.converged == ref["converged"]
        assert res.blown_up == ref["blown_up"]
        assert res.discarded_band_mass == ref["discarded_band_mass"]
        assert np.array_equal(res.v.values, ref["v"])
        assert np.array_equal(res.z.values, ref["z"])
        assert res.blown_up == (amplitude == 3.0)
        if T == 2.0:
            assert np.all(Cutoff(T)(ta.t) > 0.0)


def _band_oracle(u, xi_band):
    """The physical route for a difference field u: x-FFT, sharp mask, inverse
    FFT; returns the projected field and the relative discarded mass."""
    hat_x = np.fft.fft(u.values, axis=1)
    keep = np.abs(u.grid.xi) <= xi_band
    lost = np.sum(np.abs(hat_x[:, ~keep]) ** 2) / np.sum(np.abs(hat_x) ** 2)
    return u.with_values(np.fft.ifft(hat_x * keep, axis=1)), float(lost)


class TestPicardSolve:
    def test_zero_data_converges_immediately(self, grid64):
        phi = field_from_function(grid64, lambda x: 0.0 * x)
        res = picard_solve(phi, 0.25, tol=1e-12, taxis=centered_axis(4.0, 256), xi_band=4.0)
        assert res.converged
        assert res.iterations == 1
        assert res.ratios == []
        assert np.max(np.abs(res.v.values)) == 0.0

    def test_tiny_data_contracts_below_half(self, grid512):
        phi = banded_bump(grid512, amplitude=1e-6, band=2.0)
        res = picard_solve(phi, 1.0 / 16.0, tol=1e-30, max_iter=4,
                           taxis=centered_axis(4.0, 2048), xi_band=8.0)
        assert res.distances[0] > 0.0
        assert all(r < 0.5 for r in res.ratios)

    def test_fixed_point_residual_at_exit(self, grid64):
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        ta = centered_axis(4.0, 256)
        tol = 1e-9
        res = picard_solve(phi, 0.125, tol=tol, taxis=ta, xi_band=4.0)
        assert res.converged
        v_hat = grid64.forward(res.v.values)
        gamma_v = duhamel_gamma(
            grid64, ta, v_hat, grid64.forward(res.z.values), *_cutoffs(ta, 0.125)
        )
        diff = SpaceTimeField(grid64, ta, grid64.inverse(gamma_v - v_hat))
        projected, _ = _band_oracle(diff, 4.0)
        assert xsb_norm(projected, res.sigma, res.b) <= tol

    def test_first_distance_matches_physical_oracle(self, grid64):
        # from v = 0 the first difference is the first iterate itself
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        res = picard_solve(phi, 0.125, tol=1e-10, max_iter=1,
                           taxis=centered_axis(4.0, 256), xi_band=2.0)
        projected, lost = _band_oracle(res.v, 2.0)
        assert res.discarded_band_mass == pytest.approx(lost, rel=1e-12)
        assert res.distances[0] == pytest.approx(
            xsb_norm(projected, res.sigma, res.b), rel=1e-12
        )

    def test_band_mask_mass_accounting(self, grid64):
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        res = picard_solve(phi, 0.125, tol=1e-10, max_iter=1,
                           taxis=centered_axis(4.0, 256), xi_band=2.0)
        projected, _ = _band_oracle(res.v, 2.0)
        lost = res.discarded_band_mass
        assert 0.0 < lost < 1.0
        total = st_l2(res.v) ** 2
        assert st_l2(projected) ** 2 + lost * total == pytest.approx(total, rel=1e-10)

    def test_converged_discarded_mass_is_share_of_returned_iterate(self, grid64):
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        res = picard_solve(phi, 0.125, tol=1e-10, taxis=centered_axis(4.0, 256), xi_band=2.0)
        assert res.converged and res.iterations > 1
        _, lost = _band_oracle(res.v, 2.0)
        assert res.discarded_band_mass == pytest.approx(lost, rel=1e-12)

    def test_full_band_discards_nothing(self):
        # a band covering every mode leaves the difference untouched
        g = make_grid(16.0, 16)
        phi = banded_bump(g, amplitude=1.0, band=2.0)
        res = picard_solve(phi, 0.125, tol=1e-10, max_iter=1,
                           taxis=centered_axis(4.0, 256), xi_band=g.xi_max)
        assert res.discarded_band_mass == 0.0
        assert res.distances[0] == pytest.approx(xsb_norm(res.v, res.sigma, res.b), rel=1e-12)

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_rejects_band_below_one_frequency_step(self, grid64, fraction):
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        with pytest.raises(ValueError):
            picard_solve(phi, 0.125, tol=1e-10, taxis=centered_axis(4.0, 256),
                         xi_band=fraction * grid64.dxi)

    def test_cutoffs_evaluated_once_per_solve(self, grid64, monkeypatch):
        calls = []
        profile = Cutoff.__call__
        monkeypatch.setattr(Cutoff, "__call__", lambda self, t: calls.append(1) or profile(self, t))
        phi = banded_bump(grid64, amplitude=1.0, band=2.0)
        res = picard_solve(phi, 0.125, tol=1e-30, max_iter=5,
                           taxis=centered_axis(4.0, 256), xi_band=4.0)
        assert res.iterations == 5
        assert len(calls) == 2

    def test_cross_validates_against_reference(self):
        # the fixed point plus the free evolution must follow the time
        # stepper on [0, T]
        g = make_grid(32.0, 512)
        phi = banded_bump(g, amplitude=1.0, band=2.0)
        T = 1.0 / 16.0
        ta = centered_axis(4.0, 2048)
        res = picard_solve(phi, T, tol=1e-11, taxis=ta, xi_band=8.0)
        assert res.converged
        u = reconstruct_solution(res)
        stride = 20
        traj = evolve_reference(phi, T, ta.dt / stride, output_stride=stride, diag_stride=10**9)
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
        res = picard_solve(phi, T, tol=1e-10, taxis=ta, xi_band=4.0)
        assert res.converged
        u = reconstruct_solution(res)
        rel = pde_residual(u, (-T / 2, T / 2))
        assert np.max(rel) <= 1e-4

    def test_contraction_monotone_in_T(self, grid64):
        phi = banded_bump(grid64, amplitude=1.5, band=2.0)
        ta = centered_axis(4.0, 256)
        finals = []
        for T in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
            res = picard_solve(phi, T, tol=1e-10, taxis=ta, xi_band=4.0)
            assert res.converged
            finals.append(res.final_ratio)
        assert finals[0] >= finals[1] >= finals[2]

    def test_nonconvergence_is_a_state(self, grid64):
        phi = banded_bump(grid64, amplitude=2.5, band=2.0)
        res = picard_solve(phi, 0.25, tol=1e-10, max_iter=10,
                           taxis=centered_axis(4.0, 256), xi_band=4.0)
        assert not res.converged
        assert res.blown_up or res.iterations == 10
