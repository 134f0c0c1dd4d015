import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gkdvlab.grid import (
    Field,
    field_from_function,
    make_grid,
)
from gkdvlab.norms import (
    AliasingError,
    _half_xsb_weight,
    _support_radius,
    _xsb_power,
    _xsb_sum,
    _xsb_weight,
    bilinear_multiplier,
    homogeneous_norm,
    mixed_norm,
    scaling_ratio,
    sobolev_norm,
    space_time_lebesgue,
    xsb_norm,
    xsb_norms,
)
from gkdvlab.params import CRITICAL_INDEX, b_index, dual_b_index, sigma_index
from gkdvlab.probes import ProbeResolution, embedding_catalog, random_spacetime
from gkdvlab.spacetime import (
    Cutoff,
    SpaceTimeField,
    _time_forward,
    apply_time_cutoff,
    centered_axis,
    free_evolution,
    midpoint_axis,
    st_l2,
)

from conftest import banded_bump, half_xsb_sum, l2_norm


class TestSobolevNorm:
    def test_s_zero_equals_l2(self, bump):
        assert sobolev_norm(bump, 0.0) == pytest.approx(l2_norm(bump), rel=1e-13)

    def test_single_mode_ratio(self):
        g = make_grid(np.pi, 64)
        f = field_from_function(g, lambda x: np.exp(2j * x))
        ratio = sobolev_norm(f, 1.0) / sobolev_norm(f, 0.0)
        assert ratio == pytest.approx(np.sqrt(5.0), rel=1e-13)

    def test_gaussian_bump_matches_quadrature_oracle(self, bump):
        # transform of exp(-x^2) is sqrt(1/2) exp(-xi^2/4)
        for s in (0.0, 0.25, 1.0):
            oracle = np.sqrt(
                quad(lambda xi: (1 + xi**2) ** s * 0.5 * np.exp(-(xi**2) / 2), -np.inf, np.inf)[0]
            )
            assert sobolev_norm(bump, s) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("c", [2.0, -3.0, 1j])
    def test_homogeneity(self, bump, c):
        scaled = Field(bump.grid, c * bump.values)
        assert sobolev_norm(scaled, 0.3) == pytest.approx(
            abs(c) * sobolev_norm(bump, 0.3), rel=1e-12
        )


class TestHomogeneousNorm:
    def test_critical_scaling_invariance(self):
        g = make_grid(128.0, 8192)
        profile = lambda x: np.exp(-(x**2))
        for lam in (0.5, 2.0):
            assert scaling_ratio(g, profile, lam, CRITICAL_INDEX) == pytest.approx(
                1.0, abs=1e-4
            )

    def test_off_critical_scaling_exponent(self):
        # || lam^{-2/7} u(x/lam) ||_{H^s-dot} = lam^{3/14 - s} ||u||: verified
        # directly from the transform's substitution rule
        g = make_grid(128.0, 8192)
        profile = lambda x: np.exp(-(x**2))
        s = 0.3
        for lam in (0.5, 2.0):
            expected = lam ** (CRITICAL_INDEX - s)
            assert scaling_ratio(g, profile, lam, s) == pytest.approx(expected, rel=1e-3)
            assert abs(scaling_ratio(g, profile, lam, s) - 1.0) > 0.02

    def test_s_zero_mean_free_equals_l2(self, grid512):
        f = field_from_function(grid512, lambda x: np.sin(x) * np.exp(-(x**2) / 9))
        assert homogeneous_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_requires_s_above_minus_half(self, bump):
        with pytest.raises(ValueError):
            homogeneous_norm(bump, -0.5)

    @pytest.mark.parametrize("c", [2.0, -3.0, 1j])
    def test_homogeneity(self, bump, c):
        scaled = Field(bump.grid, c * bump.values)
        assert homogeneous_norm(scaled, 0.2) == pytest.approx(
            abs(c) * homogeneous_norm(bump, 0.2), rel=1e-12
        )


class TestMixedNorm:
    def test_q_r_two_is_space_time_l2(self, grid64):
        ta = centered_axis(4.0, 32)
        rng = np.random.default_rng(4)
        u = SpaceTimeField(grid64, ta, rng.standard_normal((32, 64)))
        assert mixed_norm(u, 2, 2) == pytest.approx(st_l2(u), rel=1e-12)

    def test_constant_in_time_separates(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        n_t = 16
        ta = midpoint_axis(0.5, n_t)
        rows = np.tile(phi.values, (n_t, 1))
        u = SpaceTimeField(grid64, ta, rows)
        for q, r in ((4.0, 4.0), (2.0, 6.0)):
            lr = (grid64.dx * np.sum(np.abs(phi.values) ** r)) ** (1 / r)
            assert mixed_norm(u, q, r) == pytest.approx(0.5 ** (1 / q) * lr, rel=1e-12)

    def test_q_infinity_takes_max(self, grid64):
        ta = midpoint_axis(1.0, 8)
        rows = np.outer(np.arange(1.0, 9.0), banded_bump(grid64, band=2.0).values)
        u = SpaceTimeField(grid64, ta, rows)
        per_slice = (grid64.dx * np.sum(np.abs(rows) ** 2, axis=1)) ** 0.5
        assert mixed_norm(u, np.inf, 2) == pytest.approx(per_slice.max(), rel=1e-12)

    @pytest.mark.parametrize("q,r", [(4.0, 4.0), (1.0, 3.0), (2.0, 6.5), (np.inf, 4.0)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_matches_former_abs_power(self, grid64, q, r, dtype):
        # the former expression: abs(values)**p in both Riemann sums
        def former(values, weight, p, axis):
            if np.isinf(p):
                return np.max(np.abs(values), axis=axis)
            return (weight * np.sum(np.abs(values) ** p, axis=axis)) ** (1.0 / p)

        ta = midpoint_axis(0.5, 16)
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((16, 64)).astype(dtype)
        if dtype == np.complex128:
            rows += 1j * rng.standard_normal((16, 64))
        u = SpaceTimeField(grid64, ta, rows)
        old = former(former(rows, grid64.dx, r, 1), ta.dt, q, 0)
        assert abs(mixed_norm(u, q, r) - old) <= 1e-14 * old


class TestXsbNorm:
    def test_b_zero_is_weighted_space_time_l2(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        ta = centered_axis(4.0, 64)
        u = free_evolution(phi, ta, cutoff=Cutoff(1.0))
        s = 0.4
        # the spatial weight <xi>^s applied to every time slice
        weight = (1.0 + grid64.xi**2) ** (s / 2.0)
        expected = st_l2(u.with_values(grid64.multiply(u.values, weight)))
        assert xsb_norm(u, s, 0.0) == pytest.approx(expected, rel=1e-10)

    def test_single_mode_reduction_oracle(self):
        # a single spatial mode factorizes: the 2D norm reduces to a 1D
        # weighted norm of the cutoff's transform shifted to the dispersion
        # curve
        g = make_grid(np.pi, 64)
        ta = centered_axis(8.0, 2048)
        phi = field_from_function(g, lambda x: np.exp(2j * x))
        z = free_evolution(phi, ta, cutoff=Cutoff(1.0))
        s, b = 0.25, 0.6
        val = xsb_norm(z, s, b)
        a = Cutoff(1.0)(ta.t) * np.exp(8j * ta.t)
        phase_t = np.exp(-1j * ta.t0 * ta.tau)
        ahat = (ta.dt / np.sqrt(2 * np.pi)) * phase_t * np.fft.fft(a)
        weighted = np.sqrt(ta.dtau * np.sum((1 + (ta.tau - 8.0) ** 2) ** b * np.abs(ahat) ** 2))
        oracle = np.sqrt(2 * np.pi) * 5.0 ** (s / 2) * weighted
        assert val == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_b(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        ta = centered_axis(4.0, 64)
        u = free_evolution(phi, ta, cutoff=Cutoff(1.0))
        assert xsb_norm(u, 0.0, 0.3) <= xsb_norm(u, 0.0, 0.6) + 1e-13

    def test_aliasing_guard(self, grid512):
        phi = banded_bump(grid512, band=12.0)
        ta = centered_axis(4.0, 64)  # tau_max ~ 50, far below 2 * 12^3
        u = free_evolution(phi, ta, cutoff=Cutoff(1.0))
        with pytest.raises(AliasingError):
            xsb_norm(u, 0.0, 0.5)

    def test_needs_centered_axis(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        u = free_evolution(phi, midpoint_axis(1.0, 64))
        with pytest.raises(AliasingError):
            xsb_norm(u, 0.0, 0.5)

    @pytest.mark.parametrize("resolution", [ProbeResolution(), ProbeResolution().doubled()])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_support_radius_matches_column_mass_oracle(self, resolution, seed):
        grid, ta = resolution.make()
        u = random_spacetime(grid, ta, resolution.xi_band, seed)
        # the former route: a raw x-FFT of the samples, then column L^2 masses
        col = np.sqrt(np.sum(np.abs(np.fft.fft(u.values, axis=1)) ** 2, axis=0))
        oracle = np.max(np.abs(grid.xi[col > 1e-12 * col.max()]))
        assert _support_radius(grid, grid.forward(u.values)) == oracle
        assert oracle <= resolution.xi_band

    def test_several_weights_equal_one_at_a_time(self):
        resolution = ProbeResolution()
        grid, ta = resolution.make()
        u = random_spacetime(grid, ta, resolution.xi_band, 4)
        indices = [(0.0, 0.5), (0.3, 0.52), (0.25, 0.6), (0.0, 0.5)]
        assert xsb_norms(u, indices) == [xsb_norm(u, s, b) for s, b in indices]

    def test_mirrored_weight_reproduces_full_sum(self, grid64):
        # a real field band-limited to |xi| <= 4, random in time, so its
        # tau-Nyquist row carries power; the sum over its modes 0 .. K-1
        # against the folded weight must equal the full one, and assuming
        # w(-xi, -tau) = w(xi, tau) must not
        ta = centered_axis(4.0, 256)
        s, b = sigma_index(0.05), b_index(0.05)
        rng = np.random.default_rng(3)
        keep = np.abs(grid64.xi) <= 4.0
        u = grid64.inverse(grid64.forward(rng.standard_normal((256, 64))) * keep).real
        full = _xsb_sum(grid64, ta, _xsb_power(grid64, ta, grid64.forward(u)), s, b)
        n_band = int(np.count_nonzero(keep[:32]))
        power = np.abs(_time_forward(ta, grid64.real_forward(u)[:, :n_band])) ** 2
        assert half_xsb_sum(grid64, ta, power, s, b) == pytest.approx(full, rel=1e-14, abs=0.0)
        symmetric = _xsb_weight(grid64, ta, s, b)[:, :n_band].copy()
        symmetric[:, 1:] *= 2.0
        assumed = np.sqrt(grid64.dxi * ta.dtau * np.sum(symmetric * power))
        assert abs(assumed - full) > 1e-6 * full

    def test_folded_weight_cached_and_read_only(self, grid64):
        ta = centered_axis(4.0, 256)
        w = _half_xsb_weight(grid64, ta, 0.2, 0.5)
        assert w.shape == (256, 32)
        assert _half_xsb_weight(grid64, centered_axis(4.0, 256), 0.2, 0.5) is w
        with pytest.raises(ValueError):
            w[0, 0] = 0.0

    @pytest.mark.parametrize("c", [2.0, -3.0, 1j])
    def test_homogeneity(self, grid64, c):
        phi = banded_bump(grid64, band=2.0)
        ta = centered_axis(4.0, 64)
        u = free_evolution(phi, ta, cutoff=Cutoff(1.0))
        scaled = u.with_values(c * u.values)
        assert xsb_norm(scaled, 0.3, 0.5) == pytest.approx(
            abs(c) * xsb_norm(u, 0.3, 0.5), rel=1e-12
        )


# every (s, b) the probes norm a random space-time field with: the
# embedding catalog's, the octilinear factors' and pairing's, the bilinear's
PROBE_XSB_INDICES = [(s, b) for _, s, b in embedding_catalog(0.05).values()] + [
    (sigma_index(0.05), b_index(0.05)),
    (0.0, dual_b_index(0.05)),
    (0.0, 0.51),
    (0.0, 0.4),
]


class TestKeptBand:
    """A field drawn from its spectrum keeps its band's x-spectrum, and its
    norms are summed from it; `with_values` keeps no band, so a copy given
    as samples is the oracle."""

    @pytest.mark.parametrize("resolution", [ProbeResolution(), ProbeResolution().doubled()])
    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_norms_match_samples_route(self, resolution, cut, seed):
        grid, ta = resolution.make()
        u = random_spacetime(grid, ta, resolution.xi_band, seed)
        if cut:
            u = apply_time_cutoff(u, Cutoff(1.0))
        got = np.array(xsb_norms(u, PROBE_XSB_INDICES))
        want = np.array(xsb_norms(u.with_values(u.values), PROBE_XSB_INDICES))
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_with_values_drops_band(self):
        resolution = ProbeResolution()
        grid, ta = resolution.make()
        u = random_spacetime(grid, ta, resolution.xi_band, 2)
        columns, _ = u._band
        assert np.array_equal(columns, np.flatnonzero(np.abs(grid.xi) <= resolution.xi_band))
        assert apply_time_cutoff(u, Cutoff(1.0))._band[0] is columns
        assert u.with_values(2.0 * u.values)._band is None

    def test_aliasing_guard(self):
        # drawn past the check of ProbeResolution.make: 2 * 6^3 > tau_max ~ 100
        grid, ta = ProbeResolution().make()
        u = random_spacetime(grid, ta, 6.0, 0)
        for field in (u, apply_time_cutoff(u, Cutoff(1.0))):
            with pytest.raises(AliasingError):
                xsb_norms(field, [(0.0, 0.5)])


class TestBilinearMultiplier:
    def test_s_zero_is_plain_product(self, grid64):
        ta = centered_axis(4.0, 32)
        rng = np.random.default_rng(8)
        u1 = SpaceTimeField(grid64, ta, rng.standard_normal((32, 64)))
        u2 = SpaceTimeField(grid64, ta, rng.standard_normal((32, 64)))
        out = bilinear_multiplier(u1, u2, 0.0)
        prod = u1.values * u2.values
        assert np.max(np.abs(out.values - prod)) <= 1e-12 * np.max(np.abs(prod))

    def test_single_frequency_symbol_values(self):
        g = make_grid(np.pi, 64)
        ta = centered_axis(4.0, 32)
        x = g.x
        a = np.cos(ta.t)
        b = np.sin(2.0 * ta.t) + 2.0
        u1 = SpaceTimeField(g, ta, np.outer(a, np.exp(3j * x)))
        u2 = SpaceTimeField(g, ta, np.outer(b, np.exp(1j * x)))
        s = 0.7
        prod = u1.values * u2.values
        out = bilinear_multiplier(u1, u2, s)
        assert np.max(np.abs(out.values - 2.0**s * prod)) <= 1e-10 * np.max(np.abs(prod))

    def test_axis_mismatch_rejected(self, grid64):
        u1 = SpaceTimeField(grid64, centered_axis(4.0, 32), np.zeros((32, 64)))
        u2 = SpaceTimeField(grid64, centered_axis(2.0, 32), np.zeros((32, 64)))
        with pytest.raises(ValueError):
            bilinear_multiplier(u1, u2, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        n_modes=st.sampled_from([8, 16, 32]),
        m_t=st.sampled_from([16, 32]),
        bands=st.tuples(
            st.integers(0, 31), st.integers(1, 32), st.integers(0, 31), st.integers(1, 32)
        ),
        s=st.sampled_from([0.0, 0.5, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_roll_oracle(self, n_modes, m_t, bands, s, seed):
        """The support-restricted sum equals the dense O(N^2 M) sum over every
        mode pair, for bands anywhere on the circle of modes (so also bands
        that wrap past Nyquist) and for data on every mode. Mode amplitudes
        span ten decades, all of them above the support floor."""
        grid = make_grid(4.0, n_modes)
        ta = centered_axis(4.0, m_t)
        rng = np.random.default_rng(seed)

        def field(start, width):
            modes = (start + np.arange(min(width, n_modes))) % n_modes
            raw = np.zeros((m_t, n_modes), np.complex128)
            raw[:, modes] = 10.0 ** -rng.uniform(0.0, 10.0, modes.size) * (
                rng.standard_normal((m_t, modes.size))
                + 1j * rng.standard_normal((m_t, modes.size))
            )
            return SpaceTimeField(grid, ta, np.fft.ifft(raw, axis=1))

        u1, u2 = field(*bands[:2]), field(*bands[2:])
        # the former implementation: every (k1, k2) pair, one np.roll per k2
        xi = grid.xi
        a = np.fft.fft(u1.values, axis=1).T
        bv = np.fft.fft(u2.values, axis=1).T
        argument = xi[:, None] - xi[None, :]
        symbol = np.abs(argument) ** s if s != 0.0 else np.ones_like(argument)
        dense = np.zeros_like(a)
        for k2 in range(n_modes):
            dense += np.roll(symbol[:, k2][:, None] * a * bv[k2, :][None, :], k2, axis=0)
        oracle = np.fft.ifft((dense / n_modes).T, axis=1)

        out = bilinear_multiplier(u1, u2, s).values
        # A symbol zero can cancel the largest products (xi1 = -xi2 = 0, say),
        # leaving an output of round-off size: allow round-off on the largest
        # single term besides the agreement relative to max|out|.
        term = np.max(symbol) * np.max(np.abs(a)) * np.max(np.abs(bv)) / n_modes
        tol = 1e-13 * np.max(np.abs(oracle)) + 1e-15 * term
        assert np.max(np.abs(out - oracle)) <= tol

    def test_zero_factor_gives_zero(self, grid64):
        ta = centered_axis(4.0, 32)
        u = SpaceTimeField(grid64, ta, np.random.default_rng(3).standard_normal((32, 64)))
        zero = SpaceTimeField(grid64, ta, np.zeros((32, 64)))
        assert not np.any(bilinear_multiplier(u, zero, 0.5).values)


def test_space_time_lebesgue_is_mixed_with_equal_exponents(grid64):
    phi = banded_bump(grid64, band=2.0)
    ta = centered_axis(4.0, 64)
    u = free_evolution(phi, ta, cutoff=Cutoff(1.0))
    assert space_time_lebesgue(u, 4.0) == pytest.approx(mixed_norm(u, 4.0, 4.0), rel=1e-14)


@pytest.mark.parametrize("c", [2.0, -3.0, 1j])
def test_mixed_norm_homogeneous(grid64, c):
    ta = centered_axis(4.0, 32)
    u = free_evolution(banded_bump(grid64, band=3.0), ta)
    su = u.with_values(c * u.values)
    assert mixed_norm(su, 4, 6) == pytest.approx(abs(c) * mixed_norm(u, 4, 6), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    re=st.floats(-5.0, 5.0, allow_nan=False),
    im=st.floats(-5.0, 5.0, allow_nan=False),
    s=st.floats(-1.0, 2.0, allow_nan=False),
)
def test_sobolev_norm_absolutely_homogeneous(re, im, s):
    g = make_grid(8.0, 64)
    f = field_from_function(g, lambda x: np.exp(-(x**2)))
    c = complex(re, im)
    scaled = Field(g, c * f.values)
    assert sobolev_norm(scaled, s) == pytest.approx(abs(c) * sobolev_norm(f, s), abs=1e-12)
