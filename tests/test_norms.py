import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gkdvlab.grid import (
    Field,
    field_from_function,
    half_spectrum,
    make_grid,
    spectral_values,
)
from gkdvlab.norms import (
    AliasingError,
    _abs_power,
    _abs_power_cell_weights,
    _half_xsb_weight,
    _support_radius,
    _xsb_weight,
    bilinear_multiplier,
    homogeneous_norm,
    mixed_norm,
    scaling_ratio,
    sobolev_norm,
    xsb_norm,
    xsb_norms,
)
from gkdvlab.params import CRITICAL_INDEX, b_index, dual_b_index, sigma_index
from gkdvlab.probes import check_embeddings, embedding_catalog, random_spacetime
from gkdvlab.spacetime import (
    SpaceTimeField,
    _band_spectrum,
    _time_forward,
    apply_time_cutoff,
    centered_axis,
    free_evolution,
    midpoint_axis,
    st_l2,
    time_cutoff,
)

from conftest import (
    EPS,
    banded_bump,
    random_real_field,
    former_xsb_norm,
    half_xsb_sum,
    l2_norm,
    preset_resolution,
)


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


def _former_sobolev_norm(f, s):
    """The former `sobolev_norm`: the N-point complex spectrum of the samples."""
    w = (1.0 + f.grid.xi**2) ** s
    return float(np.sqrt(f.grid.dxi * np.sum(w * np.abs(spectral_values(f)) ** 2)))


def _former_homogeneous_norm(f, s):
    """The former `homogeneous_norm`, on the same complex spectrum."""
    weights = _abs_power_cell_weights(f.grid.xi, f.grid.dxi, 2.0 * s)
    return float(np.sqrt(np.sum(weights * np.abs(spectral_values(f)) ** 2)))


class TestNormsOnTheHalf:
    """A real field's Sobolev norms sum over its half spectrum, each mode
    0 < k < N/2 weighted twice: the former full-spectrum sums to round-off,
    and no samples are built for a field that keeps its half."""

    @pytest.mark.parametrize("n_modes", [64, 512])
    @pytest.mark.parametrize("s", [0.0, 0.2, 1.0, -0.3])
    def test_equal_former_full_spectrum_sums(self, n_modes, s):
        grid = make_grid(16.0, n_modes)
        for seed in range(10):
            plain = random_real_field(grid, seed)
            kept = Field.from_half(grid, half_spectrum(plain))
            for f in (plain, kept):
                norms = sobolev_norm(f, s), homogeneous_norm(f, s)
                assert norms == pytest.approx(
                    (_former_sobolev_norm(f, s), _former_homogeneous_norm(f, s)), rel=4e-16
                )

    def test_kept_half_builds_no_samples(self, grid64):
        f = Field.from_half(grid64, half_spectrum(random_real_field(grid64, 4)))
        assert sobolev_norm(f, 0.5) > 0.0 and homogeneous_norm(f, 0.5) > 0.0
        assert "values" not in vars(f)

    def test_complex_field_sums_its_full_spectrum(self, grid64):
        f = Field(grid64, random_real_field(grid64, 1).values * (1.0 + 0.5j) + 0.25j)
        assert not f.is_real
        assert sobolev_norm(f, 0.3) == _former_sobolev_norm(f, 0.3)
        assert homogeneous_norm(f, 0.3) == _former_homogeneous_norm(f, 0.3)


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

    @pytest.mark.parametrize(
        "p", [1.0, 2.0, 4.0, 8.0 / (1.0 + EPS), 28.0 / (2.0 - 7.0 * EPS), np.inf]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_in_place_power_equals_former_power(self, grid64, p, dtype):
        # the former expression, kept here: the squared modulus raised to
        # p/2 into a new array; the in-place power must give the same bits
        # and leave its input alone
        def former_abs_power(values, p):
            if np.iscomplexobj(values):
                sq = np.square(values.real)
                sq += np.square(values.imag)
            else:
                sq = np.square(values)
            return sq if p == 2.0 else sq ** (0.5 * p)

        def former_lp(values, weight, p, axis):
            if np.isinf(p):
                return np.abs(values).max(axis=axis)
            return (weight * former_abs_power(values, p).sum(axis=axis)) ** (1.0 / p)

        ta = midpoint_axis(0.5, 16)
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((16, 64)).astype(dtype)
        if dtype == np.complex128:
            rows += 1j * rng.standard_normal((16, 64))
        before = rows.copy()
        with np.errstate(over="ignore"):  # |v|^inf of |v| > 1
            assert _abs_power(rows, p).tobytes() == former_abs_power(rows, p).tobytes()
        assert rows.tobytes() == before.tobytes()
        u = SpaceTimeField(grid64, ta, rows)
        inner = former_lp(rows, grid64.dx, p, 1)
        assert mixed_norm(u, p, p) == float(former_lp(inner, ta.dt, p, 0))
        assert mixed_norm(u, 4.0, p) == float(former_lp(inner, ta.dt, 4.0, 0))
        assert u.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "p", [1.0, 2.0, 4.0, 8.0 / (1.0 + EPS), 28.0 / (2.0 - 7.0 * EPS), np.inf]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_squaring_equals_former_in_place_power(self, p, dtype):
        # the former in-place expression, kept here: the squared modulus
        # raised to p/2 by `**=` whatever p; p = 4 now squares it again
        def former_abs_power(values, p):
            if np.iscomplexobj(values):
                sq = np.square(values.real)
                sq += np.square(values.imag)
            else:
                sq = np.square(values)
            if p != 2.0:
                sq **= 0.5 * p
            return sq

        # magnitudes spread over 10^-150 .. 10^150, both signs, zeros included
        rng = np.random.default_rng(14)
        values = (rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-150, 150, 100_000))
        values[:8] = 0.0
        if dtype == np.complex128:
            values = values + 1j * values[::-1] * rng.uniform(0.0, 1.0, values.size)
        with np.errstate(over="ignore"):
            assert _abs_power(values, p).tobytes() == former_abs_power(values, p).tobytes()


class TestXsbNorm:
    def test_b_zero_is_weighted_space_time_l2(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        ta = centered_axis(4.0, 64)
        u = free_evolution(phi, ta, cutoff=1.0)
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
        z = free_evolution(phi, ta, cutoff=1.0)
        s, b = 0.25, 0.6
        val = xsb_norm(z, s, b)
        a = time_cutoff(ta.t, 1.0) * np.exp(8j * ta.t)
        phase_t = np.exp(-1j * ta.t0 * ta.tau)
        ahat = (ta.dt / np.sqrt(2 * np.pi)) * phase_t * np.fft.fft(a)
        weighted = np.sqrt(ta.dtau * np.sum((1 + (ta.tau - 8.0) ** 2) ** b * np.abs(ahat) ** 2))
        oracle = np.sqrt(2 * np.pi) * 5.0 ** (s / 2) * weighted
        assert val == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_b(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        ta = centered_axis(4.0, 64)
        u = free_evolution(phi, ta, cutoff=1.0)
        assert xsb_norm(u, 0.0, 0.3) <= xsb_norm(u, 0.0, 0.6) + 1e-13

    def test_aliasing_guard(self, grid512):
        phi = banded_bump(grid512, band=12.0)
        ta = centered_axis(4.0, 64)  # tau_max ~ 50, far below 2 * 12^3
        u = free_evolution(phi, ta, cutoff=1.0)
        with pytest.raises(AliasingError):
            xsb_norm(u, 0.0, 0.5)

    def test_needs_centered_axis(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        u = free_evolution(phi, midpoint_axis(1.0, 64))
        with pytest.raises(AliasingError):
            xsb_norm(u, 0.0, 0.5)

    @pytest.mark.parametrize("resolution", [preset_resolution(), preset_resolution().doubled()])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_support_radius_matches_column_mass_oracle(self, resolution, seed):
        grid, ta = resolution.make()
        u = random_spacetime(grid, ta, resolution.xi_band, seed, master=0)
        # the former route: a raw x-FFT of the samples, then column L^2 masses
        col = np.sqrt(np.sum(np.abs(np.fft.fft(u.values, axis=1)) ** 2, axis=0))
        oracle = np.max(np.abs(grid.xi[col > 1e-12 * col.max()]))
        assert _support_radius(grid, grid.forward(u.values), slice(None)) == oracle
        assert oracle <= resolution.xi_band

    def test_several_weights_equal_one_at_a_time(self):
        resolution = preset_resolution()
        grid, ta = resolution.make()
        u = random_spacetime(grid, ta, resolution.xi_band, 4, master=0)
        indices = [(0.0, 0.5), (0.3, 0.52), (0.25, 0.6), (0.0, 0.5)]
        assert xsb_norms(u, indices) == [xsb_norm(u, s, b) for s, b in indices]

    def test_mirrored_weight_reproduces_full_sum(self, grid64):
        # a real field band-limited to |xi| <= 4, random in time, so its
        # tau-Nyquist row carries power; the sum over its modes 0 .. K-1
        # against the folded weight must equal the full one, and assuming
        # w(-xi, -tau) = w(xi, tau) must not
        ta = centered_axis(4.0, 256)
        s, b = sigma_index(EPS), b_index(EPS)
        rng = np.random.default_rng(3)
        keep = np.abs(grid64.xi) <= 4.0
        u = grid64.inverse(grid64.forward(rng.standard_normal((256, 64))) * keep).real
        full = former_xsb_norm(grid64, ta, grid64.forward(u), s, b)
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
        u = free_evolution(phi, ta, cutoff=1.0)
        scaled = u.with_values(c * u.values)
        assert xsb_norm(scaled, 0.3, 0.5) == pytest.approx(
            abs(c) * xsb_norm(u, 0.3, 0.5), rel=1e-12
        )


# every (s, b) the probes norm a random space-time field with: the
# embedding catalog's, the octilinear factors' and pairing's, the bilinear's
PROBE_XSB_INDICES = [(s, b) for _, s, b in embedding_catalog(EPS).values()] + [
    (sigma_index(EPS), b_index(EPS)),
    (0.0, dual_b_index(EPS)),
    (0.0, 0.51),
    (0.0, 0.4),
]


class TestKeptBand:
    """A field drawn from its spectrum keeps its band's x-spectrum, and its
    norms are summed from it; `with_values` keeps no band, so a copy given
    as samples is the oracle."""

    @pytest.mark.parametrize("resolution", [preset_resolution(), preset_resolution().doubled()])
    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_norms_match_samples_route(self, resolution, cut, seed):
        grid, ta = resolution.make()
        u = random_spacetime(grid, ta, resolution.xi_band, seed, master=0)
        if cut:
            u = apply_time_cutoff(u, 1.0)
        got = np.array(xsb_norms(u, PROBE_XSB_INDICES))
        want = np.array(xsb_norms(u.with_values(u.values), PROBE_XSB_INDICES))
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("resolution", [preset_resolution(), preset_resolution().doubled()])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equal_former_chain(self, resolution, seed):
        # bit for bit, the former check-transform-sum chain on the band's
        # columns: a banded probe field, cut or not, and a free evolution
        # of real data, which keeps no band
        grid, ta = resolution.make()
        u = random_spacetime(grid, ta, resolution.xi_band, seed, master=0)
        phi = banded_bump(grid, amplitude=1.0 + seed, band=2.0)
        for field in (u, apply_time_cutoff(u, 1.0), free_evolution(phi, ta, cutoff=0.25)):
            columns, hat_x = _band_spectrum(field)
            want = [former_xsb_norm(grid, ta, hat_x, s, b, columns) for s, b in PROBE_XSB_INDICES]
            assert xsb_norms(field, PROBE_XSB_INDICES) == want

    def test_with_values_drops_band(self):
        resolution = preset_resolution()
        grid, ta = resolution.make()
        u = random_spacetime(grid, ta, resolution.xi_band, 2, master=0)
        columns, _ = u._band
        assert np.array_equal(columns, np.flatnonzero(np.abs(grid.xi) <= resolution.xi_band))
        assert apply_time_cutoff(u, 1.0)._band[0] is columns
        assert u.with_values(2.0 * u.values)._band is None

    def test_aliasing_guard(self):
        # drawn past the check of ProbeResolution.make: 2 * 6^3 > tau_max ~ 100
        grid, ta = preset_resolution().make()
        u = random_spacetime(grid, ta, 6.0, 0, master=0)
        for field in (u, apply_time_cutoff(u, 1.0)):
            with pytest.raises(AliasingError):
                xsb_norms(field, [(0.0, 0.5)])


def _former_bilinear_multiplier(u1, u2, s):
    """The former `bilinear_multiplier`: raw DFTs of both factors' samples,
    the sum over the modes whose L^2 mass over time exceeds 1e-14 of the
    peak mode's, `/ n` and a raw inverse DFT."""
    n = u1.grid.n_modes
    xi = u1.grid.xi
    a = np.fft.fft(u1.values, axis=1)
    bv = np.fft.fft(u2.values, axis=1)

    def support(hat_x):
        col = np.sqrt(np.sum(np.abs(hat_x) ** 2, axis=0))
        return np.flatnonzero(col > 1e-14 * col.max())

    k1, k2 = support(a), support(bv)
    a, bv = a.T[k1], bv.T
    symbol = np.abs(xi[k1][:, None] - xi[k2][None, :]) ** s
    out = np.zeros((n, u1.taxis.n_samples), dtype=np.complex128)
    for j, k in enumerate(k2):
        out[(k1 + k) % n] += symbol[:, j][:, None] * a * bv[k]
    out /= n
    return np.fft.ifft(out.T, axis=1)


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
        """The convolution equals the dense O(N^2 M) sum over every mode
        pair, for bands anywhere on the circle of modes (so also bands that
        wrap past Nyquist) and for data on every mode. The factors are given
        as samples, so the sum runs over all their modes, whose amplitudes
        span ten decades."""
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

    def test_matches_former_on_probe_fields(self):
        # the bilinear_l2 probe's factors at the probe-catalog resolution:
        # random fields, read through their kept bands
        resolution = preset_resolution().doubled()
        grid, ta = resolution.make()
        for trial in range(10):
            u1, u2 = (random_spacetime(grid, ta, resolution.xi_band, 2 * trial + j, master=1)
                      for j in (0, 1))
            assert u1._band is not None and u2._band is not None
            former = _former_bilinear_multiplier(u1, u2, 0.5)
            out = bilinear_multiplier(u1, u2, 0.5).values
            assert np.max(np.abs(out - former)) <= 1e-14 * np.max(np.abs(former))

    def test_zero_factor_gives_zero(self, grid64):
        ta = centered_axis(4.0, 32)
        u = SpaceTimeField(grid64, ta, np.random.default_rng(3).standard_normal((32, 64)))
        zero = SpaceTimeField(grid64, ta, np.zeros((32, 64)))
        assert not np.any(bilinear_multiplier(u, zero, 0.5).values)


def test_space_time_lebesgue_is_mixed_with_equal_exponents():
    # the embedding probes' left side is the plain L^p over the (x, t) box
    resolution = preset_resolution()
    grid, ta = resolution.make()
    u = random_spacetime(grid, ta, resolution.xi_band, 0, master=0)
    reports = check_embeddings([u], ["embed01", "embed12"], EPS)
    for eid, report in reports.items():
        p = embedding_catalog(EPS)[eid][0]
        assert report.trials[0].lhs == mixed_norm(u, p, p)


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
