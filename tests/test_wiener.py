import copy
import warnings
from pathlib import Path

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
from gkdvlab import wiener
from gkdvlab.cli import build_data
from gkdvlab.config import load_config
from gkdvlab.norms import sobolev_norm
from gkdvlab.probes import _banded_bump
from gkdvlab.streams import child_seed
from gkdvlab.wiener import (
    _band_stack,
    _component_draws,
    partition_window,
    require_distribution,
    sample_coefficients,
    sampler,
)

from conftest import (
    airy_propagate,
    banded_bump,
    edge_based,
    former_band_stack,
    former_sample_field,
    former_spectral_values,
    l2_norm,
    multiply,
)

LWP_PRESET = Path(__file__).parents[1] / "configs" / "lwp.ini"


class TestWindow:
    def test_endpoint_values(self):
        w = partition_window
        assert w(np.array([0.0]))[0] == 1.0
        assert w(np.array([1.0]))[0] == 0.0
        assert w(np.array([-1.0]))[0] == 0.0

    def test_adjacent_pair_sums_to_one(self):
        w = partition_window
        xi = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(w(xi) + w(xi - 1.0) - 1.0)) <= 1e-15

    def test_partition_of_unity_dense(self):
        # 6400 frequencies pi/200 apart on |xi| <= 50.3, all inside |n| <= 60
        total = _band_stack(make_grid(200.0, 6400), 60).sum(axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_range(self):
        vals = partition_window(np.linspace(-2, 2, 4001))
        assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestProjectBand:
    """The band projections psi(D - n) of the grid's window stack, the
    rows the randomization weights."""

    def test_band_sum_reconstructs(self, grid64):
        f = banded_bump(grid64, band=3.0)
        hat = former_spectral_values(f)
        rows = former_band_stack(grid64, 4)
        total = sum(spectral_values(multiply(f, row)) for row in rows)
        assert np.max(np.abs(total - hat)) <= 1e-12 * np.max(np.abs(hat))

    def test_support_selects_two_bands(self, grid64):
        # the stack's columns are the modes 0 .. N/2
        xi = grid64.xi[:33]
        mask = (xi >= 3.4) & (xi <= 3.6)
        rows = _band_stack(grid64, 5)
        live = [n for n, row in zip(range(-5, 6), rows) if np.any(row[mask] > 0.0)]
        assert live == [3, 4]

    def test_commutes_with_airy(self, grid64):
        f = banded_bump(grid64, band=3.0)
        # the Airy flow of real data, which the sampler takes
        flowed = Field.from_spectrum(grid64, spectral_values(f) * np.exp(0.7j * grid64.xi**3))
        a = sampler(flowed, "gaussian")(2)
        b = airy_propagate(sampler(f, "gaussian")(2), 0.7)
        scale = max(np.max(np.abs(a.values)), 1e-30)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


class TestSampleCoefficients:
    def test_deterministic(self):
        a = sample_coefficients("gaussian", 12, 20)
        b = sample_coefficients("gaussian", 12, 20)
        assert np.array_equal(a, b)

    def test_hermitian_pairing(self):
        c = sample_coefficients("uniform", 5, 16)
        for n in range(1, 17):
            assert c[16 - n] == np.conj(c[16 + n])
        assert c[16].imag == 0.0

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            sample_coefficients("cauchy", 1, 4)

    @pytest.mark.parametrize("dist", ["gaussian", "ones"])
    def test_drawn_sequence_passes_the_caller_checks(self, dist):
        # the checks a caller's sequence once had to pass: length 2*n_max+1,
        # g_0 real, g_{-n} = conj(g_n); the array is complex and read-only
        c = sample_coefficients(dist, 3, 6)
        assert c.shape == (13,) and c[6].imag == 0.0
        assert np.array_equal(c[:6][::-1], np.conj(c[7:]))
        assert c.dtype == np.complex128 and not c.flags.writeable

    @pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform"])
    def test_moments_match_monte_carlo_oracle(self, dist):
        # oracle: mean of Re g_n ~ 0 and E|g_n|^2 ~ 1 within 3 standard
        # errors at 1e5 component draws
        n_draws = 4000
        n_max = 25
        re_parts, sq_mods = [], []
        for seed in range(n_draws):
            g = sample_coefficients(dist, seed, n_max)[n_max + 1 :]
            re_parts.append(g.real)
            sq_mods.append(np.abs(g) ** 2)
        re = np.concatenate(re_parts)
        sq = np.concatenate(sq_mods)
        assert abs(re.mean()) <= 3.0 * re.std() / np.sqrt(re.size)
        se_sq = sq.std() / np.sqrt(sq.size)
        assert abs(sq.mean() - 1.0) <= max(3.0 * se_sq, 1e-12)


def verify_mgf_bound(
    distribution: str,
    gamma_grid,
    n_samples: int = 200_000,
    seed: int = 20260810,
) -> float:
    """Estimate max over gamma of log E[exp(gamma X)] / gamma^2.

    X is the unit-variance real component variable of the family. A finite
    value uniform in gamma is the sub-Gaussian moment condition; for the
    gaussian family the exact ratio is 1/2.
    """
    gammas = np.asarray(list(gamma_grid), dtype=np.float64)
    if gammas.size == 0 or np.any(gammas == 0.0):
        raise ValueError("gamma_grid must be nonempty with nonzero entries")
    if distribution == "ones":
        raise ValueError("'ones' is a diagnostic stream, not a mean-zero distribution")
    require_distribution(distribution)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    draws = _component_draws(rng, distribution, n_samples)
    ratios = []
    for g in gammas:
        mgf = float(np.mean(np.exp(g * draws)))
        ratios.append(np.log(mgf) / g**2)
    return float(max(ratios))


class TestMgfBound:
    def test_gaussian_ratio_half(self):
        ratio = verify_mgf_bound("gaussian", [0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
        assert ratio == pytest.approx(0.5, abs=0.02)

    def test_rademacher_below_half(self):
        ratio = verify_mgf_bound("rademacher", [0.5, 1.0, 2.0])
        # exact value is log cosh(gamma) / gamma^2 <= 1/2
        assert ratio < 0.5
        assert ratio == pytest.approx(np.log(np.cosh(0.5)) / 0.25, abs=0.02)

    def test_uniform_matches_quadrature_oracle(self):
        gammas = [0.5, 1.0, 2.0]
        half = np.sqrt(3.0)

        def oracle(g):
            val = quad(lambda x: np.exp(g * x) / (2 * half), -half, half)[0]
            return np.log(val) / g**2

        expected = max(oracle(g) for g in gammas)
        ratio = verify_mgf_bound("uniform", gammas)
        assert ratio < 0.5
        assert ratio == pytest.approx(expected, abs=0.02)

    def test_ones_rejected(self):
        with pytest.raises(ValueError):
            verify_mgf_bound("ones", [1.0])

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            verify_mgf_bound("gaussian", [0.0, 1.0])


class TestRandomize:
    """`sampler`: the randomization as a map from a seed to a field."""

    def test_all_ones_reproduces(self, grid512, bump):
        out = sampler(bump, "ones")(0)
        assert np.max(np.abs(out.values - bump.values)) <= 1e-12 * np.max(np.abs(bump.values))

    def test_real_data_stays_real(self, bump):
        out = sampler(bump, "gaussian")(3)
        assert np.max(np.abs(out.values.imag)) <= 1e-12

    def test_linear_in_data(self, grid64):
        # f, g and f + g share their spectral radius, so one range serves all three
        f = banded_bump(grid64, band=3.0)
        g = banded_bump(grid64, amplitude=0.4, band=3.0)
        fg = Field(grid64, f.values + g.values)
        samplers = [sampler(h, "gaussian") for h in (fg, f, g)]
        assert [s.n_max for s in samplers] == [4, 4, 4]
        combined, separate = samplers[0](9), samplers[1](9).values + samplers[2](9).values
        assert np.max(np.abs(combined.values - separate)) <= 1e-12 * np.max(np.abs(separate))

    def test_coverage_violation_rejected(self, grid64):
        f = banded_bump(grid64, band=4.0)
        with pytest.raises(ValueError, match="unknown distribution 'cauchy'"):
            sampler(f, "cauchy")

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_coverage_of_data_near_the_float_limit(self, action):
        # the range is read off amplitudes relative to the peak mode, so
        # 1e300 data build a sampler with no RuntimeWarning, and the range
        # of the unit bump
        grid = make_grid(16.0, 128)
        phi = field_from_function(grid, lambda x: 1e300 * np.exp(-(x**2)))
        unit = field_from_function(grid, lambda x: np.exp(-(x**2)))
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            sample = sampler(phi, "gaussian")
        assert sample.n_max == sampler(unit, "gaussian").n_max == 12

    @pytest.mark.parametrize("n_modes,seed", [(128, 1), (512, 2)])
    def test_matches_former_multiplier_route(self, n_modes, seed):
        # the former route: the multiplier through the samples, phi
        # transformed forward and the product back on every call
        grid = make_grid(16.0, n_modes)
        phi = field_from_function(grid, lambda x: np.exp(-(x**2)))
        sample = sampler(phi, "gaussian")
        g = sample_coefficients("gaussian", seed, sample.n_max)
        old = multiply(phi, g @ former_band_stack(grid, sample.n_max)).values
        new = sample(seed)
        scale = np.max(np.abs(old))
        # the former samples: the real part, within the former realness tolerance
        assert np.max(np.abs(old.imag)) <= 1e-12 * scale
        assert np.max(np.abs(new.values - old.real)) <= 1e-15 * scale
        # the field carries its half spectrum, the one product
        assert np.array_equal(half_spectrum(new), half_spectrum(phi) * (g @ sample.stack))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_refused_before_any_draw(self, grid64, monkeypatch, bad):
        # such data once passed: a NaN peak made the range come out as 1,
        # and every sample of an ensemble was booked as a failure of local
        # solvability
        values = banded_bump(grid64, band=3.0).values.copy()
        values[17] = bad
        draws = []
        monkeypatch.setattr(wiener, "sample_coefficients", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="sampler expects finite data"):
            sampler(Field(grid64, values), "gaussian")
        assert draws == []

    def test_complex_data_refused(self, grid64):
        # as picard_solve does: the randomization keeps real data real, and
        # complex data are refused when the sampler is built, before any draw
        tilted = Field(grid64, 1j * banded_bump(grid64, band=3.0).values)
        assert tilted.values.dtype == np.complex128
        with pytest.raises(ValueError, match="sampler expects real data"):
            sampler(tilted, "gaussian")

    @pytest.mark.parametrize("half_length,n_modes", [(16.0, 128), (32.0, 512)])
    @pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
    def test_field_keeps_former_spectrum_with_real_samples(
        self, half_length, n_modes, distribution
    ):
        # the former field: the spectrum phi_hat * (g @ windows) on all N
        # modes and, as samples, the real part of its complex inverse. The
        # data are given as samples, so the former route read their complex
        # transform and the sampler reads their real one: the two agree to
        # round-off
        grid = make_grid(half_length, n_modes)
        phi = field_from_function(grid, lambda x: np.exp(-(x**2)))
        sample = sampler(phi, distribution)
        for seed in range(6):
            g = sample.coefficients(seed)
            former, former_field = former_sample_field(grid, spectral_values(phi), g, sample.n_max)
            f = sample.field(g)
            edge = edge_based(former[: n_modes // 2 + 1])
            assert np.max(np.abs(half_spectrum(f) - edge)) <= 1e-14 * np.max(np.abs(edge))
            assert half_spectrum(f).tobytes() == (half_spectrum(phi) * (g @ sample.stack)).tobytes()
            assert f.values.dtype == np.float64
            assert np.array_equal(f.values, grid.real_inverse(half_spectrum(f)))
            old = grid.inverse(former).real
            assert np.max(np.abs(f.values - old)) <= 1e-15 * np.max(np.abs(old))
            scale = np.max(np.abs(former_field.values))
            assert np.max(np.abs(f.values - former_field.values)) <= 1e-14 * scale

    def test_ensemble_l2_mean_matches_band_sum(self, grid512, bump):
        # independence + mean-zero cross terms: E ||phi^omega||^2 = sum_n ||psi(D-n) phi||^2
        n_samples = 10_000
        sample = sampler(bump, "gaussian")
        vals = np.empty(n_samples)
        for k in range(n_samples):
            vals[k] = l2_norm(sample(k)) ** 2
        rows = former_band_stack(grid512, sample.n_max)
        band_sum = sum(l2_norm(multiply(bump, row)) ** 2 for row in rows)
        se = vals.std() / np.sqrt(n_samples)
        assert abs(vals.mean() - band_sum) <= 3.0 * se

    def test_overlap_bound_on_sobolev_norm(self, grid512, bump):
        # |sum over <= 2 overlapping windows|^2 <= 2 max|g|^2 sum psi_n^2
        s = 0.25
        # sum_n || <D>^s psi(D - n) phi ||_{L^2}^2
        weighted = (1.0 + grid512.xi**2) ** s * np.abs(spectral_values(bump)) ** 2
        sample = sampler(bump, "gaussian")
        rows = former_band_stack(grid512, sample.n_max)
        rhs_sum = float(grid512.dxi * np.sum(rows**2 @ weighted))
        for seed in range(20):
            lhs = sobolev_norm(sample(seed), s) ** 2
            g = sample.coefficients(seed)
            bound = 2.0 * float(np.max(np.abs(g)) ** 2) * rhs_sum
            assert lhs <= bound * (1.0 + 1e-12)


class TestFormerSamplerRoute:
    """`Sampler.field` on the half spectrum builds the fields of the former
    route (conftest's `former_sample_field`: the full spectrum
    hat * (g @ windows) on all N modes, then `Field.from_spectrum`) bit for
    bit, for data built from their spectra. Data given as samples are
    `test_field_keeps_former_spectrum_with_real_samples`'s."""

    @staticmethod
    def _assert_former_fields(sample, hat, n_draws=100):
        for k in range(n_draws):
            g = sample.coefficients(child_seed(42, k))
            _, former = former_sample_field(sample.grid, hat, g, sample.n_max)
            f = sample.field(g)
            assert f.values.tobytes() == former.values.tobytes()
            # equal by value: an exact zero mode of the data takes its sign
            # from the order of the products, and adding 0.0 clears it
            assert (half_spectrum(f) + 0.0).tobytes() == (half_spectrum(former) + 0.0).tobytes()

    @pytest.mark.parametrize("distribution", ["rademacher", "gaussian"])
    def test_lwp_preset_data(self, distribution):
        # `cli._band_limit` builds the preset's data from the spectrum
        # below, the one the former sampler read
        cfg = load_config(LWP_PRESET)
        raw_cfg = copy.deepcopy(cfg)
        raw_cfg["data"]["band_limit"] = 0.0
        raw = build_data(raw_cfg)
        hat = spectral_values(raw) * (np.abs(raw.grid.xi) <= cfg["data"]["band_limit"])
        self._assert_former_fields(sampler(build_data(cfg), distribution), hat)

    @pytest.mark.parametrize("n_modes", [64, 128])  # the probe preset and its doubling
    def test_probe_banded_bump(self, n_modes):
        grid = make_grid(8.0, n_modes)
        coeffs = np.exp(-(grid.xi**2)) * (np.abs(grid.xi) <= 3.5)
        hat = coeffs / np.sqrt(grid.dxi * np.sum(coeffs**2))
        self._assert_former_fields(sampler(_banded_bump(grid, 3.5), "gaussian"), hat)

    def test_banded_bump(self, grid64):
        hat = np.exp(-grid64.xi**2) * (np.abs(grid64.xi) <= 2.0)
        self._assert_former_fields(sampler(banded_bump(grid64), "gaussian"), hat)


@settings(max_examples=40, deadline=None)
@given(half_length=st.floats(1.0, 100.0))
def test_window_translates_sum_to_one_anywhere(half_length):
    # the 64 frequencies k pi / half_length reach |xi| <= 32 pi / half_length
    grid = make_grid(half_length, 64)
    cover = _band_stack(grid, int(np.ceil(grid.xi_max)) + 1).sum(axis=0)
    assert np.max(np.abs(cover - 1.0)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), n_max=st.integers(1, 24))
def test_hermitian_pairing_holds_for_any_draw(seed, n_max):
    c = sample_coefficients("gaussian", seed, n_max)
    assert np.allclose(c[:n_max][::-1], np.conj(c[n_max + 1 :]), atol=1e-15)


class TestKey:
    """`Sampler.key`: the bytes of g on the windows that reach the data."""

    @staticmethod
    def _preset_sampler():
        cfg = load_config(LWP_PRESET)
        return sampler(build_data(cfg), cfg["random"]["distribution"])

    def test_lwp_preset_key_is_the_windows_inside_the_band(self):
        # band_limit 2: the windows n = 0, 1, 2 reach |xi| <= 2, n = 3 does not
        sample = self._preset_sampler()
        assert sample.n_max == 3
        assert sample.live.tolist() == [3, 4, 5]
        g = sample.coefficients(5)
        assert sample.key(g) == g[3:6].tobytes()

    def test_equal_keys_build_bit_equal_samples(self):
        sample = self._preset_sampler()
        firsts, repeats = {}, 0
        for k in range(400):
            g = sample.coefficients(child_seed(42, k))
            f = sample.field(g)
            first_g, first = firsts.setdefault(sample.key(g), (g, f))
            if first is not f and first_g.tobytes() != g.tobytes():
                repeats += 1
                assert f.values.tobytes() == first.values.tobytes()
                # equal by value: exact zero modes of the data take their
                # sign from g, and adding 0.0 clears it
                assert (half_spectrum(f) + 0.0).tobytes() == (half_spectrum(first) + 0.0).tobytes()
        # the 128 atoms of the preset build 32 fields
        assert len(firsts) == 32
        assert repeats > 100

    def test_data_that_are_not_band_limited_key_every_window(self):
        # the tail-ensemble data: a bump on (L, N) = (16, 128), full spectrum
        grid = make_grid(16.0, 128)
        sample = sampler(Field(grid, np.exp(-grid.x**2)), "gaussian")
        assert sample.n_max == 12
        assert sample.live.tolist() == list(range(12, 25))

    def test_nyquist_mode_keys_the_windows_that_reach_it_from_below(self, grid64):
        # the Nyquist mode's frequency is -N/2 dxi, which only the windows
        # n = -6, -7 reach; g_6 and g_7, their conjugates, enter the key
        half = np.zeros(33, dtype=np.complex128)
        half[0] = half[32] = 1.0
        sample = sampler(Field.from_half(grid64, half), "gaussian")
        n = sample.n_max
        assert (sample.live - n).tolist() == [0, 6, 7]
        g = sample.coefficients(1)
        moved = g.copy()
        moved[n + 6] *= 2.0
        moved[n - 6] = np.conj(moved[n + 6])
        assert sample.key(moved) != sample.key(g)
        assert sample.field(moved).values.tobytes() != sample.field(g).values.tobytes()
