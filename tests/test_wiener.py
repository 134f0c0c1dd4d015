import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gkdvlab.grid import (
    Field,
    airy_propagate,
    apply_multiplier,
    field_from_function,
    l2_norm,
    make_grid,
    spectral_values,
)
from gkdvlab.norms import sobolev_norm
from gkdvlab.wiener import (
    RandomCoefficients,
    _band_stack,
    _component_draws,
    coverage_weight,
    partition_window,
    randomize,
    randomizer,
    require_coverage,
    require_distribution,
    sample_coefficients,
)

from conftest import banded_bump


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
        xi = np.linspace(-50.0, 50.0, 20001)
        total = coverage_weight(xi, 60)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_range(self):
        vals = partition_window(np.linspace(-2, 2, 4001))
        assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestProjectBand:
    """The band projections psi(D - n) of the grid's window stack, the
    rows the randomization weights."""

    def test_band_sum_reconstructs(self, grid64):
        f = banded_bump(grid64, band=3.0)
        hat = spectral_values(f)
        rows = _band_stack(grid64, 4)[0]
        total = sum(spectral_values(apply_multiplier(f, row)) for row in rows)
        assert np.max(np.abs(total - hat)) <= 1e-12 * np.max(np.abs(hat))

    def test_support_selects_two_bands(self, grid64):
        mask = (grid64.xi >= 3.4) & (grid64.xi <= 3.6)
        rows = _band_stack(grid64, 5)[0]
        live = [n for n, row in zip(range(-5, 6), rows) if np.any(row[mask] > 0.0)]
        assert live == [3, 4]

    def test_commutes_with_airy(self, grid64):
        f = banded_bump(grid64, band=3.0)
        coeffs = sample_coefficients("gaussian", 2, 4)
        a = randomize(airy_propagate(f, 0.7), coeffs)
        b = airy_propagate(randomize(f, coeffs), 0.7)
        scale = max(np.max(np.abs(a.values)), 1e-30)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


class TestSampleCoefficients:
    def test_deterministic(self):
        a = sample_coefficients("gaussian", 12, 20)
        b = sample_coefficients("gaussian", 12, 20)
        assert np.array_equal(a.values, b.values)

    def test_hermitian_pairing(self):
        c = sample_coefficients("uniform", 5, 16)
        for n in range(1, 17):
            assert c.values[16 - n] == np.conj(c.values[16 + n])
        assert c.values[16].imag == 0.0

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            sample_coefficients("cauchy", 1, 4)

    @pytest.mark.parametrize("dist", ["gaussian", "ones"])
    def test_drawn_sequence_passes_the_caller_checks(self, dist):
        # sample_coefficients skips the re-validation; the sequence it builds
        # must pass it
        c = sample_coefficients(dist, 3, 6)
        checked = RandomCoefficients(c.seed, c.distribution, c.n_max, c.values)
        assert np.array_equal(checked.values, c.values)
        assert (checked.seed, checked.distribution, checked.n_max) == (3, dist, 6)
        assert c.values.dtype == np.complex128 and not c.values.flags.writeable

    def test_caller_input_still_validated(self):
        values = np.ones(5, np.complex128)
        values[0] = 2.0  # g_{-2} != conj(g_2)
        with pytest.raises(ValueError, match="Hermitian"):
            RandomCoefficients(0, "gaussian", 2, values)
        with pytest.raises(ValueError, match="real"):
            RandomCoefficients(0, "gaussian", 2, np.array([1, 1, 1j, 1, 1], np.complex128))
        with pytest.raises(ValueError, match="length"):
            RandomCoefficients(0, "gaussian", 2, np.ones(4))

    @pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform"])
    def test_moments_match_monte_carlo_oracle(self, dist):
        # oracle: mean of Re g_n ~ 0 and E|g_n|^2 ~ 1 within 3 standard
        # errors at 1e5 component draws
        n_draws = 4000
        n_max = 25
        re_parts, sq_mods = [], []
        for seed in range(n_draws):
            c = sample_coefficients(dist, seed, n_max)
            g = c.values[n_max + 1 :]
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
    def test_all_ones_reproduces(self, grid512, bump):
        out = randomize(bump, sample_coefficients("ones", 0, 16))
        assert np.max(np.abs(out.values - bump.values)) <= 1e-12 * np.max(np.abs(bump.values))

    def test_real_data_stays_real(self, bump):
        out = randomize(bump, sample_coefficients("gaussian", 3, 16))
        assert np.max(np.abs(out.values.imag)) <= 1e-12

    def test_linear_in_data(self, grid64):
        f = banded_bump(grid64, band=3.0)
        g = banded_bump(grid64, amplitude=0.4, band=3.0)
        coeffs = sample_coefficients("gaussian", 9, 5)
        fg = Field(grid64, f.values + g.values)
        combined = randomize(fg, coeffs)
        separate = randomize(f, coeffs).values + randomize(g, coeffs).values
        assert np.max(np.abs(combined.values - separate)) <= 1e-12 * np.max(np.abs(separate))

    def test_coverage_violation_rejected(self, grid64):
        f = banded_bump(grid64, band=4.0)
        with pytest.raises(ValueError):
            randomize(f, sample_coefficients("gaussian", 1, 2))
        with pytest.raises(ValueError, match="exceeds the coefficient range"):
            randomizer(f, 2)
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            randomizer(f, 0)

    @pytest.mark.parametrize("n_modes,seed", [(128, 1), (512, 2)])
    def test_matches_former_multiplier_route(self, n_modes, seed):
        # the former route: coverage and the multiplier through the samples,
        # phi transformed forward and the product back on every call
        grid = make_grid(16.0, n_modes)
        phi = field_from_function(grid, lambda x: np.exp(-(x**2)))
        coeffs = sample_coefficients("gaussian", seed, 8)
        stack = _band_stack(grid, 8)[0]
        require_coverage(phi, 8)
        old = apply_multiplier(phi, coeffs.values @ stack)
        new = randomize(phi, coeffs)
        scale = np.max(np.abs(old.values))
        assert np.max(np.abs(new.values - old.values)) <= 1e-15 * scale
        # the field carries its spectrum, the one product
        assert np.array_equal(spectral_values(new), spectral_values(phi) * (coeffs.values @ stack))
        assert np.array_equal(randomizer(phi, 8)(coeffs.values).values, new.values)

    def test_ensemble_l2_mean_matches_band_sum(self, grid512, bump):
        # independence + mean-zero cross terms: E ||phi^omega||^2 = sum_n ||psi(D-n) phi||^2
        n_samples = 10_000
        vals = np.empty(n_samples)
        for k in range(n_samples):
            out = randomize(bump, sample_coefficients("gaussian", k, 16))
            vals[k] = l2_norm(out) ** 2
        rows = _band_stack(grid512, 16)[0]
        band_sum = sum(l2_norm(apply_multiplier(bump, row)) ** 2 for row in rows)
        se = vals.std() / np.sqrt(n_samples)
        assert abs(vals.mean() - band_sum) <= 3.0 * se

    def test_overlap_bound_on_sobolev_norm(self, grid512, bump):
        # |sum over <= 2 overlapping windows|^2 <= 2 max|g|^2 sum psi_n^2
        s = 0.25
        # sum_n || <D>^s psi(D - n) phi ||_{L^2}^2
        weighted = (1.0 + grid512.xi**2) ** s * np.abs(spectral_values(bump)) ** 2
        rhs_sum = float(grid512.dxi * np.sum(_band_stack(grid512, 16)[0] ** 2 @ weighted))
        for seed in range(20):
            coeffs = sample_coefficients("gaussian", seed, 16)
            lhs = sobolev_norm(randomize(bump, coeffs), s) ** 2
            bound = 2.0 * float(np.max(np.abs(coeffs.values)) ** 2) * rhs_sum
            assert lhs <= bound * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(offset=st.floats(-30.0, 30.0, allow_nan=False))
def test_window_translates_sum_to_one_anywhere(offset):
    xi = offset + np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(coverage_weight(xi, int(abs(offset)) + 3) - 1.0)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), n_max=st.integers(1, 24))
def test_hermitian_pairing_holds_for_any_draw(seed, n_max):
    c = sample_coefficients("gaussian", seed, n_max)
    assert np.allclose(c.values[:n_max][::-1], np.conj(c.values[n_max + 1 :]), atol=1e-15)
