import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdvlab.grid import (
    SQRT_2PI,
    Field,
    _phase,
    airy_propagate,
    bessel_multiplier,
    dealias,
    derivative,
    dyadic_blocks,
    dyadic_project,
    field_from_function,
    l2_norm,
    make_grid,
    spectral_values,
)
from gkdvlab.norms import sobolev_norm

from conftest import random_real_field


class TestMakeGrid:
    def test_small_grid_frequencies(self):
        g = make_grid(np.pi, 8)
        assert sorted(g.xi) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert g.dxi == pytest.approx(1.0)

    def test_big_grid_spacing(self):
        g = make_grid(32.0, 1024)
        assert g.dxi == pytest.approx(np.pi / 32)
        assert g.xi_max == pytest.approx(np.pi * 512 / 32)

    @pytest.mark.parametrize("L,N", [(np.pi, 7), (np.pi, 4), (-1.0, 64), (0.0, 64)])
    def test_rejects_bad_arguments(self, L, N):
        with pytest.raises(ValueError):
            make_grid(L, N)


class TestTransforms:
    def test_constant_concentrates_at_zero(self):
        g = make_grid(np.pi, 64)
        hat = spectral_values(field_from_function(g, lambda x: np.ones_like(x)))
        assert abs(hat[0]) > 1e-10
        assert np.max(np.abs(hat[1:])) < 1e-14 * abs(hat[0])

    def test_single_mode_is_orthogonal(self):
        g = make_grid(np.pi, 64)
        hat = spectral_values(field_from_function(g, lambda x: np.exp(2j * x)))
        k = np.argmin(np.abs(g.xi - 2.0))
        others = np.delete(np.abs(hat), k)
        assert np.max(others) < 1e-14 * abs(hat[k])

    def test_round_trip_and_parseval_on_random_fields(self, grid512):
        rng = np.random.default_rng(1)
        for trial in range(50):
            v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
            f = Field(grid512, v)
            hat = spectral_values(f)
            back = grid512.inverse(hat)
            assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))
            spectral_l2 = np.sqrt(grid512.dxi * np.sum(np.abs(hat) ** 2))
            assert abs(l2_norm(f) - spectral_l2) <= 1e-12 * l2_norm(f)

    def test_batch_matches_row_by_row_bitwise(self, grid64):
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((7, 64)) + 1j * rng.standard_normal((7, 64))
        symbol = rng.standard_normal(64)
        for transform in (
            grid64.forward,
            grid64.inverse,
            lambda v: grid64.multiply(v, symbol),
        ):
            rows = np.stack([transform(row) for row in batch])
            assert np.array_equal(transform(batch), rows)

    def test_inverse_undoes_forward_on_a_batch(self, grid512):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, 512)) + 1j * rng.standard_normal((5, 512))
        back = grid512.inverse(grid512.forward(batch))
        assert np.max(np.abs(back - batch)) <= 1e-12 * np.max(np.abs(batch))

    @pytest.mark.parametrize("shape", [(64,), (7, 64)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_in_place_products_match_out_of_place(self, grid64, shape, dtype):
        # forward and inverse scale the FFT's own output in place; they must
        # equal the out-of-place expressions and leave their input alone
        rng = np.random.default_rng(11)
        values = rng.standard_normal(shape).astype(dtype)
        if dtype == np.complex128:
            values = values + 1j * rng.standard_normal(shape)
        kept = values.copy()
        phase = _phase(64)
        old_forward = (grid64.dx / SQRT_2PI) * phase * np.fft.fft(values)
        old_inverse = (grid64.dxi * 64 / SQRT_2PI) * np.fft.ifft(values * phase)
        assert np.array_equal(grid64.forward(values), old_forward)
        assert np.array_equal(grid64.inverse(values), old_inverse)
        assert np.array_equal(values, kept)
        values.flags.writeable = False
        assert np.array_equal(grid64.forward(values), old_forward)
        assert np.array_equal(grid64.inverse(values), old_inverse)

    def test_frequencies_cached_and_read_only(self, grid64):
        xi = grid64.xi
        assert grid64.xi is xi
        assert np.array_equal(xi, 2.0 * np.pi * np.fft.fftfreq(64, d=grid64.dx))
        with pytest.raises(ValueError):
            xi[0] = 1.0
        assert make_grid(16.0, 64) == grid64

    def test_boundary_phase_is_shared_and_read_only(self):
        phase = _phase(64)
        assert _phase(64) is phase
        assert not phase.flags.writeable
        with pytest.raises(ValueError):
            phase[0] = 2.0
        assert np.array_equal(phase, (-1.0) ** np.arange(64))


class TestAiryPropagate:
    def test_single_mode_phase(self):
        g = make_grid(np.pi, 64)
        f = field_from_function(g, lambda x: np.exp(2j * x))
        out = airy_propagate(f, 0.1)
        k = np.argmin(np.abs(g.xi - 2.0))
        ratio = spectral_values(out)[k] / spectral_values(f)[k]
        assert np.angle(ratio) == pytest.approx(0.8, abs=1e-12)

    def test_zero_time_is_identity(self, bump):
        out = airy_propagate(bump, 0.0)
        assert np.max(np.abs(out.values - bump.values)) <= 1e-14 * np.max(np.abs(bump.values))

    def test_group_property(self, grid512):
        f = random_real_field(grid512, 3)
        a = airy_propagate(f, 0.3 + 0.45)
        b = airy_propagate(airy_propagate(f, 0.3), 0.45)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(a.values))

    @pytest.mark.parametrize("s", [0.0, 3.0 / 14.0, 1.0])
    def test_preserves_sobolev_norms(self, bump, s):
        before = sobolev_norm(bump, s)
        after = sobolev_norm(airy_propagate(bump, 1.0), s)
        assert abs(after - before) <= 1e-12 * before


class TestBesselMultiplier:
    def test_order_zero_identity(self, bump):
        out = bessel_multiplier(bump, 0.0)
        assert np.max(np.abs(out.values - bump.values)) <= 1e-14

    def test_single_mode_weight(self):
        g = make_grid(np.pi, 64)
        f = field_from_function(g, lambda x: np.exp(2j * x))
        out = bessel_multiplier(f, 1.0)
        assert l2_norm(out) / l2_norm(f) == pytest.approx(np.sqrt(5.0), rel=1e-13)

    def test_inverse(self, grid512):
        f = random_real_field(grid512, 4)
        back = bessel_multiplier(bessel_multiplier(f, 0.7), -0.7)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


class TestDerivative:
    def test_sin_to_cos(self):
        g = make_grid(np.pi, 128)
        out = derivative(field_from_function(g, np.sin))
        assert np.max(np.abs(out.values - np.cos(g.x))) <= 1e-12

    def test_third_derivative_single_mode(self):
        g = make_grid(np.pi, 16)
        f = field_from_function(g, lambda x: np.exp(2j * x))
        out = derivative(f, order=3)
        expected = -8j * f.values
        assert np.max(np.abs(out.values - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_constant_derivative_vanishes(self):
        g = make_grid(np.pi, 64)
        out = derivative(field_from_function(g, lambda x: 0.0 * x + 3.0))
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_commutes_with_airy(self, grid512):
        f = random_real_field(grid512, 5)
        a = derivative(airy_propagate(f, 0.2))
        b = airy_propagate(derivative(f), 0.2)
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale

    def test_rejects_zero_order(self, bump):
        with pytest.raises(ValueError):
            derivative(bump, order=0)


class TestDealias:
    @pytest.mark.parametrize("degree,frac", [(2, 2.0 / 3.0), (8, 2.0 / 9.0)])
    def test_cutoff_fraction(self, grid512, degree, frac):
        f = random_real_field(grid512, 6)
        cutoff = grid512.xi_max * 2.0 / (degree + 1.0)
        keep = np.abs(grid512.xi) <= cutoff
        expected = grid512.inverse(np.where(keep, spectral_values(f), 0.0))
        assert np.array_equal(dealias(f, degree).values, expected)
        assert cutoff == pytest.approx(grid512.xi_max * frac)

    def test_band_limited_field_unchanged(self, grid512):
        mask = np.abs(grid512.xi) <= grid512.xi_max * 0.2
        f = Field(grid512, grid512.inverse(np.where(mask, 1.0, 0.0)))
        keep = np.abs(grid512.xi) <= grid512.xi_max * 2.0 / 9.0
        assert np.all(keep[mask])
        expected = grid512.inverse(np.where(keep, spectral_values(f), 0.0))
        assert np.array_equal(dealias(f, 8).values, expected)

    def test_rejects_degree_one(self, bump):
        with pytest.raises(ValueError):
            dealias(bump, 1)


class TestDyadicProject:
    def test_blocks_partition_identity(self, grid512):
        f = random_real_field(grid512, 7)
        total = sum(
            spectral_values(dyadic_project(f, n)) for n in dyadic_blocks(grid512)
        )
        hat = spectral_values(f)
        assert np.max(np.abs(total - hat)) <= 1e-12 * np.max(np.abs(hat))

    def test_mode_three_lives_in_block_two(self):
        g = make_grid(np.pi, 64)
        f = field_from_function(g, lambda x: np.exp(3j * x))
        assert l2_norm(dyadic_project(f, 2)) == pytest.approx(l2_norm(f), rel=1e-13)
        for block in (1, 4, 8):
            assert l2_norm(dyadic_project(f, block)) <= 1e-13

    def test_idempotent(self, grid512):
        f = random_real_field(grid512, 8)
        once = dyadic_project(f, 4)
        twice = dyadic_project(once, 4)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-14 * max(
            1e-30, np.max(np.abs(once.values))
        )

    def test_blocks_pairwise_orthogonal(self, grid512):
        f = random_real_field(grid512, 9)
        blocks = dyadic_blocks(grid512)
        hats = [spectral_values(dyadic_project(f, n)) for n in blocks]
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                assert abs(np.vdot(hats[i], hats[j])) <= 1e-16 * grid512.n_modes

    def test_rejects_non_power_of_two(self, bump):
        with pytest.raises(ValueError):
            dyadic_project(bump, 3)


@settings(max_examples=25, deadline=None)
@given(
    t1=st.floats(-1.0, 1.0, allow_nan=False),
    t2=st.floats(-1.0, 1.0, allow_nan=False),
    seed=st.integers(0, 100),
)
def test_airy_group_property_random(t1, t2, seed):
    g = make_grid(8.0, 64)
    f = random_real_field(g, seed)
    a = airy_propagate(f, t1 + t2)
    b = airy_propagate(airy_propagate(f, t1), t2)
    assert np.max(np.abs(a.values - b.values)) <= 1e-11 * max(1.0, np.max(np.abs(a.values)))
