import numpy as np
import pytest

from gkdvlab.grid import airy_propagate
from gkdvlab.spacetime import (
    Cutoff,
    SpaceTimeField,
    band_project,
    bump_profile,
    centered_axis,
    free_evolution,
    midpoint_axis,
    smooth_step,
    spectral_support_radius,
    st_l2,
    st_spectral_values,
    st_to_physical,
)

from conftest import banded_bump


class TestTimeAxis:
    def test_centered_axis_contains_zero(self):
        ta = centered_axis(4.0, 64)
        assert ta.is_centered
        assert np.min(np.abs(ta.t)) == 0.0
        assert ta.tau_max == pytest.approx(np.pi * 64 / 4.0)

    def test_centered_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            centered_axis(4.0, 15)
        with pytest.raises(ValueError):
            centered_axis(4.0, 8)

    def test_midpoint_axis_integrates_constants_exactly(self):
        ta = midpoint_axis(0.5, 10)
        assert ta.dt * ta.n_samples == pytest.approx(0.5)
        assert not ta.is_centered


class TestSpaceTimeTransforms:
    def test_parseval_and_round_trip(self, grid64):
        ta = centered_axis(4.0, 32)
        rng = np.random.default_rng(2)
        u = SpaceTimeField(
            grid64, ta, rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))
        )
        hat = st_spectral_values(u)
        spectral_l2 = np.sqrt(grid64.dxi * ta.dtau * np.sum(np.abs(hat) ** 2))
        assert abs(st_l2(u) - spectral_l2) <= 1e-12 * st_l2(u)
        back = st_to_physical(grid64, ta, hat)
        assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))

    def test_shape_validation(self, grid64):
        ta = centered_axis(4.0, 32)
        with pytest.raises(ValueError):
            SpaceTimeField(grid64, ta, np.zeros((31, 64)))


class TestCutoff:
    def test_plateau_support_and_range(self):
        eta = Cutoff(1.0)
        t = np.linspace(-3.0, 3.0, 2401)
        v = eta(t)
        assert np.all(v[np.abs(t) <= 1.0] == 1.0)
        assert np.all(v[np.abs(t) >= 2.0] == 0.0)
        assert v.min() >= 0.0 and v.max() <= 1.0

    def test_rescaled_support(self):
        T = 0.25
        eta_t = Cutoff(T)
        t = np.linspace(-1.0, 1.0, 4001)
        v = eta_t(t)
        assert np.all(v[np.abs(t) <= T] == 1.0)
        assert np.all(v[np.abs(t) >= 2 * T] == 0.0)

    def test_profile_smoothness_on_grid(self):
        # sampled derivatives stay continuous: finite differences of order
        # 1..4 show no jumps at the glue points
        t = np.linspace(-2.5, 2.5, 20001)
        v = bump_profile(t)
        d = v
        h = t[1] - t[0]
        for _ in range(4):
            d = np.diff(d) / h
            assert np.max(np.abs(np.diff(d))) <= np.max(np.abs(d)) * 0.05 + 1e-12

    def test_smooth_step_endpoints(self):
        assert smooth_step(np.array([-1.0, 0.0]))[1] == 0.0
        assert smooth_step(np.array([1.0, 2.0]))[0] == 1.0


class TestFreeEvolution:
    def test_slices_match_airy(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        ta = centered_axis(2.0, 16)
        z = free_evolution(phi, ta)
        for j in (0, 5, 11):
            direct = airy_propagate(phi, ta.t[j])
            assert np.max(np.abs(z.values[j] - direct.values)) <= 1e-12

    def test_cutoff_applied(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        ta = centered_axis(4.0, 64)
        z = free_evolution(phi, ta, cutoff=Cutoff(0.25))
        outside = np.abs(ta.t) >= 0.5
        assert np.max(np.abs(z.values[outside])) == 0.0


class TestBandProject:
    def test_projection_and_mass_accounting(self, grid64):
        ta = centered_axis(4.0, 32)
        rng = np.random.default_rng(3)
        u = SpaceTimeField(grid64, ta, rng.standard_normal((32, 64)))
        proj, lost = band_project(u, 2.0)
        assert 0.0 < lost < 1.0
        assert spectral_support_radius(proj) <= 2.0
        total = st_l2(u) ** 2
        kept = st_l2(proj) ** 2
        assert kept + lost * total == pytest.approx(total, rel=1e-10)

    def test_band_limited_field_untouched(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        ta = centered_axis(4.0, 32)
        z = free_evolution(phi, ta)
        proj, lost = band_project(z, 3.0)
        assert lost <= 1e-15
        assert np.max(np.abs(proj.values - z.values)) <= 1e-13
