import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gkdvlab import probes
from gkdvlab.grid import Field, spectral_values
from gkdvlab.params import b_index, dual_b_index, sigma_index
from gkdvlab.probes import (
    CutoffBoxError,
    EstimateReport,
    _banded_bump,
    _spacetime_envelope,
    check_bilinear,
    check_embeddings,
    check_linear_estimates,
    check_multilinear,
    embedding_catalog,
    estimate_ids,
    random_field,
    random_spacetime,
    run_estimate,
    run_estimates,
)
from gkdvlab.spacetime import SpaceTimeField, free_evolution, st_l2
from gkdvlab.streams import rng_for
from gkdvlab.wiener import sampler

from conftest import EPS, preset_resolution, st_to_physical


class TestCatalog:
    def test_fourteen_embeddings_plus_four_probes(self):
        ids = estimate_ids(EPS)
        assert len(ids) == 18
        assert sum(1 for i in ids if i.startswith("embed")) == 14

    def test_catalog_exponents_at_reference_epsilon(self):
        cat = embedding_catalog(EPS)
        p, s, b = cat["embed12"]
        assert (p, s) == (8.0, 0.0)
        assert b == pytest.approx(b_index(EPS))
        p_inf, s_inf, _ = cat["embed14"]
        assert np.isinf(p_inf) and s_inf == pytest.approx(b_index(EPS))
        p01, s01, b01 = cat["embed01"]
        assert p01 == pytest.approx(8.0 / 1.05)
        assert b01 == pytest.approx(dual_b_index(EPS))

    def test_unknown_id_lists_valid_ones(self):
        grid, taxis = preset_resolution().make()
        u = random_spacetime(grid, taxis, 3.5, 0, master=0)
        with pytest.raises(KeyError) as err:
            check_embeddings([u], ["embed99"], EPS)
        assert "embed01" in str(err.value)

    def test_run_estimate_unknown_id(self):
        with pytest.raises(KeyError):
            run_estimate("nope", eps=EPS, resolution=preset_resolution(), n_trials=1, seed=1)
        with pytest.raises(KeyError):
            run_estimates(
                ["embed01", "nope"], eps=EPS, resolution=preset_resolution(), n_trials=1, seed=1
            )


class TestRunEstimates:
    @pytest.mark.parametrize("ids", [["embed01", "bilinear_l2", "embed01"], ["linear_free"] * 2])
    def test_repeated_id_raises(self, ids):
        with pytest.raises(KeyError, match="repeated estimate id"):
            run_estimates(ids, eps=EPS, resolution=preset_resolution(), n_trials=1, seed=1)

    def test_equals_one_id_runs_bit_for_bit(self):
        ids = ["octilinear_mixed", "embed14", "embed01", "linear_free", "embed07", "embed12"]
        reports = run_estimates(ids, eps=EPS, resolution=preset_resolution(), n_trials=5, seed=4)
        assert list(reports) == ids
        for eid in ids:
            one = run_estimate(eid, eps=EPS, resolution=preset_resolution(), n_trials=5, seed=4)
            assert reports[eid].rows() == one.rows()
            assert reports[eid].excluded == one.excluded


class TestReports:
    def test_zero_field_excluded_by_guard(self):
        grid, taxis = preset_resolution().make()
        zero = SpaceTimeField(grid, taxis, np.zeros((taxis.n_samples, grid.n_modes), np.complex128))
        rep = check_embeddings([zero], ["embed12"], EPS)["embed12"]
        assert rep.excluded == 1
        assert rep.trials == []

    def test_rows_carry_ratio(self):
        rep = EstimateReport("x")
        rep.add(0, 1.0, 2.0)
        assert rep.rows() == [("x", 0, 1.0, 2.0, 0.5)]
        assert rep.max_ratio == 0.5


class TestRandomData:
    """Data fields are built from their spectra; reading the spectrum back
    costs one transform round trip, i.e. round-off only."""

    @staticmethod
    def _rel_err(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_field_spectrum(self, seed):
        grid, _ = preset_resolution().make()
        rng = rng_for(0, 17, seed)
        coeffs = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
        coeffs *= (np.abs(grid.xi) <= 3.5) / np.sqrt(1.0 + grid.xi**2)
        coeffs /= np.sqrt(grid.dxi * np.sum(np.abs(coeffs) ** 2))
        got = spectral_values(random_field(grid, 3.5, seed, master=0))
        assert self._rel_err(got, coeffs) <= 1e-14

    @pytest.mark.parametrize("doubled", [False, True])
    def test_random_spacetime_equals_uncached_construction(self, doubled):
        res = preset_resolution().doubled() if doubled else preset_resolution()
        grid, taxis = res.make()
        rng = rng_for(2, 23, 9)
        shape = (taxis.n_samples, grid.n_modes)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mod = taxis.tau[:, None] - (grid.xi**3)[None, :]
        envelope = 1.0 / (np.sqrt(1.0 + grid.xi**2)[None, :] * np.sqrt(1.0 + mod**2))
        coeffs *= envelope * (np.abs(grid.xi) <= res.xi_band)[None, :]
        u = st_to_physical(grid, taxis, coeffs)
        want = u.values / st_l2(u)
        for _ in range(2):  # the second call reads the cached envelope
            got = random_spacetime(grid, taxis, res.xi_band, 9, master=2).values
            assert np.array_equal(got, want)
        band, cached = _spacetime_envelope(grid, taxis, res.xi_band)
        assert np.array_equal(band, np.flatnonzero(np.abs(grid.xi) <= res.xi_band))
        assert np.array_equal(cached, envelope[:, band])

    @pytest.mark.parametrize("xi_band", [-1.0, np.nan])
    def test_random_spacetime_rejects_empty_band(self, xi_band):
        grid, taxis = preset_resolution().make()
        with pytest.raises(ValueError, match="selects no mode"):
            random_spacetime(grid, taxis, xi_band, 0, master=0)

    def test_banded_bump_spectrum(self):
        grid, _ = preset_resolution().make()
        coeffs = np.exp(-(grid.xi**2)) * (np.abs(grid.xi) <= 3.5)
        coeffs /= np.sqrt(grid.dxi * np.sum(coeffs**2))
        assert self._rel_err(spectral_values(_banded_bump(grid, 3.5)), coeffs) <= 1e-14

    @pytest.mark.parametrize("doublings", [0, 1, 2])  # N = 64, 128, 256 at L = 8
    def test_mixed_probe_range_is_the_former_rule(self, doublings):
        # the range the sampler reads off the mixed probe's bump equals
        # ceil(xi_band) + 1, the fixed range its draws were keyed on, so the
        # shipped probe outputs keep their draws (probe-catalog runs N = 128)
        res = preset_resolution()
        for _ in range(doublings):
            res = res.doubled()
        grid, _ = res.make()
        assert sampler(_banded_bump(grid, res.xi_band), "gaussian").n_max == 5
        assert int(np.ceil(res.xi_band)) + 1 == 5


class TestLinearProbe:
    def test_ratio_independent_of_amplitude(self):
        grid, taxis = preset_resolution().make()
        phi = random_field(grid, 3.5, 0, master=0)
        big = Field(grid, 7.0 * phi.values)
        s, b = sigma_index(EPS), b_index(EPS)
        r1 = check_linear_estimates([phi], [0.25], s, b, taxis)
        r2 = check_linear_estimates([big], [0.25], s, b, taxis)
        assert r1.trials[0].ratio == pytest.approx(r2.trials[0].ratio, rel=1e-10)

    def test_T_variation_within_factor_two(self):
        grid, taxis = preset_resolution().make()
        phis = [random_field(grid, 3.5, k, master=0) for k in range(8)]
        s, b = sigma_index(EPS), b_index(EPS)
        maxima = []
        for T in (0.25, 0.125, 0.0625):
            rep = check_linear_estimates(phis, [T], s, b, taxis)
            maxima.append(rep.max_ratio)
        assert max(maxima) <= 2.0 * min(maxima)

    def test_b_range_validated(self):
        grid, taxis = preset_resolution().make()
        with pytest.raises(ValueError):
            check_linear_estimates([random_field(grid, 3.5, 0, master=0)], [0.25], 0.3, 0.5, taxis)


def _must_not_run(*args, **kwargs):
    raise AssertionError("drew past the probes' entry checks")


class TestCutoffBox:
    """A probe's time cutoff eta_T, supported on [-2T, 2T], must fit in the
    centred box: t_span >= 4T. The rule is checked for the selected ids
    before any draw."""

    @pytest.mark.parametrize(
        "ids, t_span, message",
        [
            (["linear_free"], 0.9, "linear_free: cutoff support [-2T, 2T] with T = 0.25 needs "
                                   "t_span >= 1, the box has 0.9"),
            (["embed12", "octilinear"], 2.0, "octilinear: cutoff support [-2T, 2T] with "
                                             "T = 1 needs t_span >= 4, the box has 2"),
            (["octilinear_mixed"], 3.5, "octilinear_mixed: cutoff support"),
        ],
    )
    def test_refused_before_any_draw(self, monkeypatch, ids, t_span, message):
        monkeypatch.setattr(probes, "rng_for", _must_not_run)
        resolution = replace(preset_resolution(), t_span=t_span)
        with pytest.raises(CutoffBoxError, match=message.replace("[", r"\[").replace("]", r"\]")):
            run_estimates(ids, EPS, resolution, 2, seed=0)
        with pytest.raises(CutoffBoxError):
            run_estimate(ids[-1], EPS, resolution, 2, seed=0)

    def test_boundary_and_probes_without_cutoffs(self, monkeypatch):
        # t_span = 4T exactly fits; bilinear_l2 and the embeddings take no cutoff
        reports = run_estimates(["linear_free", "bilinear_l2", "embed12"], EPS,
                                replace(preset_resolution(), t_span=1.0), 3, seed=0)
        assert all(reports[eid].trials for eid in reports)
        grid, taxis = replace(preset_resolution(), t_span=1.0).make()
        phi = random_field(grid, 3.5, 0, master=0)
        s, b = sigma_index(EPS), b_index(EPS)
        with pytest.raises(CutoffBoxError, match="T = 0.5 needs t_span >= 2"):
            check_linear_estimates([phi], [0.25, 0.5], s, b, taxis)


class TestMultilinearProbe:
    def test_zero_factors_give_zero_pairing(self):
        grid, taxis = preset_resolution().make()
        zero = SpaceTimeField(grid, taxis, np.zeros((taxis.n_samples, grid.n_modes), np.complex128))
        h = random_spacetime(grid, taxis, 3.5, 1, master=0)
        rep = check_multilinear([([zero] * 8, h)], sigma_index(EPS), b_index(EPS), EPS)
        assert rep.excluded == 1  # rhs is zero too: guarded

    def test_permutation_symmetry(self):
        grid, taxis = preset_resolution().make()
        factors = [random_spacetime(grid, taxis, 3.5, k, master=0) for k in range(8)]
        h = random_spacetime(grid, taxis, 3.5, 99, master=0)
        sigma, b = sigma_index(EPS), b_index(EPS)
        rep = check_multilinear([(factors, h), (factors[::-1], h)], sigma, b, EPS)
        assert rep.trials[0].lhs == pytest.approx(rep.trials[1].lhs, rel=1e-10)

    def test_real_factor_may_come_first(self):
        # free evolutions of real data hold float64 samples
        grid, taxis = preset_resolution().make()
        free = free_evolution(_banded_bump(grid, 3.5), taxis, cutoff=0.25)
        assert free.values.dtype == np.float64
        factors = [random_spacetime(grid, taxis, 3.5, k, master=0) for k in range(7)] + [free]
        h = random_spacetime(grid, taxis, 3.5, 99, master=0)
        sigma, b = sigma_index(EPS), b_index(EPS)
        rep = check_multilinear([(factors, h), (factors[::-1], h)], sigma, b, EPS)
        assert rep.trials[0].lhs == pytest.approx(rep.trials[1].lhs, rel=1e-10)

    def test_repeated_factor_normed_once(self, monkeypatch):
        grid, taxis = preset_resolution().make()
        u, v = (random_spacetime(grid, taxis, 3.5, k, master=0) for k in (0, 1))
        h = random_spacetime(grid, taxis, 3.5, 2, master=0)
        sigma, b = sigma_index(EPS), b_index(EPS)
        rhs_factors = 1.0
        for f in [v, u, u, u, u, u, v, u]:
            rhs_factors *= probes.xsb_norm(f, sigma, b)
        want = rhs_factors * probes.xsb_norm(h, 0.0, dual_b_index(EPS))
        calls = []
        counted = probes.xsb_norm

        def counting(f, *args):
            calls.append(f)
            return counted(f, *args)

        monkeypatch.setattr(probes, "xsb_norm", counting)
        rep = check_multilinear([([v, u, u, u, u, u, v, u], h)], sigma, b, EPS)
        assert len(calls) == 3  # u, v and h
        assert rep.trials[0].rhs == want

    def test_requires_eight_factors(self):
        grid, taxis = preset_resolution().make()
        u = random_spacetime(grid, taxis, 3.5, 0, master=0)
        with pytest.raises(ValueError):
            check_multilinear([([u] * 7, u)], 0.3, 0.5, EPS)


class TestBilinearProbe:
    def test_ratios_bounded_and_stable(self):
        res = preset_resolution()
        grid, taxis = res.make()
        pairs = [
            tuple(random_spacetime(grid, taxis, 3.5, j, master=0) for j in (2 * k, 2 * k + 1))
            for k in range(10)
        ]
        rep = check_bilinear(pairs, 0.5, 0.51, 0.4)
        assert np.all(np.isfinite(rep.ratios))
        assert rep.max_ratio > 0


class TestStreamingMemory:
    """Each trial's fields are drawn when the probe uses them and dropped
    before the next trial is drawn, so the peak does not grow with n_trials."""

    @staticmethod
    def _peak(eid, n_trials):
        tracemalloc.start()
        try:
            run_estimate(eid, eps=EPS, resolution=preset_resolution(), n_trials=n_trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("eid", probes.PROBE_IDS)
    def test_peak_independent_of_trial_count(self, eid):
        # fills the envelope and weight caches
        run_estimate(eid, eps=EPS, resolution=preset_resolution(), n_trials=3, seed=1)
        few, many = self._peak(eid, 3), self._peak(eid, 12)
        assert abs(many - few) <= 0.05 * few, (few, many)


class TestRefinementStability:
    @pytest.mark.parametrize("eid", ["embed01", "embed12", "embed14", "bilinear_l2"])
    def test_max_ratio_stable_under_doubling(self, eid):
        res = preset_resolution()
        base = run_estimate(eid, eps=EPS, resolution=res, n_trials=12, seed=3)
        fine = run_estimate(eid, eps=EPS, resolution=res.doubled(), n_trials=12, seed=3)
        assert fine.max_ratio <= 2.0 * base.max_ratio
        assert base.max_ratio <= 2.0 * fine.max_ratio

    def test_band_too_wide_rejected(self):
        res = replace(preset_resolution(), xi_band=6.0)
        with pytest.raises(ValueError):
            res.make()
