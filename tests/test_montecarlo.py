import itertools
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from math import erfc
from pathlib import Path

import numpy as np
import pytest

from gkdvlab import montecarlo
from gkdvlab import wiener
from gkdvlab.grid import Field, Grid, apply_multiplier, field_from_function, make_grid
from gkdvlab.io import ensemble_table
from gkdvlab.montecarlo import (
    exceptional_probability,
    line_fit,
    make_lambda_grid,
    run_ensemble,
    scale_report_from_observations,
    strichartz_scaling,
    tail_fit,
    wilson_interval,
)
from gkdvlab.cli import build_data
from gkdvlab.config import load_config
from gkdvlab.norms import AliasingError, mixed_norm, sobolev_norm
from gkdvlab.spacetime import centered_axis, midpoint_axis
from gkdvlab.streams import child_seed
from gkdvlab.wiener import _band_stack, sample_coefficients, sampler

from conftest import banded_bump, l2_norm

ROOT = Path(__file__).resolve().parent.parent


class TestRunEnsemble:
    def test_deterministic_across_calls(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        obs = lambda f: {"hs": sobolev_norm(f, 0.2)}
        a = run_ensemble(sampler(phi, "gaussian"), 32, obs, seed=5)
        b = run_ensemble(sampler(phi, "gaussian"), 32, obs, seed=5)
        assert [x.index for x in a] == list(range(32))
        assert all(x.values == y.values and x.seed == y.seed for x, y in zip(a, b))

    def test_degenerate_ones_reproduces_norm(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        recs = run_ensemble(
            sampler(phi, "ones"), 1, lambda f: {"hs": sobolev_norm(f, 0.25)}, seed=1
        )
        assert recs[0].values["hs"] == pytest.approx(sobolev_norm(phi, 0.25), rel=1e-12)

    def test_failures_recorded_not_raised(self, grid64):
        phi = banded_bump(grid64, band=3.0)

        def broken(f):
            raise RuntimeError("observable exploded")

        recs = run_ensemble(sampler(phi, "gaussian"), 4, broken, seed=2)
        assert len(recs) == 4
        assert all(r.blown_up for r in recs)

    def test_callable_spec_returns_mapping(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        recs = run_ensemble(
            sampler(phi, "gaussian"), 3, lambda f: {"a": l2_norm(f), "b": 2.0 * l2_norm(f)}, seed=3
        )
        for r in recs:
            assert r.values["b"] == pytest.approx(2.0 * r.values["a"])

    def test_auto_n_max_covers_support(self, grid64):
        # the data reach |xi| = 2.95 < 3: the automatic range is n_max = 4
        phi = banded_bump(grid64, band=3.0)
        auto = sampler(phi, "gaussian")
        for seed in (0, 5):
            assert np.array_equal(auto(seed).values, sampler(phi, "gaussian", 4)(seed).values)
            assert not np.array_equal(auto(seed).values, sampler(phi, "gaussian", 5)(seed).values)
        # zero data take the least range
        zero = Field(grid64, np.zeros(64))
        assert np.array_equal(sampler(zero, "gaussian")(1).values, np.zeros(64))

    @pytest.mark.parametrize("n_max", [0, 1])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_uncovering_n_max_raises_before_any_sample(self, grid64, n_max, threads):
        # the data reach |xi| = 3: n_max = 1 does not cover them; the
        # sampler refuses before the ensemble starts
        phi = banded_bump(grid64, band=3.0)
        seen = []
        with pytest.raises(ValueError, match="n_max|coefficient range"):
            run_ensemble(
                sampler(phi, "gaussian", n_max), 4, seen.append, seed=2, threads=threads
            )
        assert seen == []

    def test_unknown_distribution_raises_before_any_sample(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        seen = []
        with pytest.raises(ValueError, match="unknown distribution 'cauchy'"):
            run_ensemble(sampler(phi, "cauchy"), 5, seen.append, seed=1)
        assert seen == []


def _former_tail_observations(phi, t_grid, n_samples, seed, n_time_samples=64):
    """q = r = 4 free-evolution norms by the former per-sample chain:
    the randomization through the samples (phi transformed forward, the
    product transformed back), the complex free evolution of the sample's
    samples on all N modes, and |z|^4 as abs(z)**4, on the range that covers
    every mode above 1e-13 times the peak."""
    grid = phi.grid
    amplitude = np.abs(grid.forward(phi.values))
    n_max = int(np.ceil(np.max(np.abs(grid.xi[amplitude > 1e-13 * amplitude.max()])))) + 1
    stack = _band_stack(grid, n_max)[0]
    tables = {t: np.exp(1j * np.outer(midpoint_axis(t, n_time_samples).t, grid.xi**3)) for t in t_grid}
    dt = {t: midpoint_axis(t, n_time_samples).dt for t in t_grid}
    out = {t: np.empty(n_samples) for t in t_grid}
    for k in range(n_samples):
        g = sample_coefficients("gaussian", child_seed(seed, k), n_max)
        sample = grid.inverse(grid.forward(phi.values) * (g @ stack))
        for t, table in tables.items():
            z = grid.inverse(table * grid.forward(sample)[None, :])
            inner = (grid.dx * np.sum(np.abs(z) ** 4, axis=1)) ** 0.25
            out[t][k] = (dt[t] * np.sum(np.abs(inner) ** 4)) ** 0.25
    return out


@pytest.mark.parametrize("seed", [20260810, 7])
def test_tail_path_matches_former_chain(seed):
    # the tail workload's data: a unit gaussian bump, N = 128 on [-16, 16)
    phi = field_from_function(make_grid(16.0, 128), lambda x: np.exp(-(x**2)))
    t_grid = [0.125, 0.25, 0.5]
    report = strichartz_scaling(sampler(phi, "gaussian"), 4.0, 4.0, t_grid, 1000, seed=seed)
    former = _former_tail_observations(phi, t_grid, 1000, seed)
    for t in t_grid:
        new = np.array([r.values[f"T={t!r}"] for r in report.records])
        assert np.max(np.abs(new - former[t]) / former[t]) <= 1e-13
        # identical exceedance counts, each on its own threshold grid
        fits = [tail_fit(obs, make_lambda_grid(obs)) for obs in (new, former[t])]
        assert np.array_equal(fits[0].probs, fits[1].probs)


def _must_not_solve(*args, **kwargs):
    raise AssertionError("picard_solve called")


def _record_tuples(records):
    return [(r.index, r.seed, r.values, r.blown_up) for r in records]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes need fork")
class TestWorkerProcesses:
    """`threads` > 1 runs the samples on forked worker processes; the records
    are those of the in-process loop, and no worker outlives the call."""

    @pytest.fixture(autouse=True)
    def _many_cpus(self, monkeypatch):
        # take the pooled branch even on a one-CPU host
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        yield
        assert multiprocessing.active_children() == []

    def test_lwp_records_equal_across_worker_counts(self, grid64):
        # the lwp preset's data: some samples fail at T = 1/4
        raw = field_from_function(grid64, lambda x: 1.8 * np.exp(-(x**2)))
        phi = apply_multiplier(raw, (np.abs(grid64.xi) <= 2.0).astype(float))
        reports = [
            exceptional_probability(
                sampler(phi, "rademacher"), [0.25, 0.03125], 100, tol=1e-10,
                taxis=centered_axis(4.0, 256), xi_band=4.0, seed=42, threads=threads,
            )
            for threads in (1, 2, 3)
        ]
        assert reports[0].rows[0].failures > 0
        for rep in reports[1:]:
            assert rep.rows == reports[0].rows
            for T, records in reports[0].records.items():
                assert _record_tuples(rep.records[T]) == _record_tuples(records)

    def test_tail_records_equal_across_worker_counts(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        reports = [
            strichartz_scaling(sampler(phi, "gaussian"), 4.0, 4.0, [0.125, 0.25, 0.5], 1000,
                               seed=3, n_time_samples=32, threads=threads)
            for threads in (1, 2, 3)
        ]
        for rep in reports[1:]:
            assert _record_tuples(rep.records) == _record_tuples(reports[0].records)
            assert rep.rows() == reports[0].rows() and rep.alpha == reports[0].alpha

    def test_workers_capped_at_usable_cpus(self, grid64, monkeypatch):
        phi = banded_bump(grid64, band=3.0)
        sample, obs = sampler(phi, "gaussian"), lambda f: {"pid": float(os.getpid())}
        pids = {r.values["pid"] for r in run_ensemble(sample, 24, obs, seed=5, threads=3)}
        assert 1 <= len(pids) <= 3 and float(os.getpid()) not in pids
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        pids = {r.values["pid"] for r in run_ensemble(sample, 24, obs, seed=5, threads=3)}
        assert pids == {float(os.getpid())}

    def test_observable_error_in_worker_is_recorded(self, grid64):
        phi = banded_bump(grid64, band=3.0)

        def broken(f):
            raise RuntimeError("observable exploded")

        recs = run_ensemble(sampler(phi, "gaussian"), 4, broken, seed=2, threads=2)
        assert [r.index for r in recs] == [0, 1, 2, 3]
        assert all(r.blown_up for r in recs)

    def test_dead_worker_raises(self, grid64):
        phi = banded_bump(grid64, band=3.0)

        def dies(f):
            os._exit(3)

        with pytest.raises(BrokenProcessPool):
            run_ensemble(sampler(phi, "gaussian"), 4, dies, seed=2, threads=2)


class TestTailFit:
    def test_synthetic_gaussian_recovers_oracle_slope(self):
        # oracle: least squares on the exact tail log erfc(lambda/sqrt(2))
        # over the same thresholds; the empirical fit must land within 10%
        rng = np.random.default_rng(0)
        obs = np.abs(rng.standard_normal(100_000))
        lam = make_lambda_grid(obs)
        oracle_slope, _, oracle_r2, _ = line_fit(
            lam**2, np.log([erfc(l / np.sqrt(2.0)) for l in lam])
        )
        fit = tail_fit(obs, lam)
        assert oracle_slope < 0
        assert abs(fit.slope - oracle_slope) <= 0.10 * abs(oracle_slope)
        assert fit.r_squared >= 0.9 and oracle_r2 >= 0.99

    def test_constant_observable_degenerate(self):
        obs = np.ones(2000)
        with pytest.raises(ValueError):
            tail_fit(obs, np.linspace(0.9, 1.1, 5))

    def test_grid_outside_sampled_range_rejected(self):
        rng = np.random.default_rng(1)
        obs = np.abs(rng.standard_normal(2000))
        with pytest.raises(ValueError):
            tail_fit(obs, np.linspace(0.01, 0.02, 5))

    def test_needs_thousand_samples(self):
        obs = np.abs(np.random.default_rng(2).standard_normal(500))
        with pytest.raises(ValueError):
            tail_fit(obs, np.linspace(1.0, 2.0, 5))

    def test_records_interface(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        recs = run_ensemble(
            sampler(phi, "gaussian"), 1200, lambda f: {"hs": sobolev_norm(f, 0.2)}, seed=9
        )
        obs = np.array([r.values["hs"] for r in recs if not r.blown_up])
        fit = tail_fit(obs, make_lambda_grid(obs))
        assert fit.slope < 0
        assert fit.n_samples == 1200


class TestWilson:
    def test_zero_failures_bound(self):
        lo, hi = wilson_interval(0, 200)
        assert lo == 0.0
        assert hi == pytest.approx(0.0188, abs=5e-4)

    def test_contains_fraction(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi


class TestScalePipeline:
    def test_exact_power_law_recovered(self):
        rng = np.random.default_rng(5)
        base = np.abs(rng.standard_normal(5000)) + 0.5
        obs = {t: t**0.25 * base for t in (0.125, 0.25, 0.5)}
        rep = scale_report_from_observations(4.0, 4.0, obs)
        assert rep.alpha == pytest.approx(0.25, rel=0.01)

    def test_doubling_data_doubles_scale(self):
        rng = np.random.default_rng(6)
        base = np.abs(rng.standard_normal(5000)) + 0.5
        obs = {t: t**0.25 * base for t in (0.125, 0.25, 0.5)}
        a = scale_report_from_observations(4.0, 4.0, obs)
        b = scale_report_from_observations(4.0, 4.0, {t: 2 * o for t, o in obs.items()})
        assert np.allclose(b.scales, 2.0 * np.array(a.scales), rtol=1e-9)

    def test_non_finite_sample_lowers_n_used_by_one(self, grid64, monkeypatch):
        phi = banded_bump(grid64, band=3.0)
        args = (sampler(phi, "gaussian"), 4.0, 4.0, [0.125, 0.25, 0.5], 1001)
        clean = strichartz_scaling(*args, seed=3, n_time_samples=16)
        calls = itertools.count()

        def spoiled(u, q, r):
            # the second sample's T = 0.25 norm is not finite
            return np.nan if next(calls) == 4 else mixed_norm(u, q, r)

        monkeypatch.setattr(montecarlo, "mixed_norm", spoiled)
        report = strichartz_scaling(*args, seed=3, n_time_samples=16)
        assert [r.index for r in report.records if r.blown_up] == [1]
        assert clean.n_used == [1001] * 3
        assert report.n_used == [1000] * 3
        assert [row[-1] for row in report.rows()] == report.n_used
        assert len(report.HEADER) == len(report.rows()[0])

    def test_fit_scale_exponent(self):
        t = [0.1, 0.2, 0.4]
        scales = [0.5 * ti**0.25 for ti in t]
        assert line_fit(np.log(t), np.log(scales))[0] == pytest.approx(0.25, rel=1e-12)

    def test_scale_exponent_is_the_former_fit_bit_for_bit(self):
        def former_fit_scale_exponent(t_values, scales):
            x = np.log(np.asarray(t_values, dtype=np.float64))
            y = np.log(np.asarray(scales, dtype=np.float64))
            xbar = x.mean()
            return float(np.sum((x - xbar) * (y - y.mean())) / np.sum((x - xbar) ** 2))

        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(3, 8))
            t = np.sort(rng.uniform(1e-3, 2.0, n))
            scales = rng.uniform(0.1, 10.0, n)
            assert line_fit(np.log(t), np.log(scales))[0] == former_fit_scale_exponent(t, scales)
        # and through the report, on three T values
        base = np.abs(rng.standard_normal(5000)) + 0.5
        rep = scale_report_from_observations(4.0, 4.0, {t: t**0.3 * base for t in (0.1, 0.2, 0.4)})
        assert rep.alpha == former_fit_scale_exponent(rep.t_values, rep.scales)

    def test_strichartz_run_small(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        rep = strichartz_scaling(sampler(phi, "gaussian"), 4.0, 4.0, [0.125, 0.25, 0.5], 1500,
                                 seed=3, n_time_samples=32)
        assert 0.7 * 0.25 <= rep.alpha <= 1.3 * 0.25

    def test_needs_three_T_values(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        with pytest.raises(ValueError):
            strichartz_scaling(sampler(phi, "gaussian"), 4.0, 4.0, [0.25, 0.5], 1500)

    @pytest.mark.parametrize("t_grid", [[0.125, 0.125, 0.125], [0.125, 0.125, 0.25]])
    def test_repeated_T_values_refused(self, grid64, t_grid):
        phi = banded_bump(grid64, band=3.0)
        with pytest.raises(ValueError, match="three distinct T values"):
            strichartz_scaling(sampler(phi, "gaussian"), 4.0, 4.0, t_grid, 1500)


class TestExceptionalProbability:
    def test_zero_data_all_converge(self, grid64):
        phi = field_from_function(grid64, lambda x: 0.0 * x)
        rep = exceptional_probability(
            sampler(phi, "gaussian", 3), [0.25, 0.125], 100, tol=1e-10,
            taxis=centered_axis(4.0, 256), xi_band=4.0, seed=1,
        )
        assert all(r.failures == 0 for r in rep.rows)
        assert rep.trend_ok

    def test_records_carry_discarded_band_mass(self, grid64):
        phi = banded_bump(grid64, amplitude=0.5, band=2.0)
        rep = exceptional_probability(
            sampler(phi, "gaussian", 3), [0.25], 100, tol=1e-10,
            taxis=centered_axis(4.0, 64), xi_band=2.0, seed=2,
        )
        header, rows = ensemble_table(rep.records[0.25], extra={"T": 0.25})
        col = np.array([row[header.index("discarded_band_mass")] for row in rows])
        assert np.all((col >= 0.0) & (col <= 1.0))
        assert np.any(col > 0.0)

    def test_requires_descending_grid(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        with pytest.raises(ValueError):
            exceptional_probability(sampler(phi, "gaussian"), [0.125, 0.25], 100, tol=1e-10,
                                    taxis=centered_axis(4.0, 256), xi_band=4.0)

    @pytest.mark.parametrize("t_grid", [[0.25, 0.25], [0.25, 0.125, 0.125]])
    def test_repeated_T_values_refused(self, grid64, monkeypatch, t_grid):
        phi = banded_bump(grid64, band=2.0)
        monkeypatch.setattr(montecarlo, "picard_solve", _must_not_solve)
        with pytest.raises(ValueError, match="strictly descending"):
            exceptional_probability(sampler(phi, "gaussian"), t_grid, 100, tol=1e-10,
                                    taxis=centered_axis(4.0, 256), xi_band=4.0)

    def test_requires_hundred_samples(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        with pytest.raises(ValueError):
            exceptional_probability(sampler(phi, "gaussian"), [0.25], 50, tol=1e-10,
                                    taxis=centered_axis(4.0, 256), xi_band=4.0)

    def test_unresolved_band_raises_before_any_solve(self, monkeypatch):
        # the lwp preset's sampler with a band the tau axis cannot resolve
        # (2 xi_k^3 for the band's highest mode exceeds tau_max ~ 201): every
        # solve would refuse it, so the call raises instead of booking each
        # sample as a solvability failure
        cfg = load_config(ROOT / "configs" / "lwp.ini")
        sample = sampler(build_data(cfg), cfg["random"]["distribution"])
        monkeypatch.setattr(montecarlo, "picard_solve", _must_not_solve)
        with pytest.raises(AliasingError):
            exceptional_probability(sample, [1 / 32], 100, tol=1e-10,
                                    taxis=centered_axis(4.0, 256), xi_band=8.0)

    def test_phi_transformed_and_checked_once_over_four_T(self, grid64, monkeypatch):
        # one sampler serves every T of the sweep
        phi = banded_bump(grid64, amplitude=0.5, band=2.0)
        transforms, checks = [], []
        forward, covered = Grid.forward, wiener._require_covered

        def counted_forward(grid, values):
            transforms.append(values is phi.values)
            return forward(grid, values)

        def counted_covered(*args):
            checks.append(args)
            return covered(*args)

        monkeypatch.setattr(Grid, "forward", counted_forward)
        monkeypatch.setattr(wiener, "_require_covered", counted_covered)
        rep = exceptional_probability(
            sampler(phi, "gaussian"), [0.25, 0.125, 0.0625, 0.03125], 100, tol=1e-10,
            taxis=centered_axis(4.0, 64), xi_band=2.0, seed=2,
        )
        assert [row.n for row in rep.rows] == [100] * 4
        assert transforms.count(True) == 1 and len(checks) == 1
