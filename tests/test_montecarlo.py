import dataclasses
import hashlib
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
from gkdvlab.grid import (
    Field,
    Grid,
    field_from_function,
    make_grid,
    spectral_values,
)
from gkdvlab.io import ensemble_table
from gkdvlab.montecarlo import (
    TailFitError,
    exceptional_probability,
    line_fit,
    picard_failed,
    run_ensemble,
    scale_report_from_observations,
    strichartz_scaling,
    tail_fit,
    wilson_interval,
)
from gkdvlab.cli import _band_limit, build_data
from gkdvlab.config import load_config, parse_float_list
from gkdvlab.norms import AliasingError, mixed_norm, sobolev_norm
from gkdvlab.solver import picard_solve
from gkdvlab.spacetime import TimeAxis, centered_axis, midpoint_axis
from gkdvlab.streams import child_seed
from gkdvlab.wiener import _band_stack, sample_coefficients, sampler

from conftest import EPS, MAX_ITER, N_TIME_SAMPLES, banded_bump, l2_norm

ROOT = Path(__file__).resolve().parent.parent


class TestRunEnsemble:
    def test_deterministic_across_calls(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        obs = lambda f: {"hs": sobolev_norm(f, 0.2)}
        a = run_ensemble(sampler(phi, "gaussian"), 32, obs, seed=5, threads=1)
        b = run_ensemble(sampler(phi, "gaussian"), 32, obs, seed=5, threads=1)
        assert [x.index for x in a] == list(range(32))
        assert all(x.values == y.values and x.seed == y.seed for x, y in zip(a, b))

    def test_degenerate_ones_reproduces_norm(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        recs = run_ensemble(
            sampler(phi, "ones"), 1, lambda f: {"hs": sobolev_norm(f, 0.25)}, seed=1, threads=1
        )
        assert recs[0].values["hs"] == pytest.approx(sobolev_norm(phi, 0.25), rel=1e-12)

    def test_failures_recorded_not_raised(self, grid64):
        phi = banded_bump(grid64, band=3.0)

        def broken(f):
            raise RuntimeError("observable exploded")

        recs = run_ensemble(sampler(phi, "gaussian"), 4, broken, seed=2, threads=1)
        assert len(recs) == 4
        assert all(r.blown_up for r in recs)

    def test_callable_spec_returns_mapping(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        recs = run_ensemble(
            sampler(phi, "gaussian"), 3, lambda f: {"a": l2_norm(f), "b": 2.0 * l2_norm(f)},
            seed=3, threads=1,
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
            run_ensemble(sampler(phi, "cauchy"), 5, seen.append, seed=1, threads=1)
        assert seen == []


def _former_tail_observations(phi, t_grid, n_samples, seed, n_time_samples):
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
    report = strichartz_scaling(sampler(phi, "gaussian"), 4.0, 4.0, t_grid, 1000, seed=seed,
                                n_time_samples=N_TIME_SAMPLES, threads=1)
    former = _former_tail_observations(phi, t_grid, 1000, seed, N_TIME_SAMPLES)
    for t in t_grid:
        new = np.array([r.values[f"T={t!r}"] for r in report.records])
        assert np.max(np.abs(new - former[t]) / former[t]) <= 1e-13
        # identical exceedance counts, each on its own threshold grid
        fits = [tail_fit(obs) for obs in (new, former[t])]
        assert np.array_equal(fits[0].probs, fits[1].probs)


def _must_not_solve(*args, **kwargs):
    raise AssertionError("picard_solve called")


@dataclasses.dataclass(frozen=True, eq=False)
class _CountingSampler(wiener.Sampler):
    """A sampler that records the seed of each coefficient draw."""

    draws: list = dataclasses.field(default_factory=list)

    def coefficients(self, seed: int) -> np.ndarray:
        self.draws.append(seed)
        return super().coefficients(seed)


def _lwp_preset_sampler() -> _CountingSampler:
    cfg = load_config(ROOT / "configs" / "lwp.ini")
    sample = sampler(build_data(cfg), cfg["random"]["distribution"])
    return _CountingSampler(**{f.name: getattr(sample, f.name) for f in dataclasses.fields(sample)})


class TestArgumentsCheckedBeforeAnyDraw:
    # inside the ensemble each of these would fail every sample, and the
    # failures would read as failures of local solvability (or of the tail)

    @pytest.mark.parametrize(
        "bad",
        [
            {"tol": 0.0},
            {"tol": -1e-10},
            {"max_iter": 0},
            {"eps": 0.5},
            {"taxis": TimeAxis(0.0, 4.0 / 256, 256)},
            {"t_grid": [0.25, 0.0]},
            {"t_grid": [0.25, -0.125]},
            {"t_grid": [np.inf, 0.25]},
            {"t_grid": [0.25, np.nan]},
            {"n_samples": 99},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_exceptional_probability(self, bad):
        sample = _lwp_preset_sampler()
        args = dict(t_grid=[0.25, 0.125], n_samples=100, tol=1e-10,
                    taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS, max_iter=MAX_ITER,
                    seed=0, threads=1)
        with pytest.raises(ValueError) as err:
            exceptional_probability(sample, **{**args, **bad})
        assert type(err.value) is ValueError
        assert sample.draws == []

    @pytest.mark.parametrize(
        "bad",
        [
            {"q": 0.5},
            {"q": np.inf},
            {"r": 0.5},
            {"t_grid": [0.125, 0.0, 0.5]},
            {"t_grid": [0.125, 0.25, np.inf]},
            {"n_time_samples": 0},
            {"n_samples": 999},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_strichartz_scaling(self, bad):
        sample = _lwp_preset_sampler()
        args = dict(q=4.0, r=4.0, t_grid=[0.125, 0.25, 0.5], n_samples=1000, seed=0,
                    n_time_samples=N_TIME_SAMPLES, threads=1)
        with pytest.raises(ValueError) as err:
            strichartz_scaling(sample, **{**args, **bad})
        assert type(err.value) is ValueError
        assert sample.draws == []

    def test_counting_sampler_counts(self):
        sample = _lwp_preset_sampler()
        exceptional_probability(sample, [0.03125], 100, tol=1e-10,
                                taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS,
                                max_iter=MAX_ITER, seed=0, threads=1)
        assert len(sample.draws) == 100


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
        phi = _band_limit(raw, 2.0)
        reports = [
            exceptional_probability(
                sampler(phi, "rademacher"), [0.25, 0.03125], 100, tol=1e-10,
                taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS, max_iter=MAX_ITER,
                seed=42, threads=threads,
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
        fit = tail_fit(obs)
        lam = fit.lambdas
        oracle_slope, _, oracle_r2, _ = line_fit(
            lam**2, np.log([erfc(l / np.sqrt(2.0)) for l in lam])
        )
        assert oracle_slope < 0
        assert abs(fit.slope - oracle_slope) <= 0.10 * abs(oracle_slope)
        assert fit.r_squared >= 0.9 and oracle_r2 >= 0.99

    def test_constant_observable_degenerate(self):
        obs = np.ones(2000)
        with pytest.raises(TailFitError, match="quantile range is empty"):
            tail_fit(obs)

    def test_needs_thousand_samples(self):
        obs = np.abs(np.random.default_rng(2).standard_normal(500))
        with pytest.raises(TailFitError, match="needs >= 1000 samples, got 500"):
            tail_fit(obs)

    def test_records_interface(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        recs = run_ensemble(
            sampler(phi, "gaussian"), 1200, lambda f: {"hs": sobolev_norm(f, 0.2)}, seed=9,
            threads=1,
        )
        obs = np.array([r.values["hs"] for r in recs if not r.blown_up])
        fit = tail_fit(obs)
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
        clean = strichartz_scaling(*args, seed=3, n_time_samples=16, threads=1)
        calls = itertools.count()

        def spoiled(u, q, r):
            # the second sample's T = 0.25 norm is not finite
            return np.nan if next(calls) == 4 else mixed_norm(u, q, r)

        monkeypatch.setattr(montecarlo, "mixed_norm", spoiled)
        report = strichartz_scaling(*args, seed=3, n_time_samples=16, threads=1)
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
                                 seed=3, n_time_samples=32, threads=1)
        assert 0.7 * 0.25 <= rep.alpha <= 1.3 * 0.25

    def test_needs_three_T_values(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        with pytest.raises(ValueError):
            strichartz_scaling(sampler(phi, "gaussian"), 4.0, 4.0, [0.25, 0.5], 1500, seed=0,
                               n_time_samples=N_TIME_SAMPLES, threads=1)

    @pytest.mark.parametrize("t_grid", [[0.125, 0.125, 0.125], [0.125, 0.125, 0.25]])
    def test_repeated_T_values_refused(self, grid64, t_grid):
        phi = banded_bump(grid64, band=3.0)
        with pytest.raises(ValueError, match="three distinct T values"):
            strichartz_scaling(sampler(phi, "gaussian"), 4.0, 4.0, t_grid, 1500, seed=0,
                               n_time_samples=N_TIME_SAMPLES, threads=1)


class TestExceptionalProbability:
    def test_zero_data_all_converge(self, grid64):
        phi = field_from_function(grid64, lambda x: 0.0 * x)
        rep = exceptional_probability(
            sampler(phi, "gaussian", 3), [0.25, 0.125], 100, tol=1e-10,
            taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS, max_iter=MAX_ITER,
            seed=1, threads=1,
        )
        assert all(r.failures == 0 for r in rep.rows)
        assert rep.trend_ok

    def test_records_carry_discarded_band_mass(self, grid64):
        phi = banded_bump(grid64, amplitude=0.5, band=2.0)
        rep = exceptional_probability(
            sampler(phi, "gaussian", 3), [0.25], 100, tol=1e-10,
            taxis=centered_axis(4.0, 64), xi_band=2.0, eps=EPS, max_iter=MAX_ITER,
            seed=2, threads=1,
        )
        header, rows = ensemble_table(rep.records[0.25], extra={"T": 0.25})
        col = np.array([row[header.index("discarded_band_mass")] for row in rows])
        assert np.all((col >= 0.0) & (col <= 1.0))
        assert np.any(col > 0.0)

    def test_requires_descending_grid(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        with pytest.raises(ValueError):
            exceptional_probability(sampler(phi, "gaussian"), [0.125, 0.25], 100, tol=1e-10,
                                    taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS,
                                    max_iter=MAX_ITER, seed=0, threads=1)

    @pytest.mark.parametrize("t_grid", [[0.25, 0.25], [0.25, 0.125, 0.125]])
    def test_repeated_T_values_refused(self, grid64, monkeypatch, t_grid):
        phi = banded_bump(grid64, band=2.0)
        monkeypatch.setattr(montecarlo, "picard_solve", _must_not_solve)
        with pytest.raises(ValueError, match="strictly descending"):
            exceptional_probability(sampler(phi, "gaussian"), t_grid, 100, tol=1e-10,
                                    taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS,
                                    max_iter=MAX_ITER, seed=0, threads=1)

    def test_requires_hundred_samples(self, grid64):
        phi = banded_bump(grid64, band=2.0)
        with pytest.raises(ValueError):
            exceptional_probability(sampler(phi, "gaussian"), [0.25], 50, tol=1e-10,
                                    taxis=centered_axis(4.0, 256), xi_band=4.0, eps=EPS,
                                    max_iter=MAX_ITER, seed=0, threads=1)

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
                                    taxis=centered_axis(4.0, 256), xi_band=8.0, eps=EPS,
                                    max_iter=MAX_ITER, seed=0, threads=1)

    def test_phi_transformed_and_checked_once_over_four_T(self, grid64, monkeypatch):
        # one sampler serves every T of the sweep; the data are given as
        # samples, so that they have a transform to count
        phi = Field(grid64, banded_bump(grid64, amplitude=0.5, band=2.0).values)
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
            taxis=centered_axis(4.0, 64), xi_band=2.0, eps=EPS, max_iter=MAX_ITER,
            seed=2, threads=1,
        )
        assert [row.n for row in rep.rows] == [100] * 4
        assert transforms.count(True) == 1 and len(checks) == 1


# ---------------------------------------------------------------------------
# each distinct draw evaluated once


def _former_run_ensemble(sample, n_samples, observables, seed):
    """The former `run_ensemble`: every index drawn and evaluated on its own."""
    records = []
    for index in range(n_samples):
        sample_seed = child_seed(seed, index)
        record = montecarlo.EnsembleRecord(index=index, seed=sample_seed)
        try:
            phi_omega = sample(sample_seed)
            record.values = {k: float(v) for k, v in observables(phi_omega).items()}
            if not all(np.isfinite(v) for v in record.values.values()):
                record.blown_up = True
        except Exception:
            record.blown_up = True
        records.append(record)
    return records


def _picard_observables(cfg, T):
    """`exceptional_probability`'s observables of one T at the config's values."""
    lwp = cfg["lwp"]

    def observe(phi_omega):
        result = picard_solve(
            phi_omega, T, lwp["tol"], max_iter=lwp["max_iter"],
            taxis=centered_axis(cfg["time"]["t_span"], cfg["time"]["m_t"]),
            xi_band=lwp["xi_band"], eps=cfg["model"]["epsilon"],
        )
        return {
            "picard_converged": float(result.converged),
            "picard_failed": float(picard_failed(result)),
            "iterations": float(result.iterations),
            "max_ratio": float(max(result.ratios)) if result.ratios else 0.0,
            "final_distance": result.distances[-1] if result.distances else 0.0,
            "discarded_band_mass": result.discarded_band_mass,
        }

    return observe


def _lwp_picard(seed):
    """The lwp-picard benchmark workload: the lwp preset at 100 samples per T."""
    cfg = load_config(
        ROOT / "configs" / "lwp.ini", {"lwp.n_samples": 100, "random.master_seed": seed}
    )
    return cfg, sampler(build_data(cfg), cfg["random"]["distribution"])


def _exceptional_probability(cfg, sample, threads):
    lwp = cfg["lwp"]
    return exceptional_probability(
        sample, parse_float_list(lwp["t_grid"]), lwp["n_samples"], lwp["tol"],
        taxis=centered_axis(cfg["time"]["t_span"], cfg["time"]["m_t"]), xi_band=lwp["xi_band"],
        eps=cfg["model"]["epsilon"], max_iter=lwp["max_iter"], seed=cfg["random"]["master_seed"],
        threads=threads,
    )


def _distinct_spectra(sample, n_samples, seed):
    """The distinct spectra among n_samples, compared by value: adding 0.0
    turns -0.0 into +0.0 (a zero mode of the data takes its sign from g)."""
    return len(
        {(spectral_values(sample(child_seed(seed, k))) + 0.0).tobytes() for k in range(n_samples)}
    )


def _distinct_coefficients(sample, n_samples, seed, windows=slice(None)):
    """The distinct draws of g among n_samples, compared on `windows`."""
    return len(
        {sample.coefficients(child_seed(seed, k))[windows].tobytes() for k in range(n_samples)}
    )


def _live_windows(sample):
    """The windows psi(xi - n) that reach a nonzero mode of the data."""
    return np.flatnonzero(np.any(sample.stack[:, sample.hat != 0.0] > 0.0, axis=1))


@pytest.fixture(scope="module", params=[42, 7])
def lwp_oracle(request):
    """The lwp-picard workload at one seed, and its records per T by the
    former per-index loop."""
    cfg, sample = _lwp_picard(request.param)
    t_list = parse_float_list(cfg["lwp"]["t_grid"])
    former = {
        T: _former_run_ensemble(sample, cfg["lwp"]["n_samples"], _picard_observables(cfg, T),
                                child_seed(cfg["random"]["master_seed"], k))
        for k, T in enumerate(t_list)
    }
    return cfg, sample, former


class TestDistinctDraws:
    """An ensemble evaluates each distinct draw once; its records are those
    of the former per-index loop, at every worker count."""

    @pytest.fixture(autouse=True)
    def _many_cpus(self, monkeypatch):
        # take the pooled branch even on a one-CPU host
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lwp_records_equal_former_loop(self, lwp_oracle, threads):
        cfg, sample, former = lwp_oracle
        report = _exceptional_probability(cfg, sample, threads)
        assert list(report.records) == list(former)
        for T, records in former.items():
            assert _record_tuples(report.records[T]) == _record_tuples(records)
            failures = sum(1 for r in records if r.blown_up or r.values["picard_failed"] > 0.5)
            assert next(row for row in report.rows if row.T == T).failures == failures
        T = next(iter(former))
        master = cfg["random"]["master_seed"]
        direct = run_ensemble(sample, cfg["lwp"]["n_samples"], _picard_observables(cfg, T),
                              child_seed(master, 0), threads=threads)
        assert _record_tuples(direct) == _record_tuples(former[T])
        # the preset's rademacher draws repeat: fewer distinct spectra than samples
        assert _distinct_spectra(sample, 100, child_seed(master, 0)) < 100

    @pytest.mark.parametrize("distribution", ["ones", "rademacher", "gaussian"])
    def test_observable_called_once_per_distinct_spectrum(self, grid64, distribution):
        phi = banded_bump(grid64, band=2.0)
        sample = sampler(phi, distribution)
        calls = []

        def counted(f):
            calls.append(1)
            return {"l2": l2_norm(f)}

        records = run_ensemble(sample, 60, counted, seed=4, threads=1)
        # once per distinct g: the draws whose g differ only on the outermost
        # windows, which miss the band-limited spectrum, share a spectrum
        # but are evaluated apart (see the lwp-picard test below)
        expected = {"ones": 1, "rademacher": _distinct_coefficients(sample, 60, 4), "gaussian": 60}
        assert len(calls) == expected[distribution]
        if distribution == "rademacher":
            assert 1 < len(calls) < 60
        assert _record_tuples(records) == _record_tuples(
            _former_run_ensemble(sample, 60, counted, 4)
        )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("distribution", ["rademacher", "gaussian"])
    def test_draws_keyed_by_coefficient_bytes(self, monkeypatch, distribution, threads):
        # seeds 0 and 1 share a g; seed 2 gets that g with g_0 one ulp larger
        cfg, _ = _lwp_picard(42)
        sample = sampler(build_data(cfg), distribution)
        draw = wiener.sample_coefficients
        shared = draw(distribution, child_seed(3, 0), sample.n_max)
        moved = shared.copy()
        moved[sample.n_max] = np.nextafter(shared[sample.n_max].real, np.inf)
        assert moved.tobytes() != shared.tobytes()
        given = {child_seed(3, 1): shared, child_seed(3, 2): moved}
        monkeypatch.setattr(
            wiener, "sample_coefficients",
            lambda dist, seed, n_max: given.get(seed, draw(dist, seed, n_max)),
        )
        keys = {sample.coefficients(child_seed(3, k)).tobytes() for k in range(50)}
        calls = multiprocessing.get_context("fork").Value("i", 0)

        def fingerprint(f):
            with calls.get_lock():
                calls.value += 1
            # 48 bits of a hash of the spectrum bytes, exact as a float
            digest = hashlib.sha256(spectral_values(f).tobytes()).digest()
            return {"id": float(int.from_bytes(digest[:6], "big"))}

        records = run_ensemble(sample, 50, fingerprint, seed=3, threads=threads)
        assert calls.value == len(keys)
        former = _former_run_ensemble(sample, 50, fingerprint, 3)
        assert _record_tuples(records) == _record_tuples(former)
        assert records[1].values == records[0].values != records[2].values

    def test_parent_builds_no_field_on_the_pool(self, grid64, monkeypatch):
        # threads > 1: the parent draws coefficients only; workers build fields
        parent, built = os.getpid(), []
        field = wiener.Sampler.field

        def counted(self, g):
            if os.getpid() == parent:
                built.append(g)
            return field(self, g)

        monkeypatch.setattr(wiener.Sampler, "field", counted)
        sample = sampler(banded_bump(grid64, amplitude=0.5, band=2.0), "rademacher")
        run = lambda threads: exceptional_probability(
            sample, [0.25, 0.125], 100, tol=1e-10, taxis=centered_axis(4.0, 64), xi_band=2.0,
            eps=EPS, max_iter=MAX_ITER, seed=2, threads=threads,
        )
        pooled = run(2)
        assert built == []
        here = run(1)
        distinct = sum(_distinct_coefficients(sample, 100, child_seed(2, k)) for k in range(2))
        assert len(built) == distinct < 200
        for T, records in here.records.items():
            assert _record_tuples(pooled.records[T]) == _record_tuples(records)

    @pytest.mark.parametrize("seed, solves", [(42, 266), (7, 275)])
    def test_distinct_coefficients_are_distinct_spectra(self, seed, solves):
        # on the lwp-picard workload config, per T. Its data keep their
        # band-limited spectrum, whose exact zeros the windows |n| = n_max
        # never reach: g distinct on the other windows are distinct spectra,
        # and draws that differ only on those two share a spectrum, yet are
        # keyed, and solved, apart
        cfg, sample = _lwp_picard(seed)
        live = _live_windows(sample)
        assert np.array_equal(live, np.arange(1, 2 * sample.n_max))
        counts = []
        for k in range(len(parse_float_list(cfg["lwp"]["t_grid"]))):
            ensemble_seed = child_seed(seed, k)
            counts.append(_distinct_coefficients(sample, 100, ensemble_seed))
            spectra = _distinct_spectra(sample, 100, ensemble_seed)
            assert _distinct_coefficients(sample, 100, ensemble_seed, live) == spectra
            assert spectra < counts[-1]
        assert sum(counts) == solves

    def test_one_pool_serves_every_T(self, grid64, monkeypatch):
        import concurrent.futures

        built = []
        executor = concurrent.futures.ProcessPoolExecutor

        class Counted(executor):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        phi = banded_bump(grid64, amplitude=0.5, band=2.0)
        rep = exceptional_probability(
            sampler(phi, "gaussian"), [0.25, 0.125, 0.0625, 0.03125], 100, tol=1e-10,
            taxis=centered_axis(4.0, 64), xi_band=2.0, eps=EPS, max_iter=MAX_ITER,
            seed=2, threads=2,
        )
        assert [row.n for row in rep.rows] == [100] * 4
        assert len(built) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_draw_error_raises(self, grid64, monkeypatch, threads):
        sample = sampler(banded_bump(grid64, band=3.0), "gaussian")
        draw, bad = wiener.sample_coefficients, child_seed(5, 3)

        def failing(distribution, seed, n_max):
            if seed == bad:
                raise RuntimeError("draw failed")
            return draw(distribution, seed, n_max)

        monkeypatch.setattr(wiener, "sample_coefficients", failing)
        with pytest.raises(RuntimeError, match="draw failed"):
            run_ensemble(sample, 8, lambda f: {"l2": l2_norm(f)}, seed=5, threads=threads)
