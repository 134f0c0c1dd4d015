"""Ensemble orchestration: evaluate observables on randomized samples,
fit sub-Gaussian tails, and track the local-solvability failure fraction.

Determinism contract: the full output is a pure function of the data, the
configuration and the master seed. Per-sample streams are derived by a
splittable hash of (master seed, sample index), so neither the number of
worker processes nor execution order can change any number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .grid import Field
from .norms import mixed_norm
from .solver import PicardResult, _picard_band, picard_solve
from .spacetime import TimeAxis, free_evolution, midpoint_axis
from .streams import child_seed

CONTRACTION_LINE = 0.5
# two-sided 95% normal quantile of the Wilson and tail-scale intervals
Z_95 = 1.96
# the tail fit's thresholds: evenly spaced between these two quantiles
LAMBDA_POINTS = 12
LAMBDA_QUANTILES = (0.9, 0.995)


@dataclass
class EnsembleRecord:
    """Scalar observables of one randomized sample."""

    index: int
    seed: int
    values: dict[str, float] = field(default_factory=dict)
    blown_up: bool = False


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The `evaluate` of the ensemble a forked worker serves. The pool's
# initializer sets it in each worker; the parent process never does.
_worker_evaluate: Callable[[int], EnsembleRecord] | None = None


def _install_evaluate(evaluate: Callable[[int], EnsembleRecord]) -> None:
    global _worker_evaluate
    _worker_evaluate = evaluate


def _evaluate_in_worker(index: int) -> EnsembleRecord:
    return _worker_evaluate(index)


def run_ensemble(
    sample: Callable[[int], Field],
    n_samples: int,
    observables: Callable[[Field], Mapping[str, float]],
    seed: int,
    threads: int = 1,
) -> list[EnsembleRecord]:
    """Evaluate observables on the fields `sample(child_seed(seed, k))`,
    k < n_samples: independent randomizations when `sample` is a
    `wiener.sampler`, which checks its data once, when it is built.

    `observables` maps a field to its name->float observables. Per-sample
    errors are recorded on the sample (blown_up) and never abort the
    ensemble.

    `threads` is the number of worker processes, capped at the usable CPUs
    and at n_samples. More than one runs the samples on a pool of workers
    forked from this process (so observables may be closures), in fixed
    chunks of sample indices, and returns the records in index order; the
    records are the same for every count. A worker that dies raises
    `BrokenProcessPool`. Where fork is unavailable the samples run here.
    Fork copies only the calling thread, so a caller that runs other
    threads should pass threads=1.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    def evaluate(index: int) -> EnsembleRecord:
        sample_seed = child_seed(seed, index)
        record = EnsembleRecord(index=index, seed=sample_seed)
        try:
            phi_omega = sample(sample_seed)
            record.values = {k: float(v) for k, v in observables(phi_omega).items()}
            if not all(np.isfinite(v) for v in record.values.values()):
                record.blown_up = True
        except Exception:
            record.blown_up = True
        return record

    workers = min(threads, _usable_cpus(), n_samples) if hasattr(os, "fork") else 1
    if workers <= 1:
        return list(map(evaluate, range(n_samples)))
    # imported here: an ensemble run in this process never pays for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork hands each worker `evaluate` (a closure) without pickling it
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_evaluate,
        initargs=(evaluate,),
    ) as pool:
        chunk = max(1, n_samples // (8 * workers))
        return list(pool.map(_evaluate_in_worker, range(n_samples), chunksize=chunk))


# ---------------------------------------------------------------------------
# tail fitting


@dataclass
class TailFit:
    """Least-squares line of log exceedance probability against lambda^2."""

    lambdas: np.ndarray
    probs: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    n_samples: int

    @property
    def scale(self) -> float:
        """The lambda scale sqrt(-1/slope) of the fitted sub-Gaussian tail."""
        if not self.slope < 0:
            raise ValueError("tail fit has nonnegative slope; no scale defined")
        return float(np.sqrt(-1.0 / self.slope))

    def scale_interval(self) -> tuple[float, float]:
        lo_slope = self.slope - Z_95 * self.slope_stderr
        hi_slope = min(self.slope + Z_95 * self.slope_stderr, -1e-300)
        return float(np.sqrt(-1.0 / lo_slope)), float(np.sqrt(-1.0 / hi_slope))


def make_lambda_grid(observations: np.ndarray) -> np.ndarray:
    """LAMBDA_POINTS evenly spaced thresholds between the LAMBDA_QUANTILES
    of the observations."""
    lo, hi = (float(np.quantile(observations, q)) for q in LAMBDA_QUANTILES)
    if not hi > lo:
        raise ValueError("degenerate observations: quantile range is empty")
    return np.linspace(lo, hi, LAMBDA_POINTS)


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """LS line of y against x: (slope, intercept, R^2, slope stderr)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = x.size
    if m < 2:
        raise ValueError("need at least two points")
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x values equal")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = np.sqrt(ss_res / max(m - 2, 1) / sxx)
    return slope, intercept, r2, float(stderr)


def tail_fit(observations: np.ndarray, lambda_grid: np.ndarray) -> TailFit:
    """Fit log P(obs > lambda) against lambda^2 over the given thresholds.

    Requires at least 1e3 observations and a grid between the 50th and
    99.5th percentiles; thresholds nobody exceeds are dropped.
    """
    obs = np.asarray(observations, dtype=np.float64)
    if obs.size < 1000:
        raise ValueError(f"tail fit needs >= 1000 samples, got {obs.size}")
    lam = np.asarray(lambda_grid, dtype=np.float64)
    q50, q995 = np.quantile(obs, [0.5, 0.995])
    pad = 1e-9 * max(1.0, abs(q995))
    if lam.min() < q50 - pad or lam.max() > q995 + pad:
        raise ValueError(
            f"lambda grid [{lam.min():.4g}, {lam.max():.4g}] outside the sampled "
            f"range [{q50:.4g}, {q995:.4g}] (50th..99.5th percentile)"
        )
    probs = np.array([float(np.mean(obs > l)) for l in lam])
    keep = probs > 0.0
    if np.unique(probs[keep]).size < 2:
        raise ValueError("degenerate tail: all exceedance probabilities equal")
    slope, intercept, r2, stderr = line_fit(lam[keep] ** 2, np.log(probs[keep]))
    return TailFit(
        lambdas=lam,
        probs=probs,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        slope_stderr=stderr,
        n_samples=int(obs.size),
    )


# ---------------------------------------------------------------------------
# free-evolution mixed-norm tail scaling


@dataclass
class StrichartzReport:
    """Per-T tail scales with their intervals and `n_used`, the number of
    samples that entered each T's tail fit (blown-up samples do not)."""

    q: float
    r: float
    t_values: list[float]
    scales: list[float]
    scale_lo: list[float]
    scale_hi: list[float]
    n_used: list[int]
    alpha: float
    predicted_alpha: float
    records: list[EnsembleRecord] = field(default_factory=list)

    HEADER = ("T", "scale", "ci_lo", "ci_hi", "n_used")

    def rows(self) -> list[tuple]:
        """One row per T, the columns of HEADER."""
        return list(
            zip(self.t_values, self.scales, self.scale_lo, self.scale_hi, self.n_used)
        )


def scale_report_from_observations(
    q: float, r: float, obs_by_t: dict[float, np.ndarray]
) -> StrichartzReport:
    """Per-T tail scale (from the fitted tail slope) and the T-exponent
    alpha in scale ~ T^alpha, the least-squares slope on the logs."""
    t_values = sorted(obs_by_t)
    scales, los, his, used = [], [], [], []
    for t in t_values:
        fit = tail_fit(obs_by_t[t], make_lambda_grid(obs_by_t[t]))
        scales.append(fit.scale)
        lo, hi = fit.scale_interval()
        los.append(lo)
        his.append(hi)
        used.append(fit.n_samples)
    alpha = line_fit(np.log(t_values), np.log(scales))[0]
    return StrichartzReport(
        q=q,
        r=r,
        t_values=[float(t) for t in t_values],
        scales=scales,
        scale_lo=los,
        scale_hi=his,
        n_used=used,
        alpha=alpha,
        predicted_alpha=1.0 / q,
    )


def strichartz_scaling(
    sample: Callable[[int], Field],
    q: float,
    r: float,
    t_grid: list[float],
    n_samples: int,
    seed: int = 0,
    n_time_samples: int = 64,
    threads: int = 1,
) -> StrichartzReport:
    """Tail lambda-scale of the free evolution's L^q_t L^r_x([0, T]) norm per
    T over the randomized fields `sample` draws, regressed against T.

    The sub-Gaussian tail bound scales as exp(-c lambda^2 / T^{2/q}), so the
    fitted scale should grow like T^{1/q}. `threads` is `run_ensemble`'s
    worker-process count.
    """
    if len({float(t) for t in t_grid}) < 3:
        raise ValueError("need at least three distinct T values")
    if np.isinf(q):
        raise ValueError("q must be finite")
    axes: dict[float, TimeAxis] = {float(t): midpoint_axis(t, n_time_samples) for t in t_grid}

    def observe(phi_omega: Field) -> dict[str, float]:
        out = {}
        for t, taxis in axes.items():
            z = free_evolution(phi_omega, taxis)
            out[f"T={t!r}"] = mixed_norm(z, q, r)
        return out

    records = run_ensemble(sample, n_samples, observe, seed, threads=threads)
    obs_by_t = {
        t: np.asarray([rec.values[f"T={t!r}"] for rec in records if not rec.blown_up])
        for t in axes
    }
    report = scale_report_from_observations(q, r, obs_by_t)
    report.records = records
    return report


# ---------------------------------------------------------------------------
# local solvability failure fraction


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval (at Z_95) for a binomial fraction."""
    if n == 0:
        return 0.0, 1.0
    z = Z_95
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def picard_failed(result: PicardResult) -> bool:
    """Operational exceptional-set membership: the iteration blew up, did not
    reach the tolerance, or never settled into a contraction below ratio 1/2
    (the last observed ratio is the estimate of the settled contraction)."""
    if result.blown_up or not result.converged:
        return True
    return result.final_ratio is not None and result.final_ratio >= CONTRACTION_LINE


@dataclass
class LwpRow:
    T: float
    n: int
    failures: int
    fraction: float
    wilson_lo: float
    wilson_hi: float


@dataclass
class LwpReport:
    rows: list[LwpRow]
    trend_violations: int
    records: dict[float, list[EnsembleRecord]] = field(default_factory=dict)

    @property
    def trend_ok(self) -> bool:
        return self.trend_violations == 0


def exceptional_probability(
    sample: Callable[[int], Field],
    t_grid: list[float],
    n_samples: int,
    tol: float,
    taxis: TimeAxis,
    xi_band: float,
    eps: float = 0.05,
    max_iter: int = 25,
    seed: int = 0,
    threads: int = 1,
) -> LwpReport:
    """Failure fraction of the fixed-point construction per existence time T,
    over the randomized fields `sample` draws.

    T values must be passed in strictly descending order; the trend
    statistic counts adjacent pairs where the fraction increases as T
    shrinks without the Wilson intervals overlapping. The band is checked
    once, on one draw's grid, before the first ensemble (`_picard_band`:
    AliasingError where every solve would refuse it). `threads` is
    `run_ensemble`'s worker-process count.
    """
    t_list = [float(t) for t in t_grid]
    if sorted(set(t_list), reverse=True) != t_list:
        raise ValueError("t_grid must be strictly descending")
    if n_samples < 100:
        raise ValueError("need at least 100 samples per T")
    _picard_band(sample(seed).grid, taxis, xi_band)

    rows: list[LwpRow] = []
    records_by_t: dict[float, list[EnsembleRecord]] = {}
    for k, T in enumerate(t_list):

        def observe(phi_omega: Field, T=T) -> dict[str, float]:
            result = picard_solve(
                phi_omega, T, tol, max_iter=max_iter, taxis=taxis, xi_band=xi_band, eps=eps
            )
            return {
                "picard_converged": float(result.converged),
                "picard_failed": float(picard_failed(result)),
                "iterations": float(result.iterations),
                "max_ratio": float(max(result.ratios)) if result.ratios else 0.0,
                "final_distance": result.distances[-1] if result.distances else 0.0,
                "discarded_band_mass": result.discarded_band_mass,
            }

        records = run_ensemble(sample, n_samples, observe, child_seed(seed, k), threads=threads)
        records_by_t[T] = records
        failures = sum(
            1 for r in records if r.blown_up or r.values.get("picard_failed", 1.0) > 0.5
        )
        lo, hi = wilson_interval(failures, n_samples)
        rows.append(
            LwpRow(
                T=T,
                n=n_samples,
                failures=failures,
                fraction=failures / n_samples,
                wilson_lo=lo,
                wilson_hi=hi,
            )
        )

    violations = 0
    for prev, cur in zip(rows, rows[1:]):
        if cur.fraction > prev.fraction and cur.wilson_lo > prev.wilson_hi:
            violations += 1
    return LwpReport(rows=rows, trend_violations=violations, records=records_by_t)
