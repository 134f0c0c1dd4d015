"""Ensemble orchestration: sample randomizations, evaluate observables,
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

from .grid import Field, spectral_values
from .norms import mixed_norm
from .solver import PicardResult, picard_solve
from .spacetime import TimeAxis, free_evolution, midpoint_axis
from .streams import child_seed
from .wiener import randomizer, require_distribution, sample_coefficients

CONTRACTION_LINE = 0.5


@dataclass
class EnsembleRecord:
    """Scalar observables of one randomized sample."""

    index: int
    seed: int
    values: dict[str, float] = field(default_factory=dict)
    blown_up: bool = False


def auto_n_max(phi: Field, rel_tol: float = 1e-13) -> int:
    """Smallest coefficient range covering phi's numerically visible spectrum."""
    hat = np.abs(spectral_values(phi))
    peak = float(hat.max())
    if peak == 0.0:
        return 1
    radius = float(np.max(np.abs(phi.grid.xi[hat > rel_tol * peak])))
    return max(1, int(np.ceil(radius)) + 1)


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
    phi: Field,
    n_samples: int,
    observables: Mapping[str, Callable[[Field], float]] | Callable[[Field], Mapping[str, float]],
    seed: int,
    distribution: str = "gaussian",
    n_max: int | None = None,
    threads: int = 1,
) -> list[EnsembleRecord]:
    """Evaluate observables on n_samples independent randomizations of phi.

    `observables` is either a name->callable map (each returning a float) or
    a single callable returning a name->float map. Per-sample errors are
    recorded on the sample (blown_up) and never abort the ensemble. An
    unknown `distribution`, an `n_max` below 1 or one that does not cover
    phi's spectrum raises ValueError before any sample (see
    `wiener.require_distribution` and `wiener.randomizer`).

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
    require_distribution(distribution)
    if n_max is None:
        n_max = auto_n_max(phi)
    draw = randomizer(phi, n_max)

    def evaluate(index: int) -> EnsembleRecord:
        sample_seed = child_seed(seed, index)
        record = EnsembleRecord(index=index, seed=sample_seed)
        try:
            phi_omega = draw(sample_coefficients(distribution, sample_seed, n_max).values)
            if callable(observables):
                record.values = {k: float(v) for k, v in observables(phi_omega).items()}
            else:
                record.values = {k: float(fn(phi_omega)) for k, fn in observables.items()}
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

    def scale_interval(self, z: float = 1.96) -> tuple[float, float]:
        lo_slope = self.slope - z * self.slope_stderr
        hi_slope = min(self.slope + z * self.slope_stderr, -1e-300)
        return float(np.sqrt(-1.0 / lo_slope)), float(np.sqrt(-1.0 / hi_slope))


def make_lambda_grid(
    observations: np.ndarray, n_points: int = 12, lo_q: float = 0.9, hi_q: float = 0.995
) -> np.ndarray:
    """Evenly spaced thresholds between two quantiles of the observations."""
    lo = float(np.quantile(observations, lo_q))
    hi = float(np.quantile(observations, hi_q))
    if not hi > lo:
        raise ValueError("degenerate observations: quantile range is empty")
    return np.linspace(lo, hi, n_points)


def exceedance_fit_line(lambdas: np.ndarray, log_probs: np.ndarray) -> tuple[float, float, float, float]:
    """LS line of log_probs against lambdas^2: (slope, intercept, R^2, slope stderr)."""
    x = np.asarray(lambdas, dtype=np.float64) ** 2
    y = np.asarray(log_probs, dtype=np.float64)
    m = x.size
    if m < 2:
        raise ValueError("need at least two usable thresholds")
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate lambda grid")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = np.sqrt(ss_res / max(m - 2, 1) / sxx)
    return slope, intercept, r2, float(stderr)


def tail_fit(
    records: list[EnsembleRecord] | np.ndarray,
    observable: str | None,
    lambda_grid: np.ndarray,
) -> TailFit:
    """Fit log P(obs > lambda) against lambda^2 over the given thresholds.

    Requires at least 1e3 usable samples and a grid between the 50th and
    99.5th percentiles; thresholds nobody exceeds are dropped.
    """
    if observable is None:
        obs = np.asarray(records, dtype=np.float64)
    else:
        obs = np.asarray(
            [r.values[observable] for r in records if not r.blown_up], dtype=np.float64
        )
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
    slope, intercept, r2, stderr = exceedance_fit_line(lam[keep], np.log(probs[keep]))
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


def fit_scale_exponent(t_values, scales) -> float:
    """Exponent alpha in scale ~ T^alpha by least squares on the logs."""
    x = np.log(np.asarray(t_values, dtype=np.float64))
    y = np.log(np.asarray(scales, dtype=np.float64))
    xbar = x.mean()
    return float(np.sum((x - xbar) * (y - y.mean())) / np.sum((x - xbar) ** 2))


def scale_report_from_observations(
    q: float, r: float, obs_by_t: dict[float, np.ndarray]
) -> StrichartzReport:
    """Per-T tail scale (from the fitted tail slope) and the T-exponent."""
    t_values = sorted(obs_by_t)
    scales, los, his, used = [], [], [], []
    for t in t_values:
        fit = tail_fit(obs_by_t[t], None, make_lambda_grid(obs_by_t[t]))
        scales.append(fit.scale)
        lo, hi = fit.scale_interval()
        los.append(lo)
        his.append(hi)
        used.append(fit.n_samples)
    alpha = fit_scale_exponent(t_values, scales)
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
    phi: Field,
    q: float,
    r: float,
    t_grid: list[float],
    n_samples: int,
    seed: int = 0,
    distribution: str = "gaussian",
    n_time_samples: int = 64,
    n_max: int | None = None,
    threads: int = 1,
) -> StrichartzReport:
    """Tail lambda-scale of the free evolution's L^q_t L^r_x([0, T]) norm per
    T, regressed against T.

    The sub-Gaussian tail bound scales as exp(-c lambda^2 / T^{2/q}), so the
    fitted scale should grow like T^{1/q}. `threads` is `run_ensemble`'s
    worker-process count.
    """
    if len(t_grid) < 3:
        raise ValueError("need at least three T values")
    if np.isinf(q):
        raise ValueError("q must be finite")
    axes: dict[float, TimeAxis] = {float(t): midpoint_axis(t, n_time_samples) for t in t_grid}

    def observe(phi_omega: Field) -> dict[str, float]:
        out = {}
        for t, taxis in axes.items():
            z = free_evolution(phi_omega, taxis)
            out[f"T={t!r}"] = mixed_norm(z, q, r)
        return out

    records = run_ensemble(
        phi, n_samples, observe, seed, distribution=distribution, n_max=n_max, threads=threads
    )
    obs_by_t = {
        t: np.asarray([rec.values[f"T={t!r}"] for rec in records if not rec.blown_up])
        for t in axes
    }
    report = scale_report_from_observations(q, r, obs_by_t)
    report.records = records
    return report


# ---------------------------------------------------------------------------
# local solvability failure fraction


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial fraction."""
    if n == 0:
        return 0.0, 1.0
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
    phi: Field,
    t_grid: list[float],
    n_samples: int,
    tol: float,
    taxis: TimeAxis | None = None,
    xi_band: float = 8.0,
    eps: float = 0.05,
    max_iter: int = 25,
    seed: int = 0,
    distribution: str = "gaussian",
    n_max: int | None = None,
    threads: int = 1,
) -> LwpReport:
    """Failure fraction of the fixed-point construction per existence time T.

    T values must be passed in descending order; the trend statistic counts
    adjacent pairs where the fraction increases as T shrinks without the
    Wilson intervals overlapping. `threads` is `run_ensemble`'s
    worker-process count.
    """
    t_list = [float(t) for t in t_grid]
    if sorted(t_list, reverse=True) != t_list:
        raise ValueError("t_grid must be descending")
    if n_samples < 100:
        raise ValueError("need at least 100 samples per T")

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

        records = run_ensemble(
            phi,
            n_samples,
            observe,
            child_seed(seed, k),
            distribution=distribution,
            n_max=n_max,
            threads=threads,
        )
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
