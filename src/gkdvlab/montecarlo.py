"""Ensemble orchestration: evaluate observables on randomized samples,
fit sub-Gaussian tails, and track the local-solvability failure fraction.

Determinism contract: the full output is a pure function of the data, the
configuration and the master seed. Per-sample streams are derived by a
splittable hash of (master seed, sample index), numpy's SeedSequence, so
neither the number of worker processes nor execution order can change any
number. An ensemble derives the seeds and the generators of all its
samples in one vectorized pass (`streams.child_seeds`,
`Sampler.draws`), with the bytes of the per-sample derivation. Observables
must be pure functions of their field: an ensemble evaluates each distinct
draw once and copies its record to the repeats. Draws are told apart by
`Sampler.key`, the bytes of their coefficients on the windows that reach
the data, so draws that differ only where the data's spectrum is zero are
one draw.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from .grid import Field
from .norms import _require_exponents, mixed_norm
from .solver import PicardResult, _picard_arguments, _picard_band, picard_solve
from .spacetime import TimeAxis, free_evolution, midpoint_axis
from .streams import child_seeds
from .wiener import Sampler

CONTRACTION_LINE = 0.5
# two-sided 95% normal quantile of the Wilson and tail-scale intervals
Z_95 = 1.96
# the tail fit's thresholds: evenly spaced between these two quantiles
LAMBDA_POINTS = 12
LAMBDA_QUANTILES = (0.9, 0.995)
# the least sample counts of a tail fit and of an lwp ensemble per T
TAIL_MIN_SAMPLES, LWP_MIN_SAMPLES = 1000, 100


@dataclass
class EnsembleRecord:
    """Scalar observables of one randomized sample."""

    index: int
    seed: int
    values: dict[str, float] = field(default_factory=dict)
    blown_up: bool = False


Observables = Callable[[Field], Mapping[str, float]]
# one sample's (values, blown_up)
Outcome = tuple[dict[str, float], bool]
# (ensemble, coefficients) of one distinct draw
Task = tuple[int, np.ndarray]


def _require_samples(n_samples: int, least: int) -> None:
    """ValueError unless an ensemble draws at least `least` samples."""
    if not n_samples >= least:
        raise ValueError(f"n_samples must be >= {least}")


def _positive_times(t_grid: list[float]) -> list[float]:
    """The T values as floats, one or more, each positive and finite."""
    t_list = [float(t) for t in t_grid]
    if not t_list or not all(0 < t < np.inf for t in t_list):
        raise ValueError(f"t_grid must be one or more positive finite times, got {t_list}")
    return t_list


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The `evaluate` of the ensembles a forked worker serves. The pool's
# initializer sets it in each worker; the parent process never does.
_worker_evaluate: Callable[[Task], Outcome] | None = None


def _install_evaluate(evaluate: Callable[[Task], Outcome]) -> None:
    global _worker_evaluate
    _worker_evaluate = evaluate


def _evaluate_in_worker(task: Task) -> Outcome:
    return _worker_evaluate(task)


def _observe(observables: Observables, phi_omega: Field) -> Outcome:
    """The observables of one field as floats; an error or a non-finite
    value marks the sample blown up instead of raising."""
    try:
        values = {k: float(v) for k, v in observables(phi_omega).items()}
    except Exception:
        return {}, True
    return values, not all(np.isfinite(v) for v in values.values())


def _run_ensembles(
    sample: Sampler, ensembles: list[tuple[int, Observables, int]], threads: int
) -> list[list[EnsembleRecord]]:
    """`run_ensemble` for each (n_samples, observables, seed) over one
    sampler, with every distinct draw of an ensemble evaluated once and all
    the ensembles on one pool of workers. The seeds of an ensemble's
    samples come from one `child_seeds` call and its coefficients from one
    `sample.draws` pass."""
    seeds = [child_seeds(seed, n) for n, _, seed in ensembles]
    slots: list[list[int]] = [[] for _ in ensembles]  # each sample's task

    def tasks() -> Iterator[Task]:
        """(j, g) for each new draw of ensemble j, keyed by `sample.key(g)`,
        its bytes on the windows that reach the data; each sample's slot is
        the position of its task."""
        firsts: dict[tuple[int, bytes], int] = {}
        for j, ensemble_seeds in enumerate(seeds):
            for g in sample.draws(ensemble_seeds):
                n_tasks = len(firsts)
                slot = firsts.setdefault((j, sample.key(g)), n_tasks)
                if slot == n_tasks:
                    yield j, g
                slots[j].append(slot)

    def evaluate(task: Task) -> Outcome:
        j, g = task
        return _observe(ensembles[j][1], sample.field(g))

    workers = min(threads, _usable_cpus()) if hasattr(os, "fork") else 1
    outcomes = _map_tasks(evaluate, tasks(), workers)
    return [
        [
            EnsembleRecord(k, seed, dict(outcomes[slot][0]), outcomes[slot][1])
            for k, (seed, slot) in enumerate(zip(ensemble_seeds.tolist(), ensemble_slots))
        ]
        for ensemble_seeds, ensemble_slots in zip(seeds, slots)
    ]


def _map_tasks(
    evaluate: Callable[[Task], Outcome], tasks: Iterator[Task], workers: int
) -> list[Outcome]:
    """`evaluate` over the tasks, in order: streamed here when one worker
    would do, else listed and mapped in fixed chunks on at most `workers`
    forked worker processes."""
    if workers > 1:
        tasks = list(tasks)
        workers = min(workers, len(tasks))
    if workers <= 1:
        return list(map(evaluate, tasks))
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
        chunk = max(1, len(tasks) // (8 * workers))
        return list(pool.map(_evaluate_in_worker, tasks, chunksize=chunk))


def run_ensemble(
    sample: Sampler,
    n_samples: int,
    observables: Observables,
    seed: int,
    threads: int,
) -> list[EnsembleRecord]:
    """Evaluate observables on the fields `sample(child_seed(seed, k))`,
    k < n_samples, of a `wiener.sampler`, which checks its data when built.
    The n_samples seeds and their coefficients are derived in one
    vectorized pass each (`streams.child_seeds`, `Sampler.draws`), bit for
    bit the per-sample `child_seed` and `sample.coefficients`; the fields
    are built (`sample.field`) without samples, which the observables
    build only if they read them.

    `observables` maps a field to its name->float observables, and must be
    a pure function of the field: samples with the same `sample.key` of
    their coefficients (equal bytes on the windows that reach the data, so
    fields with equal samples) are evaluated once, and each repeat gets its
    own `index` and `seed` with a copy of the first one's values.
    Per-sample errors in the observables are recorded on the sample
    (blown_up) and never abort the ensemble; an error in a draw raises.

    `threads` is the number of worker processes, capped at the usable CPUs
    and at the distinct draws. More than one draws every sample's
    coefficients here, then builds and evaluates the distinct fields on a
    pool of workers forked from this process (so observables may be
    closures), in fixed chunks; the records, in index order, are the same
    for every count. A worker that dies raises `BrokenProcessPool`. Where
    fork is unavailable the samples run here. Fork copies only the calling
    thread, so a caller that runs other threads should pass threads=1.
    """
    _require_samples(n_samples, 1)
    return _run_ensembles(sample, [(n_samples, observables, seed)], threads)[0]


# ---------------------------------------------------------------------------
# tail fitting


class TailFitError(ValueError):
    """The observations admit no sub-Gaussian tail fit."""


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
            raise TailFitError("tail fit has nonnegative slope; no scale defined")
        return float(np.sqrt(-1.0 / self.slope))

    def scale_interval(self) -> tuple[float, float]:
        lo_slope = self.slope - Z_95 * self.slope_stderr
        hi_slope = min(self.slope + Z_95 * self.slope_stderr, -1e-300)
        return float(np.sqrt(-1.0 / lo_slope)), float(np.sqrt(-1.0 / hi_slope))


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


def tail_fit(observations: np.ndarray) -> TailFit:
    """Fit log P(obs > lambda) against lambda^2 over LAMBDA_POINTS evenly
    spaced thresholds lambda between the LAMBDA_QUANTILES of the
    observations (`TailFit.lambdas`).

    Requires TAIL_MIN_SAMPLES observations and a nonempty quantile range,
    else TailFitError; thresholds nobody exceeds are dropped from the fit.
    """
    obs = np.asarray(observations, dtype=np.float64)
    if obs.size < TAIL_MIN_SAMPLES:
        raise TailFitError(f"tail fit needs >= {TAIL_MIN_SAMPLES} samples, got {obs.size}")
    lo, hi = (float(np.quantile(obs, q)) for q in LAMBDA_QUANTILES)
    if not hi > lo:
        raise TailFitError("degenerate observations: quantile range is empty")
    lam = np.linspace(lo, hi, LAMBDA_POINTS)
    probs = np.array([float(np.mean(obs > l)) for l in lam])
    keep = probs > 0.0
    if np.unique(probs[keep]).size < 2:
        raise TailFitError("degenerate tail: all exceedance probabilities equal")
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
        fit = tail_fit(obs_by_t[t])
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


def _tail_axes(t_grid: list[float], n_time_samples: int) -> dict[float, TimeAxis]:
    """The midpoint axis of [0, T] with n_time_samples >= 1 samples for each
    of three or more distinct positive finite T, keyed by T."""
    t_list = _positive_times(t_grid)
    if len(set(t_list)) < 3:
        raise ValueError(
            "t_grid needs at least three T values for tail fitting "
            "(three distinct T values, no two equal)"
        )
    if not n_time_samples >= 1:
        raise ValueError("n_time_samples must be >= 1")
    return {t: midpoint_axis(t, n_time_samples) for t in t_list}


# the tail's Lebesgue exponents: q must be finite too
_require_tail_exponents = functools.partial(_require_exponents, finite_q=True)


def strichartz_scaling(
    sample: Sampler,
    q: float,
    r: float,
    t_grid: list[float],
    n_samples: int,
    seed: int,
    n_time_samples: int,
    threads: int,
) -> StrichartzReport:
    """Tail lambda-scale of the free evolution's L^q_t L^r_x([0, T]) norm per
    T over the randomized fields `sample` draws, regressed against T.

    The sub-Gaussian tail bound scales as exp(-c lambda^2 / T^{2/q}), so the
    fitted scale should grow like T^{1/q}. `threads` is `run_ensemble`'s
    worker-process count. The arguments are checked before any draw.
    """
    _require_tail_exponents(q, r)
    axes = _tail_axes(t_grid, n_time_samples)
    _require_samples(n_samples, TAIL_MIN_SAMPLES)

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


def _lwp_times(t_grid: list[float]) -> list[float]:
    """The positive finite T values, strictly descending, as floats."""
    t_list = _positive_times(t_grid)
    if sorted(set(t_list), reverse=True) != t_list:
        raise ValueError("t_grid must be strictly descending")
    return t_list


def exceptional_probability(
    sample: Sampler,
    t_grid: list[float],
    n_samples: int,
    tol: float,
    taxis: TimeAxis,
    xi_band: float,
    eps: float,
    max_iter: int,
    seed: int,
    threads: int,
) -> LwpReport:
    """Failure fraction of the fixed-point construction per existence time T,
    over the randomized fields `sample` draws.

    T values must be passed in strictly descending order; the trend
    statistic counts adjacent pairs where the fraction increases as T
    shrinks without the Wilson intervals overlapping. The arguments, the
    solver's among them (`_picard_arguments`), and then the band, on the
    sampler's grid (`_picard_band`: AliasingError where every solve would
    refuse it), are checked before the first draw. Each T's ensemble
    solves each of its distinct draws once, as `run_ensemble` does, and
    `threads` worker processes serve the solves of every T on one pool.
    """
    t_list = _lwp_times(t_grid)
    _require_samples(n_samples, LWP_MIN_SAMPLES)
    _picard_arguments(sample.grid, taxis, tol, max_iter, xi_band, eps)
    _picard_band(sample.grid, taxis, xi_band)

    def observe(phi_omega: Field, T: float) -> dict[str, float]:
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

    ensembles = [
        (n_samples, functools.partial(observe, T=T), t_seed)
        for T, t_seed in zip(t_list, child_seeds(seed, len(t_list)).tolist())
    ]
    records_by_t = dict(zip(t_list, _run_ensembles(sample, ensembles, threads)))
    rows: list[LwpRow] = []
    for T, records in records_by_t.items():
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
