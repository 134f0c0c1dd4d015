"""Empirical ratio probes for the linear, bilinear, embedding and
octilinear space-time estimates.

Each probe evaluates left- and right-hand sides of one inequality on an
ensemble of random band-limited fields and records the ratios. The probes
never claim sharp constants; the assertable property is that the recorded
maximum stays bounded (within a factor two) when the grid resolution is
doubled at a fixed spectral band.

Ensembles use random Fourier coefficients with a <xi>^{-1} <tau - xi^3>^{-1}
decay envelope, sharply band-limited and L^2-normalized, from fixed seeds.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, starmap

import numpy as np

from .grid import Field, Grid, _readonly, make_grid
from .norms import (
    _require_band,
    bilinear_multiplier,
    mixed_norm,
    sobolev_norm,
    xsb_norm,
    xsb_norms,
)
from .params import (
    CRITICAL_INDEX,
    b_index,
    dual_b_index,
    sigma_index,
    validate_epsilon,
)
from .spacetime import (
    SpaceTimeField,
    TimeAxis,
    _time_inverse,
    _with_band,
    apply_time_cutoff,
    centered_axis,
    free_evolution,
    require_same_axes,
    st_l2,
)
from .streams import rng_for
from .wiener import sampler

RHS_FLOOR = 1e-13
LINEAR_T_GRID = (0.25, 0.125, 0.0625)
# the largest time-cutoff scale T of each probe (octilinear: the unit cutoff)
_CUTOFF_SCALES = {"linear_free": max(LINEAR_T_GRID), "octilinear": 1.0, "octilinear_mixed": 1.0}


class CutoffBoxError(ValueError):
    """A probe's time cutoff does not fit in the time box."""


def _require_cutoffs_fit(ids: list[str], taxis: TimeAxis, scales=_CUTOFF_SCALES) -> None:
    """CutoffBoxError unless the support [-2T, 2T] of each probe's largest
    cutoff eta_T (T from `scales`) lies in the centered box: span >= 4T."""
    for eid in ids:
        T = scales.get(eid, 0.0)
        if 4.0 * T > taxis.span:
            raise CutoffBoxError(f"{eid}: cutoff support [-2T, 2T] with T = {T:g} "
                                 f"needs t_span >= {4.0 * T:g}, the box has {taxis.span:g}")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


@dataclass
class EstimateReport:
    """Per-trial left/right-hand sides of one estimate probe."""

    estimate_id: str
    trials: list[TrialRecord] = field(default_factory=list)
    excluded: int = 0

    def add(self, trial: int, lhs: float, rhs: float) -> None:
        if not np.isfinite(lhs) or not np.isfinite(rhs) or lhs < 0 or rhs < 0:
            raise ValueError(f"non-finite or negative probe values: {lhs}, {rhs}")
        if rhs < RHS_FLOOR:
            self.excluded += 1
            return
        self.trials.append(TrialRecord(trial=trial, lhs=lhs, rhs=rhs))

    @property
    def ratios(self) -> np.ndarray:
        return np.asarray([t.ratio for t in self.trials])

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    @property
    def median_ratio(self) -> float:
        return float(np.median(self.ratios))

    def rows(self) -> list[tuple]:
        return [(self.estimate_id, t.trial, t.lhs, t.rhs, t.ratio) for t in self.trials]


# ---------------------------------------------------------------------------
# random ensembles


def _require_band_modes(xi_band: float) -> None:
    """ValueError unless the band |xi| <= xi_band holds a mode, xi = 0."""
    if not xi_band >= 0:
        raise ValueError(f"xi_band must be >= 0, else it selects no mode; got {xi_band}")


def random_field(grid: Grid, xi_band: float, seed: int, master: int) -> Field:
    """Band-limited random data with a <xi>^{-1} spectral envelope, L^2 = 1."""
    rng = rng_for(master, 17, seed)
    xi = grid.xi
    mask = np.abs(xi) <= xi_band
    coeffs = (rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes))
    coeffs *= mask / np.sqrt(1.0 + xi**2)
    norm = np.sqrt(grid.dxi * np.sum(np.abs(coeffs) ** 2))
    return Field(grid, _readonly(grid.inverse(coeffs / norm)))


@lru_cache(maxsize=8)
def _spacetime_envelope(
    grid: Grid, taxis: TimeAxis, xi_band: float
) -> tuple[np.ndarray, np.ndarray]:
    """The columns with |xi| <= xi_band, and <xi>^{-1}<tau-xi^3>^{-1} on
    the (tau, xi) grid restricted to them; cached and read-only. Keeping
    only the band's columns keeps the cache small."""
    band = np.flatnonzero(np.abs(grid.xi) <= xi_band)
    xi = grid.xi[band]
    mod = taxis.tau[:, None] - (xi**3)[None, :]
    envelope = 1.0 / (np.sqrt(1.0 + xi**2)[None, :] * np.sqrt(1.0 + mod**2))
    band.flags.writeable = False
    envelope.flags.writeable = False
    return band, envelope


def random_spacetime(
    grid: Grid, taxis: TimeAxis, xi_band: float, seed: int, master: int
) -> SpaceTimeField:
    """Band-limited random space-time field, envelope <xi>^{-1}<tau-xi^3>^{-1},
    normalized to unit space-time L^2.

    The (xi, tau) coefficients of the band |xi| <= xi_band are inverted in
    time on the band's columns only; the field keeps the result, scaled as
    its samples are, as its band (`spacetime._with_band`).
    """
    _require_band_modes(xi_band)
    rng = rng_for(master, 23, seed)
    shape = (taxis.n_samples, grid.n_modes)
    band, envelope = _spacetime_envelope(grid, taxis, float(xi_band))
    coeffs = np.empty((taxis.n_samples, band.size), dtype=np.complex128)
    # all m_t x N draws are made, in their stream order; the band's are kept
    coeffs.real = rng.standard_normal(shape)[:, band] * envelope
    coeffs.imag = rng.standard_normal(shape)[:, band] * envelope
    band_x = _time_inverse(taxis, coeffs)
    hat_x = np.zeros(shape, dtype=np.complex128)
    hat_x[:, band] = band_x
    u = SpaceTimeField(grid, taxis, _readonly(grid.inverse(hat_x)))
    norm = st_l2(u)
    return _with_band(grid, taxis, _readonly(u.values / norm), band, _readonly(band_x / norm))


# ---------------------------------------------------------------------------
# individual probes
#
# The linear, bilinear and octilinear probes map a stream of per-trial
# inputs to (lhs, rhs) with map or starmap, which drop a trial's inputs
# before the next are drawn; enumerate would keep them in its reused result
# tuple while it draws the next.


def _add_trials(report: EstimateReport, sides: Iterable[tuple[float, float]]) -> EstimateReport:
    for trial, (lhs, rhs) in enumerate(sides):
        report.add(trial, lhs, rhs)
    return report


def check_linear_estimates(
    phis: Iterable[Field],
    t_grid: list[float],
    s: float,
    b: float,
    taxis: TimeAxis,
) -> EstimateReport:
    """Ratio ||eta_T S(t) phi||_{X_{s,b}} / (T^{1/2-b} ||phi||_{H^s}), one
    trial per (phi, T)."""
    if not 0.5 < b <= 0.75:
        raise ValueError(f"b must lie in (1/2, 3/4], got {b}")
    _require_cutoffs_fit(["linear_free"], taxis, {"linear_free": max(t_grid, default=0.0)})

    def sides(phi: Field) -> list[tuple[float, float]]:
        rhs_base = sobolev_norm(phi, s)
        return [
            (xsb_norm(free_evolution(phi, taxis, cutoff=T), s, b), T ** (0.5 - b) * rhs_base)
            for T in t_grid
        ]

    return _add_trials(EstimateReport("linear_free"), chain.from_iterable(map(sides, phis)))


def check_bilinear(
    pairs: Iterable[tuple[SpaceTimeField, SpaceTimeField]],
    s: float,
    b1: float,
    b_tilde: float,
) -> EstimateReport:
    """L^2 norm of the difference-frequency symbol of order s composed with
    the sum-frequency one, against X_{0,b1} x X_{0,b_tilde}."""

    def sides(u1: SpaceTimeField, u2: SpaceTimeField) -> tuple[float, float]:
        inner = bilinear_multiplier(u1, u2, s)
        outer = u1.grid.multiply(inner.values, np.abs(u1.grid.xi) ** s)
        lhs = st_l2(inner.with_values(_readonly(outer)))
        return lhs, xsb_norm(u1, 0.0, b1) * xsb_norm(u2, 0.0, b_tilde)

    return _add_trials(EstimateReport("bilinear_l2"), starmap(sides, pairs))


def check_embeddings(
    fields: Iterable[SpaceTimeField], ids: list[str], eps: float
) -> dict[str, EstimateReport]:
    """Space-time Lebesgue norm against the dispersive-weighted norm for
    several catalog entries on one pass over `fields`: each field is
    transformed once for every entry's weight."""
    catalog = embedding_catalog(eps)
    _require_known(ids, list(catalog))
    specs = {eid: catalog[eid] for eid in ids}
    reports = {eid: EstimateReport(eid) for eid in specs}
    indices = [(s, b) for _, s, b in specs.values()]
    for trial, u in enumerate(fields):
        for (eid, (p, _, _)), rhs in zip(specs.items(), xsb_norms(u, indices)):
            reports[eid].add(trial, mixed_norm(u, p, p), rhs)
    return reports


def check_multilinear(
    trials: Iterable[tuple[list[SpaceTimeField], SpaceTimeField]],
    sigma: float,
    b: float,
    eps: float,
) -> EstimateReport:
    """Octilinear pairing |int J^sigma d_x(prod_j v_j) h| against the product
    of the factors' X_{sigma,b} norms times ||h||_{X_{0,1/2-eps/12}}, for
    each trial's (8 factors v_j, h). A factor repeated in a trial's list is
    normed once."""

    def sides(factors: list[SpaceTimeField], h: SpaceTimeField) -> tuple[float, float]:
        if len(factors) != 8:
            raise ValueError(f"expected 8 factors, got {len(factors)}")
        require_same_axes(*factors, h)
        norms = {id(f): xsb_norm(f, sigma, b) for f in {id(f): f for f in factors}.values()}
        rhs = math.prod(norms[id(f)] for f in factors) * xsb_norm(h, 0.0, dual_b_index(eps))
        prod = factors[0].values.astype(np.complex128)  # a real factor may come first
        for f in factors[1:]:
            prod *= f.values
        grid = h.grid
        weighted = grid.multiply(prod, (1.0 + grid.xi**2) ** (sigma / 2.0) * (1j * grid.xi))
        return float(np.abs(grid.dx * h.taxis.dt * np.sum(weighted * h.values))), rhs

    return _add_trials(EstimateReport("octilinear"), starmap(sides, trials))


# ---------------------------------------------------------------------------
# the estimate catalog


def embedding_catalog(eps: float) -> dict[str, tuple[float, float, float]]:
    """id -> (lebesgue exponent p, spatial weight s, dispersive weight b)."""
    validate_epsilon(eps)
    b = b_index(eps)
    cat: dict[str, tuple[float, float, float]] = {
        "embed01": (8.0 / (1.0 + eps), 0.0, dual_b_index(eps)),
        "embed02": (28.0 / (2.0 - 7.0 * eps), CRITICAL_INDEX + eps, b),
        "embed03": (280.0 / (17.0 + 7.0 * eps), (18.0 - 7.0 * eps) / 70.0, b),
        "embed08": (64.0 / (7.0 - eps), (1.0 + eps) / 16.0, b),
        "embed09": (392.0 / (45.0 - 84.0 * eps), (2.0 + 42.0 * eps) / 49.0, b),
        "embed10": (56.0 / (4.0 + 77.0 * eps), (3.0 - 77.0 * eps) / 14.0, b),
        "embed11": (224.0 / (13.0 - 70.0 * eps), (15.0 + 70.0 * eps) / 56.0, b),
        "embed12": (8.0, 0.0, b),
        "embed13": (32.0 / (3.0 - eps), (1.0 + eps) / 8.0, b),
        "embed14": (np.inf, b, b),
    }
    for i, ell in enumerate((3, 4, 5, 6)):
        p = 56.0 * (7.0 - ell) / (25.0 - 4.0 * ell - 7.0 * eps * (3.0 - 2.0 * ell))
        s = (8.0 - ell) * (3.0 + eps) / 70.0
        cat[f"embed{4 + i:02d}"] = (p, s, b)
    return dict(sorted(cat.items()))


PROBE_IDS = ("linear_free", "bilinear_l2", "octilinear", "octilinear_mixed")


def estimate_ids(eps: float) -> list[str]:
    return sorted(embedding_catalog(eps)) + list(PROBE_IDS)


@dataclass(frozen=True)
class ProbeResolution:
    """Grid and box sizes for a probe run; the spectral band stays fixed so
    that doubling the resolution refines the same object."""

    n_modes: int
    half_length: float
    m_t: int
    t_span: float
    xi_band: float

    def doubled(self) -> "ProbeResolution":
        return replace(self, n_modes=2 * self.n_modes, m_t=2 * self.m_t)

    def make(self) -> tuple[Grid, TimeAxis]:
        grid = make_grid(self.half_length, self.n_modes)
        taxis = centered_axis(self.t_span, self.m_t)
        _require_band_modes(self.xi_band)
        _require_band(taxis, self.xi_band)
        return grid, taxis


def _banded_bump(grid: Grid, xi_band: float) -> Field:
    """Real band-limited bump data used by the mixed octilinear probe."""
    xi = grid.xi
    coeffs = np.exp(-(xi**2)) * (np.abs(xi) <= xi_band)
    norm = np.sqrt(grid.dxi * np.sum(coeffs**2))
    return Field.from_spectrum(grid, _readonly(coeffs / norm))


def _require_known(ids: list[str], valid: list[str]) -> None:
    for k, eid in enumerate(ids):
        if eid not in valid:
            raise KeyError(f"unknown estimate id {eid!r}; valid ids: " + ", ".join(valid))
        if eid in ids[:k]:
            raise KeyError(f"repeated estimate id {eid!r}")


def run_estimates(
    ids: list[str],
    eps: float,
    resolution: ProbeResolution,
    n_trials: int,
    seed: int,
) -> dict[str, EstimateReport]:
    """Run several catalog entries, keyed in the order given. The embedding
    entries share one fixed-seed field per trial, drawn as it is used;
    every other entry is its `run_estimate`. The ids, the tau axis's band
    and every probe's time cutoff are checked before any draw."""
    _require_known(ids, estimate_ids(eps))
    grid, taxis = resolution.make()
    _require_cutoffs_fit(ids, taxis)
    embeddings = [eid for eid in ids if eid not in PROBE_IDS]
    reports = {}
    if embeddings:
        xi_band = resolution.xi_band
        fields = (random_spacetime(grid, taxis, xi_band, k, master=seed) for k in range(n_trials))
        reports = check_embeddings(fields, embeddings, eps)
    for eid in ids:
        if eid not in reports:
            reports[eid] = run_estimate(eid, eps, resolution, n_trials, seed)
    return {eid: reports[eid] for eid in ids}


def run_estimate(
    estimate_id: str,
    eps: float,
    resolution: ProbeResolution,
    n_trials: int,
    seed: int,
) -> EstimateReport:
    """Run one catalog entry on a fresh fixed-seed ensemble. The probe is
    fed a generator of trials, so each trial's fields are drawn when they
    are used."""
    _require_known([estimate_id], estimate_ids(eps))
    if estimate_id not in PROBE_IDS:
        return run_estimates([estimate_id], eps, resolution, n_trials, seed)[estimate_id]
    grid, taxis = resolution.make()
    _require_cutoffs_fit([estimate_id], taxis)
    xi_band = resolution.xi_band
    sigma, b = sigma_index(eps), b_index(eps)

    def field(k: int, master: int = seed) -> SpaceTimeField:
        return random_spacetime(grid, taxis, xi_band, k, master=master)

    if estimate_id == "linear_free":
        phis = (random_field(grid, xi_band, k, master=seed) for k in range(max(1, n_trials // 3)))
        return check_linear_estimates(phis, list(LINEAR_T_GRID), sigma, b, taxis)

    if estimate_id == "bilinear_l2":
        pairs = ((field(2 * trial), field(2 * trial + 1)) for trial in range(n_trials))
        return check_bilinear(pairs, s=0.5, b1=0.51, b_tilde=0.4)

    mixed = estimate_id == "octilinear_mixed"
    sample = sampler(_banded_bump(grid, xi_band), "gaussian") if mixed else None

    def factors(trial: int) -> list[SpaceTimeField]:
        """Cutoff random fields; octilinear_mixed swaps a cutoff free
        evolution of randomized bump data in for the last 1 + trial % 7."""
        n_free = 1 + trial % 7 if mixed else 0
        free = []
        if n_free:
            phi_omega = sample(trial + 1000 * seed)
            free = [free_evolution(phi_omega, taxis, cutoff=0.25)] * n_free
        return [apply_time_cutoff(field(10 * trial + j), 1.0) for j in range(8 - n_free)] + free

    trials = ((factors(trial), field(10 * trial + 9, master=seed + 1)) for trial in range(n_trials))
    report = check_multilinear(trials, sigma, b, eps)
    report.estimate_id = estimate_id
    return report
