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

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Field, Grid, SPECTRAL, make_grid
from .norms import (
    AliasingError,
    bilinear_multiplier,
    sobolev_norm,
    space_time_lebesgue,
    xsb_norm,
)
from .params import (
    CRITICAL_INDEX,
    b_index,
    dual_b_index,
    sigma_index,
    validate_epsilon,
)
from .spacetime import (
    Cutoff,
    SpaceTimeField,
    TimeAxis,
    apply_time_cutoff,
    centered_axis,
    free_evolution,
    require_same_axes,
    st_l2,
    st_to_physical,
)
from .streams import rng_for
from .wiener import randomize, sample_coefficients

RHS_FLOOR = 1e-13


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
    params: dict = field(default_factory=dict)

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


def random_field(grid: Grid, xi_band: float, seed: int, master: int = 0) -> Field:
    """Band-limited random data with a <xi>^{-1} spectral envelope, L^2 = 1."""
    rng = rng_for(master, 17, seed)
    xi = grid.xi
    mask = np.abs(xi) <= xi_band
    coeffs = (rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes))
    coeffs *= mask / np.sqrt(1.0 + xi**2)
    norm = np.sqrt(grid.dxi * np.sum(np.abs(coeffs) ** 2))
    f = Field(grid, coeffs / norm, SPECTRAL)
    return f


def random_spacetime(
    grid: Grid, taxis: TimeAxis, xi_band: float, seed: int, master: int = 0
) -> SpaceTimeField:
    """Band-limited random space-time field, envelope <xi>^{-1}<tau-xi^3>^{-1},
    normalized to unit space-time L^2."""
    rng = rng_for(master, 23, seed)
    xi = grid.xi
    tau = taxis.tau
    shape = (taxis.n_samples, grid.n_modes)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mod = tau[:, None] - (xi**3)[None, :]
    envelope = 1.0 / (np.sqrt(1.0 + xi**2)[None, :] * np.sqrt(1.0 + mod**2))
    coeffs *= envelope * (np.abs(xi) <= xi_band)[None, :]
    u = st_to_physical(grid, taxis, coeffs)
    return u.with_values(u.values / st_l2(u))


# ---------------------------------------------------------------------------
# individual probes


def check_linear_estimates(
    phis: list[Field],
    t_grid: list[float],
    s: float,
    b: float,
    taxis: TimeAxis,
) -> EstimateReport:
    """Ratio ||eta_T S(t) phi||_{X_{s,b}} / (T^{1/2-b} ||phi||_{H^s})."""
    if not 0.5 < b <= 0.75:
        raise ValueError(f"b must lie in (1/2, 3/4], got {b}")
    for T in t_grid:
        if 2.0 * T > 0.5 * taxis.span:
            raise ValueError(f"cutoff support [-2T, 2T] with T={T} exceeds the box")
    report = EstimateReport("linear_free", params={"s": s, "b": b, "t_grid": list(t_grid)})
    trial = 0
    for phi in phis:
        rhs_base = sobolev_norm(phi, s)
        for T in t_grid:
            z = free_evolution(phi, taxis, cutoff=Cutoff(T))
            lhs = xsb_norm(z, s, b)
            report.add(trial, lhs, T ** (0.5 - b) * rhs_base)
            trial += 1
    return report


def bilinear_sum_diff(u1: SpaceTimeField, u2: SpaceTimeField, s: float) -> SpaceTimeField:
    """Compose the sum-frequency and difference-frequency symbols of order s."""
    inner = bilinear_multiplier(u1, u2, s, "minus")
    return inner.with_values(u1.grid.multiply(inner.values, np.abs(u1.grid.xi) ** s))


def check_bilinear(
    pairs: list[tuple[SpaceTimeField, SpaceTimeField]],
    s: float,
    b1: float,
    b_tilde: float,
) -> EstimateReport:
    """L^2 bound on the composed bilinear symbol against X_{0,b1} x X_{0,b_tilde}."""
    report = EstimateReport("bilinear_l2", params={"s": s, "b1": b1, "b_tilde": b_tilde})
    for trial, (u1, u2) in enumerate(pairs):
        require_same_axes(u1, u2)
        lhs = st_l2(bilinear_sum_diff(u1, u2, s))
        rhs = xsb_norm(u1, 0.0, b1) * xsb_norm(u2, 0.0, b_tilde)
        report.add(trial, lhs, rhs)
    return report


def check_embedding(fields: list[SpaceTimeField], estimate_id: str, eps: float) -> EstimateReport:
    """Space-time Lebesgue norm against the dispersive-weighted norm for one
    catalog entry."""
    spec = embedding_catalog(eps).get(estimate_id)
    if spec is None:
        raise KeyError(
            f"unknown embedding id {estimate_id!r}; valid ids: "
            + ", ".join(sorted(embedding_catalog(eps)))
        )
    p, s, b = spec
    report = EstimateReport(estimate_id, params={"p": p, "s": s, "b": b, "eps": eps})
    for trial, u in enumerate(fields):
        lhs = space_time_lebesgue(u, p)
        rhs = xsb_norm(u, s, b)
        report.add(trial, lhs, rhs)
    return report


def _weighted_product(factors: list[SpaceTimeField], sigma: float) -> np.ndarray:
    prod = factors[0].values.copy()
    for f in factors[1:]:
        prod *= f.values
    grid = factors[0].grid
    return grid.multiply(prod, (1.0 + grid.xi**2) ** (sigma / 2.0) * (1j * grid.xi))


def check_multilinear(
    factors: list[SpaceTimeField],
    sigma: float,
    b: float,
    h_fields: list[SpaceTimeField],
    eps: float,
) -> EstimateReport:
    """Octilinear pairing |int J^sigma d_x(prod_j v_j) h| against the product
    of the factors' X_{sigma,b} norms times ||h||_{X_{0,1/2-eps/12}}."""
    if len(factors) != 8:
        raise ValueError(f"expected 8 factors, got {len(factors)}")
    require_same_axes(*factors)
    grid = factors[0].grid
    taxis = factors[0].taxis
    weighted = _weighted_product(factors, sigma)
    rhs_factors = 1.0
    for f in factors:
        rhs_factors *= xsb_norm(f, sigma, b)
    report = EstimateReport(
        "octilinear", params={"sigma": sigma, "b": b, "eps": eps}
    )
    for trial, h in enumerate(h_fields):
        require_same_axes(factors[0], h)
        pairing = grid.dx * taxis.dt * np.sum(weighted * h.values)
        lhs = float(np.abs(pairing))
        rhs = rhs_factors * xsb_norm(h, 0.0, dual_b_index(eps))
        report.add(trial, lhs, rhs)
    return report


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


def estimate_ids(eps: float = 0.05) -> list[str]:
    return sorted(embedding_catalog(eps)) + list(PROBE_IDS)


def describe_estimates(eps: float = 0.05) -> list[str]:
    lines = []
    for eid, (p, s, b) in embedding_catalog(eps).items():
        p_txt = "inf" if np.isinf(p) else f"{p:.6g}"
        lines.append(f"{eid}: ||u||_Lp(xt) <= C ||u||_X(s,b), p={p_txt}, s={s:.6g}, b={b:.6g}")
    lines.append("linear_free: ||eta_T S(t)phi||_X(s,b) <= C T^(1/2-b) ||phi||_Hs")
    lines.append("bilinear_l2: ||sum/diff bilinear symbol(u1,u2)||_L2 <= C ||u1||_X(0,b1) ||u2||_X(0,b~)")
    lines.append("octilinear: |<J^sigma d_x(prod_8 v), h>| <= C prod ||v||_X(sigma,b) ||h||_X(0,1/2-eps/12)")
    lines.append("octilinear_mixed: same pairing with cutoff free evolutions among the factors")
    return lines


@dataclass(frozen=True)
class ProbeResolution:
    """Grid and box sizes for a probe run; the spectral band stays fixed so
    that doubling the resolution refines the same object."""

    n_modes: int = 64
    half_length: float = 8.0
    m_t: int = 128
    t_span: float = 4.0
    xi_band: float = 3.5

    def doubled(self) -> "ProbeResolution":
        return replace(self, n_modes=2 * self.n_modes, m_t=2 * self.m_t)

    def make(self) -> tuple[Grid, TimeAxis]:
        grid = make_grid(self.half_length, self.n_modes)
        taxis = centered_axis(self.t_span, self.m_t)
        if 2.0 * self.xi_band**3 > taxis.tau_max:
            raise AliasingError(
                f"xi_band {self.xi_band} too wide for tau_max {taxis.tau_max:.1f}"
            )
        return grid, taxis


def _banded_bump(grid: Grid, xi_band: float) -> Field:
    """Real band-limited bump data used by the mixed octilinear probe."""
    xi = grid.xi
    coeffs = np.exp(-(xi**2)) * (np.abs(xi) <= xi_band)
    f = Field(grid, coeffs.astype(np.complex128), SPECTRAL)
    norm = sobolev_norm(f, 0.0)
    return Field(grid, coeffs / norm, SPECTRAL)


def run_estimate(
    estimate_id: str,
    eps: float = 0.05,
    resolution: ProbeResolution | None = None,
    n_trials: int = 100,
    seed: int = 1,
) -> EstimateReport:
    """Run one catalog entry on a fresh fixed-seed ensemble."""
    validate_epsilon(eps)
    res = resolution or ProbeResolution()
    grid, taxis = res.make()
    ids = estimate_ids(eps)
    if estimate_id not in ids:
        raise KeyError(
            f"unknown estimate id {estimate_id!r}; valid ids: " + ", ".join(ids)
        )

    if estimate_id in embedding_catalog(eps):
        fields = [
            random_spacetime(grid, taxis, res.xi_band, trial, master=seed)
            for trial in range(n_trials)
        ]
        return check_embedding(fields, estimate_id, eps)

    if estimate_id == "linear_free":
        n_data = max(1, n_trials // 3)
        phis = [random_field(grid, res.xi_band, k, master=seed) for k in range(n_data)]
        return check_linear_estimates(
            phis, [0.25, 0.125, 0.0625], sigma_index(eps), b_index(eps), taxis
        )

    if estimate_id == "bilinear_l2":
        pairs = [
            (
                random_spacetime(grid, taxis, res.xi_band, 2 * trial, master=seed),
                random_spacetime(grid, taxis, res.xi_band, 2 * trial + 1, master=seed),
            )
            for trial in range(n_trials)
        ]
        return check_bilinear(pairs, s=0.5, b1=0.51, b_tilde=0.4)

    sigma = sigma_index(eps)
    b = b_index(eps)
    eta = Cutoff(1.0)
    T_mix = 0.25
    report = EstimateReport(estimate_id, params={"sigma": sigma, "b": b, "eps": eps})
    phi0 = _banded_bump(grid, res.xi_band)
    n_max = int(np.ceil(res.xi_band)) + 1
    for trial in range(n_trials):
        if estimate_id == "octilinear":
            factors = [
                apply_time_cutoff(
                    random_spacetime(grid, taxis, res.xi_band, 10 * trial + j, master=seed),
                    eta,
                )
                for j in range(8)
            ]
        else:
            n_random = 1 + trial % 7
            coeffs = sample_coefficients("gaussian", seed=trial + 1000 * seed, n_max=n_max)
            z = free_evolution(randomize(phi0, coeffs), taxis, cutoff=Cutoff(T_mix))
            factors = [
                apply_time_cutoff(
                    random_spacetime(grid, taxis, res.xi_band, 10 * trial + j, master=seed),
                    eta,
                )
                for j in range(8 - n_random)
            ] + [z] * n_random
        h = random_spacetime(grid, taxis, res.xi_band, 10 * trial + 9, master=seed + 1)
        sub = check_multilinear(factors, sigma, b, [h], eps)
        for rec in sub.trials:
            report.add(trial, rec.lhs, rec.rhs)
        report.excluded += sub.excluded
    return report
