"""Unit-cube frequency randomization.

A raised-cosine window psi supported on [-1, 1] tiles frequency space by
integer translates (sum_n psi(xi - n) = 1 exactly). Each band psi(D - n)
of a field is multiplied by an independent mean-zero complex coefficient
g_n with E|g_n|^2 = 1 and a sub-Gaussian moment generating function.
Hermitian pairing g_{-n} = conj(g_n), g_0 real, keeps real data real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, apply_multiplier, spectral_values

DISTRIBUTIONS = ("gaussian", "rademacher", "uniform", "ones")

# uniform component support [-sqrt(3), sqrt(3)] has unit variance
_UNIFORM_HALF_WIDTH = np.sqrt(3.0)


def partition_window(xi: np.ndarray) -> np.ndarray:
    """Raised-cosine window psi(xi) = cos^2(pi xi / 2) on [-1, 1], 0 outside.

    cos^2 + sin^2 = 1 makes the integer translates an exact partition of
    unity; at most two translates are nonzero at any frequency.
    """
    xi = np.asarray(xi, dtype=np.float64)
    inside = np.abs(xi) < 1.0
    out = np.zeros_like(xi)
    out[inside] = np.cos(0.5 * np.pi * xi[inside]) ** 2
    return out


def band_symbol(xi: np.ndarray, n: int) -> np.ndarray:
    return partition_window(xi - n)


def project_band(f: Field, n: int) -> Field:
    """Restrict f to the unit frequency cube centered at integer n."""
    if abs(n) > f.grid.xi_max - 1.0:
        raise ValueError(
            f"band center n={n} outside resolvable range |n| <= xi_max - 1 "
            f"= {f.grid.xi_max - 1.0:.3f}"
        )
    return apply_multiplier(f, band_symbol(f.grid.xi, n))


@dataclass(frozen=True)
class RandomCoefficients:
    """Hermitian sequence g_n, n = -n_max..n_max, with E|g_n|^2 = 1."""

    seed: int
    distribution: str
    n_max: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (2 * self.n_max + 1,):
            raise ValueError("values must have length 2*n_max + 1")
        center = self.n_max
        if abs(v[center].imag) > 1e-14:
            raise ValueError("g_0 must be real")
        if not np.allclose(v[: center][::-1], np.conj(v[center + 1 :]), atol=1e-14):
            raise ValueError("Hermitian pairing g_{-n} = conj(g_n) violated")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __getitem__(self, n: int) -> complex:
        if abs(n) > self.n_max:
            raise IndexError(f"|n| = {abs(n)} exceeds n_max = {self.n_max}")
        return complex(self.values[n + self.n_max])


def _component_draws(rng: np.random.Generator, distribution: str, size: int) -> np.ndarray:
    """Independent mean-zero unit-variance real draws (or the degenerate
    all-ones diagnostic stream)."""
    if distribution == "gaussian":
        return rng.standard_normal(size)
    if distribution == "rademacher":
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if distribution == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=size)
    if distribution == "ones":
        return np.ones(size)
    raise ValueError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")


def sample_coefficients(distribution: str, seed: int, n_max: int) -> RandomCoefficients:
    """Draw the coefficient sequence deterministically from (dist, seed, n_max).

    g_0 is a single real unit-variance draw; for n >= 1 the real and
    imaginary parts are independent with variance 1/2 each, and g_{-n} is
    the conjugate of g_n.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    g0 = _component_draws(rng, distribution, 1)[0]
    re = _component_draws(rng, distribution, n_max)
    im = _component_draws(rng, distribution, n_max)
    if distribution == "ones":
        positive = np.ones(n_max, dtype=np.complex128)
        g0 = 1.0
    else:
        positive = (re + 1j * im) / np.sqrt(2.0)
    values = np.concatenate([np.conj(positive[::-1]), [g0 + 0.0j], positive])
    return RandomCoefficients(seed=int(seed), distribution=distribution, n_max=int(n_max), values=values)


def verify_mgf_bound(
    distribution: str,
    gamma_grid,
    n_samples: int = 200_000,
    seed: int = 20260810,
) -> float:
    """Estimate max over gamma of log E[exp(gamma X)] / gamma^2.

    X is the unit-variance real component variable of the family. A finite
    value uniform in gamma is the sub-Gaussian moment condition; for the
    gaussian family the exact ratio is 1/2.
    """
    gammas = np.asarray(list(gamma_grid), dtype=np.float64)
    if gammas.size == 0 or np.any(gammas == 0.0):
        raise ValueError("gamma_grid must be nonempty with nonzero entries")
    if distribution == "ones":
        raise ValueError("'ones' is a diagnostic stream, not a mean-zero distribution")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    draws = _component_draws(rng, distribution, n_samples)
    ratios = []
    for g in gammas:
        mgf = float(np.mean(np.exp(g * draws)))
        ratios.append(np.log(mgf) / g**2)
    return float(max(ratios))


def _window_rows(xi: np.ndarray, n_max: int) -> np.ndarray:
    """The (2*n_max+1, len(xi)) matrix of translates psi(xi - n), |n| <= n_max."""
    return np.stack([band_symbol(xi, n) for n in range(-n_max, n_max + 1)])


def coverage_weight(xi: np.ndarray, n_max: int) -> np.ndarray:
    """sum_{|n| <= n_max} psi(xi - n); equals 1 on the covered band."""
    return _window_rows(xi, n_max).sum(axis=0)


@lru_cache(maxsize=64)
def _band_stack(grid: Grid, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2*n_max+1, N) matrix of window translates on the grid's
    frequencies, plus its column sums (the coverage weight)."""
    rows = _window_rows(grid.xi, n_max)
    cover = rows.sum(axis=0)
    rows.flags.writeable = False
    cover.flags.writeable = False
    return rows, cover


def bessel_weighted_band_sum(phi: Field, s: float, n_max: int) -> float:
    """sum_n || <D>^s psi(D - n) phi ||_{L^2}^2.

    With at most two windows overlapping any frequency, every randomized
    field satisfies ||phi^omega||_{H^s}^2 <= 2 max_n|g_n|^2 times this sum.
    """
    stack, _ = _band_stack(phi.grid, n_max)
    hat = spectral_values(phi)
    weighted = (1.0 + phi.grid.xi**2) ** s * np.abs(hat) ** 2
    return float(phi.grid.dxi * np.sum(stack**2 @ weighted))


def require_coverage(phi: Field, n_max: int, coverage_tol: float = 1e-10) -> None:
    """Raise ValueError unless the coefficient range |n| <= n_max covers the
    spectral support of phi: the relative L^2 mass at frequencies where the
    window sum falls below 1 must not exceed `coverage_tol`."""
    _, cover = _band_stack(phi.grid, n_max)
    hat = spectral_values(phi)
    total_mass = float(np.sum(np.abs(hat) ** 2))
    if total_mass > 0.0:
        uncovered = cover < 1.0 - 1e-9
        stray = float(np.sum(np.abs(hat[uncovered]) ** 2))
        if stray > coverage_tol * total_mass:
            raise ValueError(
                "spectral support of phi exceeds the coefficient range: "
                f"relative uncovered mass {stray / total_mass:.3e} > {coverage_tol:.1e} "
                f"(n_max = {n_max})"
            )


def randomize(
    phi: Field,
    coeffs: RandomCoefficients,
    coverage_tol: float = 1e-10,
) -> Field:
    """Apply the unit-cube randomization: phi -> sum_n g_n psi(D - n) phi.

    The coefficient range must cover the spectral support of phi (see
    `require_coverage`).
    """
    require_coverage(phi, coeffs.n_max, coverage_tol)
    stack, _ = _band_stack(phi.grid, coeffs.n_max)
    multiplier = coeffs.values @ stack
    return apply_multiplier(phi, multiplier)
