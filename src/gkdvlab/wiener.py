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
from typing import Callable

import numpy as np

from .grid import Field, Grid, _readonly, spectral_values

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

    @classmethod
    def _hermitian(
        cls, seed: int, distribution: str, n_max: int, values: np.ndarray
    ) -> "RandomCoefficients":
        """Wrap a fresh sequence that is Hermitian by construction, without
        `__post_init__`'s checks and copy."""
        coeffs = object.__new__(cls)
        coeffs.__dict__.update(
            seed=seed, distribution=distribution, n_max=n_max, values=_readonly(values)
        )
        return coeffs


def require_distribution(distribution: str) -> None:
    """Raise ValueError unless `distribution` is one of DISTRIBUTIONS."""
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")


def _component_draws(rng: np.random.Generator, distribution: str, size: int) -> np.ndarray:
    """Independent mean-zero unit-variance real draws (or the degenerate
    all-ones diagnostic stream) of a distribution that passed
    `require_distribution`."""
    if distribution == "gaussian":
        return rng.standard_normal(size)
    if distribution == "rademacher":
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if distribution == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=size)
    return np.ones(size)


def sample_coefficients(distribution: str, seed: int, n_max: int) -> RandomCoefficients:
    """Draw the coefficient sequence deterministically from (dist, seed, n_max).

    g_0 is a single real unit-variance draw; for n >= 1 the real and
    imaginary parts are independent with variance 1/2 each, and g_{-n} is
    the conjugate of g_n.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    require_distribution(distribution)
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
    return RandomCoefficients._hermitian(int(seed), distribution, int(n_max), values)


def _window_rows(xi: np.ndarray, n_max: int) -> np.ndarray:
    """The (2*n_max+1, len(xi)) matrix of translates psi(xi - n), |n| <= n_max."""
    return np.stack([partition_window(xi - n) for n in range(-n_max, n_max + 1)])


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


def require_coverage(phi: Field, n_max: int, coverage_tol: float = 1e-10) -> None:
    """Raise ValueError unless the coefficient range |n| <= n_max covers the
    spectral support of phi: the relative L^2 mass at frequencies where the
    window sum falls below 1 must not exceed `coverage_tol`."""
    _require_covered(phi.grid, spectral_values(phi), n_max, coverage_tol)


def _require_covered(grid: Grid, hat: np.ndarray, n_max: int, coverage_tol: float) -> None:
    """`require_coverage` for the field with spectrum `hat`."""
    _, cover = _band_stack(grid, n_max)
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


def randomizer(
    phi: Field, n_max: int, coverage_tol: float = 1e-10
) -> Callable[[np.ndarray], Field]:
    """The unit-cube randomization of phi as a map from the coefficient
    sequence g_{-n_max} .. g_{n_max} to the field sum_n g_n psi(D - n) phi.

    Checks once that n_max >= 1 and that the range covers the spectral
    support of phi (see `require_coverage`), and transforms phi once: each
    field is built from its spectrum phi_hat * (g @ windows), which it keeps.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    grid = phi.grid
    hat = spectral_values(phi)
    _require_covered(grid, hat, n_max, coverage_tol)
    stack, _ = _band_stack(grid, n_max)

    def draw(g: np.ndarray) -> Field:
        return Field.from_spectrum(grid, _readonly(hat * (g @ stack)))

    return draw


def randomize(
    phi: Field,
    coeffs: RandomCoefficients,
    coverage_tol: float = 1e-10,
) -> Field:
    """Apply the unit-cube randomization: phi -> sum_n g_n psi(D - n) phi.

    The coefficient range must cover the spectral support of phi (see
    `require_coverage`).
    """
    return randomizer(phi, coeffs.n_max, coverage_tol)(coeffs.values)
