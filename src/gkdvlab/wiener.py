"""Unit-cube frequency randomization.

A raised-cosine window psi supported on [-1, 1] tiles frequency space by
integer translates (sum_n psi(xi - n) = 1 exactly). Each band psi(D - n)
of a field is multiplied by an independent mean-zero complex coefficient
g_n with E|g_n|^2 = 1 and a sub-Gaussian moment generating function.
Hermitian pairing g_{-n} = conj(g_n), g_0 real, keeps real data real:
`sampler` takes real data only and builds each sample's float64 values
from the modes 0 .. N/2 of its spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, _readonly, spectral_values

DISTRIBUTIONS = ("gaussian", "rademacher", "uniform", "ones")

# uniform component support [-sqrt(3), sqrt(3)] has unit variance
_UNIFORM_HALF_WIDTH = np.sqrt(3.0)
# relative L^2 mass of the data allowed outside the covered band
_STRAY_MASS_TOL = 1e-10
# relative spectral amplitude below which the automatic range ignores a mode
_VISIBLE_TOL = 1e-13


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


def require_distribution(distribution: str) -> None:
    """Raise ValueError unless `distribution` is one of DISTRIBUTIONS."""
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")


def _component_draws(rng: np.random.Generator, distribution: str, size: int) -> np.ndarray:
    """Independent mean-zero unit-variance real draws, or the degenerate
    all-ones diagnostic stream; an unknown distribution raises ValueError."""
    if distribution == "gaussian":
        return rng.standard_normal(size)
    if distribution == "rademacher":
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if distribution == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=size)
    require_distribution(distribution)  # only "ones" passes
    return np.ones(size)


def sample_coefficients(distribution: str, seed: int, n_max: int) -> np.ndarray:
    """The read-only Hermitian sequence g_{-n_max} .. g_{n_max}, drawn
    deterministically from (distribution, seed, n_max >= 1).

    g_0 is a single real unit-variance draw; for n >= 1 the real and
    imaginary parts are independent with variance 1/2 each, and g_{-n} is
    the conjugate of g_n, so E|g_n|^2 = 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    g0 = _component_draws(rng, distribution, 1)[0]
    re = _component_draws(rng, distribution, n_max)
    im = _component_draws(rng, distribution, n_max)
    if distribution == "ones":
        positive = np.ones(n_max, dtype=np.complex128)
        g0 = 1.0
    else:
        positive = (re + 1j * im) / np.sqrt(2.0)
    return _readonly(np.concatenate([np.conj(positive[::-1]), [g0 + 0.0j], positive]))


@lru_cache(maxsize=64)
def _band_stack(grid: Grid, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2*n_max+1, N) matrix of window translates psi(xi - n), |n| <=
    n_max, on the grid's frequencies, plus its column sums (the coverage
    weight, 1 on the covered band)."""
    rows = np.stack([partition_window(grid.xi - n) for n in range(-n_max, n_max + 1)])
    cover = rows.sum(axis=0)
    rows.flags.writeable = False
    cover.flags.writeable = False
    return rows, cover


def _require_covered(grid: Grid, hat: np.ndarray, n_max: int) -> None:
    """Raise ValueError unless the coefficient range |n| <= n_max covers the
    field with spectrum `hat`: the relative L^2 mass at frequencies where the
    window sum falls below 1 must not exceed _STRAY_MASS_TOL. The masses are
    taken relative to the peak mode, so that no square overflows."""
    _, cover = _band_stack(grid, n_max)
    amplitude = np.abs(hat)
    peak = amplitude.max()
    if peak > 0.0:
        mass = (amplitude / peak) ** 2
        total_mass = float(np.sum(mass))
        stray = float(np.sum(mass[cover < 1.0 - 1e-9]))
        if stray > _STRAY_MASS_TOL * total_mass:
            raise ValueError(
                "spectral support of phi exceeds the coefficient range: "
                f"relative uncovered mass {stray / total_mass:.3e} > {_STRAY_MASS_TOL:.1e} "
                f"(n_max = {n_max})"
            )


@dataclass(frozen=True, eq=False)
class Sampler:
    """The randomization of phi (spectrum `hat`) that `sampler` builds: a seed
    draws the coefficients g, and equal g build equal fields."""

    grid: Grid
    hat: np.ndarray
    stack: np.ndarray
    distribution: str
    n_max: int

    def coefficients(self, seed: int) -> np.ndarray:
        return sample_coefficients(self.distribution, seed, self.n_max)

    def field(self, g: np.ndarray) -> Field:
        """The real field with spectrum phi_hat * (g @ windows), which it
        keeps; Hermitian, as phi_hat and g are, so its float64 samples are
        the real inverse of the modes 0 .. N/2 (`Field.from_spectrum`)."""
        return Field.from_spectrum(self.grid, _readonly(self.hat * (g @ self.stack)))

    def __call__(self, seed: int) -> Field:
        return self.field(self.coefficients(seed))


def sampler(phi: Field, distribution: str, n_max: int | None = None) -> Sampler:
    """The unit-cube randomization of phi, with g = sample_coefficients(
    distribution, seed, n_max).

    Checks once that phi is real (float64; complex data raise ValueError),
    that the distribution is known, that n_max >= 1 and that the range
    |n| <= n_max covers the spectral support of phi, and reads phi's
    spectrum once (`spectral_values`: the one it keeps when built from
    it, else one transform). n_max=None takes the least range that covers
    the modes of phi above 1e-13 times its peak mode.
    """
    if phi.values.dtype != np.float64:
        raise ValueError("sampler expects real data")
    require_distribution(distribution)
    grid = phi.grid
    hat = spectral_values(phi)
    if n_max is None:
        amplitude = np.abs(hat)
        radius = np.max(np.abs(grid.xi[amplitude > _VISIBLE_TOL * amplitude.max()]), initial=0.0)
        n_max = int(np.ceil(radius)) + 1
    elif n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _require_covered(grid, hat, n_max)
    return Sampler(grid, hat, _band_stack(grid, n_max)[0], distribution, n_max)
