"""Unit-cube frequency randomization.

A raised-cosine window psi supported on [-1, 1] tiles frequency space by
integer translates (sum_n psi(xi - n) = 1 exactly). Each band psi(D - n)
of a field is multiplied by an independent mean-zero complex coefficient
g_n with E|g_n|^2 = 1 and a sub-Gaussian moment generating function.
Hermitian pairing g_{-n} = conj(g_n), g_0 real, keeps real data real, so
a sample is described by its modes 0 .. N/2: `sampler` takes real data
only and works on their half spectrum alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, _half_weights, _readonly, half_spectrum

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
    """The (2*n_max+1, N/2+1) matrix of window translates psi(xi - n), |n| <=
    n_max, on the frequencies of the modes 0 .. N/2, plus its column sums
    (the coverage weight, 1 on the covered band); cached and read-only."""
    xi = grid.xi[: grid.n_modes // 2 + 1]
    rows = np.stack([partition_window(xi - n) for n in range(-n_max, n_max + 1)])
    return _readonly(rows), _readonly(rows.sum(axis=0))


def _require_covered(grid: Grid, half: np.ndarray, n_max: int) -> None:
    """Raise ValueError unless the coefficient range |n| <= n_max covers the
    real field with half spectrum `half`: the relative L^2 mass (weighted by
    `_half_weights`) at frequencies where the window sum falls below 1 must
    not exceed _STRAY_MASS_TOL. The masses are taken relative to the peak
    mode, so that no square overflows."""
    _, cover = _band_stack(grid, n_max)
    amplitude = np.abs(half)
    peak = amplitude.max()
    if peak > 0.0:
        mass = _half_weights(grid.n_modes) * (amplitude / peak) ** 2
        total_mass = float(np.sum(mass))
        stray = float(np.sum(mass[cover < 1.0 - 1e-9]))
        if stray > _STRAY_MASS_TOL * total_mass:
            raise ValueError(
                "spectral support of phi exceeds the coefficient range: "
                f"relative uncovered mass {stray / total_mass:.3e} > {_STRAY_MASS_TOL:.1e} "
                f"(n_max = {n_max})"
            )


def _live_windows(half: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The positions in g, ascending, of the g_n (n >= 0) whose window
    psi(xi - n) or psi(xi + n) is nonzero on a nonzero mode of `half`.

    A row n < 0 of `stack` can be nonzero only on the Nyquist mode, whose
    frequency is -N/2 dxi; there g_n = conj(g_{-n}) multiplies it, so the
    g_n with n >= 0 name every coefficient that reaches the field."""
    n_max = stack.shape[0] // 2
    reach = np.any(stack[:, half != 0.0] != 0.0, axis=1)
    return _readonly(n_max + np.flatnonzero(reach[n_max:] | reach[n_max::-1]))


@dataclass(frozen=True, eq=False)
class Sampler:
    """The randomization of phi (edge-based half spectrum `half`, windows
    `stack` on the modes 0 .. N/2) that `sampler` builds: a seed draws the
    coefficients g, and g with equal `key` build fields with equal samples.

    `live` holds the positions in g of the g_n, n >= 0, that reach the data
    (`_live_windows`). The other windows multiply only zero modes of the
    data, and g_{-n} = conj(g_n) follows from g_n."""

    grid: Grid
    half: np.ndarray
    stack: np.ndarray
    distribution: str
    n_max: int
    live: np.ndarray

    def coefficients(self, seed: int) -> np.ndarray:
        return sample_coefficients(self.distribution, seed, self.n_max)

    def key(self, g: np.ndarray) -> bytes:
        """The bytes of g on the live windows. Draws with equal keys build
        fields with equal samples: only the sign of an exact zero, among
        the samples or the modes of the kept half, can tell them apart."""
        return g[self.live].tobytes()

    def field(self, g: np.ndarray) -> Field:
        """The real field with the modes 0 .. N/2 of phi_hat * (g @ windows),
        which it keeps (`Field.from_half`); Hermitian, as phi_hat and g
        are, so these modes describe it."""
        return Field.from_half(self.grid, _readonly(self.half * (g @ self.stack)))

    def __call__(self, seed: int) -> Field:
        return self.field(self.coefficients(seed))


def sampler(phi: Field, distribution: str, n_max: int | None = None) -> Sampler:
    """The unit-cube randomization of phi, with g = sample_coefficients(
    distribution, seed, n_max).

    Checks once, raising ValueError, that phi is real (float64) and finite,
    that the distribution is known, that n_max >= 1 and that the range
    |n| <= n_max covers the spectral support of phi, and reads phi's half
    spectrum once (`half_spectrum`: the one it keeps, else one real
    transform). It finds the windows that reach that spectrum once too
    (`Sampler.live`, which `Sampler.key` reads). n_max=None takes the least
    range that covers the modes of phi above 1e-13 times its peak mode.
    """
    if phi.values.dtype != np.float64:
        raise ValueError("sampler expects real data")
    if not np.all(np.isfinite(phi.values)):
        raise ValueError("sampler expects finite data")
    require_distribution(distribution)
    grid = phi.grid
    half = half_spectrum(phi)
    if n_max is None:
        amplitude = np.abs(half)
        xi = grid.xi[: grid.n_modes // 2 + 1]
        radius = np.max(np.abs(xi[amplitude > _VISIBLE_TOL * amplitude.max()]), initial=0.0)
        n_max = int(np.ceil(radius)) + 1
    elif n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _require_covered(grid, half, n_max)
    stack = _band_stack(grid, n_max)[0]
    return Sampler(grid, half, stack, distribution, n_max, _live_windows(half, stack))
