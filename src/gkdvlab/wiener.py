"""Unit-cube frequency randomization.

A raised-cosine window psi supported on [-1, 1] tiles frequency space by
integer translates (sum_n psi(xi - n) = 1 exactly). Each band psi(D - n)
of a field is multiplied by an independent mean-zero complex coefficient
g_n with E|g_n|^2 = 1 and a sub-Gaussian moment generating function.
Hermitian pairing g_{-n} = conj(g_n), g_0 real, keeps real data real, so
a sample is described by its modes 0 .. N/2: `sampler` takes real data
only and works on their half spectrum alone. The windows that miss the
data's spectrum multiply zero, so the coefficient range |n| <= n_max is
not an input: `sampler` takes the least one that covers the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, _readonly, half_spectrum, require_real_finite
from .streams import rng_for

DISTRIBUTIONS = ("gaussian", "rademacher", "uniform", "ones")

# uniform component support [-sqrt(3), sqrt(3)] has unit variance
_UNIFORM_HALF_WIDTH = np.sqrt(3.0)
# relative spectral amplitude below which the range ignores a mode
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
    rng = rng_for(seed)
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
def _band_stack(grid: Grid, n_max: int) -> np.ndarray:
    """The (2*n_max+1, N/2+1) matrix of window translates psi(xi - n), |n| <=
    n_max, on the frequencies of the modes 0 .. N/2; cached and read-only."""
    xi = grid.xi[: grid.n_modes // 2 + 1]
    return _readonly(np.stack([partition_window(xi - n) for n in range(-n_max, n_max + 1)]))


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
    """The randomization of phi that `sampler` builds (edge-based half
    spectrum `half`; windows `stack`, |n| <= n_max with n_max read off the
    data, on the modes 0 .. N/2): a seed draws the coefficients g, and g
    with equal `key` build fields with equal samples.

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


def sampler(phi: Field, distribution: str) -> Sampler:
    """The unit-cube randomization of phi, with g = sample_coefficients(
    distribution, seed, n_max) on the least range that covers phi: n_max is
    the ceiling of the largest |xi| of a mode above 1e-13 times the peak
    mode, plus one, so the windows |n| <= n_max sum to 1 on every such mode.

    Checks once, raising ValueError, that phi is real (float64) and finite
    and that the distribution is known, and reads phi's half spectrum once
    (`half_spectrum`: the one it keeps, else one real transform), which
    must be finite too: the transform of data near the float limit can
    overflow. It finds the windows that reach that spectrum once too
    (`Sampler.live`, which `Sampler.key` reads).
    """
    require_real_finite(phi, "sampler")
    require_distribution(distribution)
    grid = phi.grid
    # the transform of finite data near the float limit can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        half = half_spectrum(phi)
    if not np.all(np.isfinite(half)):
        raise ValueError("sampler expects data whose half spectrum is finite")
    amplitude = np.abs(half)
    xi = grid.xi[: grid.n_modes // 2 + 1]
    radius = np.max(np.abs(xi[amplitude > _VISIBLE_TOL * amplitude.max()]), initial=0.0)
    n_max = int(np.ceil(radius)) + 1
    stack = _band_stack(grid, n_max)
    return Sampler(grid, half, stack, distribution, n_max, _live_windows(half, stack))
