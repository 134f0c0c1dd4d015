"""Function-space norms on fields and space-time fields.

Spatial norms are frequency-side Riemann sums; the homogeneous norm
integrates its |xi|^{2s} weight exactly over each frequency cell, which
removes the O(dxi^{1+2s}) cusp error of the naive sum (that error would
otherwise dominate scaling checks). Space-time norms include the mixed
Lebesgue norms and the dispersive-weighted norm

    ||u||^2 = integral <xi>^{2s} <tau - xi^3>^{2b} |F u(xi, tau)|^2,

which measures distance to the free dispersion relation tau = xi^3 and
requires the tau axis to out-range the cubic curve (else it aliases).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Field, field_from_function, spectral_values
from .spacetime import (
    SpaceTimeField,
    require_same_axes,
    spectral_support_radius,
    st_spectral_values,
)
from .params import AMPLITUDE_EXPONENT
from .wiener import band_symbol, make_window


class AliasingError(ValueError):
    """The tau axis cannot resolve the cubic dispersion of the field's band."""


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm: <xi>^s-weighted spectral L^2."""
    hat = spectral_values(f)
    w = (1.0 + f.grid.xi**2) ** s
    return float(np.sqrt(f.grid.dxi * np.sum(w * np.abs(hat) ** 2)))


def _abs_power_cell_weights(xi: np.ndarray, h: float, two_s: float) -> np.ndarray:
    """Exact integrals of |xi|^{two_s} over cells [xi_k - h/2, xi_k + h/2].

    Finite for two_s > -1; the cell that straddles zero integrates the cusp
    exactly instead of sampling it.
    """
    p = two_s + 1.0

    def antideriv(x: np.ndarray) -> np.ndarray:
        return np.sign(x) * np.abs(x) ** p / p

    return antideriv(xi + 0.5 * h) - antideriv(xi - 0.5 * h)


def homogeneous_norm(f: Field, s: float) -> float:
    """Homogeneous Sobolev norm with |xi|^s weight (s > -1/2).

    Each spectral coefficient is weighted by the exact cell integral of
    |xi|^{2s}, so smooth data loses no accuracy to the cusp at xi = 0.
    """
    if not s > -0.5:
        raise ValueError(f"homogeneous norm requires s > -1/2, got {s}")
    hat = spectral_values(f)
    weights = _abs_power_cell_weights(f.grid.xi, f.grid.dxi, 2.0 * s)
    return float(np.sqrt(np.sum(weights * np.abs(hat) ** 2)))


def scaling_ratio(grid, profile, lam: float, s: float) -> float:
    """||lam^{-2/7} u0(x/lam)||_{dot H^s} / ||u0||_{dot H^s} for a callable u0.

    Equals lam^{s - 3/14} in the continuum; at the critical index the ratio
    is scale-invariant.
    """
    base = field_from_function(grid, profile)
    scaled = field_from_function(
        grid, lambda x: lam**AMPLITUDE_EXPONENT * np.asarray(profile(x / lam))
    )
    return homogeneous_norm(scaled, s) / homogeneous_norm(base, s)


def _lp_riemann(values: np.ndarray, weight: float, p: float, axis: int) -> np.ndarray:
    if np.isinf(p):
        return np.max(np.abs(values), axis=axis)
    return (weight * np.sum(np.abs(values) ** p, axis=axis)) ** (1.0 / p)


def modulation_norm(f: Field, s: float, p: float, q: float) -> float:
    """Unit-cube iterated norm: inner spatial L^p per band, outer weighted
    little-l^q over band centers.

    Bands cover |n| <= xi_max - 1; data should be band-limited inside that
    range for the partition to resolve it completely.
    """
    if not (1 <= p) or not (1 <= q):
        raise ValueError("modulation norm requires p, q >= 1 (inf allowed)")
    window = make_window()
    grid = f.grid
    hat = spectral_values(f)
    n_cover = int(np.floor(grid.xi_max - 1.0))
    terms = []
    for n in range(-n_cover, n_cover + 1):
        sym = band_symbol(window, grid.xi, n)
        if not np.any(sym != 0.0):
            terms.append(0.0)
            continue
        band_phys = grid.inverse(hat * sym)
        lp = float(_lp_riemann(band_phys, grid.dx, p, axis=0))
        terms.append((1.0 + n * n) ** (s / 2.0) * lp)
    terms = np.asarray(terms)
    if np.isinf(q):
        return float(np.max(terms))
    return float(np.sum(terms**q) ** (1.0 / q))


def mixed_norm(
    u: SpaceTimeField,
    q: float,
    r: float,
    interval: tuple[float, float] | None = None,
) -> float:
    """Time-outer L^q, space-inner L^r Riemann norm over `interval`.

    Samples with a <= t <= b contribute with weight dt; q or r may be inf.
    """
    if not (1 <= q) or not (1 <= r):
        raise ValueError("mixed norm requires q, r >= 1 (inf allowed)")
    t = u.taxis.t
    if interval is None:
        select = slice(None)
    else:
        a, b = interval
        pad = 1e-12 * max(1.0, abs(u.taxis.span))
        if a < t[0] - 0.5 * u.taxis.dt - pad or b > t[-1] + 0.5 * u.taxis.dt + pad:
            raise ValueError(
                f"interval [{a}, {b}] outside the time axis "
                f"[{t[0]}, {t[-1]}] (dt = {u.taxis.dt})"
            )
        select = (t >= a - pad) & (t <= b + pad)
    vals = u.values[select]
    inner = _lp_riemann(vals, u.grid.dx, r, axis=1)
    return float(_lp_riemann(inner, u.taxis.dt, q, axis=0))


def space_time_lebesgue(u: SpaceTimeField, p: float) -> float:
    """Plain L^p over the whole (x, t) box."""
    return mixed_norm(u, p, p)


@lru_cache(maxsize=8)
def _xsb_weight(grid, taxis, s: float, b: float) -> np.ndarray:
    xi = grid.xi
    tau = taxis.tau
    mod = tau[:, None] - (xi**3)[None, :]
    w = (1.0 + xi**2)[None, :] ** s * (1.0 + mod**2) ** b
    w.flags.writeable = False
    return w


def xsb_norm(u: SpaceTimeField, s: float, b: float) -> float:
    """Dispersive-weighted space-time norm <xi>^s <tau - xi^3>^b in L^2.

    Requires a centered time box and a field whose spectral band xi_b
    satisfies 2 * xi_b^3 <= tau_max; otherwise the cubic phase wraps the
    tau grid and the modulation weight is meaningless.
    """
    if not u.taxis.is_centered:
        raise AliasingError(
            "xsb_norm needs the centered time box (even sample count >= 16)"
        )
    radius = spectral_support_radius(u)
    if 2.0 * radius**3 > u.taxis.tau_max:
        raise AliasingError(
            f"band |xi| <= {radius:.3f} needs tau_max >= {2.0 * radius**3:.1f}, "
            f"axis provides {u.taxis.tau_max:.1f}; band-limit the field or "
            "refine the time axis"
        )
    hat = st_spectral_values(u)
    w = _xsb_weight(u.grid, u.taxis, float(s), float(b))
    return float(np.sqrt(u.grid.dxi * u.taxis.dtau * np.sum(w * np.abs(hat) ** 2)))


def sobolev_in_x(u: SpaceTimeField, s: float) -> SpaceTimeField:
    """Apply the spatial smoothing weight <xi>^s to every time slice."""
    weight = (1.0 + u.grid.xi**2) ** (s / 2.0)
    return u.with_values(u.grid.multiply(u.values, weight))


def bilinear_multiplier(
    u1: SpaceTimeField,
    u2: SpaceTimeField,
    s: float,
    variant: str = "plus",
) -> SpaceTimeField:
    """Bilinear symbol |xi1 + xi2|^s ("plus") or |xi1 - xi2|^s ("minus")
    applied to the product of two fields.

    Evaluated as a weighted circular convolution in the spatial frequency,
    pointwise in time; s = 0 reduces to the plain product. Output spatial
    frequencies wrap modulo the grid, as the torus product does.
    """
    require_same_axes(u1, u2)
    if variant not in ("plus", "minus"):
        raise ValueError(f"variant must be 'plus' or 'minus', got {variant!r}")
    grid = u1.grid
    n = grid.n_modes
    xi = grid.xi
    a = np.fft.fft(u1.values, axis=1).T  # (N, M)
    bv = np.fft.fft(u2.values, axis=1).T
    argument = xi[:, None] + xi[None, :] if variant == "plus" else xi[:, None] - xi[None, :]
    symbol = np.abs(argument) ** s if s != 0.0 else np.ones_like(argument)
    out = np.zeros_like(a)
    for k2 in range(n):
        contrib = symbol[:, k2][:, None] * a * bv[k2, :][None, :]
        out += np.roll(contrib, k2, axis=0)
    out /= n  # circular-convolution normalization of the raw DFT
    return u1.with_values(np.fft.ifft(out.T, axis=1))
