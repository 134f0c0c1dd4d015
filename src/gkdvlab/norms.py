"""Function-space norms on fields and space-time fields.

Spatial norms are frequency-side Riemann sums; the homogeneous norm
integrates its |xi|^{2s} weight exactly over each frequency cell, which
removes the O(dxi^{1+2s}) cusp error of the naive sum (that error would
otherwise dominate scaling checks). Space-time norms include the mixed
Lebesgue norms and the dispersive-weighted norm

    ||u||^2 = integral <xi>^{2s} <tau - xi^3>^{2b} |F u(xi, tau)|^2,

which measures distance to the free dispersion relation tau = xi^3 and
requires the tau axis to out-range the cubic curve (else it aliases).
`xsb_norms` checks that once per field, takes one time transform of the
field's x-spectral band (`spacetime._band_spectrum`) and sums |F u|^2
against each weight's columns of that band.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import SQRT_2PI, Field, _readonly, field_from_function, spectral_values
from .spacetime import SpaceTimeField, _band_spectrum, _time_forward, require_same_axes
from .params import AMPLITUDE_EXPONENT


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


def _abs_power(values: np.ndarray, p: float) -> np.ndarray:
    """|values|^p as the squared modulus (v^2, or re^2 + im^2) to the power
    p/2, raised in place: p = 4 is two squarings, and no power of signed
    samples is taken."""
    if np.iscomplexobj(values):
        sq = np.square(values.real)
        sq += np.square(values.imag)
    else:
        sq = np.square(values)
    if p == 4.0:
        np.square(sq, out=sq)
    elif p != 2.0:
        sq **= 0.5 * p
    return sq


def _lp_riemann(values: np.ndarray, weight: float, p: float, axis: int) -> np.ndarray:
    if np.isinf(p):
        return np.abs(values).max(axis=axis)
    return (weight * _abs_power(values, p).sum(axis=axis)) ** (1.0 / p)


def _require_exponents(q: float, r: float, finite_q: bool) -> None:
    """ValueError unless the Lebesgue exponents q, r are >= 1 (inf allowed,
    except for q when `finite_q`)."""
    if not (1 <= q < np.inf if finite_q else 1 <= q):
        raise ValueError(f"q must be >= 1{' and finite' if finite_q else ''}, got {q}")
    if not 1 <= r:
        raise ValueError(f"r must be >= 1, got {r}")


def mixed_norm(u: SpaceTimeField, q: float, r: float) -> float:
    """Time-outer L^q, space-inner L^r Riemann norm over the whole time
    axis; every sample contributes with weight dt, and q or r may be inf."""
    _require_exponents(q, r, finite_q=False)
    inner = _lp_riemann(u.values, u.grid.dx, r, axis=1)
    return float(_lp_riemann(inner, u.taxis.dt, q, axis=0))


# The embedding catalog sums 14 (s, b) weights against each probe field.
@lru_cache(maxsize=32)
def _xsb_weight(grid, taxis, s: float, b: float) -> np.ndarray:
    xi = grid.xi
    tau = taxis.tau
    mod = tau[:, None] - (xi**3)[None, :]
    w = (1.0 + xi**2)[None, :] ** s * (1.0 + mod**2) ** b
    w.flags.writeable = False
    return w


@lru_cache(maxsize=8)
def _half_xsb_weight(grid, taxis, s: float, b: float) -> np.ndarray:
    """`_xsb_weight` folded onto the modes 0 .. N/2-1 of a real field,
    cached and read-only.

    A real field has F u(-xi, -tau) = conj F u(xi, tau), so the column of
    -xi_k (k > 0) sums against the mirrored weight w(-xi_k, -tau) and folds
    onto the column of xi_k: column k > 0 is w(xi_k, tau) + w(-xi_k, -tau),
    each taken from the table's own rows and columns. The rows pair as
    m <-> -m mod M, which leaves the tau-Nyquist row its own mirror, where
    w(-xi, tau) and w(xi, tau) differ. The unpaired xi-Nyquist column is
    not included.
    """
    w = _xsb_weight(grid, taxis, s, b)
    n, half = grid.n_modes, grid.n_modes // 2
    mirrored_rows = w[-np.arange(taxis.n_samples) % taxis.n_samples]
    folded = w[:, :half].copy()
    folded[:, 1:] += mirrored_rows[:, n - 1 : half : -1]
    return _readonly(folded)


def _five_smooth_ceil(n: int) -> int:
    """Smallest m >= n whose only prime factors are 2, 3 and 5."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _lag_folded_weight(
    grid, taxis, s: float, b: float, n_band: int, n_rows: int
) -> tuple[int, np.ndarray]:
    """(L, V) such that, for a real field whose x-spectral coefficients x
    are zero off n_rows consecutive time samples and off the modes
    +-(0 .. n_band-1), its squared norm is sum V |FFT_L x|^2 over the L-point
    DFTs (axis 0) of the n_rows rows of its modes 0 .. n_band-1 (n_band <=
    N/2), zero-padded to L. V is read-only, L x n_band.

    This is the finite Wiener-Khinchin relation. Against the folded weight
    W (`_half_xsb_weight`), sum_tau W |F x|^2 is c^2 sum_{|j| < n_rows}
    g(j) a(j), with c = dt/sqrt(2 pi) the time transform's scale, a the
    autocorrelation of x at lag j and g the m_t-point DFT of W along tau,
    its lag kernel. With L >= 2 n_rows - 1 the lags do not wrap, and V,
    the L-point inverse DFT of g cut to |j| < n_rows, gives the same sum.
    L is the smallest such 5-smooth length, or m_t if that is shorter; at
    L = m_t the cut keeps every lag the window has, and V is W to
    round-off. The constants of the norm's Riemann sum (dxi dtau c^2 =
    dxi dt / m_t) are taken into V.
    """
    m_t = taxis.n_samples
    length = min(_five_smooth_ceil(2 * n_rows - 1), m_t)
    g = np.fft.fft(_half_xsb_weight(grid, taxis, float(s), float(b))[:, :n_band], axis=0)
    h = np.zeros((length, n_band), dtype=np.complex128)
    h[:n_rows] = g[:n_rows]
    h[length - n_rows + 1 :] = g[m_t - n_rows + 1 :]
    weight = np.fft.ifft(h, axis=0).real * (grid.dxi * taxis.dt / m_t)
    return length, _readonly(weight)


def _support_radius(grid, hat_x: np.ndarray, columns) -> float:
    """Largest |xi| whose column of the x-spectral coefficients hat_x carries
    more than 1e-12 of the peak column's L^2 mass; hat_x holds the grid's
    modes `columns` (`slice(None)` for all of them). Non-finite coefficients
    report the full grid band."""
    with np.errstate(over="ignore", invalid="ignore"):
        col = np.sqrt(np.sum(np.abs(hat_x) ** 2, axis=0))
    if not np.all(np.isfinite(col)):
        return float(grid.xi_max)
    return float(np.max(np.abs(grid.xi[columns][col > 1e-12 * col.max()]), initial=0.0))


def _require_band(taxis, radius: float) -> None:
    """Raise AliasingError unless the tau axis resolves the cubic dispersion
    of the band |xi| <= radius: 2 radius^3 <= tau_max."""
    if 2.0 * radius**3 > taxis.tau_max:
        raise AliasingError(
            f"band |xi| <= {radius:.3f} needs tau_max >= {2.0 * radius**3:.1f}, "
            f"axis provides {taxis.tau_max:.1f}; band-limit the field or "
            "refine the time axis"
        )


def xsb_norm(u: SpaceTimeField, s: float, b: float) -> float:
    """Dispersive-weighted space-time norm <xi>^s <tau - xi^3>^b in L^2.

    Requires a centered time box and a field whose spectral band xi_b
    satisfies 2 * xi_b^3 <= tau_max; otherwise the cubic phase wraps the
    tau grid and the modulation weight is meaningless.
    """
    return xsb_norms(u, [(s, b)])[0]


def xsb_norms(u: SpaceTimeField, indices: list[tuple[float, float]]) -> list[float]:
    """`xsb_norm(u, s, b)` for each (s, b) in `indices`, bit for bit, from
    one time transform of `_band_spectrum(u)`: a kept band's columns alone,
    or else the x transform of the samples on all columns. Either way the
    aliasing check reads them first: AliasingError unless the time axis is
    centred and resolves their band. Every mode off those columns is zero,
    so each norm sums |F u|^2 against the weight's columns alone."""
    grid, taxis = u.grid, u.taxis
    columns, hat_x = _band_spectrum(u)
    if not taxis.is_centered:
        raise AliasingError("xsb_norm needs the centered time box (even sample count >= 16)")
    _require_band(taxis, _support_radius(grid, hat_x, columns))
    power = np.abs(_time_forward(taxis, hat_x)) ** 2
    weights = (_xsb_weight(grid, taxis, float(s), float(b))[:, columns] for s, b in indices)
    return [float(np.sqrt(grid.dxi * taxis.dtau * np.sum(w * power))) for w in weights]


def bilinear_multiplier(u1: SpaceTimeField, u2: SpaceTimeField, s: float) -> SpaceTimeField:
    """Difference-frequency bilinear symbol |xi1 - xi2|^s applied to the
    product of two fields.

    Evaluated as a weighted circular convolution in the spatial frequency,
    pointwise in time; s = 0 gives the plain product. Output spatial
    frequencies wrap modulo the grid, as the torus product does. Each
    factor's x-spectrum is `_band_spectrum`'s: a random field's kept band
    alone, or every mode of a field that keeps none. The sum runs over
    those columns, so factors whose bands hold K1 and K2 of the N modes
    cost O(K1 K2 M) for M time samples. The convolution times dxi/sqrt(2 pi)
    is the product's spectrum, which `grid.inverse` returns to samples.
    """
    require_same_axes(u1, u2)
    grid = u1.grid
    n = grid.n_modes
    modes = np.arange(n)
    (columns1, hat1), (columns2, hat2) = _band_spectrum(u1), _band_spectrum(u2)
    k1, k2 = modes[columns1], modes[columns2]
    a, bv = hat1.T, hat2.T  # modes x time samples
    symbol = np.abs(grid.xi[k1][:, None] - grid.xi[k2][None, :]) ** s
    out = np.zeros((n, u1.taxis.n_samples), dtype=np.complex128)
    for j, k in enumerate(k2):
        # Output mode k1 + k gathers its terms in increasing k, as a dense sum would.
        out[(k1 + k) % n] += symbol[:, j][:, None] * a * bv[j]
    out *= grid.dxi / SQRT_2PI
    return u1.with_values(_readonly(grid.inverse(out.T)))
