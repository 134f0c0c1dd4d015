import numpy as np
import pytest

from gkdvlab.config import load_config
from gkdvlab.grid import (
    SQRT_2PI,
    Field,
    _phase,
    _readonly,
    field_from_function,
    make_grid,
    spectral_values,
)
from gkdvlab.norms import (
    AliasingError,
    _half_xsb_weight,
    _require_band,
    _support_radius,
    _xsb_weight,
)
from gkdvlab.probes import ProbeResolution
from gkdvlab.spacetime import SpaceTimeField, _propagator, _time_forward, _time_inverse
from gkdvlab.wiener import partition_window

# The run values of the default configuration, for tests that run the
# library at the preset values; `config._SCHEMA` is their one home.
PRESET = load_config(None)
EPS = PRESET["model"]["epsilon"]
MAX_ITER = PRESET["lwp"]["max_iter"]
N_TIME_SAMPLES = PRESET["strichartz"]["n_time_samples"]


def preset_resolution():
    """The [estimates] probe resolution of the default configuration."""
    est = PRESET["estimates"]
    return ProbeResolution(
        est["n_modes"], est["half_length"], est["m_t"], est["t_span"], est["xi_band"]
    )


@pytest.fixture
def grid512():
    return make_grid(32.0, 512)


@pytest.fixture
def grid64():
    return make_grid(16.0, 64)


@pytest.fixture
def bump(grid512):
    return field_from_function(grid512, lambda x: np.exp(-(x**2)))


def banded_bump(grid, amplitude=1.0, band=2.0):
    """Real data with a sharply truncated gaussian spectral envelope, built
    from (and keeping) that spectrum."""
    coeffs = amplitude * np.exp(-grid.xi**2) * (np.abs(grid.xi) <= band)
    return Field.from_spectrum(grid, coeffs)


def edge_based(coeffs):
    """(-1)^k c_k along the last axis (k = 0, 1, ...): the real pair's
    coefficients, taken about the box's left edge, of symmetric-convention
    modes 0 .. K-1, and back (the sign pattern is its own inverse)."""
    return coeffs * (1.0 - 2.0 * (np.arange(coeffs.shape[-1]) % 2))


# The former phased real pair and the former `Grid.from_dft`/`to_dft`,
# kept as oracles: the real pair and the solver's tables now leave the
# boundary phase (-1)^k out, and must equal these up to that exact sign
# pattern.


def former_real_forward(grid, values):
    """rfft * (dx/sqrt(2 pi)) * (-1)^k: the symmetric-convention modes
    0 .. N/2 of real samples."""
    half = grid.n_modes // 2 + 1
    return np.fft.rfft(values) * ((grid.dx / SQRT_2PI) * _phase(grid.n_modes)[:half])


def former_real_inverse(grid, coeffs):
    """irfft(c * (-1)^k) * inverse_scale: real samples from the
    symmetric-convention modes 0 .. N/2."""
    half = grid.n_modes // 2 + 1
    return np.fft.irfft(coeffs * _phase(grid.n_modes)[:half], grid.n_modes) * grid.inverse_scale


def former_from_dft(grid, raw):
    """Symmetric-convention coefficients from raw DFT ones (last axis)."""
    return (grid.dx / SQRT_2PI) * _phase(grid.n_modes) * raw


def former_to_dft(grid, coeffs):
    """Raw DFT coefficients from symmetric-convention ones (last axis)."""
    return (SQRT_2PI / grid.dx) * _phase(grid.n_modes) * coeffs


def former_spectral_values(f):
    """The former `spectral_values`, which returned the spectrum a field
    was built from: that spectrum now given by the half the field keeps,
    its modes 0 .. N/2 with the sign pattern taken out (bit for bit) and
    their conjugates as modes N/2+1 .. N-1, so an oracle reads the
    coefficient bits the solvers read. A field that keeps no half: the
    transform of its samples."""
    if f._half is None:
        return spectral_values(f)
    hat = edge_based(f._half)
    return np.concatenate([hat, np.conj(hat[-2:0:-1])])


# The former sampler route, kept as an oracle: the full spectrum
# phi_hat * (g @ windows) on all N modes, then `Field.from_spectrum`.


def former_band_stack(grid, n_max):
    """The former `wiener._band_stack` rows: the window translates
    psi(xi - n), |n| <= n_max, on all N frequencies."""
    return np.stack([partition_window(grid.xi - n) for n in range(-n_max, n_max + 1)])


def former_sample_field(grid, hat, g, n_max):
    """The former `Sampler.field(g)` of data with the full spectrum `hat`
    (the one the former sampler read): (spectrum, field), the product
    hat * (g @ windows) and the real field built from it."""
    spectrum = _readonly(hat * (g @ former_band_stack(grid, n_max)))
    return spectrum, Field.from_spectrum(grid, spectrum)


def random_real_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.n_modes))


def l2_norm(f):
    """Discrete L^2 norm of the samples; by Parseval it equals
    sqrt(dxi * sum |u_hat|^2)."""
    return float(np.sqrt(f.grid.dx * np.sum(np.abs(f.values) ** 2)))


def multiply(f, symbol):
    """The Fourier multiplier `symbol` (given on grid.xi) applied to f (its
    spectrum as `former_spectral_values` gives it): the complex samples of
    the inverse of the product, whatever its symmetry. Real data with a
    Hermitian product take `Field.from_spectrum` instead."""
    return Field(f.grid, f.grid.inverse(former_spectral_values(f) * symbol))


def airy_propagate(f, t):
    """Free dispersive flow at one time: multiply each mode by exp(i t xi^3).

    Unit-modulus symbol, so every H^s norm is preserved exactly.
    """
    return multiply(f, np.exp(1j * t * f.grid.xi**3))


def free_coeffs(phi, taxis, profile=None):
    """The complex route of the free flow on all N modes: the x-spectral
    coefficients exp(i t xi^3) phi_hat at the samples of `taxis`, times the
    sampled time profile when one is given; phi_hat is
    `former_spectral_values(phi)`, the solvers' coefficient bits."""
    coeffs = _propagator(phi.grid, taxis) * former_spectral_values(phi)[None, :]
    if profile is not None:
        coeffs = coeffs * profile[:, None]
    return coeffs


def st_spectral_values(u):
    """The 2D transform F u(xi, tau) of the samples, both axes in FFT order."""
    return _time_forward(u.taxis, u.grid.forward(u.values))


def st_to_physical(grid, taxis, coeffs):
    """The field whose 2D transform is `coeffs` (inverse of
    st_spectral_values), given as samples: the time inverse on all N
    columns, then the grid's inverse transform."""
    return SpaceTimeField(grid, taxis, _readonly(grid.inverse(_time_inverse(taxis, coeffs))))


def half_xsb_sum(grid, taxis, power, s, b):
    """The X^{s,b} norm of a real field from |F u|^2 on its modes 0 .. K-1
    alone (the K columns of `power`, K <= N/2): the modes -(K-1) .. -1
    count through the folded weight, and every other mode must be zero."""
    w = _half_xsb_weight(grid, taxis, float(s), float(b))[:, : power.shape[1]]
    return float(np.sqrt(grid.dxi * taxis.dtau * np.sum(w * power)))


def former_xsb_norm(grid, taxis, hat_x, s, b, columns=slice(None)):
    """The former three-layer X^{s,b} chain, on the full time axis: the
    aliasing check of the band of hat_x (the x-spectral coefficients per
    time sample on the grid's modes `columns`, all by default), |F u|^2
    from one time transform, and its sum against the weight's columns;
    every other mode must be zero."""
    if not taxis.is_centered:
        raise AliasingError("xsb_norm needs the centered time box (even sample count >= 16)")
    _require_band(taxis, _support_radius(grid, hat_x, columns))
    power = np.abs(_time_forward(taxis, hat_x)) ** 2
    w = _xsb_weight(grid, taxis, float(s), float(b))[:, columns]
    return float(np.sqrt(grid.dxi * taxis.dtau * np.sum(w * power)))


def full_axis_distance(grid, taxis, rows, band_diff, s, b):
    """The Picard distance of a band difference given on the window `rows`
    of the time axis: zero-padded to the full axis, time-transformed there
    and summed by `half_xsb_sum`."""
    padded = np.zeros((taxis.n_samples, band_diff.shape[1]), dtype=np.complex128)
    padded[rows] = band_diff
    return half_xsb_sum(grid, taxis, np.abs(_time_forward(taxis, padded)) ** 2, s, b)
