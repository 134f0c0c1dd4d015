import numpy as np
import pytest

from gkdvlab.config import load_config
from gkdvlab.grid import (
    Field,
    _readonly,
    apply_multiplier,
    field_from_function,
    make_grid,
    spectral_values,
)
from gkdvlab.norms import _half_xsb_weight
from gkdvlab.probes import ProbeResolution
from gkdvlab.spacetime import SpaceTimeField, _propagator, _time_forward, _time_inverse

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
    """Real data with a sharply truncated gaussian spectral envelope."""
    coeffs = amplitude * np.exp(-grid.xi**2) * (np.abs(grid.xi) <= band)
    return Field(grid, grid.inverse(coeffs))


def random_real_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.n_modes))


def l2_norm(f):
    """Discrete L^2 norm of the samples; by Parseval it equals
    sqrt(dxi * sum |u_hat|^2)."""
    return float(np.sqrt(f.grid.dx * np.sum(np.abs(f.values) ** 2)))


def airy_propagate(f, t):
    """Free dispersive flow at one time: multiply each mode by exp(i t xi^3).

    Unit-modulus symbol, so every H^s norm is preserved exactly.
    """
    return apply_multiplier(f, np.exp(1j * t * f.grid.xi**3))


def free_coeffs(phi, taxis, profile=None):
    """The complex route of the free flow on all N modes: the x-spectral
    coefficients exp(i t xi^3) phi_hat at the samples of `taxis`, times the
    sampled time profile when one is given."""
    coeffs = _propagator(phi.grid, taxis) * spectral_values(phi)[None, :]
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


def full_axis_distance(grid, taxis, rows, band_diff, s, b):
    """The Picard distance of a band difference given on the window `rows`
    of the time axis: zero-padded to the full axis, time-transformed there
    and summed by `half_xsb_sum`."""
    padded = np.zeros((taxis.n_samples, band_diff.shape[1]), dtype=np.complex128)
    padded[rows] = band_diff
    return half_xsb_sum(grid, taxis, np.abs(_time_forward(taxis, padded)) ** 2, s, b)
