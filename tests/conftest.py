import numpy as np
import pytest

from gkdvlab.grid import Field, apply_multiplier, field_from_function, make_grid, spectral_values
from gkdvlab.spacetime import _propagator


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
