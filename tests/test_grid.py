import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdvlab.grid import (
    SQRT_2PI,
    Field,
    _phase,
    field_from_function,
    half_spectrum,
    make_grid,
    spectral_values,
)
from gkdvlab.cli import _band_limit
from gkdvlab.norms import sobolev_norm
from gkdvlab.probes import _banded_bump
from gkdvlab.wiener import sampler

from conftest import (
    airy_propagate,
    edge_based,
    former_real_forward,
    former_real_inverse,
    former_spectral_values,
    l2_norm,
    multiply,
    random_real_field,
)


class TestMakeGrid:
    def test_small_grid_frequencies(self):
        g = make_grid(np.pi, 8)
        assert sorted(g.xi) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert g.dxi == pytest.approx(1.0)

    def test_big_grid_spacing(self):
        g = make_grid(32.0, 1024)
        assert g.dxi == pytest.approx(np.pi / 32)
        assert g.xi_max == pytest.approx(np.pi * 512 / 32)

    @pytest.mark.parametrize(
        "L,N", [(np.pi, 7), (np.pi, 4), (-1.0, 64), (0.0, 64), (np.inf, 8), (np.nan, 64)]
    )
    def test_rejects_bad_arguments(self, L, N):
        with pytest.raises(ValueError):
            make_grid(L, N)


class TestTransforms:
    def test_constant_concentrates_at_zero(self):
        g = make_grid(np.pi, 64)
        hat = spectral_values(field_from_function(g, lambda x: np.ones_like(x)))
        assert abs(hat[0]) > 1e-10
        assert np.max(np.abs(hat[1:])) < 1e-14 * abs(hat[0])

    def test_single_mode_is_orthogonal(self):
        g = make_grid(np.pi, 64)
        hat = spectral_values(field_from_function(g, lambda x: np.exp(2j * x)))
        k = np.argmin(np.abs(g.xi - 2.0))
        others = np.delete(np.abs(hat), k)
        assert np.max(others) < 1e-14 * abs(hat[k])

    def test_round_trip_and_parseval_on_random_fields(self, grid512):
        rng = np.random.default_rng(1)
        for trial in range(50):
            v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
            f = Field(grid512, v)
            hat = spectral_values(f)
            back = grid512.inverse(hat)
            assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))
            spectral_l2 = np.sqrt(grid512.dxi * np.sum(np.abs(hat) ** 2))
            assert abs(l2_norm(f) - spectral_l2) <= 1e-12 * l2_norm(f)

    def test_batch_matches_row_by_row_bitwise(self, grid64):
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((7, 64)) + 1j * rng.standard_normal((7, 64))
        symbol = rng.standard_normal(64)
        for transform in (
            grid64.forward,
            grid64.inverse,
            lambda v: grid64.multiply(v, symbol),
        ):
            rows = np.stack([transform(row) for row in batch])
            assert np.array_equal(transform(batch), rows)

    def test_inverse_undoes_forward_on_a_batch(self, grid512):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, 512)) + 1j * rng.standard_normal((5, 512))
        back = grid512.inverse(grid512.forward(batch))
        assert np.max(np.abs(back - batch)) <= 1e-12 * np.max(np.abs(batch))

    @pytest.mark.parametrize("shape", [(64,), (7, 64)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_in_place_products_match_out_of_place(self, grid64, shape, dtype):
        # forward and inverse scale the FFT's own output in place; they must
        # equal the out-of-place expressions and leave their input alone
        rng = np.random.default_rng(11)
        values = rng.standard_normal(shape).astype(dtype)
        if dtype == np.complex128:
            values = values + 1j * rng.standard_normal(shape)
        kept = values.copy()
        phase = _phase(64)
        old_forward = (grid64.dx / SQRT_2PI) * phase * np.fft.fft(values)
        old_inverse = (grid64.dxi * 64 / SQRT_2PI) * np.fft.ifft(values * phase)
        assert np.array_equal(grid64.forward(values), old_forward)
        assert np.array_equal(grid64.inverse(values), old_inverse)
        assert np.array_equal(values, kept)
        values.flags.writeable = False
        assert np.array_equal(grid64.forward(values), old_forward)
        assert np.array_equal(grid64.inverse(values), old_inverse)

    def test_frequencies_cached_and_read_only(self, grid64):
        xi = grid64.xi
        assert grid64.xi is xi
        assert np.array_equal(xi, 2.0 * np.pi * np.fft.fftfreq(64, d=grid64.dx))
        with pytest.raises(ValueError):
            xi[0] = 1.0
        assert make_grid(16.0, 64) == grid64

    def test_boundary_phase_is_shared_and_read_only(self):
        phase = _phase(64)
        assert _phase(64) is phase
        assert not phase.flags.writeable
        with pytest.raises(ValueError):
            phase[0] = 2.0
        assert np.array_equal(phase, (-1.0) ** np.arange(64))


class TestRealPair:
    """`real_forward`/`real_inverse`: float64 samples and the modes 0..N/2,
    taken about the box's left edge: (-1)^k times the symmetric-convention
    coefficients."""

    def test_round_trip_on_a_batch(self, grid64):
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((5, 64))
        half = grid64.real_forward(batch)
        assert half.shape == (5, 33)
        back = grid64.real_inverse(half)
        assert back.dtype == np.float64
        assert np.max(np.abs(back - batch)) <= 1e-14 * np.max(np.abs(batch))

    def test_forward_is_the_complex_forward_on_modes_0_to_half(self, grid64):
        v = np.random.default_rng(5).standard_normal(64)
        full = grid64.forward(v)
        edge = edge_based(full[:33])
        assert np.max(np.abs(grid64.real_forward(v) - edge)) <= 1e-14 * np.max(np.abs(full))

    @pytest.mark.parametrize("half_length,n_modes", [(32.0, 512), (16.0, 64)])  # desk, lwp
    def test_pair_is_the_former_phased_pair_up_to_the_sign_pattern(self, half_length, n_modes):
        # the scale is applied as before and the phase moved out exactly:
        # bit for bit, a batch and a single row alike
        grid = make_grid(half_length, n_modes)
        rng = np.random.default_rng(n_modes)
        half = n_modes // 2 + 1
        batch = rng.standard_normal((3, n_modes))
        coeffs = rng.standard_normal((3, half)) + 1j * rng.standard_normal((3, half))
        for values, c in ((batch, coeffs), (batch[0], coeffs[0])):
            assert np.array_equal(edge_based(grid.real_forward(values)),
                                  former_real_forward(grid, values))
            assert np.array_equal(grid.real_inverse(edge_based(c)), former_real_inverse(grid, c))

    def test_inverse_is_real_part_with_complex_nyquist(self, grid64):
        # a Hermitian spectrum except for complex entries at the two
        # unpaired modes 0 and N/2: the Nyquist rule takes their real part
        rng = np.random.default_rng(6)
        hat = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        hat[33:] = np.conj(hat[1:32][::-1])
        assert hat[0].imag != 0.0 and hat[32].imag != 0.0
        full = grid64.inverse(hat)
        assert np.max(np.abs(full.imag)) > 1e-3  # the imaginary parts show up
        edge = edge_based(hat[:33])
        real = grid64.real_inverse(edge)
        assert np.max(np.abs(real - full.real)) <= 1e-14 * np.max(np.abs(full))
        same = grid64.real_inverse(np.where(np.arange(33) % 32 == 0, edge.real, edge))
        assert np.array_equal(real, same)


class TestCarriedSpectrum:
    def test_spectrum_kept_and_samples_its_inverse(self, grid64):
        # a Hermitian spectrum: the real field's samples are the real
        # inverse of its modes 0..N/2, the complex inverse's real part up to
        # round-off; the field keeps those modes, edge-based
        rng = np.random.default_rng(7)
        hat = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        hat[0], hat[32] = hat[0].real, hat[32].real
        hat[33:] = np.conj(hat[1:32][::-1])
        f = Field.from_spectrum(grid64, hat)
        assert f.values.dtype == np.float64
        assert np.array_equal(f.values, grid64.real_inverse(edge_based(hat[:33])))
        assert np.array_equal(f.values, former_real_inverse(grid64, hat[:33]))
        full = grid64.inverse(hat)
        assert np.max(np.abs(f.values - full.real)) <= 1e-15 * np.max(np.abs(full))
        # the former kept spectrum, bit for bit from the kept half
        assert np.array_equal(former_spectral_values(f), hat)
        assert not half_spectrum(f).flags.writeable
        hat[0] = 99.0  # the given array is not kept
        assert half_spectrum(f)[0] != 99.0
        plain = Field(grid64, f.values)
        assert plain._half is None

    def test_readonly_owned_spectrum_is_shared(self, grid64):
        half = np.ones(33, np.complex128)
        half.flags.writeable = False
        assert half_spectrum(Field.from_half(grid64, half)) is half
        writeable = np.ones(33, np.complex128)
        kept = half_spectrum(Field.from_half(grid64, writeable))
        assert kept is not writeable and not kept.flags.writeable

    def test_half_spectrum_of_carried_and_plain_fields(self, grid64):
        # a carried field returns the edge-based half spectrum its samples
        # were built from, kept read-only: no work per call
        f = random_real_field(grid64, 8)
        carried = Field.from_spectrum(grid64, spectral_values(f))
        half = half_spectrum(carried)
        assert half_spectrum(carried) is half and not half.flags.writeable
        assert np.array_equal(half, edge_based(spectral_values(f)[:33]))
        assert np.array_equal(half_spectrum(f), grid64.real_forward(f.values))
        assert np.max(np.abs(half_spectrum(f) - half)) <= 1e-14 * np.max(np.abs(half))


class TestOneKeptHalf:
    """A real field keeps at most one array beside its samples, its
    edge-based half, read-only; the given spectra have one shape each."""

    def test_field_keeps_at_most_its_half(self, grid64):
        plain = random_real_field(grid64, 2)
        hat = spectral_values(plain)
        built = Field.from_spectrum(grid64, hat)
        sample = sampler(built, "gaussian")
        assert sample.half.shape == (33,) and sample.stack.shape == (2 * sample.n_max + 1, 33)
        fields = [plain, built, Field.from_half(grid64, half_spectrum(plain)), sample(3)]
        for f in fields:
            assert not hasattr(f, "_spectrum")
            kept = [v for k, v in vars(f).items() if k not in ("grid", "values") and v is not None]
            assert len(kept) <= 1
            assert all(a.shape == (33,) and not a.flags.writeable for a in kept)
        assert plain._half is None and built._half is not None
        # the spectrum of a field built from one is the transform of its samples
        assert spectral_values(built).tobytes() == grid64.forward(built.values).tobytes()

    def test_from_spectrum_takes_the_full_shape_only(self, grid64):
        hat = spectral_values(random_real_field(grid64, 3))
        # a 33-entry half once built a field with the wrong phase, and 100
        # entries were cut to N, both without an error
        for bad in (hat[:33], np.concatenate([hat, hat[:36]]), hat[:63], hat[None, :]):
            with pytest.raises(ValueError, match=r"expected \(64,\)"):
                Field.from_spectrum(grid64, bad)

    def test_from_half_takes_the_half_shape_only(self, grid64):
        f = random_real_field(grid64, 3)
        half = half_spectrum(f)
        for bad in (half[:32], np.concatenate([half, half]), spectral_values(f), half[None, :]):
            with pytest.raises(ValueError, match=r"expected \(33,\)"):
                Field.from_half(grid64, bad)


class TestDtypeByConstruction:
    """A field's dtype follows from how it was built, not from its values."""

    @pytest.mark.parametrize("imag", [1e-15, 1e-6])
    def test_complex_samples_stay_complex(self, grid64, imag):
        # however small the imaginary part: no tolerance turns samples real
        values = random_real_field(grid64, 4).values + 1j * imag
        f = Field(grid64, values)
        assert f.values.dtype == np.complex128
        assert np.array_equal(f.values, values)

    def test_carried_spectrum_survives_the_conversion(self, grid64):
        # the complex inverse leaves round-off in the imaginary part, which
        # a complex field keeps; the field built from the spectrum is real
        hat = spectral_values(random_real_field(grid64, 5))
        samples = grid64.inverse(hat)
        assert np.any(samples.imag != 0.0)
        f = Field.from_spectrum(grid64, hat)
        assert f.values.dtype == np.float64
        assert np.array_equal(f.values, grid64.real_inverse(edge_based(hat[:33])))
        assert np.max(np.abs(f.values - samples.real)) <= 1e-15 * np.max(np.abs(samples))
        assert np.array_equal(former_spectral_values(f)[:33], hat[:33])
        assert np.array_equal(half_spectrum(f), edge_based(hat[:33]))


def _former_real_samples(grid, hat):
    """The former builder of real data from a Hermitian spectrum: the
    complex inverse, stored as its real part when max |imag| <= 1e-12
    max |real| (the realness tolerance `Field` applied)."""
    samples = grid.inverse(hat)
    if not np.abs(samples.imag).max() > 1e-12 * np.abs(samples.real).max():
        samples = samples.real
    return samples


class TestBandLimitedBuilders:
    """`cli._band_limit` and `probes._banded_bump` build real fields from
    their spectra; their samples are the former complex-inverse ones to
    round-off, and the fields keep that spectrum's edge-based modes
    0 .. N/2."""

    @staticmethod
    def _assert_matches_former(f, hat):
        former = _former_real_samples(f.grid, hat)
        assert former.dtype == np.float64  # the former tolerance made them real
        assert f.values.dtype == np.float64
        assert np.max(np.abs(f.values - former)) <= 1e-15 * np.max(np.abs(former))
        assert np.array_equal(half_spectrum(f), edge_based(hat[: f.grid.n_modes // 2 + 1]))

    @pytest.mark.parametrize(
        "half_length,n_modes,amplitude,band",
        [
            (16.0, 64, 1.8, 2.0),  # the lwp preset and the lwp-picard workload
            (32.0, 512, 1.0, 2.0),
            (16.0, 64, 1.0, 10.0),  # wider than the grid: the Nyquist mode kept
        ],
    )
    def test_band_limit(self, half_length, n_modes, amplitude, band):
        grid = make_grid(half_length, n_modes)
        phi = field_from_function(grid, lambda x: amplitude * np.exp(-(x**2)))
        hat = spectral_values(phi) * (np.abs(grid.xi) <= band).astype(np.float64)
        self._assert_matches_former(_band_limit(phi, band), hat)

    @pytest.mark.parametrize("n_modes", [64, 128])  # the probe preset and its doubling
    def test_banded_bump(self, n_modes):
        grid = make_grid(8.0, n_modes)
        coeffs = np.exp(-(grid.xi**2)) * (np.abs(grid.xi) <= 3.5)
        hat = coeffs / np.sqrt(grid.dxi * np.sum(coeffs**2))
        self._assert_matches_former(_banded_bump(grid, 3.5), hat)


class TestAiryPropagate:
    def test_single_mode_phase(self):
        g = make_grid(np.pi, 64)
        f = field_from_function(g, lambda x: np.exp(2j * x))
        out = airy_propagate(f, 0.1)
        k = np.argmin(np.abs(g.xi - 2.0))
        ratio = spectral_values(out)[k] / spectral_values(f)[k]
        assert np.angle(ratio) == pytest.approx(0.8, abs=1e-12)

    def test_zero_time_is_identity(self, bump):
        out = airy_propagate(bump, 0.0)
        assert np.max(np.abs(out.values - bump.values)) <= 1e-14 * np.max(np.abs(bump.values))

    def test_group_property(self, grid512):
        f = random_real_field(grid512, 3)
        a = airy_propagate(f, 0.3 + 0.45)
        b = airy_propagate(airy_propagate(f, 0.3), 0.45)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(a.values))

    @pytest.mark.parametrize("s", [0.0, 3.0 / 14.0, 1.0])
    def test_preserves_sobolev_norms(self, bump, s):
        before = sobolev_norm(bump, s)
        after = sobolev_norm(airy_propagate(bump, 1.0), s)
        assert abs(after - before) <= 1e-12 * before


def _bessel(f, s):
    """The Bessel potential <D>^s: spectrum times (1 + xi^2)^(s/2)."""
    return multiply(f, (1.0 + f.grid.xi**2) ** (s / 2.0))


def _derivative(f, order=1):
    """The spectral derivative: spectrum times (i xi)^order."""
    return multiply(f, (1j * f.grid.xi) ** order)


class TestBesselMultiplier:
    """`multiply` with the Bessel symbol <xi>^s."""

    def test_order_zero_identity(self, bump):
        out = _bessel(bump, 0.0)
        assert np.max(np.abs(out.values - bump.values)) <= 1e-14

    def test_single_mode_weight(self):
        g = make_grid(np.pi, 64)
        f = field_from_function(g, lambda x: np.exp(2j * x))
        out = _bessel(f, 1.0)
        assert l2_norm(out) / l2_norm(f) == pytest.approx(np.sqrt(5.0), rel=1e-13)

    def test_inverse(self, grid512):
        f = random_real_field(grid512, 4)
        back = _bessel(_bessel(f, 0.7), -0.7)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


class TestDerivative:
    """`multiply` with the derivative symbols (i xi)^k, the x
    derivatives of the equation."""

    def test_sin_to_cos(self):
        g = make_grid(np.pi, 128)
        out = _derivative(field_from_function(g, np.sin))
        assert np.max(np.abs(out.values - np.cos(g.x))) <= 1e-12

    def test_third_derivative_single_mode(self):
        g = make_grid(np.pi, 16)
        f = field_from_function(g, lambda x: np.exp(2j * x))
        out = _derivative(f, order=3)
        expected = -8j * f.values
        assert np.max(np.abs(out.values - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_constant_derivative_vanishes(self):
        g = make_grid(np.pi, 64)
        out = _derivative(field_from_function(g, lambda x: 0.0 * x + 3.0))
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_commutes_with_airy(self, grid512):
        f = random_real_field(grid512, 5)
        a = _derivative(airy_propagate(f, 0.2))
        b = airy_propagate(_derivative(f), 0.2)
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(
    t1=st.floats(-1.0, 1.0, allow_nan=False),
    t2=st.floats(-1.0, 1.0, allow_nan=False),
    seed=st.integers(0, 100),
)
def test_airy_group_property_random(t1, t2, seed):
    g = make_grid(8.0, 64)
    f = random_real_field(g, seed)
    a = airy_propagate(f, t1 + t2)
    b = airy_propagate(airy_propagate(f, t1), t2)
    assert np.max(np.abs(a.values - b.values)) <= 1e-11 * max(1.0, np.max(np.abs(a.values)))
