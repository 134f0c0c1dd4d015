import numpy as np
import pytest

from gkdvlab.grid import (
    SQRT_2PI,
    Field,
    Grid,
    _phase,
    field_from_function,
    half_spectrum,
    make_grid,
    spectral_values,
)
from gkdvlab.solver import _eighth_power, _fine_samples, _nonlinearity, picard_solve
from gkdvlab.spacetime import (
    Cutoff,
    SpaceTimeField,
    _half_propagator,
    _propagator,
    _time_forward,
    _time_grid,
    _time_inverse,
    bump_profile,
    centered_axis,
    free_evolution,
    midpoint_axis,
    smooth_step,
    st_l2,
)
from gkdvlab.wiener import sampler

from conftest import (
    EPS,
    airy_propagate,
    banded_bump,
    edge_based,
    former_real_forward,
    free_coeffs,
    st_spectral_values,
    st_to_physical,
)


def _make_field(kind, values):
    """A Field (on 16 modes) or a SpaceTimeField (16 time samples x 16 modes)."""
    grid = make_grid(4.0, 16)
    if kind == "field":
        return Field(grid, values)
    return SpaceTimeField(grid, centered_axis(4.0, 16), values)


@pytest.mark.parametrize("kind,shape", [("field", (16,)), ("spacetime", (16, 16))])
class TestCopySemantics:
    """Fields copy what a caller could still write to, and share the rest."""

    def test_writeable_caller_array_is_copied(self, kind, shape):
        arr = np.full(shape, 1 + 1j)
        f = _make_field(kind, arr)
        arr[...] = 5.0
        assert np.all(f.values == 1 + 1j)
        assert not np.shares_memory(f.values, arr)

    def test_readonly_owned_array_is_shared(self, kind, shape):
        # truly complex and float64 samples need no conversion
        for arr in (np.full(shape, 1 + 1j), np.ones(shape)):
            arr.flags.writeable = False
            assert _make_field(kind, arr).values is arr

    def test_readonly_view_of_writeable_array_is_copied(self, kind, shape):
        base = np.full(shape, 1 + 1j)
        view = base[...]
        view.flags.writeable = False
        f = _make_field(kind, view)
        base[...] = 5.0
        assert np.all(f.values == 1 + 1j)

    def test_converted_input_is_not_shared(self, kind, shape):
        # float32: the conversion to float64 is a new array
        arr = np.ones(shape, np.float32)
        f = _make_field(kind, arr)
        arr[...] = 5.0
        assert np.all(f.values == 1.0)

    @pytest.mark.parametrize("readonly", [False, True])
    def test_values_always_readonly(self, kind, shape, readonly):
        arr = np.full(shape, 1 + 1j)
        arr.flags.writeable = not readonly
        f = _make_field(kind, arr)
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[...] = 0.0
        assert not _make_field(kind, np.zeros(shape)).values.flags.writeable


class TestTimeAxis:
    def test_centered_axis_contains_zero(self):
        ta = centered_axis(4.0, 64)
        assert ta.is_centered
        assert np.min(np.abs(ta.t)) == 0.0
        assert ta.tau_max == pytest.approx(np.pi * 64 / 4.0)

    def test_centered_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            centered_axis(4.0, 15)
        with pytest.raises(ValueError):
            centered_axis(4.0, 8)

    @pytest.mark.parametrize("t_span", [0.0, -4.0, np.inf, np.nan])
    def test_centered_rejects_span_not_positive_and_finite(self, t_span):
        with pytest.raises(ValueError, match="t_span must be positive and finite"):
            centered_axis(t_span, 16)

    def test_midpoint_axis_integrates_constants_exactly(self):
        ta = midpoint_axis(0.5, 10)
        assert ta.dt * ta.n_samples == pytest.approx(0.5)
        assert not ta.is_centered

    def test_samples_and_frequencies_cached_and_read_only(self):
        ta = centered_axis(4.0, 64)
        t, tau = ta.t, ta.tau
        assert ta.t is t and ta.tau is tau
        assert np.array_equal(t, ta.t0 + ta.dt * np.arange(64))
        assert np.array_equal(tau, 2.0 * np.pi * np.fft.fftfreq(64, d=ta.dt))
        for a in (t, tau):
            with pytest.raises(ValueError):
                a[0] = 1.0

    @pytest.mark.parametrize(
        "ta",
        [
            centered_axis(4.0, 32),
            centered_axis(4.0, 64),
            centered_axis(4.0, 256),
            centered_axis(4.0, 2048),
            centered_axis(8.0, 2048),
            midpoint_axis(0.5, 37),
            midpoint_axis(0.25, 8),
        ],
    )
    def test_phases_cached_read_only_and_equal_to_per_call_expressions(self, ta):
        # a centred axis is the periodic grid of its samples: the time pair
        # is that grid's pair, with the exact phase (-1)^k, the cached
        # read-only `_phase(m_t)`. The former pair built exp(-i t0 tau) with
        # np.exp, which is off from (-1)^k by round-off growing with m_t
        # (4.3e-14 at m_t = 256, 3.4e-13 at 2048); the two pairs differ by
        # 1e-13 relative, or by that error where it is larger. A one-sided
        # axis has no such grid and is refused.
        m = ta.n_samples
        values = np.random.default_rng(m).standard_normal((m, 3)) + 0.5j
        if not ta.is_centered:
            for transform in (_time_forward, _time_inverse):
                with pytest.raises(ValueError, match="centered time box"):
                    transform(ta, values)
            return
        grid = _time_grid(ta)
        assert grid == Grid(0.5 * ta.span, m) and grid.dx == ta.dt
        phase = _phase(m)
        assert _phase(m) is phase and not phase.flags.writeable
        exact = ((ta.dt / SQRT_2PI) * phase)[:, None] * np.fft.fft(values, axis=0)
        assert np.array_equal(_time_forward(ta, values), exact)
        former_phase = np.exp(-1j * ta.t0 * ta.tau)
        error = float(np.max(np.abs(former_phase - phase)))
        assert error <= 1e-12
        former = (ta.dt / SQRT_2PI) * former_phase[:, None] * np.fft.fft(values, axis=0)
        former_inverse = (ta.dtau * m / SQRT_2PI) * np.fft.ifft(
            values * np.conj(former_phase)[:, None], axis=0
        )
        for got, want in ((_time_forward(ta, values), former),
                          (_time_inverse(ta, values), former_inverse)):
            assert np.max(np.abs(got - want)) <= max(1e-13, error) * np.max(np.abs(want))


class TestSpaceTimeTransforms:
    def test_parseval_and_round_trip(self, grid64):
        ta = centered_axis(4.0, 32)
        rng = np.random.default_rng(2)
        u = SpaceTimeField(
            grid64, ta, rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))
        )
        hat = st_spectral_values(u)
        spectral_l2 = np.sqrt(grid64.dxi * ta.dtau * np.sum(np.abs(hat) ** 2))
        assert abs(st_l2(u) - spectral_l2) <= 1e-12 * st_l2(u)
        back = st_to_physical(grid64, ta, hat)
        assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))

    def test_pair_matches_2d_fft_formula(self, grid64):
        # the former route: one fft2/ifft2 with both scales and phases by hand
        ta = centered_axis(4.0, 32)
        rng = np.random.default_rng(5)
        hat = rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))
        phase = np.exp(1j * ta.t0 * ta.tau)[:, None] * (-1.0) ** np.arange(64)[None, :]
        scale = grid64.dxi * ta.dtau * 64 * 32 / (2 * np.pi)
        direct = scale * np.fft.ifft2(hat * phase)
        u = st_to_physical(grid64, ta, hat)
        assert np.max(np.abs(u.values - direct)) <= 1e-13 * np.max(np.abs(direct))
        forward = grid64.dx * ta.dt / (2 * np.pi) * np.conj(phase) * np.fft.fft2(u.values)
        assert np.max(np.abs(st_spectral_values(u) - forward)) <= 1e-13 * np.max(np.abs(hat))

    @pytest.mark.parametrize("n_cols", [1, 64])
    def test_in_place_products_match_out_of_place(self, grid64, n_cols):
        # the time-axis pair is the grid pair of the centred box on the
        # transposed array, which scales the FFT's own output in place; it
        # must equal the out-of-place expressions with the exact phase
        # (-1)^k and leave its input alone
        ta = centered_axis(4.0, 32)
        rng = np.random.default_rng(9)
        values = rng.standard_normal((32, n_cols)) + 1j * rng.standard_normal((32, n_cols))
        kept = values.copy()
        phase = _phase(32)[:, None]
        old_forward = (ta.dt / SQRT_2PI) * phase * np.fft.fft(values, axis=0)
        assert np.array_equal(_time_forward(ta, values), old_forward)
        assert np.array_equal(values, kept)
        if n_cols == 64:
            hat_x = (ta.dtau * 32 / SQRT_2PI) * np.fft.ifft(values * phase, axis=0)
            old_physical = (grid64.dxi * 64 / SQRT_2PI) * np.fft.ifft(hat_x * _phase(64))
            assert np.array_equal(st_to_physical(grid64, ta, values).values, old_physical)
            assert np.array_equal(values, kept)

    @pytest.mark.parametrize(
        "given,kept",
        [(np.float64, np.float64), (np.int64, np.float64), (np.complex64, np.complex128),
         (np.complex128, np.complex128)],
    )
    def test_real_samples_stay_real(self, given, kept):
        # one dtype table for both field types: complex samples stay complex
        for kind, shape in (("field", (16,)), ("spacetime", (16, 16))):
            values = np.full(shape, 1 + 1j if np.dtype(given).kind == "c" else 1, given)
            assert _make_field(kind, values).values.dtype == kept

    def test_shape_validation(self, grid64):
        ta = centered_axis(4.0, 32)
        with pytest.raises(ValueError):
            SpaceTimeField(grid64, ta, np.zeros((31, 64)))


class TestCutoff:
    def test_plateau_support_and_range(self):
        eta = Cutoff(1.0)
        t = np.linspace(-3.0, 3.0, 2401)
        v = eta(t)
        assert np.all(v[np.abs(t) <= 1.0] == 1.0)
        assert np.all(v[np.abs(t) >= 2.0] == 0.0)
        assert v.min() >= 0.0 and v.max() <= 1.0

    def test_rescaled_support(self):
        T = 0.25
        eta_t = Cutoff(T)
        t = np.linspace(-1.0, 1.0, 4001)
        v = eta_t(t)
        assert np.all(v[np.abs(t) <= T] == 1.0)
        assert np.all(v[np.abs(t) >= 2 * T] == 0.0)

    def test_profile_smoothness_on_grid(self):
        # sampled derivatives stay continuous: finite differences of order
        # 1..4 show no jumps at the glue points
        t = np.linspace(-2.5, 2.5, 20001)
        v = bump_profile(t)
        d = v
        h = t[1] - t[0]
        for _ in range(4):
            d = np.diff(d) / h
            assert np.max(np.abs(np.diff(d))) <= np.max(np.abs(d)) * 0.05 + 1e-12

    def test_smooth_step_endpoints(self):
        assert smooth_step(np.array([-1.0, 0.0]))[1] == 0.0
        assert smooth_step(np.array([1.0, 2.0]))[0] == 1.0


class TestFreeEvolution:
    @pytest.mark.parametrize("carried", [False, True])
    def test_real_route_is_real_part_of_complex_route(self, grid64, carried):
        # the former route: the complex pair on all N modes, whatever the data
        phi = banded_bump(grid64, band=3.0)
        if not carried:
            phi = Field(grid64, phi.values)
        ta = centered_axis(2.0, 32)
        cut = Cutoff(0.25)
        z = free_evolution(phi, ta, cutoff=cut)
        assert z.values.dtype == np.float64
        old = grid64.inverse(free_coeffs(phi, ta, cut(ta.t)))
        scale = np.max(np.abs(old))
        assert np.max(np.abs(z.values - old.real)) <= 1e-14 * scale
        assert np.max(np.abs(old.imag)) <= 1e-14 * scale

    def test_complex_data_stay_complex(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        tilted = Field(grid64, 1j * phi.values)
        ta = centered_axis(2.0, 32)
        z = free_evolution(tilted, ta)
        assert z.values.dtype == np.complex128
        assert np.max(np.abs(z.values - 1j * free_evolution(phi, ta).values)) <= 1e-14

    def test_slices_match_airy(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        ta = centered_axis(2.0, 16)
        z = free_evolution(phi, ta)
        for j in (0, 5, 11):
            direct = airy_propagate(phi, ta.t[j])
            assert np.max(np.abs(z.values[j] - direct.values)) <= 1e-12

    def test_cutoff_applied(self, grid64):
        phi = banded_bump(grid64, band=3.0)
        ta = centered_axis(4.0, 64)
        z = free_evolution(phi, ta, cutoff=Cutoff(0.25))
        outside = np.abs(ta.t) >= 0.5
        assert np.max(np.abs(z.values[outside])) == 0.0


def _former_free_evolution(phi, taxis, cutoff):
    """The former real route of the free flow: the symmetric-convention
    half spectrum times the half table with the phase (-1)^k folded in, the
    cutoff, one raw irfft and the grid's inverse scale."""
    grid = phi.grid
    half = grid.n_modes // 2 + 1
    if phi._half is not None:
        hat = edge_based(phi._half)
    else:
        hat = former_real_forward(grid, phi.values)
    table = np.exp(1j * np.outer(taxis.t, grid.xi[:half] ** 3))
    table[:, 1::2] = -table[:, 1::2]
    coeffs = table * hat[None, :]
    if cutoff is not None:
        coeffs *= cutoff(taxis.t)[:, None]
    values = np.fft.irfft(coeffs, grid.n_modes)
    values *= grid.inverse_scale
    return values


class TestPropagator:
    def test_cached_and_read_only(self, grid64):
        ta = centered_axis(4.0, 64)
        table = _propagator(grid64, ta)
        assert _propagator(grid64, centered_axis(4.0, 64)) is table
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    def test_free_evolution_equals_uncached_table(self, grid64):
        # real data take the real pair on modes 0..N/2, other data the
        # complex pair; each route equals its expression with the table
        # built per call, bit for bit
        phi = banded_bump(grid64, band=3.0)
        ta = centered_axis(4.0, 256)
        cut = Cutoff(0.5)
        phases = np.exp(1j * np.outer(ta.t, grid64.xi**3))
        half = grid64.n_modes // 2 + 1
        direct = grid64.real_inverse(
            phases[:, :half] * half_spectrum(phi)[None, :] * cut(ta.t)[:, None]
        )
        assert np.array_equal(free_evolution(phi, ta, cutoff=cut).values, direct)
        tilted = Field(grid64, np.exp(0.3j) * phi.values)
        direct = grid64.inverse(phases * spectral_values(tilted)[None, :] * cut(ta.t)[:, None])
        assert np.array_equal(free_evolution(tilted, ta, cutoff=cut).values, direct)

    def test_half_table_cached_and_read_only(self, grid64):
        ta = centered_axis(4.0, 64)
        table = _half_propagator(grid64, ta)
        assert _half_propagator(grid64, centered_axis(4.0, 64)) is table
        # the plain rows: the real pair carries no phase to fold in
        assert table.tobytes() == _propagator(grid64, ta)[:, :33].tobytes()
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    @pytest.mark.parametrize(
        "half_length, n_modes, taxis",
        [
            (16.0, 128, midpoint_axis(0.125, 64)),
            (16.0, 128, midpoint_axis(0.25, 64)),
            (16.0, 128, midpoint_axis(0.5, 64)),
            (8.0, 128, centered_axis(4.0, 256)),
            (32.0, 512, centered_axis(4.0, 2048)),
            (16.0, 64, centered_axis(4.0, 256)),
        ],
        ids=["tail-0.125", "tail-0.25", "tail-0.5", "probe", "desk", "lwp"],
    )
    @pytest.mark.parametrize("scale", [None, 0.25], ids=["bare", "cutoff"])
    def test_real_route_equals_former_expression(self, half_length, n_modes, taxis, scale):
        # the former real route, kept here (`_former_free_evolution`): the
        # phase moved out of the table and the half spectrum is an exact sign
        # flip of both factors, so the samples are the former ones bit for
        # bit, on the tail's, the probes', the desk and the lwp grids, for
        # sampled data, data built from a spectrum and sampler draws
        grid = make_grid(half_length, n_modes)
        bump = field_from_function(grid, lambda x: np.exp(-(x**2)))
        sample = sampler(bump, "gaussian")
        cutoff = None if scale is None else Cutoff(scale)
        for phi in [bump, banded_bump(grid, 1.0, 2.0)] + [sample(seed) for seed in range(4)]:
            z = free_evolution(phi, taxis, cutoff=cutoff)
            assert z.values.dtype == np.float64
            assert z.values.tobytes() == _former_free_evolution(phi, taxis, cutoff).tobytes()

    def test_duhamel_gamma_equals_uncached_tables(self, grid64):
        # picard_solve's second iterate is the Duhamel map of its first
        ta = centered_axis(4.0, 256)
        T = 0.25
        t, grid = ta.t, grid64
        xi = grid.xi[: grid.n_modes // 2 + 1]
        phi = banded_bump(grid, amplitude=1.0, band=2.0)
        first = picard_solve(phi, T, tol=1e-30, max_iter=1, taxis=ta, xi_band=4.0, eps=EPS)
        second = picard_solve(phi, T, tol=1e-30, max_iter=2, taxis=ta, xi_band=4.0, eps=EPS)
        assert second.iterations == 2
        v_hat, z_hat = first.v_hat, first.z_hat
        eta, eta_T = Cutoff(1.0)(t), Cutoff(T)(t)
        # the mild form of the Duhamel map on the full axis with both tables
        # built per call
        w = eta[:, None] * v_hat + z_hat
        active = np.max(np.abs(w), axis=1) > 0.0
        forcing = np.zeros_like(w)
        forcing[active] = _nonlinearity(grid, _eighth_power(_fine_samples(grid, w[active])))
        integrand = np.exp(-1j * np.outer(t, xi**3)) * forcing
        mids = 0.5 * ta.dt * (integrand[1:] + integrand[:-1])
        cumulative = np.vstack([np.zeros((1, xi.size)), np.cumsum(mids, axis=0)])
        cumulative = cumulative - cumulative[int(np.argmin(np.abs(t)))]
        out_hat = np.exp(1j * np.outer(t, xi**3)) * cumulative * eta_T[:, None]
        assert np.array_equal(second.v_hat, out_hat)
