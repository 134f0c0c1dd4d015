import dataclasses
import inspect

import pytest

from gkdvlab.cli import build_data
from gkdvlab.config import _SCHEMA, ConfigError, load_config, parse_float_list
from gkdvlab.grid import make_grid
from gkdvlab.montecarlo import exceptional_probability, run_ensemble, strichartz_scaling
from gkdvlab.params import b_index, data_index, sigma_index
from gkdvlab.probes import (
    ProbeResolution,
    estimate_ids,
    random_field,
    random_spacetime,
    run_estimate,
    run_estimates,
)
from gkdvlab.solver import evolve_reference, picard_solve
from gkdvlab.spacetime import centered_axis
from gkdvlab.wiener import sampler


class TestDefaults:
    def test_derived_exponents(self):
        cfg = load_config(None)
        eps = cfg["model"]["epsilon"]
        assert sigma_index(eps) == pytest.approx(3.0 / 14.0 + 2.0 * eps)
        assert b_index(eps) == pytest.approx(0.5 + eps / 24.0)

    def test_epsilon_formulae(self):
        assert sigma_index(0.12) == pytest.approx(3.0 / 14.0 + 0.24)
        assert b_index(0.12) == pytest.approx(0.5 + 0.12 / 24.0)
        assert data_index(0.12) == pytest.approx(17.0 / 112.0 + 0.12)


class TestValidation:
    def test_unknown_keys_and_sections_reported_together(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[grid]\nn_modes = 63\nwibble = 1\n[nope]\nx = 2\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        text = str(err.value)
        assert "wibble" in text and "[nope]" in text and "n_modes" in text

    def test_epsilon_range(self):
        with pytest.raises(ConfigError):
            load_config(None, {"model.epsilon": 0.5})
        with pytest.raises(ConfigError):
            load_config(None, {"model.epsilon": 0.0})

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[grid]\nn_modes = many\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert "many" in str(err.value)

    def test_unknown_distribution(self):
        with pytest.raises(ConfigError):
            load_config(None, {"random.distribution": "cauchy"})

    def test_file_kind_needs_path(self):
        with pytest.raises(ConfigError):
            load_config(None, {"data.kind": "file"})


class TestOverrides:
    def test_derived_exponent_is_unknown_key(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[model]\nsigma = 0.4\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert "sigma" in str(err.value)

    def test_cli_style_overrides(self):
        cfg = load_config(None, {"random.master_seed": 7, "ensemble.threads": 3})
        assert cfg["random"]["master_seed"] == 7
        assert cfg["ensemble"]["threads"] == 3


@pytest.mark.parametrize(
    "entry",
    [
        picard_solve,
        evolve_reference,
        exceptional_probability,
        strichartz_scaling,
        run_ensemble,
        run_estimates,
        run_estimate,
        estimate_ids,
        random_field,
        random_spacetime,
    ],
    ids=lambda f: f.__name__,
)
def test_run_entry_points_take_no_defaults(entry):
    # every run value has one home, config._SCHEMA; the library keeps no
    # second copy that could drift from it
    defaults = [p.name for p in inspect.signature(entry).parameters.values()
                if p.default is not inspect.Parameter.empty]
    assert defaults == []


def test_probe_resolution_fields_take_no_defaults():
    assert all(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(ProbeResolution))


def _lwp_ensemble(cfg):
    lwp = cfg["lwp"]
    exceptional_probability(
        sampler(build_data(cfg), cfg["random"]["distribution"]),
        parse_float_list(lwp["t_grid"]),
        lwp["n_samples"],
        lwp["tol"],
        taxis=centered_axis(cfg["time"]["t_span"], cfg["time"]["m_t"]),
        xi_band=lwp["xi_band"],
        eps=cfg["model"]["epsilon"],
        max_iter=lwp["max_iter"],
        seed=0,
        threads=1,
    )


def _strichartz_tail(cfg):
    st = cfg["strichartz"]
    strichartz_scaling(
        sampler(build_data(cfg), cfg["random"]["distribution"]),
        st["q"],
        st["r"],
        parse_float_list(st["t_grid"]),
        cfg["ensemble"]["n_samples"],
        seed=0,
        n_time_samples=st["n_time_samples"],
        threads=1,
    )


def _estimates(cfg):
    est = cfg["estimates"]
    resolution = ProbeResolution(
        est["n_modes"], est["half_length"], est["m_t"], est["t_span"], est["xi_band"]
    )
    run_estimates(["embed01"], cfg["model"]["epsilon"], resolution, est["n_trials"], seed=0)


def _simulate(cfg):
    sim = cfg["simulate"]
    evolve_reference(build_data(cfg), sim["t_end"], sim["dt"], sim["output_stride"] or None,
                     sim["diag_stride"], seed=None)


def _grid(cfg):
    make_grid(cfg["grid"]["half_length"], cfg["grid"]["n_modes"])


@pytest.mark.parametrize(
    "section,key,value,run",
    [
        ("lwp", "tol", "0", _lwp_ensemble),
        ("lwp", "n_samples", "50", _lwp_ensemble),
        ("lwp", "max_iter", "0", _lwp_ensemble),
        ("lwp", "xi_band", "0", _lwp_ensemble),
        ("lwp", "t_grid", "0.0625,0.125", _lwp_ensemble),
        ("lwp", "t_grid", "0.25,nan", _lwp_ensemble),
        ("lwp", "t_grid", "inf,0.25", _lwp_ensemble),
        ("lwp", "t_grid", "0.25,0.25", _lwp_ensemble),
        ("time", "t_span", "0", _lwp_ensemble),
        ("time", "t_span", "-4", _lwp_ensemble),
        ("time", "t_span", "inf", _lwp_ensemble),
        ("grid", "half_length", "inf", _grid),
        ("strichartz", "t_grid", "0.125,0.25,nan", _strichartz_tail),
        ("strichartz", "t_grid", "0.125,inf,0.5", _strichartz_tail),
        ("strichartz", "t_grid", "0.125,0.125,0.25", _strichartz_tail),
        ("strichartz", "q", "0.5", _strichartz_tail),
        ("strichartz", "q", "inf", _strichartz_tail),
        ("strichartz", "r", "0.5", _strichartz_tail),
        ("strichartz", "n_time_samples", "0", _strichartz_tail),
        ("ensemble", "n_samples", "10", _strichartz_tail),
        ("estimates", "n_modes", "63", _estimates),
        ("estimates", "m_t", "15", _estimates),
        ("estimates", "half_length", "0", _estimates),
        ("estimates", "half_length", "inf", _estimates),
        ("estimates", "t_span", "0", _estimates),
        ("estimates", "t_span", "-2", _estimates),
        ("estimates", "t_span", "inf", _estimates),
        ("estimates", "xi_band", "-1", _estimates),
        ("estimates", "xi_band", "nan", _estimates),
        ("simulate", "dt", "0", _simulate),
        ("simulate", "t_end", "0", _simulate),
        ("simulate", "t_end", "0.00015", _simulate),
        ("simulate", "output_stride", "3", _simulate),
    ],
)
def test_config_reports_the_library_message(section, key, value, run):
    # a rule with a library home is checked there; config reports the
    # library's own message, so the two cannot drift apart
    typed = _SCHEMA[section][key][0](value)
    cfg = load_config(None)
    cfg[section][key] = typed
    with pytest.raises(ValueError) as library:
        run(cfg)
    with pytest.raises(ConfigError) as config:
        load_config(None, {f"{section}.{key}": typed})
    assert config.value.problems == [f"[{section}] {library.value}"]
