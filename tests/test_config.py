import dataclasses
import inspect

import pytest

from gkdvlab.config import ConfigError, load_config
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
