"""The shipped presets and the benchmark workloads' configurations load,
and the experiment scripts import.

Scripts run their experiment only under `__main__`; running them under
another name executes just their imports and definitions, so a removed
public name or config key fails here instead of at the next experiment.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

from gkdvlab.config import load_config
from gkdvlab.grid import make_grid

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# the benchmark's workloads, read (not modified) from benchmarks/workloads.py
WORKLOADS = runpy.run_path(str(ROOT / "benchmarks" / "workloads.py"))["WORKLOADS"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_preset_loads(path):
    load_config(path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_loads(tmp_path, name):
    # a schema edit that breaks a workload's INI text fails here, not as an
    # exit-2 benchmark run
    path = tmp_path / "run.ini"
    path.write_text(WORKLOADS[name].config)
    load_config(path)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    runpy.run_path(str(path), run_name="smoke")


def test_tail_study_runs(tmp_path):
    main = runpy.run_path(str(ROOT / "scripts" / "tail_study.py"), run_name="smoke")["main"]
    main(tmp_path, n_samples=1000)
    assert (tmp_path / "hs_tail.csv").read_text().startswith("lambda,lambda_sq,")
    assert (tmp_path / "scales.csv").read_text().startswith("T,scale,")


def test_cross_validation_data_are_real():
    # `picard_solve` and `evolve_reference` take real (float64) data only
    script = runpy.run_path(str(ROOT / "scripts" / "cross_validate_solvers.py"), run_name="smoke")
    grid = make_grid(32.0, 512)
    phi = script["banded_bump"](grid, amplitude=1.0, band=2.0)
    assert phi.values.dtype == np.float64
