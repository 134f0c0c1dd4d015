import json
import platform
import subprocess
import sys

import numpy as np
import pytest

from gkdvlab.grid import field_from_function, make_grid
from gkdvlab.io import (
    _platform_name,
    fmt17,
    load_field,
    load_trajectory,
    save_field,
    save_trajectory,
    sha256_file,
    write_csv,
    write_manifest,
)
from gkdvlab.solver import evolve_reference


def test_fmt17_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(fmt17(x)) == x


def test_field_round_trip(tmp_path):
    g = make_grid(16.0, 64)
    f = field_from_function(g, lambda x: np.exp(-(x**2)) * np.cos(x))
    path = save_field(tmp_path / "f.field", f, seed=5)
    back = load_field(path)
    assert back.grid == g
    assert np.array_equal(back.values.real, f.values.real)


def test_trajectory_round_trip(tmp_path):
    g = make_grid(16.0, 64)
    phi = field_from_function(g, lambda x: 0.5 * np.exp(-(x**2)))
    traj = evolve_reference(phi, 0.02, 1e-3, seed=11)
    path = save_trajectory(tmp_path / "t.bin", traj)
    back = load_trajectory(path)
    assert back.scheme == "ifrk4"
    assert back.dt == traj.dt
    assert back.seed == 11
    assert not back.blown_up
    assert back.diagnostics is None
    assert np.array_equal(back.u.values.real, traj.u.values.real)
    assert back.u.taxis.t0 == traj.u.taxis.t0
    assert back.u.taxis.dt == pytest.approx(traj.u.taxis.dt)


def test_csv_writer_formats(tmp_path):
    p = write_csv(tmp_path / "x.csv", ["a", "b"], [(1, 0.1), (2, float(np.pi))])
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1].split(",")[1] == fmt17(0.1)
    assert float(lines[2].split(",")[1]) == float(np.pi)


def test_ensemble_table_layout():
    from gkdvlab.io import ensemble_table
    from gkdvlab.montecarlo import EnsembleRecord

    records = [
        EnsembleRecord(index=0, seed=11, values={"b": 2.0, "a": 1.0}),
        EnsembleRecord(index=1, seed=12, values={}, blown_up=True),
    ]
    header, rows = ensemble_table(records, extra={"T": 0.5})
    assert header == ["T", "sample", "seed", "a", "b"]
    assert rows[0] == (0.5, 0, 11, 1.0, 2.0)
    assert np.isnan(rows[1][3]) and np.isnan(rows[1][4])


def test_manifest_lists_hashes(tmp_path):
    p1 = write_csv(tmp_path / "one.csv", ["x"], [(1.0,)])
    m = write_manifest(tmp_path, {"grid": {"n_modes": 64}}, [p1])
    data = json.loads(m.read_text())
    assert data["artifacts"]["one.csv"] == sha256_file(p1)
    assert data["config"]["grid"]["n_modes"] == 64
    assert "code_version" in data
    assert data["environment"]["numpy"] == np.__version__
    assert set(data["environment"]) == {"numpy", "platform", "python"}


def test_manifest_starts_no_subprocess(tmp_path, monkeypatch):
    # platform caches uname() and platform(); with the caches cleared, a
    # lookup that runs `uname -p` would have to run it here
    monkeypatch.setattr(platform, "_uname_cache", None)
    monkeypatch.setattr(platform, "_platform_cache", {})

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"subprocess started: {args}")

    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    m = write_manifest(tmp_path, {}, [])
    assert json.loads(m.read_text())["environment"]["platform"] == _platform_name()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="platform() spells other systems differently")
def test_platform_name_matches_platform_module():
    assert _platform_name() == platform.platform()
