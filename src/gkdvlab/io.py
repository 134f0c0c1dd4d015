"""On-disk formats: field and trajectory dumps, CSV tables, run manifests.

Dumps are a short text header followed by raw little-endian float64 rows
(one time sample per row); complex samples are refused. CSV floats are written with 17 significant
digits so that doubles round-trip bit-exactly. Every run directory gets a
manifest listing the configuration echo, the package version, the software
environment (Python, numpy and platform, since FFT output bytes depend on
them) and a sha256 per artifact; identical configurations must reproduce
identical hashes.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from . import __version__
from .grid import Field, make_grid
from .solver import Diagnostics, Trajectory
from .spacetime import SpaceTimeField, TimeAxis

MAGIC_FIELD = "gkdvlab-field 1"
MAGIC_TRAJECTORY = "gkdvlab-trajectory 1"
HEADER_END = "---"


def fmt17(x: float) -> str:
    """17 significant digits; parses back to the same double."""
    return f"{float(x):.17g}"


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt17(v)
    return str(v)


def write_csv(path: Path | str, header: list[str], rows: list[tuple]) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_header_and_rows(path: Path, magic: str, meta: dict, rows: np.ndarray) -> None:
    if rows.dtype != np.float64:
        raise ValueError(f"dumps hold real samples; got {rows.dtype} samples")
    lines = [magic]
    for key, value in meta.items():
        lines.append(f"{key} {_cell(value)}")
    lines.append(f"rows {rows.shape[0]}")
    lines.append(f"cols {rows.shape[1]}")
    lines.append(HEADER_END)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(rows, dtype="<f8"))


def _read_header(blob: bytes, magic: str) -> tuple[dict, np.ndarray]:
    end = blob.index(b"\n" + HEADER_END.encode() + b"\n")
    header = blob[:end].decode("ascii").splitlines()
    if header[0] != magic:
        raise ValueError(f"bad magic line {header[0]!r}, expected {magic!r}")
    meta = {}
    for line in header[1:]:
        key, _, value = line.partition(" ")
        meta[key] = value
    start = end + len(HEADER_END) + 2
    rows, cols = int(meta.pop("rows")), int(meta.pop("cols"))
    data = np.frombuffer(blob[start:], dtype="<f8", count=rows * cols).reshape(rows, cols)
    return meta, data


def save_field(path: Path | str, f: Field, kind: str = "field", seed: int | None = None) -> Path:
    """Real physical samples with the grid in the header."""
    path = Path(path)
    meta = {
        "kind": kind,
        "L": f.grid.half_length,
        "N": f.grid.n_modes,
        "seed": -1 if seed is None else seed,
    }
    _write_header_and_rows(path, MAGIC_FIELD, meta, f.values[None, :])
    return path


def load_field(path: Path | str) -> Field:
    meta, data = _read_header(Path(path).read_bytes(), MAGIC_FIELD)
    grid = make_grid(float(meta["L"]), int(meta["N"]))
    return Field(grid, data[0])


def save_trajectory(path: Path | str, traj: Trajectory) -> Path:
    path = Path(path)
    taxis = traj.u.taxis
    meta = {
        "L": traj.u.grid.half_length,
        "N": traj.u.grid.n_modes,
        "dt": traj.dt,
        "dt_out": taxis.dt,
        "t0": taxis.t0,
        "scheme": traj.scheme,
        "seed": -1 if traj.seed is None else traj.seed,
        "blown_up": traj.blown_up,
        "first_bad_step": -1 if traj.first_bad_step is None else traj.first_bad_step,
    }
    _write_header_and_rows(path, MAGIC_TRAJECTORY, meta, traj.u.values)
    return path


def load_trajectory(path: Path | str) -> Trajectory:
    meta, data = _read_header(Path(path).read_bytes(), MAGIC_TRAJECTORY)
    grid = make_grid(float(meta["L"]), int(meta["N"]))
    taxis = TimeAxis(t0=float(meta["t0"]), dt=float(meta["dt_out"]), n_samples=data.shape[0])
    u = SpaceTimeField(grid, taxis, data)
    seed = int(meta["seed"])
    bad = int(meta["first_bad_step"])
    return Trajectory(
        u=u,
        dt=float(meta["dt"]),
        scheme=meta["scheme"],
        diagnostics=None,
        seed=None if seed < 0 else seed,
        blown_up=meta["blown_up"] == "1",
        first_bad_step=None if bad < 0 else bad,
    )


def ensemble_table(records, extra: dict | None = None) -> tuple[list[str], list[tuple]]:
    """Header and rows (sample, seed, observable columns) for a record list.

    Observable columns are sorted by name; blown-up samples show nan.
    `extra` prepends constant columns (e.g. the T of a sweep)."""
    names = sorted({k for r in records for k in r.values})
    extra = extra or {}
    header = list(extra) + ["sample", "seed"] + names
    rows = []
    for r in records:
        obs = [r.values.get(k, float("nan")) for k in names]
        rows.append(tuple(extra.values()) + (r.index, r.seed) + tuple(obs))
    return header, rows


def diagnostics_rows(d: Diagnostics) -> list[tuple]:
    return [
        (int(s), t, m0, m1, m2)
        for s, t, m0, m1, m2 in zip(d.step, d.time, d.mean, d.mass, d.energy)
    ]


def sha256_file(path: Path | str) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _platform_name() -> str:
    """`platform.platform()` on Linux, e.g. Linux-6.1.0-x86_64-with-glibc2.36,
    without the `uname -p` subprocess that it starts."""
    parts = [platform.system(), platform.release(), platform.machine()]
    libc = "".join(platform.libc_ver())
    if libc:
        parts += ["with", libc]
    return "-".join(p for p in parts if p)


def write_manifest(out_dir: Path | str, config_echo: dict, artifacts: list[Path | str]) -> Path:
    out_dir = Path(out_dir)
    manifest = {
        "code_version": __version__,
        "config": config_echo,
        "environment": {
            "numpy": np.__version__,
            "platform": _platform_name(),
            "python": platform.python_version(),
        },
        "artifacts": {Path(p).name: sha256_file(p) for p in sorted(map(str, artifacts))},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
