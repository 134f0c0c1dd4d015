"""Correctness checks behind `failed_frac`.

Every invocation must exit 0, write every expected artifact, and write a
manifest whose sha256 matches each file. Each workload also has invariants
that hold at any seed. At the default seed (at every seed for a workload
whose seed only labels the run) the artifacts are compared with the
reference output stored under `reference/`: discrete columns exactly, float
columns to round-off. The comparison reads values, not bytes, so a change
that only reorders floating-point work still passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from workloads import Workload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
RTOL = SPEC["checker"]["rtol"]
REFERENCE_DIR = HERE / "reference"
DISCRETE = frozenset(SPEC["checker"]["discrete_columns"])
TRAJECTORY_TABLE = "trajectory_rows.csv"

# criterion-4 conservation bounds
MAX_REL_DRIFT = 1e-8
MAX_MEAN_DRIFT = 1e-12


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(table, name: str) -> np.ndarray:
    header, rows = table
    j = header.index(name)
    return np.array([float(r[j]) for r in rows])


def read_dump(path: Path) -> tuple[dict, np.ndarray]:
    """Header fields and float64 rows of a gkdvlab binary dump."""
    blob = path.read_bytes()
    end = blob.index(b"\n---\n")
    lines = blob[:end].decode("ascii").splitlines()
    meta = dict(line.partition(" ")[::2] for line in lines[1:])
    rows, cols = int(meta["rows"]), int(meta["cols"])
    data = np.frombuffer(blob[end + 5 :], dtype="<f8", count=rows * cols)
    return meta, data.reshape(rows, cols)


def trajectory_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """First, middle and last sampled state of a trajectory, one value a row."""
    _, data = read_dump(path)
    picks = sorted({0, len(data) // 2, len(data) - 1})
    rows = [[str(k), str(j), repr(float(data[k, j]))] for k in picks for j in range(data.shape[1])]
    return ["row", "index", "value"], rows


def check_manifest(out_dir: Path, expected: tuple[str, ...]) -> tuple[list[str], dict]:
    path = out_dir / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"], {}
    hashes = json.loads(path.read_text()).get("artifacts", {})
    problems = [f"{name} not in manifest" for name in expected if name not in hashes]
    for name, digest in sorted(hashes.items()):
        f = out_dir / name
        if not f.is_file():
            problems.append(f"{name} listed in manifest but missing")
        elif hashlib.sha256(f.read_bytes()).hexdigest() != digest:
            problems.append(f"{name} does not match its manifest hash")
    return problems, hashes


def _close(a: float, b: float, floor: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + floor


def _as_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_table(name: str, ref, out) -> list[str]:
    """Compare every reference column; extra output columns are allowed.

    Float columns match to RTOL relative to the value, with an absolute
    floor of RTOL times the largest float magnitude in the reference table,
    so values that are themselves round-off-sized (a conserved mean, a
    converged Picard distance) are compared at the scale they came from.
    """
    ref_header, ref_rows = ref
    header, rows = out
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    floats = [
        c for c, h in enumerate(ref_header)
        if h not in DISCRETE and all(_as_float(r[c]) is not None for r in ref_rows)
    ]
    scale = max((abs(float(r[c])) for r in ref_rows for c in floats
                 if math.isfinite(float(r[c]))), default=0.0)
    problems = []
    for c, h in enumerate(ref_header):
        if h not in header:
            problems.append(f"{name}: column {h} missing")
            continue
        j = header.index(h)
        for i, (ref_row, row) in enumerate(zip(ref_rows, rows)):
            if c in floats:
                ok = _as_float(row[j]) is not None and _close(
                    float(row[j]), float(ref_row[c]), RTOL * scale
                )
            else:
                x, y = _as_float(row[j]), _as_float(ref_row[c])
                ok = x == y if x is not None and y is not None else row[j] == ref_row[c]
            if not ok:
                problems.append(f"{name}: row {i} {h} = {row[j]}, reference {ref_row[c]}")
                break
    return problems


def _tables(workload: Workload, out_dir: Path) -> dict:
    tables = {n: read_csv(out_dir / n) for n in workload.artifacts if n.endswith(".csv")}
    if "trajectory.bin" in workload.artifacts:
        tables[TRAJECTORY_TABLE] = trajectory_table(out_dir / "trajectory.bin")
    return tables


def compare_reference(workload: Workload, out_dir: Path) -> list[str]:
    problems = []
    for name, table in _tables(workload, out_dir).items():
        ref_path = REFERENCE_DIR / workload.name / name
        if not ref_path.is_file():
            problems.append(f"reference {workload.name}/{name} missing")
        else:
            problems += compare_table(name, read_csv(ref_path), table)
    return problems


def write_reference(workload: Workload, out_dir: Path) -> None:
    dest = REFERENCE_DIR / workload.name
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    for name, (header, rows) in _tables(workload, out_dir).items():
        with open(dest / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header] + rows)


def _all_finite(table, columns=None) -> bool:
    header, _ = table
    names = [h for h in header if h != "estimate_id"] if columns is None else columns
    return all(np.all(np.isfinite(column(table, n))) for n in names)


def _simulate(workload: Workload, out_dir: Path) -> list[str]:
    problems = []
    diag = read_csv(out_dir / "diagnostics.csv")
    steps = workload.params["steps"]
    if len(diag[1]) != steps + 1:
        problems.append(f"diagnostics has {len(diag[1])} rows, expected {steps + 1}")
    mass, energy, mean = (column(diag, n) for n in ("mass", "energy", "mean"))
    drifts = (
        ("mass", np.max(np.abs(mass - mass[0])) / abs(mass[0]), MAX_REL_DRIFT),
        ("energy", np.max(np.abs(energy - energy[0])) / abs(energy[0]), MAX_REL_DRIFT),
        ("mean", np.max(np.abs(mean - mean[0])), MAX_MEAN_DRIFT),
    )
    problems += [f"{n} drift {d:.3e} > {bound:g}" for n, d, bound in drifts if not d <= bound]
    meta, data = read_dump(out_dir / "trajectory.bin")
    if meta.get("blown_up") != "0" or meta.get("first_bad_step") != "-1":
        problems.append("trajectory reports a blowup")
    if data.shape[1] != workload.params["n_modes"] or not np.all(np.isfinite(data)):
        problems.append("trajectory has the wrong width or non-finite values")
    return problems


def _tail(workload: Workload, out_dir: Path) -> list[str]:
    problems = []
    samples = read_csv(out_dir / "samples.csv")
    if len(samples[1]) != workload.params["n_samples"]:
        problems.append(f"samples.csv has {len(samples[1])} rows")
    if not _all_finite(samples):
        problems.append("samples.csv has non-finite values")
    scales = read_csv(out_dir / "scales.csv")
    if list(column(scales, "T")) != sorted(workload.params["t_grid"]):
        problems.append("scales.csv T values differ from the requested grid")
    if not (_all_finite(scales) and np.all(column(scales, "scale") > 0)):
        problems.append("scales.csv has a non-positive or non-finite scale")
    if not _all_finite(read_csv(out_dir / "exponent.csv")):
        problems.append("exponent.csv is not finite")
    return problems


def _lwp(workload: Workload, out_dir: Path) -> list[str]:
    problems = []
    n, t_grid = workload.params["n_samples"], list(workload.params["t_grid"])
    failures = read_csv(out_dir / "failures.csv")
    if list(column(failures, "T")) != t_grid:
        problems.append("failures.csv T values differ from the requested grid")
    if np.any(column(failures, "n") != n):
        problems.append(f"failures.csv n differs from the requested {n}")
    if not _all_finite(failures):
        problems.append("failures.csv has a NaN row")
    records = read_csv(out_dir / "records.csv")
    if len(records[1]) != n * len(t_grid):
        problems.append(f"records.csv has {len(records[1])} rows, expected {n * len(t_grid)}")
    if not _all_finite(records):
        problems.append("records.csv has a NaN row")
    return problems


def _probe(workload: Workload, out_dir: Path) -> list[str]:
    problems = []
    summary = read_csv(out_dir / "summary.csv")
    ids = [r[0] for r in summary[1]]
    if ids != list(workload.params["ids"]):
        problems.append(f"summary.csv lists {ids}")
        return problems
    for eid, trials in zip(ids, column(summary, "trials")):
        table = read_csv(out_dir / f"{eid}.csv")
        if trials < 1 or len(table[1]) != trials:
            problems.append(f"{eid}.csv has {len(table[1])} rows, summary says {trials:g}")
        if not _all_finite(table):
            problems.append(f"{eid}.csv has non-finite values")
    if not _all_finite(summary):
        problems.append("summary.csv has non-finite values")
    return problems


INVARIANTS = {
    "simulate-desk": _simulate,
    "tail-ensemble": _tail,
    "lwp-picard": _lwp,
    "probe-catalog": _probe,
}


def check_invocation(workload: Workload, out_dir: Path, seed: int, exit_code: int) -> tuple[list[str], dict]:
    """Problems found in one invocation's output, and its artifact hashes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    problems, hashes = check_manifest(out_dir, workload.artifacts)
    if problems:
        return problems, hashes
    try:
        problems = INVARIANTS[workload.name](workload, out_dir)
        if workload.seed_free or seed == workload.default_seed:
            problems += compare_reference(workload, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return problems, hashes
