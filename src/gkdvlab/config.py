"""Run configuration: an INI-style file with typed, strictly validated keys.

Every key has a default; unknown sections or keys are hard errors, and the
first failure of every check is reported at once. The analysis exponents
are not keys: every consumer derives them from epsilon (see `params`).

A range rule on a run value lives in the library function that relies on
it and checks it at entry. `_finalize` calls that same function, named in
each of its `check` calls (README lists the owner of every key), and
reports its ValueError as one `[section] <library message>` problem.
Written here are only the rules no library function owns: the [data]
profile keys, parsing the t_grid lists and [estimates] ids, and the bounds
of master_seed, threads, n_fields and n_trials.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .grid import make_grid
from .montecarlo import (
    LWP_MIN_SAMPLES,
    TAIL_MIN_SAMPLES,
    _lwp_times,
    _require_samples,
    _require_tail_exponents,
    _tail_axes,
)
from .params import validate_epsilon
from .probes import _require_band_modes
from .solver import _picard_arguments, _require_stride, _step_count
from .spacetime import centered_axis
from .wiener import require_distribution


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("configuration errors:\n  " + "\n  ".join(problems))


DATA_KINDS = ("gaussian-bump", "sech-power", "file")

_SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "grid": {
        "half_length": (float, 32.0),
        "n_modes": (int, 512),
    },
    "time": {
        "t_span": (float, 4.0),
        "m_t": (int, 2048),
    },
    "model": {
        "epsilon": (float, 0.05),
    },
    "random": {
        "distribution": (str, "gaussian"),
        "master_seed": (int, 20260810),
        "n_max": (int, 0),  # 0 means "cover the data's spectrum"
    },
    "data": {
        "kind": (str, "gaussian-bump"),
        "width": (float, 1.0),
        "amplitude": (float, 1.0),
        "band_limit": (float, 0.0),  # 0 means no sharp truncation
        "path": (str, ""),
    },
    "ensemble": {
        "n_samples": (int, 10000),
        "n_fields": (int, 3),
        # ensemble worker processes: forked, capped at the usable CPUs;
        # outputs are identical for every count
        "threads": (int, 1),
    },
    "strichartz": {
        "q": (float, 4.0),
        "r": (float, 4.0),
        "t_grid": (str, "0.125,0.25,0.5"),
        "n_time_samples": (int, 64),
    },
    "lwp": {
        "t_grid": (str, "0.25,0.125,0.0625,0.03125"),
        "n_samples": (int, 200),
        "tol": (float, 1e-10),
        "max_iter": (int, 25),
        "xi_band": (float, 4.0),
    },
    "estimates": {
        "ids": (str, "all"),
        "n_trials": (int, 100),
        "n_modes": (int, 64),
        "half_length": (float, 8.0),
        "m_t": (int, 128),
        "t_span": (float, 4.0),
        "xi_band": (float, 3.5),
    },
    "simulate": {
        "t_end": (float, 1.0),
        "dt": (float, 1e-4),
        "output_stride": (int, 0),  # 0 means auto
        "diag_stride": (int, 1),
    },
    "output": {
        "directory": (str, "out"),
    },
}


def _parse_value(raw: str, typ: type, where: str, problems: list[str]):
    raw = raw.strip()
    try:
        return typ(raw)
    except ValueError:
        problems.append(f"{where}: cannot parse {raw!r} as {typ.__name__}")
        return None


def parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def load_config(path: Path | str | None, overrides: dict | None = None) -> dict:
    """Read the INI file (or defaults when path is None) and validate; the
    result maps each section to its key->value dict.

    `overrides` maps "section.key" to already-typed values (used for
    command-line flags such as --seed, --out, --threads).
    """
    problems: list[str] = []
    raw = {sect: {k: default for k, (_, default) in keys.items()} for sect, keys in _SCHEMA.items()}

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
        except configparser.Error as exc:
            raise ConfigError([f"malformed config file {path}: {exc}"]) from exc
        for sect in parser.sections():
            if sect not in _SCHEMA:
                problems.append(f"unknown section [{sect}]")
                continue
            for key, raw_value in parser.items(sect):
                if key not in _SCHEMA[sect]:
                    problems.append(f"unknown key {key!r} in section [{sect}]")
                    continue
                typ = _SCHEMA[sect][key][0]
                value = _parse_value(raw_value, typ, f"[{sect}] {key}", problems)
                if value is not None:
                    raw[sect][key] = value

    for dotted, value in (overrides or {}).items():
        sect, _, key = dotted.partition(".")
        raw[sect][key] = value

    return _finalize(raw, problems)


def _finalize(raw: dict, problems: list[str]) -> dict:
    def check(section: str, rule, *args):
        """rule(*args), or None with its ValueError as a [section] problem."""
        try:
            return rule(*args)
        except ValueError as exc:
            problems.append(f"[{section}] {exc}")

    eps = check("model", validate_epsilon, raw["model"]["epsilon"])
    check("random", require_distribution, raw["random"]["distribution"])
    grid = check("grid", make_grid, raw["grid"]["half_length"], raw["grid"]["n_modes"])
    taxis = check("time", centered_axis, raw["time"]["t_span"], raw["time"]["m_t"])
    est, st, lwp, sim = (raw[sect] for sect in ("estimates", "strichartz", "lwp", "simulate"))
    check("estimates", make_grid, est["half_length"], est["n_modes"])
    check("estimates", centered_axis, est["t_span"], est["m_t"])
    check("estimates", _require_band_modes, est["xi_band"])
    check("strichartz", _require_tail_exponents, st["q"], st["r"])
    check("ensemble", _require_samples, raw["ensemble"]["n_samples"], TAIL_MIN_SAMPLES)
    check("lwp", _require_samples, lwp["n_samples"], LWP_MIN_SAMPLES)
    for sect, rule, *args in (("strichartz", _tail_axes, st["n_time_samples"]),
                              ("lwp", _lwp_times)):
        try:
            t_grid = parse_float_list(raw[sect]["t_grid"])
        except ValueError:
            problems.append(f"[{sect}] t_grid must be a comma-separated list of reals")
        else:
            check(sect, rule, t_grid, *args)
    if None not in (grid, taxis, eps):
        check("lwp", _picard_arguments, grid, taxis, lwp["tol"], lwp["max_iter"],
              lwp["xi_band"], eps)
    # output_stride = 0 means auto, as None does
    check("simulate", _step_count, sim["t_end"], sim["dt"], sim["output_stride"] or None)
    check("simulate", _require_stride, "diag_stride", sim["diag_stride"])

    if raw["data"]["kind"] not in DATA_KINDS:
        problems.append(
            f"[data] unknown kind {raw['data']['kind']!r}; choose from {', '.join(DATA_KINDS)}"
        )
    if raw["data"]["kind"] == "file" and not raw["data"]["path"]:
        problems.append("[data] kind = file requires a path")
    if not math.isfinite(raw["data"]["amplitude"]):
        problems.append("[data] amplitude must be finite")
    if not 0 < raw["data"]["width"] < math.inf:
        problems.append("[data] width must be positive and finite")
    if not 0 <= raw["data"]["band_limit"] < math.inf:
        problems.append("[data] band_limit must be finite and >= 0")
    if not any(tok.strip() for tok in raw["estimates"]["ids"].split(",")):
        problems.append("[estimates] ids must name at least one estimate")
    for sect, key, least in (
        ("random", "master_seed", 0),
        ("ensemble", "n_fields", 0),
        ("ensemble", "threads", 1),
        ("estimates", "n_trials", 1),
    ):
        if not raw[sect][key] >= least:
            problems.append(f"[{sect}] {key} must be >= {least}")

    if problems:
        raise ConfigError(problems)
    return raw
