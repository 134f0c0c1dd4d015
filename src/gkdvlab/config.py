"""Run configuration: an INI-style file with typed, strictly validated keys.

Every key has a default; unknown sections or keys are hard errors, and all
validation failures are reported at once. The analysis exponents are not
keys: every consumer derives them from epsilon (see `params`).
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .params import validate_epsilon
from .solver import _step_count
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
    try:
        validate_epsilon(raw["model"]["epsilon"])
    except ValueError as exc:
        problems.append(f"[model] {exc}")

    try:
        require_distribution(raw["random"]["distribution"])
    except ValueError as exc:
        problems.append(f"[random] {exc}")
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
    for sect, key, least in (
        ("grid", "n_modes", 8),
        ("time", "m_t", 16),
        ("estimates", "n_modes", 8),
        ("estimates", "m_t", 16),
    ):
        if raw[sect][key] < least or raw[sect][key] % 2:
            problems.append(f"[{sect}] {key} must be even and >= {least}")
    for sect in ("grid", "estimates"):
        if not 0 < raw[sect]["half_length"] < math.inf:
            problems.append(f"[{sect}] half_length must be positive and finite")
    for sect, key in (("strichartz", "t_grid"), ("lwp", "t_grid")):
        try:
            values = parse_float_list(raw[sect][key])
            if not values or not all(0 < v < math.inf for v in values):
                raise ValueError
        except ValueError:
            problems.append(
                f"[{sect}] {key} must be a comma-separated list of positive finite reals"
            )
            continue
        if sect == "lwp" and sorted(set(values), reverse=True) != values:
            problems.append("[lwp] t_grid must be strictly descending")
        if sect == "strichartz" and len(set(values)) < 3:
            problems.append(
                "[strichartz] t_grid needs at least three T values for tail fitting, no two equal"
            )
    if not any(tok.strip() for tok in raw["estimates"]["ids"].split(",")):
        problems.append("[estimates] ids must name at least one estimate")
    if raw["grid"]["half_length"] > 0:
        step = math.pi / raw["grid"]["half_length"]
        if not raw["lwp"]["xi_band"] >= step:
            problems.append(
                f"[lwp] xi_band must be >= one frequency step pi / [grid] half_length = {step:.6g}"
            )
    for sect, key in (("lwp", "tol"), ("simulate", "dt")):
        if not raw[sect][key] > 0:
            problems.append(f"[{sect}] {key} must be positive")
    for sect in ("time", "estimates"):
        if not 0 < raw[sect]["t_span"] < math.inf:
            problems.append(f"[{sect}] t_span must be positive and finite")
    sim = raw["simulate"]
    if sim["dt"] > 0:
        try:
            n_steps = _step_count(sim["t_end"], sim["dt"])
        except ValueError as exc:
            problems.append(f"[simulate] t_end must be a whole number of steps dt: {exc}")
        else:
            if sim["output_stride"] > 0 and n_steps % sim["output_stride"]:
                problems.append(
                    f"[simulate] output_stride must be a divisor of the {n_steps} steps t_end / dt"
                )
    if not 1 <= raw["strichartz"]["q"] < math.inf:
        problems.append("[strichartz] q must be >= 1 and finite")
    for sect, key, least in (
        ("random", "master_seed", 0),
        ("random", "n_max", 0),
        ("ensemble", "n_samples", 1000),
        ("ensemble", "n_fields", 0),
        ("ensemble", "threads", 1),
        ("strichartz", "r", 1),
        ("strichartz", "n_time_samples", 1),
        ("lwp", "n_samples", 100),
        ("lwp", "max_iter", 1),
        ("estimates", "n_trials", 1),
        ("estimates", "xi_band", 0),
        ("simulate", "output_stride", 0),
        ("simulate", "diag_stride", 1),
    ):
        if not raw[sect][key] >= least:
            problems.append(f"[{sect}] {key} must be >= {least}")

    if problems:
        raise ConfigError(problems)
    return raw
