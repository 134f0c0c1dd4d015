"""Command-line experiment driver.

Subcommands: randomize | simulate | strichartz-tail | lwp-ensemble |
verify-estimates. Each writes CSV artifacts plus a manifest (config echo,
code version, content hashes) into the output directory; reruns with the
same configuration reproduce identical bytes.

Exit codes: 0 success, 2 configuration error (or data whose tail admits no
fit), 3 numerical blowup, 4 estimate-probe precondition violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config, parse_float_list
from .grid import Field, half_spectrum, make_grid, spectral_values
from .io import (
    diagnostics_rows,
    ensemble_table,
    load_field,
    save_field,
    save_trajectory,
    write_csv,
    write_manifest,
)
from .montecarlo import TailFitError, exceptional_probability, strichartz_scaling
from .norms import AliasingError, sobolev_norm
from .params import data_index
from .probes import CutoffBoxError, ProbeResolution, _require_known, estimate_ids, run_estimates
from .solver import evolve_reference
from .spacetime import centered_axis
from .streams import child_seeds
from .wiener import sampler

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_PRECONDITION = 4


def build_data(cfg: dict) -> Field:
    """The deterministic profile phi described by the [data] section."""
    grid = make_grid(cfg["grid"]["half_length"], cfg["grid"]["n_modes"])
    data = cfg["data"]
    kind = data["kind"]
    if kind == "file":
        try:
            phi = load_field(data["path"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            raise ConfigError([f"[data] cannot load field file {data['path']}: {exc}"]) from exc
        if phi.grid != grid:
            raise ConfigError(
                [f"[data] field file grid (L={phi.grid.half_length}, N={phi.grid.n_modes}) "
                 f"does not match [grid]"]
            )
        if not np.all(np.isfinite(phi.values)):
            raise ConfigError([f"[data] field file {data['path']} holds non-finite samples"])
    else:
        x = grid.x
        w, a = data["width"], data["amplitude"]
        # far out on a narrow profile (x / w)^2 and cosh(x / w) overflow to
        # inf, and exp(-inf) = inf^(-2/7) = 0 are the exact limits
        with np.errstate(over="ignore"):
            if kind == "gaussian-bump":
                vals = a * np.exp(-((x / w) ** 2))
            else:  # sech-power
                vals = a * np.cosh(x / w) ** (-2.0 / 7.0)
        phi = Field(grid, vals)
    band = data["band_limit"]
    # the transform of finite data near the float limit can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        if band > 0:
            phi = _band_limit(phi, band)
        half = half_spectrum(phi)
    if band > 0 and not np.all(np.isfinite(phi.values)):
        raise ConfigError(
            [f"[data] the data band-limited to |xi| <= {band!r} are not finite: "
             f"their transform overflows"]
        )
    if not np.all(np.isfinite(half)):
        raise ConfigError(["[data] the half spectrum of the data is not finite: "
                           "their transform overflows"])
    return phi


def _band_limit(phi: Field, band: float) -> Field:
    """The real field with phi's spectrum on |xi| <= band, zero outside."""
    mask = np.abs(phi.grid.xi) <= band
    return Field.from_spectrum(phi.grid, spectral_values(phi) * mask)


def _out_dir(cfg: dict, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg["output"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_randomize(cfg: dict, args) -> int:
    phi = build_data(cfg)
    sample = sampler(phi, cfg["random"]["distribution"])
    out = _out_dir(cfg, args)
    s = data_index(cfg["model"]["epsilon"])
    artifacts = [save_field(out / "phi.field", phi, kind="phi")]
    rows = [("phi", -1, sobolev_norm(phi, s))]
    seeds = child_seeds(cfg["random"]["master_seed"], cfg["ensemble"]["n_fields"])
    for k, (seed_k, g) in enumerate(zip(seeds.tolist(), sample.draws(seeds))):
        phi_k = sample.field(g)
        artifacts.append(save_field(out / f"sample_{k:03d}.field", phi_k, kind="sample", seed=seed_k))
        rows.append((f"sample_{k:03d}", seed_k, sobolev_norm(phi_k, s)))
    artifacts.append(write_csv(out / "norms.csv", ["field", "seed", "hs_norm"], rows))
    write_manifest(out, cfg, artifacts)
    return EXIT_OK


def cmd_simulate(cfg: dict, args) -> int:
    phi = build_data(cfg)
    out = _out_dir(cfg, args)
    sim = cfg["simulate"]
    traj = evolve_reference(
        phi,
        sim["t_end"],
        sim["dt"],
        output_stride=sim["output_stride"] or None,
        diag_stride=sim["diag_stride"],
        seed=cfg["random"]["master_seed"],
    )
    artifacts = [
        save_trajectory(out / "trajectory.bin", traj),
        write_csv(
            out / "diagnostics.csv",
            ["step", "time", "mean", "mass", "energy"],
            diagnostics_rows(traj.diagnostics),
        ),
    ]
    write_manifest(out, cfg, artifacts)
    if traj.blown_up:
        print(f"blowup at step {traj.first_bad_step}; trajectory truncated", file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_strichartz_tail(cfg: dict, args) -> int:
    t_grid = parse_float_list(cfg["strichartz"]["t_grid"])
    st = cfg["strichartz"]
    report = strichartz_scaling(
        sampler(build_data(cfg), cfg["random"]["distribution"]),
        st["q"],
        st["r"],
        t_grid,
        cfg["ensemble"]["n_samples"],
        seed=cfg["random"]["master_seed"],
        n_time_samples=st["n_time_samples"],
        threads=cfg["ensemble"]["threads"],
    )
    out = _out_dir(cfg, args)
    header, rows = ensemble_table(report.records)
    artifacts = [
        write_csv(out / "samples.csv", header, rows),
        write_csv(out / "scales.csv", list(report.HEADER), report.rows()),
        write_csv(
            out / "exponent.csv",
            ["alpha", "predicted_alpha"],
            [(report.alpha, report.predicted_alpha)],
        ),
    ]
    write_manifest(out, cfg, artifacts)
    return EXIT_OK


def cmd_lwp_ensemble(cfg: dict, args) -> int:
    lwp = cfg["lwp"]
    try:
        report = exceptional_probability(
            sampler(build_data(cfg), cfg["random"]["distribution"]),
            parse_float_list(lwp["t_grid"]),
            lwp["n_samples"],
            lwp["tol"],
            taxis=centered_axis(cfg["time"]["t_span"], cfg["time"]["m_t"]),
            xi_band=lwp["xi_band"],
            eps=cfg["model"]["epsilon"],
            max_iter=lwp["max_iter"],
            seed=cfg["random"]["master_seed"],
            threads=cfg["ensemble"]["threads"],
        )
    except AliasingError as exc:
        raise AliasingError(f"[lwp] xi_band = {lwp['xi_band']:g}: {exc}") from None
    out = _out_dir(cfg, args)
    rows = [
        (r.T, r.n, r.failures, r.fraction, r.wilson_lo, r.wilson_hi) for r in report.rows
    ]
    sample_header: list[str] = []
    sample_rows: list[tuple] = []
    for T, records in report.records.items():
        header, part = ensemble_table(records, extra={"T": T})
        sample_header = header
        sample_rows.extend(part)
    artifacts = [
        write_csv(out / "records.csv", sample_header, sample_rows),
        write_csv(
            out / "failures.csv",
            ["T", "n", "failures", "fraction", "wilson_lo", "wilson_hi"],
            rows,
        ),
        write_csv(
            out / "trend.csv",
            ["trend_violations", "trend_ok"],
            [(report.trend_violations, report.trend_ok)],
        ),
    ]
    write_manifest(out, cfg, artifacts)
    return EXIT_OK


def cmd_verify_estimates(cfg: dict, args) -> int:
    est = cfg["estimates"]
    eps = cfg["model"]["epsilon"]
    wanted = est["ids"].strip()
    valid = estimate_ids(eps)
    ids = valid if wanted == "all" else [tok.strip() for tok in wanted.split(",") if tok.strip()]
    try:
        _require_known(ids, valid)
    except KeyError as exc:
        raise ConfigError([exc.args[0]]) from exc
    resolution = ProbeResolution(
        n_modes=est["n_modes"],
        half_length=est["half_length"],
        m_t=est["m_t"],
        t_span=est["t_span"],
        xi_band=est["xi_band"],
    )
    reports = run_estimates(
        ids,
        eps=eps,
        resolution=resolution,
        n_trials=est["n_trials"],
        seed=cfg["random"]["master_seed"],
    )
    out = _out_dir(cfg, args)
    artifacts = []
    summary = []
    for eid in ids:
        report = reports[eid]
        artifacts.append(
            write_csv(
                out / f"{eid}.csv",
                ["estimate_id", "trial", "lhs", "rhs", "ratio"],
                report.rows(),
            )
        )
        summary.append(
            (eid, len(report.trials), report.excluded, report.max_ratio, report.median_ratio)
        )
    artifacts.append(
        write_csv(
            out / "summary.csv",
            ["estimate_id", "trials", "excluded", "max_ratio", "median_ratio"],
            summary,
        )
    )
    write_manifest(out, cfg, artifacts)
    return EXIT_OK


COMMANDS = {
    "randomize": cmd_randomize,
    "simulate": cmd_simulate,
    "strichartz-tail": cmd_strichartz_tail,
    "lwp-ensemble": cmd_lwp_ensemble,
    "verify-estimates": cmd_verify_estimates,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkdvlab",
        description="Randomized-data experiments for the septic generalized KdV equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="INI configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="ensemble worker processes (forked, capped at the usable CPUs); "
            "outputs are identical for every count",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["random.master_seed"] = args.seed
    if args.threads is not None:
        overrides["ensemble.threads"] = args.threads
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except TailFitError as exc:
        print(f"no tail fit: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AliasingError, CutoffBoxError) as exc:
        print(f"estimate-probe precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
