#!/usr/bin/env python3
"""Tail diagnostics of the randomized data and its free evolution.

Fits the sub-Gaussian tail of the H^s norm over the top decile of 10^4
samples, then the T-scaling of the mixed-norm tail scale, and writes
plot-ready CSVs (lambda^2 vs log exceedance; T vs scale).
"""

import sys
from pathlib import Path

import numpy as np

from gkdvlab.config import load_config
from gkdvlab.grid import field_from_function, make_grid
from gkdvlab.io import write_csv
from gkdvlab.montecarlo import make_lambda_grid, run_ensemble, strichartz_scaling, tail_fit
from gkdvlab.norms import sobolev_norm
from gkdvlab.params import data_index
from gkdvlab.wiener import sampler


def main(out_dir="out-tails", n_samples=10_000, seed=2026):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = load_config(None)
    threads = cfg["ensemble"]["threads"]
    grid = make_grid(32.0, 512)
    phi = field_from_function(grid, lambda x: np.exp(-(x**2)))
    s = data_index(cfg["model"]["epsilon"])

    records = run_ensemble(
        sampler(phi, "gaussian"),
        n_samples,
        lambda f: {"hs": sobolev_norm(f, s)},
        seed=seed,
        threads=threads,
    )
    obs = np.array([r.values["hs"] for r in records if not r.blown_up])
    fit = tail_fit(obs, make_lambda_grid(obs))
    print(f"H^s tail: slope {fit.slope:.4f}, R^2 {fit.r_squared:.5f}, scale {fit.scale:.4f}")
    write_csv(
        out / "hs_tail.csv",
        ["lambda", "lambda_sq", "exceedance", "log_exceedance"],
        [
            (l, l * l, p, np.log(p))
            for l, p in zip(fit.lambdas, fit.probs)
            if p > 0
        ],
    )

    small = make_grid(16.0, 128)
    phi_small = field_from_function(small, lambda x: np.exp(-(x**2)))
    report = strichartz_scaling(
        sampler(phi_small, "gaussian"),
        4.0,
        4.0,
        [0.125, 0.25, 0.5],
        n_samples,
        seed=seed,
        n_time_samples=cfg["strichartz"]["n_time_samples"],
        threads=threads,
    )
    print(
        f"mixed-norm tail scale ~ T^{report.alpha:.4f} "
        f"(dispersive prediction 1/q = {report.predicted_alpha})"
    )
    write_csv(out / "scales.csv", list(report.HEADER), report.rows())
    print(f"wrote {out}/hs_tail.csv and {out}/scales.csv")


if __name__ == "__main__":
    main(*sys.argv[1:2])
