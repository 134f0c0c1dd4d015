"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The suite exercises the desk-scale presets end to end: spectral operator
exactness, the frequency partition, scaling criticality, conservation,
cross-validation of the two solvers, tail shapes and scalings of the
randomized ensembles, the local-solvability trend, refinement stability of
every estimate probe, and byte determinism of the command line.
"""

import json
from math import erfc

import numpy as np

from gkdvlab.cli import main
from gkdvlab.grid import (
    Field,
    field_from_function,
    make_grid,
    spectral_values,
)
from gkdvlab.montecarlo import (
    exceptional_probability,
    line_fit,
    run_ensemble,
    strichartz_scaling,
    tail_fit,
)
from gkdvlab.norms import scaling_ratio, sobolev_norm
from gkdvlab.params import CRITICAL_INDEX, data_index
from gkdvlab.probes import estimate_ids, run_estimates
from gkdvlab.solver import evolve_reference, picard_solve, reconstruct_solution
from gkdvlab.spacetime import centered_axis
from gkdvlab.wiener import _band_stack, sampler

from conftest import (
    EPS,
    MAX_ITER,
    PRESET,
    airy_propagate,
    banded_bump,
    l2_norm,
    preset_resolution,
)


def report(number: int, ok: bool, details: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {details}")
    assert ok, details


def test_criterion_01_spectral_exactness():
    g = make_grid(np.pi, 64)
    phase_err = 0.0
    for k in (1, 2, 5, 11):
        f = field_from_function(g, lambda x, k=k: np.exp(1j * k * x))
        idx = np.argmin(np.abs(g.xi - k))
        for t in (0.1, 0.7, -0.3):
            out = airy_propagate(f, t)
            ratio = spectral_values(out)[idx] / spectral_values(f)[idx]
            phase_err = max(phase_err, abs(ratio - np.exp(1j * t * k**3)))

    g2 = make_grid(32.0, 512)
    rng = np.random.default_rng(2026)
    parseval_err = 0.0
    unitarity_err = 0.0
    for _ in range(1000):
        f = Field(g2, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        spectral_l2 = np.sqrt(g2.dxi * np.sum(np.abs(spectral_values(f)) ** 2))
        parseval_err = max(parseval_err, abs(l2_norm(f) - spectral_l2) / l2_norm(f))
        moved = airy_propagate(f, 0.8)
        for s in (0.0, CRITICAL_INDEX, 1.0):
            before = sobolev_norm(f, s)
            unitarity_err = max(unitarity_err, abs(sobolev_norm(moved, s) - before) / before)

    ok = phase_err <= 1e-10 and parseval_err <= 1e-12 and unitarity_err <= 1e-12
    report(
        1,
        ok,
        f"airy phases {phase_err:.2e} <= 1e-10; over 1000 random fields parseval "
        f"{parseval_err:.2e} <= 1e-12, H^s unitarity {unitarity_err:.2e} <= 1e-12",
    )


def test_criterion_02_partition_of_unity():
    g = make_grid(32.0, 1024)
    n_cover = int(np.ceil(g.xi_max)) + 2
    dev = float(np.max(np.abs(_band_stack(g, n_cover)[1] - 1.0)))

    g2 = make_grid(32.0, 512)
    bump = field_from_function(g2, lambda x: np.exp(-(x**2)))
    out = sampler(bump, "ones", 16)(0)
    reproduce_err = float(
        np.max(np.abs(out.values - bump.values)) / np.max(np.abs(bump.values))
    )

    ok = dev <= 1e-12 and reproduce_err <= 1e-12
    report(
        2,
        ok,
        f"window sum deviation {dev:.2e} <= 1e-12 on the full grid; all-ones "
        f"randomization reproduces the data to {reproduce_err:.2e} <= 1e-12",
    )


def test_criterion_03_scaling_criticality():
    g = make_grid(128.0, 8192)
    profile = lambda x: np.exp(-(x**2))
    crit_dev = max(
        abs(scaling_ratio(g, profile, lam, CRITICAL_INDEX) - 1.0) for lam in (0.5, 2.0)
    )
    s = 0.3
    off_dev = max(
        abs(scaling_ratio(g, profile, lam, s) - lam ** (CRITICAL_INDEX - s))
        for lam in (0.5, 2.0)
    )
    ok = crit_dev <= 1e-4 and off_dev <= 1e-3
    report(
        3,
        ok,
        f"critical-index invariance deviation {crit_dev:.2e} <= 1e-4; "
        f"s=0.3 scaling-identity deviation {off_dev:.2e} <= 1e-3",
    )


def test_criterion_04_conservation():
    g = make_grid(32.0, 512)
    phi = field_from_function(g, lambda x: np.exp(-(x**2)))
    traj = evolve_reference(phi, 1.0, 1e-4, output_stride=None, diag_stride=1, seed=None)
    d = traj.diagnostics
    mass_drift = float(np.max(np.abs(d.mass - d.mass[0])) / abs(d.mass[0]))
    energy_drift = float(np.max(np.abs(d.energy - d.energy[0])) / abs(d.energy[0]))
    mean_drift = float(np.max(np.abs(d.mean - d.mean[0])))
    ok = mass_drift <= 1e-8 and energy_drift <= 1e-8 and mean_drift <= 1e-12
    report(
        4,
        ok,
        f"relative drift over T=1 (N=512, dt=1e-4): mass {mass_drift:.2e}, "
        f"energy {energy_drift:.2e} (<= 1e-8); mean {mean_drift:.2e} <= 1e-12",
    )


def test_criterion_05_solver_cross_validation():
    g = make_grid(32.0, 512)
    phi = banded_bump(g, amplitude=1.0, band=2.0)
    T = 1.0 / 16.0
    ta = centered_axis(4.0, 2048)
    result = picard_solve(phi, T, tol=1e-11, max_iter=MAX_ITER, taxis=ta, xi_band=8.0, eps=EPS)
    u = reconstruct_solution(result)
    stride = 20
    traj = evolve_reference(
        phi, T, ta.dt / stride, output_stride=stride, diag_stride=10**9, seed=None
    )
    j0 = int(np.argmin(np.abs(ta.t)))
    worst = 0.0
    for k in range(traj.u.taxis.n_samples):
        a = u.values[j0 + k].real
        b = traj.u.values[k].real
        worst = max(worst, float(np.sqrt(np.sum((a - b) ** 2) / np.sum(b**2))))
    max_ratio = max(result.ratios) if result.ratios else 0.0
    ok = result.converged and worst <= 1e-6 and max_ratio < 0.5
    report(
        5,
        ok,
        f"fixed point vs reference: max relative L2 error {worst:.2e} <= 1e-6 on "
        f"[0, 1/16]; contraction ratios all {max_ratio:.2e} < 1/2",
    )


def test_criterion_06_tail_shape():
    g = make_grid(32.0, 512)
    phi = field_from_function(g, lambda x: np.exp(-(x**2)))
    s = data_index(EPS)
    records = run_ensemble(
        sampler(phi, "gaussian"),
        10_000,
        lambda f: {"hs": sobolev_norm(f, s)},
        seed=2026,
        threads=1,
    )
    obs = np.array([r.values["hs"] for r in records if not r.blown_up])
    fit = tail_fit(obs)

    rng = np.random.default_rng(0)
    synth = np.abs(rng.standard_normal(100_000))
    synth_fit = tail_fit(synth)
    lam = synth_fit.lambdas
    oracle_slope, _, _, _ = line_fit(lam**2, np.log([erfc(l / np.sqrt(2.0)) for l in lam]))
    synth_dev = abs(synth_fit.slope - oracle_slope) / abs(oracle_slope)

    ok = fit.slope < 0 and fit.r_squared >= 0.9 and synth_dev <= 0.10
    report(
        6,
        ok,
        f"10^4-sample H^s tail: slope {fit.slope:.3f} < 0, R^2 {fit.r_squared:.4f} "
        f">= 0.9; synthetic gaussian slope within {synth_dev:.1%} of the exact-tail "
        "oracle (<= 10%)",
    )


def test_criterion_07_free_evolution_tail_scaling():
    g = make_grid(16.0, 128)
    phi = field_from_function(g, lambda x: np.exp(-(x**2)))
    report_obj = strichartz_scaling(
        sampler(phi, "gaussian"),
        4.0,
        4.0,
        [0.125, 0.25, 0.5],
        10_000,
        seed=2026,
        n_time_samples=64,
        threads=1,
    )
    lo, hi = 0.7 * 0.25, 1.3 * 0.25
    ok = lo <= report_obj.alpha <= hi
    report(
        7,
        ok,
        f"fitted tail-scale exponent {report_obj.alpha:.4f} in [{lo:.4f}, {hi:.4f}] "
        f"around 1/q = 0.25 (10^4 samples, T in {{1/8, 1/4, 1/2}})",
    )


def test_criterion_08_local_solvability_trend():
    # moderate preset: a physical-space bump, sharply band-limited, with
    # bounded (rademacher) coefficients so the failure boundary is crossed
    # at large T but unreachable at T = 1/32
    g = make_grid(16.0, 64)
    raw = field_from_function(g, lambda x: 1.8 * np.exp(-(x**2)))
    phi = Field.from_spectrum(g, spectral_values(raw) * (np.abs(g.xi) <= 2.0))
    ta = centered_axis(4.0, 256)
    rep = exceptional_probability(
        sampler(phi, "rademacher"),
        [0.25, 0.125, 0.0625, 0.03125],
        200,
        tol=1e-10,
        taxis=ta,
        xi_band=4.0,
        eps=EPS,
        max_iter=MAX_ITER,
        seed=42,
        threads=2,
    )
    fractions = [r.fraction for r in rep.rows]
    last = rep.rows[-1]
    ok = rep.trend_ok and last.failures == 0 and last.wilson_hi <= 0.02
    report(
        8,
        ok,
        f"failure fractions {[f'{f:.3f}' for f in fractions]} nonincreasing within "
        f"CI overlap; at T=1/32: 0/{last.n} failures, upper CI "
        f"{last.wilson_hi:.4f} <= 0.02",
    )


def test_criterion_09_estimate_probe_stability():
    base = preset_resolution()
    doubled = base.doubled()
    n_trials = PRESET["estimates"]["n_trials"]
    worst_id, worst_change = "", 1.0
    ids = estimate_ids(EPS)
    base_reports = run_estimates(ids, eps=EPS, resolution=base, n_trials=n_trials, seed=1)
    doubled_reports = run_estimates(ids, eps=EPS, resolution=doubled, n_trials=n_trials, seed=1)
    for eid in ids:
        r1, r2 = base_reports[eid], doubled_reports[eid]
        change = max(r2.max_ratio / r1.max_ratio, r1.max_ratio / r2.max_ratio)
        if change > worst_change:
            worst_id, worst_change = eid, change
    ok = worst_change <= 2.0
    report(
        9,
        ok,
        f"all {len(ids)} catalog entries at {n_trials} trials: max-ratio "
        f"change under grid doubling <= x{worst_change:.2f} (worst: {worst_id}); "
        "bound x2",
    )


def test_criterion_10_cli_byte_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[grid]\nhalf_length = 16.0\nn_modes = 128\n\n"
        "[ensemble]\nn_samples = 1500\n\n"
        "[strichartz]\nt_grid = 0.125,0.25,0.5\nn_time_samples = 32\n"
    )
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        code = main(
            ["strichartz-tail", "--config", str(cfg), "--out", str(out),
             "--seed", "7", "--threads", str(threads)]
        )
        assert code == 0
        outs[threads] = out
    same_bytes = all(
        (outs[1] / name).read_bytes() == (outs[8] / name).read_bytes()
        for name in ("samples.csv", "scales.csv", "exponent.csv")
    )
    m1 = json.loads((outs[1] / "manifest.json").read_text())["artifacts"]
    m8 = json.loads((outs[8] / "manifest.json").read_text())["artifacts"]
    ok = same_bytes and m1 == m8
    report(
        10,
        ok,
        "CSV artifacts byte-identical and manifest hashes equal for --threads 1 "
        "vs --threads 8",
    )
