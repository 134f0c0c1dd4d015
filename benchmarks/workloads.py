"""The four benchmark workloads: one CLI subcommand each on a fixed,
reduced copy of a shipped preset. The seed is passed on the command line
(`--seed`), so the configuration text below is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # gkdvlab subcommand
    config: str  # INI text written into the run directory
    default_seed: int  # the preset's master seed
    items: int  # units of work per invocation, the base of items_per_s
    item: str
    artifacts: tuple[str, ...]  # files the manifest must list
    seed_free: bool = False  # the seed only labels the run
    threads: int = 1  # cores the subcommand keeps busy
    params: dict | None = None  # counts the checks compare against


SIMULATE_STEPS = 2000
TAIL_SAMPLES = 1000
TAIL_T = (0.125, 0.25, 0.5)
LWP_SAMPLES = 100
LWP_THREADS = 2
LWP_T = (0.25, 0.125, 0.0625, 0.03125)
PROBE_TRIALS = 30
PROBE_IDS = ("bilinear_l2", "octilinear_mixed", "linear_free")


def _floats(values) -> str:
    return ",".join(repr(v) for v in values)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate-desk",
            command="simulate",
            config=f"""
[grid]
half_length = 32.0
n_modes = 512
[data]
kind = gaussian-bump
width = 1.0
amplitude = 1.0
[simulate]
t_end = {SIMULATE_STEPS * 1e-4!r}
dt = 1e-4
diag_stride = 1
""",
            default_seed=20260810,
            items=SIMULATE_STEPS,
            item="IF-RK4 step",
            artifacts=("diagnostics.csv", "trajectory.bin"),
            seed_free=True,
            params={"steps": SIMULATE_STEPS, "n_modes": 512},
        ),
        Workload(
            name="tail-ensemble",
            command="strichartz-tail",
            config=f"""
[grid]
half_length = 16.0
n_modes = 128
[ensemble]
n_samples = {TAIL_SAMPLES}
threads = 1
[strichartz]
q = 4
r = 4
t_grid = {_floats(TAIL_T)}
n_time_samples = 64
""",
            default_seed=20260810,
            items=TAIL_SAMPLES * len(TAIL_T),
            item="(sample, T) evaluation",
            artifacts=("exponent.csv", "samples.csv", "scales.csv"),
            params={"n_samples": TAIL_SAMPLES, "t_grid": TAIL_T},
        ),
        Workload(
            name="lwp-picard",
            command="lwp-ensemble",
            config=f"""
[grid]
half_length = 16.0
n_modes = 64
[time]
t_span = 4.0
m_t = 256
[data]
kind = gaussian-bump
width = 1.0
amplitude = 1.8
band_limit = 2.0
[random]
distribution = rademacher
[ensemble]
threads = {LWP_THREADS}
[lwp]
t_grid = {_floats(LWP_T)}
n_samples = {LWP_SAMPLES}
tol = 1e-10
max_iter = 25
xi_band = 4.0
""",
            default_seed=42,
            threads=LWP_THREADS,
            items=LWP_SAMPLES * len(LWP_T),
            item="(sample, T) evaluation",
            artifacts=("failures.csv", "records.csv", "trend.csv"),
            params={"n_samples": LWP_SAMPLES, "t_grid": LWP_T},
        ),
        Workload(
            name="probe-catalog",
            command="verify-estimates",
            config=f"""
[estimates]
ids = {",".join(PROBE_IDS)}
n_trials = {PROBE_TRIALS}
n_modes = 128
half_length = 8.0
m_t = 256
t_span = 4.0
xi_band = 3.5
""",
            default_seed=20260810,
            items=PROBE_TRIALS * len(PROBE_IDS),
            item="probe trial",
            artifacts=tuple(f"{eid}.csv" for eid in PROBE_IDS) + ("summary.csv",),
            params={"ids": PROBE_IDS},
        ),
    )
}
