"""gkdvlab benchmark: CLI workloads timed end to end, with a traced run for
the per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload lwp-picard --seed 7 --seconds 28 --trace 0
    python3 benchmarks/run.py                 # every workload at its preset seed

Each invocation is a fresh `python3 benchmarks/child.py` subprocess that
imports gkdvlab from `src/` and calls `gkdvlab.cli.main`; invocations run one
after another, repeated with the same seed until `--seconds` have passed
(at least twice). Every invocation's output is checked (`checks.py`).

With `--trace 0` the metrics are the end-to-end ones. The host is shared:
for seconds to minutes at a time other tenants slow everything on it by up to
a half, so raw wall times swing by a quarter from one run to the next. Each
invocation is therefore bracketed by a fixed calibration loop (interpreter
and numpy.fft work, no gkdvlab code) that runs on as many cores as the
workload keeps busy, and the run's mean set-up and run time are reported in
seconds at the host speed at which that loop takes CALIBRATION_S: the raw
means times CALIBRATION_S / the loop's mean time over the same run. A change
to gkdvlab moves these exactly as it moves raw wall time. The raw times and
the loop times are kept in the record line. Peak RSS is the median over the
invocations.

With `--trace 1` traced and untraced invocations alternate; the metrics are
the per-layer ones from the traced invocations and the tracing overhead
(traced minus untraced run time).

For a single workload, stdout ends with a human-readable summary, a record
line (machine, invocations, failed_frac) and, last, the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every check passed, and 2 when the checkout has no gkdvlab sources.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_invocation
from tracer import IO_WRITERS
from workloads import PROBE_IDS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The lwp-picard pool already uses both cores; BLAS threads on top of it
# would oversubscribe, and the OpenBLAS here is built for 64 threads.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_INVOCATIONS = 2
CHILD_TIMEOUT_S = 75.0
# Nominal time of one calibration loop: about what it takes on a quiet
# 2-vCPU x86_64 (Haswell-class) host with numpy 2.4 and OpenBLAS 0.3.31.
CALIBRATION_S = 0.25
_CALIBRATION_FFT_INPUT = np.exp(1j * np.arange(8 * 1024).reshape(8, 1024) * 0.001)

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
FFT_LAYERS = ("grid", "wiener", "spacetime", "norms", "solver", "probes")
ST_TRANSFORMS = (
    "spacetime.st_to_spectral",
    "spacetime.st_to_physical",
    "spacetime.st_spectral_values",
    "spacetime.st_physical_values",
)
COUNTERS = ("solver.picard_iterations", "montecarlo.samples", "montecarlo.nan_samples")
RECORDED = ("traced", "exit_code", "setup_s", "run_s", "calibration_s", "peak_rss_mb")


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_sha": git_sha(),
        "thread_caps": THREAD_CAPS,
    }


def child_command(workload: Workload, seed: int, run_dir: Path, k: int, traced: bool) -> list[str]:
    """Invocation k: result in run_dir/inv{k}.json, artifacts in run_dir/inv{k}/."""
    return [
        sys.executable, str(HERE / "child.py"), str(run_dir / f"inv{k}.json"), "1" if traced else "0",
        workload.command, "--config", str(run_dir / "config.ini"),
        "--seed", str(seed), "--out", str(run_dir / f"inv{k}"),
    ]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_CAPS)


def calibration_loop() -> float:
    """Seconds a fixed piece of interpreter and FFT work takes now."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_800_000):
        acc += i * i
    x = _CALIBRATION_FFT_INPUT
    for _ in range(900):
        np.fft.ifft(np.fft.fft(x, axis=1) ** 2, axis=1)
    return time.perf_counter() - t


def calibrate(helpers, cores: int) -> float:
    """The calibration loop's mean time when it runs on `cores` cores at once:
    here, and on cores - 1 processes of the `helpers` pool."""
    pending = [helpers.apply_async(calibration_loop) for _ in range(cores - 1)]
    own = calibration_loop()
    return statistics.mean([own] + [p.get() for p in pending])


def invoke(workload: Workload, seed: int, run_dir: Path, k: int, traced: bool, helpers) -> dict:
    """Run one child invocation, between two calibrations, and check its output."""
    out = run_dir / f"inv{k}"
    result_path = run_dir / f"inv{k}.json"
    inv = {"traced": traced, "problems": [], "calibration_s": [calibrate(helpers, workload.threads)]}
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        child_command(workload, seed, run_dir, k, traced),
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        inv["problems"].append(f"timed out after {CHILD_TIMEOUT_S:g} s")
        err = ""
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    inv["exit_code"] = proc.returncode
    inv["calibration_s"].append(calibrate(helpers, workload.threads))
    if not result_path.is_file():
        inv["problems"].append(f"no result (exit {proc.returncode}): {err.strip()[-300:]}")
        return inv
    res = json.loads(result_path.read_text())
    if not Path(res["package_file"]).resolve().is_relative_to(ROOT / "src"):
        inv["problems"].append(f"gkdvlab imported from {res['package_file']}")
    if res["start"] is not None:
        inv["setup_s"] = res["start"] - t_spawn
        inv["run_s"] = res["end"] - res["start"]
    inv["peak_rss_mb"] = res["peak_rss_kb"] / 1024.0
    inv["trace"] = res.get("trace")
    problems, inv["hashes"] = check_invocation(workload, out, seed, res["exit_code"])
    inv["problems"] += problems
    shutil.rmtree(out, ignore_errors=True)
    return inv


def end_to_end(runs: list[dict], workload: Workload) -> dict:
    """Means over the invocations, rescaled to the nominal host speed."""
    scale = CALIBRATION_S / statistics.mean(c for r in runs for c in r["calibration_s"])
    run_s = scale * statistics.mean(r["run_s"] for r in runs)
    return {
        "setup_s": scale * statistics.mean(r["setup_s"] for r in runs),
        "run_s": run_s,
        "items_per_s": workload.items / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def layer_metrics(trace: dict, workload: Workload) -> dict:
    """Per-layer metrics of one traced invocation; absent layers read 0."""
    spans, fft, counters = trace["spans"], trace["fft"], trace["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    m = {}
    for i, key in enumerate(("calls", "points", "s")):
        m[f"grid.fft.{key}"] = sum(rec[i] for rec in fft.values())
        for layer in FFT_LAYERS:
            m[f"grid.fft.{layer}.{key}"] = fft.get(layer, [0, 0, 0.0])[i]
    steps = workload.params.get("steps")
    rk4 = (incl("solver.evolve_reference") - incl("solver.conserved_quantities")) / steps if steps else 0.0
    samples = np.asarray(trace["sample_s"])
    m.update({
        "solver.nonlinearity_coeffs.calls": calls("solver.nonlinearity_coeffs"),
        "solver.nonlinearity_coeffs.s": incl("solver.nonlinearity_coeffs"),
        "solver.conserved_quantities.s": incl("solver.conserved_quantities"),
        "solver.rk4_step_s": rk4,
        "solver.duhamel_gamma.calls": calls("solver.duhamel_gamma"),
        "solver.duhamel_gamma.self_s": self_s("solver.duhamel_gamma"),
        "solver.picard_solve.s": incl("solver.picard_solve"),
        **{name: counters.get(name, 0) for name in COUNTERS},
        "spacetime.free_evolution.calls": calls("spacetime.free_evolution"),
        "spacetime.free_evolution.s": incl("spacetime.free_evolution"),
        "spacetime.band_project.s": incl("spacetime.band_project"),
        "spacetime.st_transform.s": sum(incl(n) for n in ST_TRANSFORMS),
        "norms.xsb_norm.calls": calls("norms.xsb_norm"),
        "norms.xsb_norm.s": incl("norms.xsb_norm"),
        "norms.mixed_norm.s": incl("norms.mixed_norm"),
        "norms.bilinear_multiplier.s": incl("norms.bilinear_multiplier"),
        "wiener.randomize.calls": calls("wiener.randomize"),
        "wiener.randomize.s": incl("wiener.randomize"),
        "wiener.sample_coefficients.s": incl("wiener.sample_coefficients"),
        "montecarlo.run_ensemble.self_s": self_s("montecarlo.run_ensemble"),
        "montecarlo.sample_s.p50": float(np.percentile(samples, 50)) if samples.size else 0.0,
        "montecarlo.sample_s.p99": float(np.percentile(samples, 99)) if samples.size else 0.0,
        "probes.random_spacetime.calls": calls("probes.random_spacetime"),
        "probes.random_spacetime.s": incl("probes.random_spacetime"),
        **{f"probes.run_estimate.{eid}.s": incl(f"probes.run_estimate.{eid}") for eid in PROBE_IDS},
        "io.write.s": sum(incl(n) for n in IO_WRITERS),
        "io.bytes": counters.get("io.bytes", 0),
        "config.load_config.s": incl("config.load_config"),
    })
    return m


def layer_unit(name: str) -> str:
    if name == "io.bytes":
        return "bytes"
    if name.endswith((".calls", ".points")) or name in COUNTERS:
        return "count"
    return "s"


def per_layer(runs: list[dict], workload: Workload) -> tuple[dict, list[str]]:
    traced = [layer_metrics(r["trace"], workload) for r in runs if r["traced"]]
    untraced = [r["run_s"] for r in runs if not r["traced"]]
    problems = []
    metrics = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if layer_unit(name) == "s":
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            problems.append(f"exact count {name} differs between traced invocations: {values}")
        metrics[name] = values[0]
    metrics["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in runs if r["traced"]) - statistics.median(untraced)
    )
    return metrics, problems


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Invoke the workload until `seconds` have passed; (result, record)."""
    run_dir = ROOT / ".bench_runs" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = itertools.cycle((True, False)) if trace else itertools.repeat(False)
    runs: list[dict] = []
    helpers = multiprocessing.get_context("fork").Pool(workload.threads - 1) if workload.threads > 1 else None
    try:
        (run_dir / "config.ini").write_text(workload.config)
        calibrate(helpers, workload.threads)  # warm-up: numpy.fft plans, interpreter caches
        begin = time.monotonic()
        while len(runs) < MIN_INVOCATIONS or time.monotonic() - begin < seconds:
            runs.append(invoke(workload, seed, run_dir, len(runs), next(plan), helpers))
    finally:
        if helpers is not None:
            helpers.terminate()
            helpers.join()
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [f"invocation {k}: {p}" for k, r in enumerate(runs) for p in r["problems"]]
    failed = sum(1 for r in runs if r["problems"])
    good = [r for r in runs if not r["problems"]]
    if len({json.dumps(r["hashes"], sort_keys=True) for r in good}) > 1:
        problems.append("repeated invocations produced different artifact hashes")
    metrics: dict = {}
    if trace and any(r["traced"] for r in good) and any(not r["traced"] for r in good):
        values, count_problems = per_layer(good, workload)
        problems += count_problems
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    elif not trace and good:
        metrics = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(good, workload).items()
        }
    correct = not problems and bool(metrics)
    result = {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "item": workload.item,
        "items": workload.items,
        "failed_frac": failed / len(runs),
        "problems": problems,
        "environment": environment(),
        "invocations": [
            {k: v for k, v in r.items() if k in RECORDED}
            for r in runs
        ],
    }
    return result, record


def summary_line(result: dict, record: dict) -> str:
    metrics = result["metrics"]
    if record["trace"]:
        shown = {k: metrics[k] for k in ("grid.fft.calls", "trace.overhead_s") if k in metrics}
        parts = [f"{len(metrics)} per-layer metrics"]
    else:
        shown, parts = metrics, []
    parts += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in shown.items()]
    parts.append(
        f"failed_frac {record['failed_frac']:.6g} ({result['failed']}/{result['attempted']} invocations)"
    )
    return f"{record['workload']} seed={record['seed']}: " + " | ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, help="default: the workload's preset master seed")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gkdvlab" / "cli.py").is_file():
        print(f"no gkdvlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        result, record = run_workload(workload, seed, args.seconds, bool(args.trace))
        results[name] = result
        print(summary_line(result, record), flush=True)
        for problem in record["problems"]:
            print(f"  FAILED {problem}", flush=True)
        if args.workload:
            print(json.dumps(record), flush=True)
    print(json.dumps(results[names[0]] if args.workload else results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
