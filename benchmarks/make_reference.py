"""Regenerate the stored reference outputs under `reference/`.

    python3 benchmarks/make_reference.py [WORKLOAD ...]

Runs each workload once at its preset seed and stores its CSV artifacts
(and, for the trajectory, three sampled states) as the reference that
`checks.compare_reference` reads. Only regenerate when a change is meant
to alter the numbers, and say so in that change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from checks import write_reference
from run import ROOT, child_command, child_env
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        run_dir = ROOT / ".bench_runs" / f"reference-{name}-{os.getpid()}"
        run_dir.mkdir(parents=True)
        try:
            (run_dir / "config.ini").write_text(workload.config)
            subprocess.run(
                child_command(workload, workload.default_seed, run_dir, 0, traced=False),
                cwd=ROOT, env=child_env(), check=True,
            )
            write_reference(workload, run_dir / "inv0")
            print(f"{name}: reference written")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
