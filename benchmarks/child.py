"""One benchmark invocation: run a gkdvlab subcommand through the public CLI.

    python3 benchmarks/child.py RESULT_JSON TRACE(0|1) SUBCOMMAND [CLI ARGS...]

The subcommand entry in `gkdvlab.cli.COMMANDS` is wrapped to stamp the
monotonic clock just before and after it runs, so the parent can split the
invocation into set-up (interpreter, imports, `load_config`) and run time.
With TRACE=1 the span tracer is installed first. The result file is written
once, after the CLI returns.
"""

from __future__ import annotations

import json
import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this process image. getrusage's ru_maxrss is not
    used: it keeps the parent's RSS across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    result_path, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import gkdvlab
    from gkdvlab import cli

    stamps = {}
    command = cli.COMMANDS[cli_argv[0]]

    def timed(cfg, args):
        stamps["start"] = time.monotonic()
        try:
            return command(cfg, args)
        finally:
            stamps["end"] = time.monotonic()

    cli.COMMANDS[cli_argv[0]] = timed
    code = cli.main(cli_argv)
    result = {
        "exit_code": code,
        "start": stamps.get("start"),
        "end": stamps.get("end"),
        "peak_rss_kb": peak_rss_kb(),
        "package_file": gkdvlab.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
