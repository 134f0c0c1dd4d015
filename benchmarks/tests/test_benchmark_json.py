import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from run import END_TO_END_UNITS, layer_metrics, layer_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DOC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_what_run_reports():
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == END_TO_END_UNITS


def test_per_layer_metrics_match_what_run_reports():
    empty = {"spans": {}, "fft": {}, "counters": {}, "sample_s": []}
    emitted = set(layer_metrics(empty, WORKLOADS["simulate-desk"])) | {"trace.overhead_s"}
    assert {m["name"] for m in DOC["per_layer"]} == emitted
    assert all(m["unit"] == layer_unit(m["name"]) for m in DOC["per_layer"])
