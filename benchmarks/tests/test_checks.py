import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from checks import REFERENCE_DIR, RTOL, check_invocation, compare_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LWP = WORKLOADS["lwp-picard"]


def write_manifest(out_dir: Path) -> None:
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"
    }
    (out_dir / "manifest.json").write_text(json.dumps({"artifacts": hashes}))


@pytest.fixture
def lwp_output(tmp_path):
    """The stored lwp-picard reference, laid out as a run directory."""
    out = tmp_path / "out"
    shutil.copytree(REFERENCE_DIR / LWP.name, out)
    write_manifest(out)
    return out


def bump_first_failures(out: Path) -> None:
    lines = (out / "failures.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    j = header.index("failures")
    row[j] = str(int(row[j]) + 1)
    lines[1] = ",".join(row)
    (out / "failures.csv").write_text("\n".join(lines) + "\n")


def test_reference_output_passes(lwp_output):
    problems, hashes = check_invocation(LWP, lwp_output, LWP.default_seed, 0)
    assert problems == []
    assert set(hashes) == set(LWP.artifacts)


def test_bumped_failure_count_fails_the_invocation(lwp_output):
    bump_first_failures(lwp_output)
    write_manifest(lwp_output)  # the manifest agrees; only the reference catches it
    problems, _ = check_invocation(LWP, lwp_output, LWP.default_seed, 0)
    assert any("failures" in p for p in problems)


def test_file_not_matching_its_manifest_fails(lwp_output):
    bump_first_failures(lwp_output)
    problems, _ = check_invocation(LWP, lwp_output, LWP.default_seed, 0)
    assert problems == ["failures.csv does not match its manifest hash"]


def test_other_seed_checks_invariants_only(lwp_output):
    bump_first_failures(lwp_output)
    write_manifest(lwp_output)
    assert check_invocation(LWP, lwp_output, LWP.default_seed + 1, 0)[0] == []
    (lwp_output / "trend.csv").unlink()
    write_manifest(lwp_output)
    assert "trend.csv not in manifest" in check_invocation(LWP, lwp_output, 7, 0)[0]


def test_nonzero_exit_fails(lwp_output):
    assert check_invocation(LWP, lwp_output, LWP.default_seed, 3)[0] == ["exit code 3"]


def test_float_columns_match_to_round_off_discrete_exactly():
    ref = (["T", "iterations", "x"], [["0.25", "12", "1.5"], ["0.5", "3", "2.0"]])

    def out(x, iterations="12"):
        return (["T", "iterations", "x", "extra"], [["0.25", iterations, x, "9"], ["0.5", "3", "2.0", "9"]])

    assert compare_table("t", ref, out(repr(1.5 * (1 + RTOL / 10)))) == []
    assert compare_table("t", ref, out(repr(1.5 * (1 + RTOL * 10))))
    assert compare_table("t", ref, out("1.5", iterations="13"))
