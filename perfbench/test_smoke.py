"""Smoke test of the benchmark at its smallest sizes, with the same output checks.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, done.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    metrics = _run(workload, 0)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer(workload):
    metrics = _run(workload, 1)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name, m in metrics.items():
        if name.endswith((".calls", ".bytes", "_bytes", ".input_entries", ".ascent_svds")):
            assert m["value"] >= 1 and m["value"] == int(m["value"]), name


def test_bare_directory_fails(tmp_path):
    """Without the program's sources the benchmark exits non-zero and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
