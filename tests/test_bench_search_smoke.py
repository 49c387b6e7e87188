"""The benchmark's search workload at its smallest sizes, with its output checks.

Runs ``perfbench/run.py --smoke --workload search --trace 1``, which also runs
the other pipelines once, traced, so every checked benchmark operation runs
and every traced layer function must have been called.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_search_smoke_passes_its_checks():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", "search",
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    # Every traced layer function ran: a refactor that stops calling one
    # fails here, as in perfbench/test_smoke.py.
    for name, m in result["metrics"].items():
        if name.endswith((".calls", ".bytes", "_bytes", ".input_entries", ".ascent_svds")):
            assert m["value"] >= 1 and m["value"] == int(m["value"]), name
