"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py --workload search --seeds 1 2 3 4 5
    python3 perfbench/steadiness.py --workload cli --seeds 7 7 --trace 1

Each seed is one fresh run of ``run.py`` with BENCHMARK.json's run_seconds.
For every metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median.  With ``--trace 0`` it compares that spread with a
third of the metric's bound.  With ``--trace 1`` and a repeated seed it
shows whether each counter repeated exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two runs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict = {}
    for seed in args.seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed operations", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    steady = True
    print(f"{'metric':48s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound/3':>7s}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        if args.trace:
            flag = "exact" if len(set(vals)) == 1 else ""
        else:
            ok = spread < bound / 3
            steady &= ok
            flag = "ok" if ok else "WIDE"
        third = f"{bound / 3:.3f}" if bound else ""
        print(f"{name:48s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {third:>7s} {flag}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
