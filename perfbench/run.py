"""Benchmark of the umeb package: the ladder, search and cli workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

A run repeats its workload's pipeline (see ``pipelines.py``) until
``--seconds`` have passed, at least four times, and checks every operation's
output.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``.  The lines before it also give the pipeline's stage times.
A traced run alternates untraced and traced passes, then runs each other
pipeline once, traced, so that every layer shows in the per-layer metrics.
``--smoke`` runs the same code and checks at the smallest sizes.

BLAS runs on one thread: at these matrix sizes more threads do not help,
and one thread keeps the scheduler out of the numbers.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_MIN = 5
SETUP_SECONDS = 3.0
MIN_PASSES = 4


def _import_program():
    """Import umeb from this checkout's src/, never from anywhere else."""
    if not (SRC / "umeb" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'umeb'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import umeb

    if Path(umeb.__file__).resolve().parent != (SRC / "umeb").resolve():
        sys.exit(f"error: imported umeb from {umeb.__file__}, not from {SRC}")


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, BLAS {blas}, "
        f"{os.cpu_count()} cores, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def _setup_samples(pipelines, args, workdir: str) -> tuple[list, list]:
    """Set-up times of fresh processes, in seconds at reference speed.

    A process runs from start through ``import umeb`` and input generation.
    Each one's time is divided by the mean of the reference slices just
    before and just after it, and multiplied by REF_SLICE_S.  Two slices
    run between processes, so that each has four around it; with one on
    each side the median spread more between runs.  Processes start until
    SETUP_SECONDS of set-up has been timed, and at least SETUP_MIN of them.
    Returns these samples and the raw seconds.
    """
    def slices():
        return (pipelines.reference_slice() + pipelines.reference_slice()) / 2

    samples, raw = [], []
    before = slices()
    while len(samples) < SETUP_MIN or sum(raw) < SETUP_SECONDS:
        out = tempfile.mkdtemp(prefix=f"setup{len(samples)}-", dir=workdir)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-into", out,
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - t0
        if done.returncode != 0:
            sys.exit(f"error: set-up process failed:\n{done.stderr}")
        after = slices()
        samples.append(seconds / ((before + after) / 2) * pipelines.REF_SLICE_S)
        raw.append(seconds)
        before = after
    return samples, raw


def _passes(pipelines, inputs, checker, workload, seconds, tracer=None):
    """Passes of the workload's pipeline for ``seconds``, at least MIN_PASSES.

    With a tracer, the passes alternate untraced and traced, and then each
    other pipeline runs once, traced, so that every layer is measured.
    Returns {pipeline: [(stage times, pass wall, traced, pass wall in
    reference units)]} and the peak RSS after the workload's own passes.
    The pass wall leaves out the reference slices.
    """
    runs = {p: [] for p in pipelines.PIPELINES}

    def one(pipeline, traced):
        if traced:
            tracer.tag = (pipeline, len(runs[pipeline]))
            tracer.install()
        first = len(checker.refs)
        t0 = time.perf_counter()
        try:
            stages = pipelines.RUNNERS[pipeline](inputs, checker)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        refs = checker.refs[first:]
        wall -= sum(refs)
        refs.append(pipelines.reference_slice())
        runs[pipeline].append((stages, wall, traced, wall / statistics.mean(refs)))

    start = time.perf_counter()
    while len(runs[workload]) < MIN_PASSES or time.perf_counter() - start < seconds:
        one(workload, tracer is not None and len(runs[workload]) % 2 == 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        for other in pipelines.PIPELINES:
            if other != workload:
                one(other, True)
    return runs, peak_rss_mb


def _end_to_end(own, setup, peak_rss_mb):
    """Medians over the run's samples, and the sample count behind each."""
    samples = {
        "setup_s": setup[0],
        "setup_raw_s": setup[1],
        "wall_ref": [wall_ref for _, _, _, wall_ref in own],
        "wall_s": [wall for _, wall, _, _ in own],
    }
    for stages, _, _, _ in own:
        for name, seconds in stages.items():
            samples.setdefault(name, []).append(seconds)
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = peak_rss_mb
    return values, {name: len(v) for name, v in samples.items()}


def main(argv=None) -> int:
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pipelines

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=pipelines.PIPELINES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest sizes, same checks")
    ap.add_argument("--setup-into", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    scale = pipelines.SMOKE if args.smoke else pipelines.FULL
    if args.setup_into:
        pipelines.make_inputs((args.workload,), args.seed, args.setup_into, scale)
        return 0

    end_to_end, per_layer = _declared()
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        setup = ([], []) if args.trace else _setup_samples(pipelines, args, workdir)
        used = pipelines.PIPELINES if args.trace else (args.workload,)
        inputs = pipelines.make_inputs(used, args.seed, workdir, scale)
        checker = pipelines.Checker()
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        runs, peak_rss_mb = _passes(
            pipelines, inputs, checker, args.workload, args.seconds, tracer
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        passes = {p: sum(traced for _, _, traced, _ in r) for p, r in runs.items()}
        values = tracing.layer_metrics(tracer.spans, passes)
        walls = {True: [], False: []}
        for _, wall, traced, _ in runs[args.workload]:
            walls[traced].append(wall)
        values["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False])
        )
        counts = {}
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(str(trace_dir / f"{args.workload}.spans.tsv"))
        declared = per_layer
    else:
        values, counts = _end_to_end(runs[args.workload], setup, peak_rss_mb)
        declared = end_to_end

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}"
          f"{', smoke' if args.smoke else ''}")
    print(f"# {_environment()}")
    for failure in checker.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    # After the declared metrics come the stage times of the workload's pipeline.
    stages = [] if args.trace else [name for name in values if name not in declared]
    for name in [*declared, *stages]:
        n = f"  (median of {counts[name]})" if counts.get(name, 1) > 1 else ""
        print(f"{name:48s} {values[name]:.6g} {declared.get(name, 's')}{n}")
    failed = len(checker.failures)
    print(f"{'fail_ratio':48s} {failed / checker.attempted:.6g}"
          f"  ({failed} of {checker.attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
