"""Spans around the calls into each layer's public functions.

``Tracer.install`` replaces each listed function, in every ``umeb`` module
that holds it under some name, with a wrapper that records a span: name,
start, end, parent span and the tag of the pipeline pass it ran in.  Spans
stay in memory until ``write`` at the end of the run.  Nothing under
``src/`` is modified; ``uninstall`` puts the original functions back.

Counters derived here (calls, bytes, input entries, search iterations) come
from arguments, return values and file sizes, never from timing, so they
repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

import umeb
from umeb import cli, constructions, linalg, spectral, verification

LAYERS = {
    "linalg": (linalg, ("orthonormal_complement", "gram_matrix")),
    "constructions": (constructions, ("lift", "rebuild_from_provenance", "save_umeb", "load_umeb")),
    "verification": (verification, ("verify_axioms", "structural_certify", "search_extension")),
    "spectral": (
        spectral,
        ("signature", "sector_summaries", "eigenphases", "order_up_to", "compare_signatures"),
    ),
    "cli": (cli, ("main",)),
}
_MODULES = (umeb, linalg, constructions, verification, spectral, cli)

# A restart's objective has stopped rising once no later step gains more than this.
RISE_TOL = 1e-12
# A restart ends "at the best" when its final objective is this close to the best one.
BEST_TOL = 1e-9


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _search_counts(result) -> dict:
    finals, useful = [], 0
    svds = 0
    for trace in result.objective_traces:
        t = np.asarray(trace)
        svds += t.size
        rises = np.flatnonzero(np.diff(t) > RISE_TOL)
        useful += int(rises[-1]) + 2 if rises.size else 1
        finals.append(t[-1])
    best = max(finals) if finals else 0.0
    return {
        "verification.search.ascent_svds": svds,
        "wasted_iters": svds - useful,
        "restarts": len(finals),
        "restarts_at_best": sum(f >= best - BEST_TOL for f in finals),
        "verification.search.refined": int(any("refined" in note for note in result.notes)),
    }


# Per-call counters, computed after the span has ended so they cost no span time.
_EXTRAS = {
    "linalg.orthonormal_complement": lambda a, k, out: {
        "linalg.orthonormal_complement.input_entries": sum(
            np.size(m) for m in _arg(a, k, 0, "mats")
        )
    },
    "constructions.save_umeb": lambda a, k, out: {
        "constructions.save_umeb.bytes": os.path.getsize(_arg(a, k, 1, "path"))
    },
    "constructions.load_umeb": lambda a, k, out: {
        "constructions.load_umeb.bytes": os.path.getsize(_arg(a, k, 0, "path"))
    },
    "verification.search_extension": lambda a, k, out: _search_counts(out),
    # The pipeline gives every command a fresh StringIO as stdout; JSON is ASCII.
    "cli.main": lambda a, k, out: {"cli.stdout_bytes": len(sys.stdout.getvalue())},
}

# Counters summed straight from the per-call values above.
_COUNTER_KEYS = (
    "linalg.orthonormal_complement.input_entries",
    "constructions.save_umeb.bytes",
    "constructions.load_umeb.bytes",
    "verification.search.ascent_svds",
    "verification.search.refined",
    "cli.stdout_bytes",
)

NAME, START, END, PARENT, TAG, EXTRA = range(6)


class Tracer:
    """Records spans while installed; ``tag`` labels the pass now running."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tag = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for layer, (module, names) in LAYERS.items():
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in _MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, start, end, parent, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\ttag\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[TAG]}\n")


def layer_metrics(spans, passes: dict) -> dict:
    """Per-layer values for one round: one pass of each pipeline.

    ``passes`` maps a pipeline name to the number of traced passes it made;
    a span's tag is (pipeline, pass index).  Sums are taken per pipeline
    and divided by that pipeline's pass count, so integer counters stay exact.
    """
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]

    # sums[pipeline][key] -> total over that pipeline's traced passes
    sums = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        acc = sums[s[TAG][0]]
        acc[s[NAME] + ".calls"] += 1
        acc[s[NAME] + ".self_s"] += (s[END] - s[START]) - child[i]
        for key, value in (s[EXTRA] or {}).items():
            acc[key] += value
    total = defaultdict(float)
    for pipeline, acc in sums.items():
        for key, value in acc.items():
            total[key] += value / passes[pipeline]

    svds = total["verification.search.ascent_svds"]
    search_self = total["verification.search_extension.self_s"]
    out = {key: total[key] for key in _COUNTER_KEYS}
    for layer, (_, fnames) in LAYERS.items():
        for f in fnames:
            for key in (f"{layer}.{f}.calls", f"{layer}.{f}.self_s"):
                out[key] = total[key]
    out["verification.search.ascent_svds_per_s"] = svds / search_self if search_self else 0.0
    out["verification.search.wasted_iter_ratio"] = total["wasted_iters"] / svds if svds else 0.0
    out["verification.search.restarts_at_best_ratio"] = (
        total["restarts_at_best"] / total["restarts"] if total["restarts"] else 0.0
    )
    return out
