"""The three benchmark pipelines, their inputs and their output checks.

Each pipeline drives the public API of one part of ``umeb`` and returns the
time of each stage it is measured by.  Every call into the package is made
through a module attribute (``constructions.lift``, ``verification.verify_axioms``
...) so that the tracer in ``tracing.py`` can replace those attributes.

``ladder``  lift -> verify_axioms -> structural_certify -> signature ->
            sector_summaries, in memory, for each lift factor q.
``search``  search_extension on two unextendible and two extendible sets.
``cli``     umeb.cli.main in-process on JSON files: construct -> lift ->
            verify -> certify -> spectral -> compare -> search.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from umeb import cli, constructions, linalg, spectral, verification

PIPELINES = ("ladder", "search", "cli")

# Gap of the best complement matrix found for the q-fold lift of the d = 3
# set: q * (3 - sqrt 6).  The same for every search seed tried.
BS3_GAP = 3.0 - math.sqrt(6.0)
GAP_TOL = 1e-6
# "Certified" is the unconditional verdict a later version may add.
CERTIFYING = ("CertifiedConditionalOnBase", "Certified")
SPECTRAL_BOUND = 144


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one pass of each pipeline."""

    ladder_qs: tuple[int, ...]
    unext_search: tuple[int, int]  # restarts, iterations
    ext_search: tuple[int, int]
    cli_q: int
    cli_compare: Callable[[], constructions.UMEBCandidate]
    cli_search_q: int
    cli_search: tuple[int, int]


def _weyl_subset_lift() -> constructions.UMEBCandidate:
    # Six Weyl operators labelled as the d = 3 base: extendible, yet lifted.
    base = constructions.UMEBCandidate(
        3, constructions.weyl_family(3).elements[:6], constructions.BravyiSmolin3()
    )
    return constructions.lift(base, 2)


def _weyl_subset_external() -> constructions.UMEBCandidate:
    return constructions.UMEBCandidate(
        3, constructions.weyl_family(3).elements[:6], constructions.External("weyl_subset_6")
    )


FULL = Scale(
    ladder_qs=(2, 4, 8),
    unext_search=(100, 500),
    ext_search=(20, 500),
    cli_q=8,
    cli_compare=lambda: constructions.lift(constructions.umeb_6(), 4),
    cli_search_q=4,
    cli_search=(20, 200),
)

# Same checks at the smallest sizes: q = 2 only, 2 x 20 searches, cli at D = 6.
# The compare target must differ from lift(bs3, 2) as a set, which umeb_6 does not.
SMOKE = Scale(
    ladder_qs=(2,),
    unext_search=(2, 20),
    ext_search=(2, 20),
    cli_q=2,
    cli_compare=_weyl_subset_lift,
    cli_search_q=2,
    cli_search=(2, 20),
)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """Generated inputs; a pipeline whose inputs were not made finds None."""

    scale: Scale
    workdir: str
    seeds: dict
    bs3: Optional[constructions.UMEBCandidate] = None
    umeb6: Optional[constructions.UMEBCandidate] = None
    extendible: tuple = ()
    compare_path: Optional[str] = None
    search_path: Optional[str] = None


def make_inputs(pipelines, seed: int, workdir: str, scale: Scale = FULL) -> Inputs:
    """Inputs of the given pipelines; the same seed gives the same inputs.

    The seed only sets the search sub-seeds: every other input is fixed.
    """
    rng = random.Random(seed)
    seeds = {name: rng.randrange(2**31) for name in ("bs3", "umeb6", "lift", "external", "cli")}
    inp = Inputs(scale=scale, workdir=workdir, seeds=seeds)
    if "ladder" in pipelines or "search" in pipelines:
        inp.bs3 = constructions.bravyi_smolin_3()
    if "search" in pipelines:
        inp.umeb6 = constructions.umeb_6()
        inp.extendible = (("lift", _weyl_subset_lift()), ("external", _weyl_subset_external()))
    if "cli" in pipelines:
        inp.compare_path = os.path.join(workdir, "compare.json")
        constructions.save_umeb(scale.cli_compare(), inp.compare_path)
        inp.search_path = os.path.join(workdir, "search.json")
        constructions.save_umeb(
            constructions.lift(constructions.bravyi_smolin_3(), scale.cli_search_q),
            inp.search_path,
        )
    return inp


# ---------------------------------------------------------------------------
# Checked operations
# ---------------------------------------------------------------------------

_REF_PARTS = np.random.default_rng(14095019).standard_normal((2, 40, 6, 6))
_REF_MATS = _REF_PARTS[0] + 1j * _REF_PARTS[1]
_REF_VECS = list(_REF_MATS.reshape(40, 36))


def reference_slice() -> float:
    """Seconds taken by a fixed piece of work that runs no umeb code.

    The shared test machine changes speed by up to 2x, from one second to
    the next and over minutes.  Slices run beside the timed work measure
    that speed at the time, so the work's time over their mean moves less
    with it.  The slice mixes what the pipelines do: small SVDs, a
    Python loop of vector products and JSON encoding.
    """
    t0 = time.perf_counter()
    for _ in range(12):
        for m in _REF_MATS:
            np.linalg.svd(m)
        acc = 0j
        for a in _REF_VECS:
            for b in _REF_VECS[:20]:
                acc += np.vdot(a, b)
        json.dumps([[float(z.real), float(z.imag)] for z in _REF_MATS.ravel()])
    return time.perf_counter() - t0


# About a reference slice's time on the test machine when it runs fast.
# Set-up times are reported as if the slices beside them had taken this long.
REF_SLICE_S = 0.05


class Checker:
    """Counts operations and those that raised or failed their output check.

    Before each operation it runs a reference slice and keeps its time in
    ``refs``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.refs: list[float] = []

    def op(self, name: str, fn: Callable, check: Callable):
        """Run ``fn`` timed, then ``check`` its output (None means it passed).

        Returns (output or None, seconds).  An exception is a failed
        operation, not a crash, so a later step that gets None also fails.
        """
        self.attempted += 1
        self.refs.append(reference_slice())
        t0 = time.perf_counter()
        try:
            out = fn()
            seconds = time.perf_counter() - t0
            problem = check(out)
        except Exception as exc:
            self.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        if problem:
            self.failures.append(f"{name}: {problem}")
        return out, seconds


def _expect(ok: bool, message: str) -> Optional[str]:
    return None if ok else message


def _unext_gap_check(q: int):
    def check(r):
        want = q * BS3_GAP
        return _expect(
            r.verdict == "NoExtensionFound" and abs(r.gap - want) < GAP_TOL,
            f"{r.verdict} with gap {r.gap!r}, expected NoExtensionFound with gap {want:.7f}",
        )
    return check


def _found_check(r) -> Optional[str]:
    tol = linalg.DEFAULT_TOLERANCES
    return _expect(
        r.verdict == "ExtensionFound"
        and r.extension_unitarity_residual < tol.unitarity_tol
        and r.extension_max_gram_overlap < tol.gram_tol,
        f"{r.verdict}, unitarity {r.extension_unitarity_residual}, "
        f"overlap {r.extension_max_gram_overlap}",
    )


# ---------------------------------------------------------------------------
# Pipelines: each returns {stage metric name: seconds}
# ---------------------------------------------------------------------------

def run_ladder(inp: Inputs, ck: Checker) -> dict:
    stages = {}
    for q in inp.scale.ladder_qs:
        n_lift = constructions.lift_counts(3, 6, q)[0]
        tag = f"ladder.D{3 * q}"
        c, t_lift = ck.op(
            f"{tag}.lift",
            lambda: constructions.lift(inp.bs3, q),
            lambda c: _expect(
                len(c.elements) == n_lift == {2: 30, 4: 132, 8: 552}.get(q, n_lift),
                f"{len(c.elements)} elements, lift_counts says {n_lift}",
            ),
        )
        _, t_verify = ck.op(
            f"{tag}.verify_axioms",
            lambda: verification.verify_axioms(c),
            lambda r: _expect(r.passed, f"axioms failed: {r.to_dict()}"),
        )
        _, t_cert = ck.op(
            f"{tag}.structural_certify",
            lambda: verification.structural_certify(c),
            lambda cert: _expect(cert.overall in CERTIFYING, f"verdict {cert.overall}"),
        )
        _, t_sig = ck.op(
            f"{tag}.signature",
            lambda: spectral.signature(c, bound=SPECTRAL_BOUND),
            lambda sig: _expect(
                sig.summary.provably_infinite_count == 6 * q * q
                and sig.summary.no_order_count == 0,
                f"summary {sig.summary.to_dict()}",
            ),
        )
        _, t_sect = ck.op(
            f"{tag}.sector_summaries",
            lambda: spectral.sector_summaries(c, bound=SPECTRAL_BOUND),
            lambda rows: _expect(
                [r.elements_with_infinite for r in rows if r.name == "base"] == [6 * q],
                f"sectors {[r.to_dict() for r in rows]}",
            ),
        )
        stages[f"verdict_s.D{3 * q}"] = t_lift + t_verify + t_cert + t_sig + t_sect
    return stages


def run_search(inp: Inputs, ck: Checker) -> dict:
    restarts, iters = inp.scale.unext_search
    stages = {}
    for name, c, q in (("bs3", inp.bs3, 1), ("umeb6", inp.umeb6, 2)):
        _, stages[f"search_s.{name}"] = ck.op(
            f"search.{name}",
            lambda: verification.search_extension(c, restarts, iters, seed=inp.seeds[name]),
            _unext_gap_check(q),
        )
    restarts, iters = inp.scale.ext_search
    found = 0.0
    for name, c in inp.extendible:
        _, seconds = ck.op(
            f"search.found_{name}",
            lambda: verification.search_extension(c, restarts, iters, seed=inp.seeds[name]),
            _found_check,
        )
        found += seconds
    stages["search_s.found"] = found
    return stages


def _cli(argv: list) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _payload_check(check: Callable[[dict], bool]):
    def run(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        return _expect(check(payload), f"payload {text[:300]}")
    return run


def run_cli(inp: Inputs, ck: Checker) -> dict:
    s = inp.scale
    q = s.cli_q
    n_lift = constructions.lift_counts(3, 6, q)[0]
    base = os.path.join(inp.workdir, "bs3.json")
    lifted = os.path.join(inp.workdir, f"bs3_q{q}.json")
    restarts, iters = s.cli_search
    steps = (
        ("construct", ["construct", "bs3", "-o", base],
         lambda p: p["element_count"] == 6 and p["dim"] == 3),
        ("lift", ["lift", base, "-q", str(q), "-o", lifted],
         lambda p: p["element_count"] == p["count_constructed"] == n_lift),
        ("verify", ["verify", lifted],
         lambda p: p["passed"] and p["element_count"] == n_lift),
        ("certify", ["certify", lifted],
         lambda p: p["overall"] in CERTIFYING),
        ("spectral", ["spectral", lifted],
         lambda p: p["summary"]["provably_infinite_count"] == 6 * q * q
         and p["summary"]["no_order_count"] == 0
         and [r["elements_with_infinite"] for r in p["sectors"] if r["name"] == "base"] == [6 * q]),
        ("compare", ["compare", lifted, inp.compare_path],
         lambda p: p["verdict"] == "Distinguished"),
        ("search", ["search", inp.search_path, "--restarts", str(restarts),
                    "--iters", str(iters), "--seed", str(inp.seeds["cli"])],
         lambda p: p["verdict"] == "NoExtensionFound"
         and abs(p["gap"] - s.cli_search_q * BS3_GAP) < GAP_TOL),
    )
    stages = {}
    for name, argv, check in steps:
        _, seconds = ck.op(f"cli.{name}", lambda: _cli(argv + ["--json"]), _payload_check(check))
        if name != "construct":
            stages[f"cmd_s.{name}"] = seconds
    return stages


RUNNERS = {"ladder": run_ladder, "search": run_search, "cli": run_cli}
