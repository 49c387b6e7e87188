"""Command-line front end.

Subcommands cover the full pipeline: construct the shipped matrix families,
lift a set to a higher dimension, verify the defining axioms, search the
trace-orthogonal complement for an extension, certify lifted sets
structurally, and compute or compare spectral signatures.

Exit codes: 0 ok/pass, 1 error (I/O, parse, usage), 2 verification or
certification failure, 3 certification not applicable, 4 signatures not
distinguished.  Every command accepts ``--json`` to print a machine-readable
report on stdout (the human-readable report then moves to stderr).  Warnings
always go to stderr and to the report's "notes" array, never into its data
fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .constructions import (
    UMEBCandidate,
    External,
    bravyi_smolin_3,
    lift,
    lift_counts,
    load_umeb,
    provenance_to_str,
    save_umeb,
    umeb_6,
    weyl_family,
)
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .spectral import sector_table, signature, compare_signatures
from .verification import search_extension, structural_certify, verify_axioms

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_FAIL = 2
EXIT_NOT_APPLICABLE = 3
EXIT_NOT_DISTINGUISHED = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is taken by verification
    # failure here, so usage problems are rerouted to the generic error exit.
    def error(self, message):
        raise _UsageError(message)


def _emit(args, payload: dict, human: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
    if args.json:
        print(json.dumps(payload, indent=2))
        if human:
            print(human, file=sys.stderr)
    elif human:
        print(human)
    for note in payload.get("notes", []):
        print(f"note: {note}", file=sys.stderr)


_TOLERANCE_NAMES = tuple(f.name for f in fields(Tolerances))


def _tolerances(args) -> Tolerances:
    """The command's tolerances: the flags it registered, defaults otherwise."""
    given = {k: v for k, v in vars(args).items() if k in _TOLERANCE_NAMES}
    return replace(DEFAULT_TOLERANCES, **given)


def _add_common(p: argparse.ArgumentParser, *tolerances: str) -> None:
    """``--json``, plus a ``--*-tol`` flag for each tolerance the command reads."""
    p.add_argument("--json", action="store_true", help="print a JSON report on stdout")
    for name in tolerances:
        p.add_argument(
            "--" + name.replace("_", "-"), type=float,
            default=getattr(DEFAULT_TOLERANCES, name), metavar="T",
        )


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise _UsageError(f"{name} must be a positive integer, got {value}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    if args.kind == "weyl":
        if args.dim is None:
            raise _UsageError("construct weyl requires -d/--dim")
        _require_positive("dim", args.dim)
        c = weyl_family(args.dim)
    else:
        if args.dim is not None:
            raise _UsageError(f"-d/--dim is only meaningful for 'weyl', not {args.kind!r}")
        c = bravyi_smolin_3() if args.kind == "bs3" else umeb_6()
    save_umeb(c, args.out)
    payload = {
        "kind": args.kind,
        "path": args.out,
        "dim": c.dim,
        "element_count": len(c.elements),
        "provenance": provenance_to_str(c.provenance),
        "notes": [],
    }
    human = f"wrote {args.out}: {len(c.elements)} elements, dim {c.dim}"
    _emit(args, payload, human)
    return EXIT_OK


def cmd_lift(args) -> int:
    _require_positive("q", args.q)
    base = load_umeb(args.in_path)
    notes = []
    if len(base.elements) >= base.dim ** 2:
        notes.append(
            f"base set has {len(base.elements)} = dim^2 elements; it is a "
            "complete basis, so the count condition fails for it"
        )

    lifted = lift(base, args.q, _tolerances(args))
    constructed, closed_form = lift_counts(base.dim, len(base.elements), args.q)
    if constructed != closed_form:
        notes.append(
            f"count formulas disagree: constructed q(q-1)d^2 + qN = {constructed}, "
            f"closed form (qd)^2 - (d^2 - N) = {closed_form}; "
            "the constructed set is authoritative"
        )
    save_umeb(lifted, args.out)
    payload = {
        "path": args.out,
        "q": args.q,
        "dim": lifted.dim,
        "element_count": len(lifted.elements),
        "count_constructed": constructed,
        "count_closed_form": closed_form,
        "provenance": provenance_to_str(lifted.provenance),
        "notes": notes,
    }
    human = "\n".join(
        [
            f"wrote {args.out}: {len(lifted.elements)} elements, dim {lifted.dim}",
            f"count q(q-1)d^2 + qN      = {constructed}",
            f"count (qd)^2 - (d^2 - N)  = {closed_form}"
            + ("  (MISMATCH)" if constructed != closed_form else ""),
        ]
    )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_verify(args) -> int:
    c = load_umeb(args.in_path)
    report = verify_axioms(c, _tolerances(args))
    payload = {
        "path": args.in_path,
        **report.to_dict(),
        "notes": [],
    }
    human = "\n".join(
        [
            f"dim                      {report.dim}",
            f"elements                 {report.element_count}",
            f"max unitarity residual   {report.max_unitarity_residual:.3e}",
            f"max Gram off-diagonal    {report.max_gram_offdiag:.3e}",
            f"max Gram diagonal error  {report.max_gram_diag_error:.3e}",
            f"count < dim^2            {'yes' if report.condition_i_ok else 'NO'}",
            f"result                   {'PASS' if report.passed else 'FAIL'}",
        ]
    )
    _emit(args, payload, human)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_search(args) -> int:
    _require_positive("restarts", args.restarts)
    _require_positive("iters", args.iters)
    if args.seed < 0:
        raise _UsageError(f"seed must be non-negative, got {args.seed}")
    c = load_umeb(args.in_path)
    result = search_extension(
        c,
        restarts=args.restarts,
        iters=args.iters,
        seed=args.seed,
        extension_tol=args.tol,
        tol=_tolerances(args),
    )
    witness_path = None
    if result.verdict == "ExtensionFound":
        witness_path = args.witness
        if witness_path is None:
            stem, _ = os.path.splitext(args.in_path)
            witness_path = stem + ".witness.json"
        witness_set = UMEBCandidate(
            c.dim, (result.extension,), External("extension_witness")
        )
        save_umeb(witness_set, witness_path)

    payload = {
        "path": args.in_path,
        **result.to_dict(),
        "witness_path": witness_path,
    }
    lines = [
        f"verdict            {result.verdict}",
        f"best nuclear norm  {result.best_nuclear_norm:.12f}",
        f"gap                {result.gap:.6e}",
        f"complement dim     {result.complement_dim}",
        f"restarts x iters   {result.restarts} x {result.iters} (seed {result.seed})",
    ]
    if witness_path is not None:
        lines.append(f"witness written    {witness_path}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_certify(args) -> int:
    c = load_umeb(args.in_path)
    cert = structural_certify(c)
    payload = {
        "path": args.in_path,
        **cert.to_dict(),
    }
    lines = []
    for ch in cert.checks:
        lines.append(
            f"{'PASS' if ch.passed else 'FAIL'}  {ch.name}  (detail {ch.detail:.6g})"
        )
    lines.append(f"overall: {cert.overall}")
    _emit(args, payload, "\n".join(lines))
    if cert.overall == "CertifiedConditionalOnBase":
        return EXIT_OK
    if cert.overall == "NotApplicable":
        return EXIT_NOT_APPLICABLE
    return EXIT_VERIFY_FAIL


def cmd_spectral(args) -> int:
    _require_positive("bound", args.bound)
    sig = signature(load_umeb(args.in_path), args.bound, _tolerances(args))
    payload = {
        "path": args.in_path,
        **sig.to_dict(),
        "notes": [],
    }
    _emit(args, payload, sector_table(sig.sectors))
    return EXIT_OK


def cmd_compare(args) -> int:
    _require_positive("bound", args.bound)
    tol = _tolerances(args)
    a = signature(load_umeb(args.a_path), args.bound, tol)
    b = signature(load_umeb(args.b_path), args.bound, tol)
    verdict = compare_signatures(a, b)
    payload = {
        "a_path": args.a_path,
        "b_path": args.b_path,
        "bound": args.bound,
        "verdict": verdict,
        "notes": [],
    }
    human = (
        "DISTINGUISHED"
        if verdict == "Distinguished"
        else "NOT DISTINGUISHED (equivalence undecided)"
    )
    _emit(args, payload, human)
    return EXIT_OK if verdict == "Distinguished" else EXIT_NOT_DISTINGUISHED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="umeb",
        description="Construct, verify, lift, and fingerprint unextendible "
        "maximally entangled bases given as sets of unitary matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a shipped matrix family to a file")
    p.add_argument("kind", choices=["weyl", "bs3", "umeb6"])
    p.add_argument("-d", "--dim", type=int, default=None, help="dimension (weyl only)")
    p.add_argument("-o", "--out", required=True, help="output matrix-set JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("lift", help="lift a matrix set to dimension q*d")
    p.add_argument("in_path", help="input matrix-set JSON")
    p.add_argument("-q", type=int, required=True, help="lift factor (q >= 1)")
    p.add_argument("-o", "--out", required=True, help="output matrix-set JSON path")
    _add_common(p, "unitarity_tol")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="check count, unitarity, and orthogonality")
    p.add_argument("in_path")
    _add_common(p, "unitarity_tol", "gram_tol")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="nuclear-norm search for an extension")
    p.add_argument("in_path")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6, help="extension gap tolerance")
    p.add_argument("-w", "--witness", default=None, help="witness output path")
    _add_common(p, "unitarity_tol", "gram_tol")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("certify", help="structural certificate for lifted sets")
    p.add_argument("in_path")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("spectral", help="eigenphase orders and sector summary")
    p.add_argument("in_path")
    p.add_argument("--bound", type=int, default=144, help="largest order scanned")
    _add_common(p, "unitarity_tol", "phase_tol")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("compare", help="compare two spectral signatures")
    p.add_argument("a_path")
    p.add_argument("b_path")
    p.add_argument("--bound", type=int, default=144)
    _add_common(p, "unitarity_tol", "phase_tol")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except RecursionError:
        # A provenance can parse and still be too deep for the recursion
        # that certifies or renders it.
        paths = [v for k, v in vars(args).items() if k.endswith("_path")] if args else []
        print(
            f"error: {' and '.join(paths) or 'input'}: provenance is nested "
            "too deeply to process",
            file=sys.stderr,
        )
        return EXIT_ERROR
    except (_UsageError, OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
