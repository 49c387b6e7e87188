"""Command-line front end.

Subcommands cover the full pipeline: construct the shipped matrix families,
lift a set to a higher dimension, verify the defining axioms, search the
trace-orthogonal complement for an extension, certify lifted sets
structurally, and compute or compare spectral signatures.

Exit codes: 0 ok/pass, 1 error (I/O, parse, usage, memory), 2 verification or
certification failure, 3 certification not applicable, 4 signatures not
distinguished.  Every command accepts ``--json`` to print a machine-readable
report on stdout (the human-readable report then moves to stderr).  Warnings
always go to stderr and to the report's "notes" array, never into its data
fields.  No command takes a threshold: every verdict is held to
``DEFAULT_TOLERANCES``, and every report prints the residuals it was judged on.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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


_NUMBER_TYPES = frozenset((int, float, bool))


def _dumps(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, from calls of the C encoder.

    Any ``indent`` sends ``json`` to its pure-Python encoder, so the layout
    is built here instead.  String-keyed dicts and lists are walked at every
    depth, and each object's text is made once per depth it is read at, by
    identity: a signature's records, classification lists and
    classification dicts are shared objects.  A list of only ``int``,
    ``float`` and ``bool`` items is one ``json.dumps`` call, its ``", "``
    separators re-lined; scalars and empty containers are one call each.
    Only a dict with a non-string key is left to ``json.dumps(indent=2)``,
    re-indented.  The texts are held for this call alone.  An object shared
    in ``value`` prints alike at each of its places, so a caller that edits
    one place copies the shared dict or list first.
    """
    return _encode(value, 0, {})


def _encode(value, level: int, texts: dict) -> str:
    """The text of ``value`` read ``level`` deep; ``texts`` holds each
    container's text by (identity, depth)."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    key = (id(value), level)
    text = texts.get(key)
    if text is None:
        text = texts[key] = _layout(value, level, texts)
    return text


def _layout(value, level: int, texts: dict) -> str:
    """The text of the nonempty container ``value`` read ``level`` deep."""
    pad = "\n" + "  " * (level + 1)
    sep = "," + pad
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            return json.dumps(value, indent=2).replace("\n", pad[:-2])
        parts = []
        for k, v in value.items():
            parts += (sep, json.dumps(k), ": ", _encode(v, level + 1, texts))
        parts[0], close = "{" + pad, "}"
    elif {type(item) for item in value} <= _NUMBER_TYPES:
        return f"[{pad}{json.dumps(value)[1:-1].replace(', ', sep)}{pad[:-2]}]"
    else:
        parts = []
        for item in value:
            parts += (sep, _encode(item, level + 1, texts))
        parts[0], close = "[" + pad, "]"
    # One join of the pieces: a child's text, which may be most of the
    # report, is not copied into an intermediate string.
    parts += (pad[:-2], close)
    return "".join(parts)


def _emit(args, payload: dict, human: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
    if args.json:
        print(_dumps(payload))
        if human:
            print(human, file=sys.stderr)
    elif human:
        print(human)
    for note in payload.get("notes", []):
        print(f"note: {note}", file=sys.stderr)


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="print a JSON report on stdout")


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise _UsageError(f"{name} must be a positive integer, got {value}")


def _load(path: str) -> UMEBCandidate:
    """:func:`load_umeb`, with a format or decoding error prefixed by its path."""
    try:
        return load_umeb(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
        "element_count": len(c),
        "provenance": provenance_to_str(c.provenance),
        "notes": [],
    }
    human = f"wrote {args.out}: {len(c)} elements, dim {c.dim}"
    _emit(args, payload, human)
    return EXIT_OK


def cmd_lift(args) -> int:
    _require_positive("q", args.q)
    base = _load(args.in_path)
    notes = []
    if len(base) >= base.dim ** 2:
        notes.append(
            f"base set has {len(base)} = dim^2 elements; it is a "
            "complete basis, so the count condition fails for it"
        )

    lifted = lift(base, args.q)
    constructed, closed_form = lift_counts(base.dim, len(base), args.q)
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
        "element_count": len(lifted),
        "count_constructed": constructed,
        "count_closed_form": closed_form,
        "provenance": provenance_to_str(lifted.provenance),
        "notes": notes,
    }
    human = "\n".join(
        [
            f"wrote {args.out}: {len(lifted)} elements, dim {lifted.dim}",
            f"count q(q-1)d^2 + qN      = {constructed}",
            f"count (qd)^2 - (d^2 - N)  = {closed_form}"
            + ("  (MISMATCH)" if constructed != closed_form else ""),
        ]
    )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_verify(args) -> int:
    c = _load(args.in_path)
    report = verify_axioms(c)
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
    c = _load(args.in_path)
    result = search_extension(
        c,
        restarts=args.restarts,
        iters=args.iters,
        seed=args.seed,
        extension_tol=args.tol,
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
    c = _load(args.in_path)
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
    sig = signature(_load(args.in_path), args.bound)
    payload = {
        "path": args.in_path,
        **sig.to_dict(),
        "notes": [],
    }
    _emit(args, payload, sector_table(sig.sectors))
    return EXIT_OK


def cmd_compare(args) -> int:
    _require_positive("bound", args.bound)
    a = signature(_load(args.a_path), args.bound)
    b = signature(_load(args.b_path), args.bound)
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
    """A new parser of the ``umeb`` command line."""
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
    _add_json(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("lift", help="lift a matrix set to dimension q*d")
    p.add_argument("in_path", help="input matrix-set JSON")
    p.add_argument("-q", type=int, required=True, help="lift factor (q >= 1)")
    p.add_argument("-o", "--out", required=True, help="output matrix-set JSON path")
    _add_json(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="check count, unitarity, and orthogonality")
    p.add_argument("in_path")
    _add_json(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="nuclear-norm search for an extension")
    p.add_argument("in_path")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--tol", type=float, default=1e-6,
        help="gap below which a witness is nominated; its verdict is re-verified "
        "at the package's fixed thresholds",
    )
    p.add_argument("-w", "--witness", default=None, help="witness output path")
    _add_json(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("certify", help="structural certificate for lifted sets")
    p.add_argument("in_path")
    _add_json(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("spectral", help="eigenphase orders and sector summary")
    p.add_argument("in_path")
    p.add_argument("--bound", type=int, default=144, help="largest order scanned")
    _add_json(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("compare", help="compare two spectral signatures")
    p.add_argument("a_path")
    p.add_argument("b_path")
    p.add_argument("--bound", type=int, default=144)
    _add_json(p)
    p.set_defaults(func=cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads every argv with, built on its first
    call and then shared: a parse keeps no state in the parser, so each call
    reads its argv as a fresh :func:`build_parser` would."""
    return build_parser()


def main(argv=None) -> int:
    args = None
    try:
        args = _parser().parse_args(argv)
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
    except (_UsageError, OSError, ValueError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
