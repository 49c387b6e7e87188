import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umeb import cli, constructions
from umeb.cli import SCHEMA_VERSION, build_parser, main
from umeb.constructions import (
    External,
    Lift,
    UMEBCandidate,
    WeylFamily,
    bravyi_smolin_3,
    bravyi_smolin_states,
    lift,
    load_umeb,
    save_umeb,
    umeb_6,
    weyl,
    weyl_family,
)
from umeb.linalg import hs_inner, unitarity_residual
from umeb.spectral import signature
from umeb.verification import search_extension

from test_constructions import (
    _BAD_FACTORED_FILES,
    _bad_factored_file,
    _not_utf8_past_8kb,
    _reference_save_text,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_umeb6(tmp_path, capsys):
    out = tmp_path / "u6.json"
    code, stdout, _ = run(capsys, "construct", "umeb6", "-o", str(out))
    assert code == 0
    assert "30 elements" in stdout
    assert len(load_umeb(out)) == 30


def test_construct_weyl_requires_dim(tmp_path, capsys):
    code, _, stderr = run(capsys, "construct", "weyl", "-o", str(tmp_path / "w.json"))
    assert code == 1
    assert "dim" in stderr


def test_construct_weyl_with_dim(tmp_path, capsys):
    out = tmp_path / "w3.json"
    code, _, _ = run(capsys, "construct", "weyl", "-d", "3", "-o", str(out))
    assert code == 0
    assert len(load_umeb(out)) == 9


def test_construct_bs3_records_exact_cosine(tmp_path, capsys):
    out = tmp_path / "bs3.json"
    code, _, _ = run(capsys, "construct", "bs3", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exact_cos_theta"] == [-7, 8]
    assert len(doc["elements"]) == 6


def test_construct_rejects_dim_for_fixed_kinds(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "construct", "bs3", "-d", "3", "-o", str(tmp_path / "x.json")
    )
    assert code == 1


def test_construct_io_failure(capsys):
    code, _, stderr = run(capsys, "construct", "bs3", "-o", "/nonexistent-dir/x.json")
    assert code == 1


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_reports_both_count_formulas(tmp_path, capsys):
    bs3_path = tmp_path / "bs3.json"
    out = tmp_path / "l4.json"
    save_umeb(bravyi_smolin_3(), bs3_path)
    code, stdout, stderr = run(
        capsys, "lift", str(bs3_path), "-q", "4", "-o", str(out), "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["schema_version"] == 1
    assert payload["element_count"] == 132
    assert payload["count_constructed"] == 132
    assert payload["count_closed_form"] == 141
    assert any("disagree" in n for n in payload["notes"])
    assert "MISMATCH" in stderr  # human table moved to stderr under --json
    assert len(load_umeb(out)) == 132


def test_lift_of_complete_basis_warns_but_proceeds(tmp_path, capsys):
    w3_path = tmp_path / "w3.json"
    out = tmp_path / "lw.json"
    save_umeb(weyl_family(3), w3_path)
    code, _, stderr = run(capsys, "lift", str(w3_path), "-q", "2", "-o", str(out))
    assert code == 0
    assert "complete basis" in stderr
    assert len(load_umeb(out)) == 2 * 1 * 9 + 2 * 9


def test_lift_rejects_bad_q(tmp_path, capsys):
    bs3_path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), bs3_path)
    code, _, _ = run(capsys, "lift", str(bs3_path), "-q", "0", "-o", str(tmp_path / "x.json"))
    assert code == 1


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 74.5 GiB"), "Unable to allocate 74.5 GiB"),
    (MemoryError(), "MemoryError"),
])
def test_lift_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, exc, message):
    # A lift too large to allocate is a bad input, not a crash.
    bs3_path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), bs3_path)

    def fail(base, q):
        raise exc

    monkeypatch.setattr(cli, "lift", fail)
    code, stdout, stderr = run(
        capsys, "lift", str(bs3_path), "-q", "100", "-o", str(tmp_path / "x.json")
    )
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {message}\n"
    assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passing_set(tmp_path, capsys):
    path = tmp_path / "u6.json"
    save_umeb(umeb_6(), path)
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "PASS" in stdout


def test_verify_duplicate_elements_fails(tmp_path, capsys):
    path = tmp_path / "dup.json"
    save_umeb(UMEBCandidate(2, (np.eye(2), np.eye(2)), External("dup")), path)
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "FAIL" in stdout


def test_verify_corrupt_file(tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text("not json {")
    code, _, stderr = run(capsys, "verify", str(path))
    assert code == 1
    assert "error" in stderr


@pytest.mark.parametrize("elements", [
    "[[[1" + "0" * 400 + ", 0]]]",
    "[" * 100_000 + "]" * 100_000,
], ids=["integer_beyond_double_range", "nested_too_deeply"])
def test_verify_malformed_numbers_exit_1_without_traceback(tmp_path, capsys, elements):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"dim": 1, "provenance": "x", "exact_cos_theta": null, '
        f'"elements": {elements}}}'
    )
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr


def test_compare_names_the_malformed_file(tmp_path, capsys):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    save_umeb(bravyi_smolin_3(), good)
    bad.write_text('{"dim": 2, "provenance": "x", "exact_cos_theta": null, '
                   '"elements": [[[1.0, 0.0], [0.0, 0.0], [0.0], [1.0, 0.0]]]}')
    code, stdout, stderr = run(capsys, "compare", str(good), str(bad))
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {bad}: element 0: entry 2 is not a [re, im] pair of numbers\n"


def test_verify_names_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    save_umeb(bravyi_smolin_3(), path)
    path.write_bytes(path.read_bytes().replace(b'"bravyi_smolin_3"', b'"\xff"'))
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in stderr


def test_verify_names_a_matrix_line_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    expected = _not_utf8_past_8kb(path)
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {path}: {expected}\n"


@pytest.mark.parametrize("provenance", [
    "lift(q=1, d=3, n=6, base=" * 2000 + "bravyi_smolin_3" + ")" * 2000,
    "lift(q=0, d=3, n=6, base=bravyi_smolin_3)",
], ids=["nested_too_deeply", "q_zero"])
def test_verify_bad_provenance_exits_1_without_traceback(tmp_path, capsys, provenance):
    path = tmp_path / "bad.json"
    save_umeb(bravyi_smolin_3(), path)
    doc = json.loads(path.read_text())
    doc["provenance"] = provenance
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {path}: provenance")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("name", sorted(_BAD_FACTORED_FILES))
def test_verify_bad_factored_file_exits_1_without_traceback(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    _bad_factored_file(path, name)
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {path}: ")
    assert "Traceback" not in stderr


def test_verify_json_payload(tmp_path, capsys):
    path = tmp_path / "u6.json"
    save_umeb(umeb_6(), path)
    code, stdout, _ = run(capsys, "verify", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["schema_version"] == 1
    assert payload["command"] == "verify"
    assert payload["passed"] is True
    assert payload["element_count"] == 30


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_reports_and_is_reproducible(tmp_path, capsys):
    path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), path)
    args = ("search", str(path), "--restarts", "10", "--iters", "50",
            "--seed", "7", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["verdict"] == "NoExtensionFound"
    assert p1["gap"] == p2["gap"]
    assert p1["gap"] > 0
    assert p1["witness_path"] is None
    assert len(p1["restart_final_gaps"]) == len(p1["restart_plateau_iters"]) == 10
    assert p1["restart_final_gaps"] == p2["restart_final_gaps"]
    assert min(p1["restart_final_gaps"]) == pytest.approx(p1["gap"], abs=1e-15)
    assert all(0 <= t < 50 for t in p1["restart_plateau_iters"])
    assert p1["refined"] is False


def test_search_writes_witness_file(tmp_path, capsys):
    fam = weyl_family(2)
    short = UMEBCandidate(2, fam.elements[:3], External("one short"))
    path = tmp_path / "short.json"
    witness_path = tmp_path / "w.json"
    save_umeb(short, path)
    code, stdout, _ = run(
        capsys, "search", str(path), "--restarts", "5", "--iters", "200",
        "-w", str(witness_path), "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["verdict"] == "ExtensionFound"
    assert payload["witness_path"] == str(witness_path)
    witness = load_umeb(witness_path)
    assert len(witness) == 1
    w = witness.elements[0]
    assert unitarity_residual(w) < 1e-8
    for u in short.elements:
        assert abs(hs_inner(u, w)) < 1e-6


def test_search_default_witness_path(tmp_path, capsys):
    fam = weyl_family(2)
    short = UMEBCandidate(2, fam.elements[:3], External("one short"))
    path = tmp_path / "short.json"
    save_umeb(short, path)
    code, stdout, _ = run(
        capsys, "search", str(path), "--restarts", "5", "--iters", "200", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["witness_path"] == str(tmp_path / "short.witness.json")
    assert (tmp_path / "short.witness.json").exists()


def test_search_loose_tolerance_writes_no_witness(tmp_path, capsys):
    path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), path)
    code, stdout, _ = run(
        capsys, "search", str(path), "--restarts", "5", "--iters", "50",
        "--tol", "0.6", "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["verdict"] == "NoExtensionFound"
    assert payload["witness_path"] is None
    assert not (tmp_path / "bs3.witness.json").exists()


def test_search_cannot_loosen_the_re_verification(tmp_path, capsys):
    # A Gram threshold of 1 would pass the d = 3 base's best witness, whose
    # polar factor has a trace overlap of 0.87 with the set; no flag sets it.
    path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), path)
    code, stdout, stderr = run(
        capsys, "search", str(path), "--restarts", "5", "--iters", "50",
        "--tol", "0.6", "--gram-tol", "1",
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: unrecognized arguments: --gram-tol 1")
    assert not (tmp_path / "bs3.witness.json").exists()


def test_search_iteration_cap_costs_only_the_iterations_run(tmp_path, capsys):
    # Every bs3 restart stops after two SVDs, whatever the cap.
    path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), path)
    args = ("search", str(path), "--restarts", "4", "--iters", str(2**62), "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "NoExtensionFound"
    assert payload["iters"] == 2**62
    assert payload["gap"] == pytest.approx(3 - np.sqrt(6), abs=1e-12)


def test_search_usage_errors(tmp_path, capsys):
    path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), path)
    for bad in (("--restarts", "0"), ("--iters", "0"), ("--seed", "-1")):
        code, _, stderr = run(capsys, "search", str(path), *bad)
        assert code == 1
        assert "error" in stderr


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_exit_codes(tmp_path, capsys):
    u6_path = tmp_path / "u6.json"
    save_umeb(umeb_6(), u6_path)
    assert run(capsys, "certify", str(u6_path))[0] == 0

    w3_path = tmp_path / "w3.json"
    save_umeb(weyl_family(3), w3_path)
    assert run(capsys, "certify", str(w3_path))[0] == 3

    tampered = list(lift(bravyi_smolin_3(), 2).elements)
    tampered[0] = np.kron(np.eye(2), weyl(3, 1, 1))
    bad = UMEBCandidate(6, tuple(tampered), lift(bravyi_smolin_3(), 2).provenance)
    bad_path = tmp_path / "bad.json"
    save_umeb(bad, bad_path)
    assert run(capsys, "certify", str(bad_path))[0] == 2


def test_certify_duplicated_weyl_element_exits_2(tmp_path, capsys):
    good = lift(bravyi_smolin_3(), 2)
    elements = list(good.elements)
    elements[1] = elements[0]
    path = tmp_path / "dup.json"
    save_umeb(UMEBCandidate(6, tuple(elements), good.provenance), path)
    code, stdout, _ = run(capsys, "certify", str(path), "--json")
    assert code == 2
    payload = json.loads(stdout)
    assert payload["overall"] == "Failed"
    assert "weyl sector rank not established: the set fails verify_axioms" in payload["notes"]


def test_certify_json_lists_checks(tmp_path, capsys):
    path = tmp_path / "l3.json"
    save_umeb(lift(bravyi_smolin_3(), 3), path)
    code, stdout, _ = run(capsys, "certify", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["overall"] == "CertifiedConditionalOnBase"
    assert [c["name"] for c in payload["checks"]] == [
        "weyl_sector_spans_offdiagonal_blocks",
        "complement_is_block_diagonal",
        "vandermonde_det_nonzero",
        "base_trace_system_reduces",
        "base_case_verdict",
        "set_passes_axioms",
    ]
    # Each check reports the threshold its detail was compared against.
    thresholds = [c["threshold"] for c in payload["checks"]]
    assert thresholds == [1e-10, 1e-10, 0.5 * 3 ** 1.5, 1e8, 1e-10, 1e-10]
    for c in payload["checks"]:
        if c["name"] == "vandermonde_det_nonzero":
            assert c["detail"] >= c["threshold"]
        else:
            assert c["detail"] < c["threshold"]


def test_certify_takes_no_tolerance_flag(tmp_path, capsys):
    # Element 0's non-unit eigenphase moved by 8e-11: its Gram residual,
    # 5.06e-11, is below the threshold.  The lift doubles it, to 1.01e-10,
    # past the threshold of check 5, which holds the base at the lift's
    # scale, and of check 6, and no flag can move either.
    theta = float(np.arccos(-7.0 / 8.0)) + 8e-11
    psi = bravyi_smolin_states()[0]
    u0 = np.eye(3) - (1.0 - np.exp(1j * theta)) * np.outer(psi, psi.conj())
    base = UMEBCandidate(3, (u0,) + bravyi_smolin_3().elements[1:], External("moved phase"))
    path = tmp_path / "moved.json"
    save_umeb(lift(base, 2), path)
    code, stdout, _ = run(capsys, "certify", str(path), "--json")
    assert code == 2
    checks = {ch["name"]: ch for ch in json.loads(stdout)["checks"]}
    assert not checks["base_case_verdict"]["passed"]
    assert checks["base_case_verdict"]["detail"] == pytest.approx(1.012e-10, rel=1e-3)
    assert not checks["set_passes_axioms"]["passed"]
    assert checks["set_passes_axioms"]["detail"] == pytest.approx(1.012e-10, rel=1e-3)
    code, stdout, stderr = run(capsys, "certify", str(path), "--gram-tol", "1e-12")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: unrecognized arguments: --gram-tol 1e-12")


def test_certify_mislabelled_leaf_exits_2_without_building_it(tmp_path, capsys, monkeypatch):
    path = tmp_path / "leaf.json"
    save_umeb(UMEBCandidate(3, bravyi_smolin_3().elements, Lift(WeylFamily(40), 3, 6, 1)), path)
    real = constructions.weyl_family
    calls = []
    monkeypatch.setattr(constructions, "weyl_family", lambda d: calls.append(d) or real(d))
    code, stdout, stderr = run(capsys, "certify", str(path))
    assert code == 2
    assert calls == []
    assert "FAIL  base_case_verdict" in stdout
    assert "weyl_family(d=40) has 1600 elements in dimension 40" in stderr


# Under a recursion limit of 250, finds the deepest provenance that parses,
# then certifies a bs3 file under every depth from 25 below it to 2 above.
_DEEP_CERTIFY_SWEEP = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from umeb.cli import main
from umeb.constructions import bravyi_smolin_3, provenance_from_str, save_umeb

def nested(depth):
    return "lift(q=1, d=3, n=6, base=" * depth + "bravyi_smolin_3" + ")" * depth

sys.setrecursionlimit(250)
deepest = 0
while True:
    try:
        provenance_from_str(nested(deepest + 1))
    except RecursionError:
        break
    deepest += 1
save_umeb(bravyi_smolin_3(), "deep.json")
with open("deep.json") as fh:
    doc = json.load(fh)
results = []
for depth in range(deepest - 25, deepest + 3):
    doc["provenance"] = nested(depth)
    with open("deep.json", "w") as fh:
        json.dump(doc, fh)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["certify", "deep.json"])
    results.append([depth, code, err.getvalue()])
print(json.dumps(results))
"""


def test_certify_too_deep_to_certify_exits_1_without_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_CERTIFY_SWEEP],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    assert len(results) == 28
    for depth, code, stderr in results:
        assert code in (0, 1), depth
        assert (code == 1) == stderr.startswith("error:"), depth
        assert "Traceback" not in stderr
    assert any(code == 1 for _, code, _ in results)


def test_certify_too_deep_to_certify_says_so(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_CERTIFY_SWEEP],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    failed = [stderr for _, code, stderr in json.loads(done.stdout) if code == 1]
    assert failed
    for stderr in failed:
        assert "nested too deeply" in stderr
        assert "maximum recursion depth" not in stderr
    # Those that parse but are too deep to certify name their input.
    assert any(s.startswith("error: deep.json: ") for s in failed)


# ---------------------------------------------------------------------------
# spectral / compare
# ---------------------------------------------------------------------------

def test_spectral_prints_sector_table(tmp_path, capsys):
    path = tmp_path / "l4.json"
    save_umeb(lift(bravyi_smolin_3(), 4), path)
    code, stdout, _ = run(capsys, "spectral", str(path))
    assert code == 0
    assert "weyl" in stdout and "base" in stdout
    assert "O_min" in stdout and "O_max" in stdout


def test_spectral_json_payload(tmp_path, capsys):
    path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), path)
    code, stdout, _ = run(capsys, "spectral", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["summary"]["provably_infinite_count"] == 6
    assert payload["bound"] == 144
    assert len(payload["records"]) == 6


def test_spectral_json_key_order(tmp_path, capsys):
    path = tmp_path / "l2.json"
    save_umeb(lift(bravyi_smolin_3(), 2), path)
    code, stdout, _ = run(capsys, "spectral", str(path), "--json")
    assert code == 0
    assert list(json.loads(stdout)) == [
        "schema_version", "command", "path", "dim", "element_count", "bound",
        "summary", "sectors", "records", "notes",
    ]


def test_verify_search_certify_json_key_order(tmp_path, capsys):
    path = tmp_path / "l2.json"
    save_umeb(lift(bravyi_smolin_3(), 2), path)
    code, stdout, _ = run(capsys, "verify", str(path), "--json")
    assert code == 0
    assert list(json.loads(stdout)) == [
        "schema_version", "command", "path", "dim", "element_count",
        "max_unitarity_residual", "max_gram_offdiag", "max_gram_diag_error",
        "condition_i_ok", "passed", "gram_from", "unitarity_from", "notes",
    ]
    code, stdout, _ = run(capsys, "search", str(path), "--restarts", "2", "--iters", "5", "--json")
    assert code == 0
    assert list(json.loads(stdout)) == [
        "schema_version", "command", "path", "verdict", "best_nuclear_norm", "gap",
        "restarts", "iters", "seed", "complement_dim", "complement_from", "best_restart",
        "extension_unitarity_residual", "extension_max_gram_overlap",
        "restart_final_gaps", "restart_plateau_iters", "refined", "notes", "witness_path",
    ]
    code, stdout, _ = run(capsys, "certify", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert list(payload) == [
        "schema_version", "command", "path", "overall", "checks", "notes", "base_provenance",
    ]
    assert [list(ch) for ch in payload["checks"]] == [
        ["name", "passed", "detail", "threshold"]
    ] * 6


JSON_SETS = {
    "lift_bs3_8": lambda: lift(bravyi_smolin_3(), 8),
    "lift_umeb_6_4": lambda: lift(umeb_6(), 4),
    "tower": lambda: lift(lift(bravyi_smolin_3(), 2), 2),
    "external": lambda: UMEBCandidate(6, umeb_6().matrices, External("plain stack")),
}


@pytest.mark.parametrize("name", sorted(JSON_SETS))
def test_json_reports_are_the_bytes_of_json_dumps(name, tmp_path, capsys, monkeypatch):
    # A path with a quote, a backslash, a newline and non-ASCII characters.
    path = str(tmp_path / f'{name} "q" \\ line\nbreak \u00e9\u4e2d.json')
    save_umeb(JSON_SETS[name](), path)
    emitted = []
    emit = cli._emit

    def spy(args, payload, human):
        emitted.append({"schema_version": SCHEMA_VERSION, "command": args.command, **payload})
        emit(args, payload, human)

    monkeypatch.setattr(cli, "_emit", spy)
    for argv in (["verify", path], ["certify", path], ["spectral", path],
                 ["compare", path, path], ["search", path, "--restarts", "2", "--iters", "20"]):
        _, stdout, _ = run(capsys, *argv, "--json")
        assert stdout == json.dumps(emitted.pop(), indent=2) + "\n"
    # The spectral payload, rebuilt here from a signature of the loaded set.
    _, stdout, _ = run(capsys, "spectral", path, "--json")
    want = {"schema_version": SCHEMA_VERSION, "command": "spectral", "path": path,
            **signature(load_umeb(path)).to_dict(), "notes": []}
    assert stdout == json.dumps(want, indent=2) + "\n"


# Each set against lift(umeb_6(), other_q), itself saved factored.
@pytest.mark.parametrize("make, other_q", [
    (lambda: lift(bravyi_smolin_3(), 2), 1),
    (lambda: lift(bravyi_smolin_3(), 8), 4),
    (lambda: lift(umeb_6(), 2), 4),
    (lambda: lift(lift(bravyi_smolin_3(), 2), 2), 4),
], ids=["2", "8", "lift_umeb6_2", "tower"])
def test_reports_on_a_factored_file_equal_those_on_its_dense_file(
    tmp_path, capsys, make, other_q
):
    # Dense, the stack's elements; factored, the right factors it was built from.
    c = make()
    path, other = tmp_path / "m.json", tmp_path / "other.json"
    save_umeb(lift(umeb_6(), other_q), other)
    outputs = []
    for layout in ("dense", "factored"):
        if layout == "dense":
            path.write_text(_reference_save_text(c), encoding="utf-8")
        else:
            save_umeb(c, path)
        assert ('"right_factors"' in path.read_text()) == (layout == "factored")
        outputs.append([
            run(capsys, *argv, "--json")
            for argv in (["verify", str(path)], ["certify", str(path)], ["spectral", str(path)],
                         ["compare", str(path), str(other)])
        ])
    assert outputs[0] == outputs[1]
    # compare exits 4 on lift(bs3, 2) against lift(umeb_6(), 1), both the 30-member set.
    assert [code for code, _, _ in outputs[0]] == [0, 0, 0, 4 if other_q == 1 else 0]


@pytest.mark.parametrize("make, counts", [
    (lambda: lift(bravyi_smolin_3(), 8), (552, 89, 12, 11)),
    (lambda: lift(umeb_6(), 4), (552, 132, 11, 9)),
], ids=["lift_bs3_8", "lift_umeb_6_4"])
def test_signature_records_share_one_dict_per_distinct_record(make, counts):
    sig = signature(make())
    payload = sig.to_dict()
    records = payload["records"]
    lists = [r["classifications"] for r in records]
    assert (
        len(records),
        len({id(r) for r in records}),
        len({id(cls) for cls in lists}),
        len({id(c) for cls in lists for c in cls}),
    ) == counts
    # The shared objects hold the data each record's own dict holds.
    assert payload == {**payload, "records": [r.to_dict() for r in sig.records]}


def test_dumps_frees_its_texts_on_return():
    # A reference cycle would hold the 1.3 MB of texts until the next
    # garbage collection, one report's worth on top of the next.
    payload = {"records": signature(lift(bravyi_smolin_3(), 8)).to_dict()["records"]}
    gc.collect()
    gc.disable()
    try:
        cli._dumps(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dumps_never_reaches_the_pure_python_encoder(tmp_path, monkeypatch):
    # Any indent sends json to json.encoder._make_iterencode; _dumps must not.
    sig = signature(lift(bravyi_smolin_3(), 8))
    spectral = {"schema_version": SCHEMA_VERSION, "command": "spectral",
                "path": str(tmp_path / "m.json"), **sig.to_dict(), "notes": []}
    result = search_extension(umeb_6(), restarts=3, iters=20, seed=1)
    search = {"schema_version": SCHEMA_VERSION, "command": "search",
              "path": str(tmp_path / "u6.json"), **result.to_dict(), "witness_path": None}
    assert {type(search[k]) for k in ("restart_final_gaps", "restart_plateau_iters")} == {tuple}
    want = [json.dumps(p, indent=2) for p in (spectral, search)]

    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder reached")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps([1], indent=2)
    assert [cli._dumps(p) for p in (spectral, search)] == want


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


def _with_repeats(items):
    # The same objects again, as a signature's shared records recur.
    return items + items[::2]


def _at_two_depths(value):
    # One object under two keys, read one, two and three levels deep.
    return {"a": value, "b": [value, {"c": value}]}


# Items of the lists _dumps encodes in one json.dumps call.
_NUMBERS = (
    st.booleans()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.integers()
    | st.integers(min_value=2**63)
    | st.integers(max_value=-2**63 - 1)
)

_EMPTY = st.recursive(
    st.builds(list) | st.builds(dict) | st.builds(tuple),
    lambda inner: (
        st.lists(inner, min_size=1, max_size=3)
        | st.lists(inner, min_size=1, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, min_size=1, max_size=3)
    ),
    max_leaves=6,
)

_JSON_VALUES = st.recursive(
    _JSON_LEAVES
    | _EMPTY
    | st.lists(_NUMBERS, min_size=1, max_size=6)
    | st.lists(_NUMBERS, min_size=1, max_size=6).map(tuple),
    lambda inner: (
        st.lists(inner, max_size=4).map(_with_repeats)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=3)
        | inner.map(_at_two_depths)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
def test_dumps_is_json_dumps_with_indent_2_property(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_spectral_rejects_non_unitary(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_umeb(UMEBCandidate(2, (2.0 * np.eye(2),), External("x")), path)
    code, _, stderr = run(capsys, "spectral", str(path))
    assert code == 1


def test_compare_with_self_is_not_distinguished(tmp_path, capsys):
    path = tmp_path / "u6.json"
    save_umeb(umeb_6(), path)
    code, stdout, _ = run(capsys, "compare", str(path), str(path))
    assert code == 4
    assert "NOT DISTINGUISHED" in stdout


def test_compare_distinguishes_finite_from_infinite(tmp_path, capsys):
    a = tmp_path / "bs3.json"
    b = tmp_path / "wsub.json"
    save_umeb(bravyi_smolin_3(), a)
    save_umeb(
        UMEBCandidate(3, weyl_family(3).elements[:6], External("weyl subset")), b
    )
    code, stdout, _ = run(capsys, "compare", str(a), str(b))
    assert code == 0
    assert "DISTINGUISHED" in stdout


# The flags each command took before the thresholds were fixed.
REMOVED_TOLERANCE_FLAGS = {
    "lift": ["--unitarity-tol"],
    "verify": ["--unitarity-tol", "--gram-tol"],
    "search": ["--unitarity-tol", "--gram-tol"],
    "spectral": ["--unitarity-tol", "--phase-tol"],
    "compare": ["--unitarity-tol", "--phase-tol"],
}


def test_no_subcommand_registers_a_tolerance_flag():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    registered = {
        name: [o for a in parser._actions for o in a.option_strings if re.fullmatch("--.+-tol", o)]
        for name, parser in sub.choices.items()
    }
    assert registered == {name: [] for name in sub.choices}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in REMOVED_TOLERANCE_FLAGS.items() for flag in flags],
)
def test_removed_tolerance_flags_are_usage_errors(tmp_path, capsys, command, flag):
    path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), path)
    operands = {
        "lift": [str(path), "-q", "2", "-o", str(tmp_path / "l2.json")],
        "compare": [str(path), str(path)],
    }.get(command, [str(path)])
    code, stdout, stderr = run(capsys, command, *operands, flag, "1")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: unrecognized arguments: {flag} 1")
    assert sorted(os.listdir(tmp_path)) == ["bs3.json"]


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, stderr = run(capsys, "frobnicate")
    assert code == 1


def test_main_reads_each_argv_as_a_fresh_parser_would(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process, so no parse may leave state in it.
    path = tmp_path / "bs3.json"
    save_umeb(bravyi_smolin_3(), path)
    search = ("search", str(path), "--restarts", "3", "--iters", "20")
    argvs = [
        (*search, "--seed", "5", "--json"),
        (*search, "--json"),  # the default seed, not the 5 read just before
        ("verify", str(path), "--json"),
        ("spectral", str(path), "--bound", "12"),
        ("spectral", str(path)),
        ("frobnicate",),
        search,
    ]
    shared = [run(capsys, *argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert shared == [run(capsys, *argv) for argv in argvs]
    assert [json.loads(shared[i][1])["seed"] for i in (0, 1)] == [5, 0]
