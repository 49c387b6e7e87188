import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from umeb import constructions
from umeb.cli import build_parser, main
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
    assert stderr.startswith("error: provenance")
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
    assert any("rank 17" in n for n in payload["notes"])


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
    ]
    # Each check reports the threshold its detail was compared against.
    thresholds = [c["threshold"] for c in payload["checks"]]
    assert thresholds == [1e-10, 1e-10, 0.5 * 3 ** 1.5, 1e8, 1e-10]
    for c in payload["checks"]:
        if c["name"] == "vandermonde_det_nonzero":
            assert c["detail"] >= c["threshold"]
        else:
            assert c["detail"] < c["threshold"]


def test_certify_takes_no_tolerance_flag(tmp_path, capsys):
    # Element 0's non-unit eigenphase moved by 8e-11: its Gram residual,
    # 5.06e-11, is below check 5's threshold, and no flag can move that.
    theta = float(np.arccos(-7.0 / 8.0)) + 8e-11
    psi = bravyi_smolin_states()[0]
    u0 = np.eye(3) - (1.0 - np.exp(1j * theta)) * np.outer(psi, psi.conj())
    base = UMEBCandidate(3, (u0,) + bravyi_smolin_3().elements[1:], External("moved phase"))
    path = tmp_path / "moved.json"
    save_umeb(lift(base, 2), path)
    code, stdout, _ = run(capsys, "certify", str(path), "--json")
    assert code == 0
    assert json.loads(stdout)["checks"][-1]["detail"] < 1e-10
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
        "condition_i_ok", "passed", "notes",
    ]
    code, stdout, _ = run(capsys, "search", str(path), "--restarts", "2", "--iters", "5", "--json")
    assert code == 0
    assert list(json.loads(stdout)) == [
        "schema_version", "command", "path", "verdict", "best_nuclear_norm", "gap",
        "restarts", "iters", "seed", "complement_dim", "best_restart",
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
    ] * 5


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


def test_tolerance_flags_only_where_read(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "construct", "bs3", "-o", str(tmp_path / "x.json"), "--phase-tol", "1e-3"
    )
    assert code == 1
    assert "error:" in stderr
    flags = ("--unitarity-tol", "--gram-tol", "--phase-tol")
    registered = {}
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for name, parser in sub.choices.items():
        registered[name] = sorted(
            o for a in parser._actions for o in a.option_strings if o in flags
        )
    assert registered == {
        "construct": [],
        "lift": ["--unitarity-tol"],
        "verify": ["--gram-tol", "--unitarity-tol"],
        "search": ["--gram-tol", "--unitarity-tol"],
        "certify": [],
        "spectral": ["--phase-tol", "--unitarity-tol"],
        "compare": ["--phase-tol", "--unitarity-tol"],
    }


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, stderr = run(capsys, "frobnicate")
    assert code == 1
