import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from umeb import constructions, spectral, verification
from umeb.cli import EXIT_VERIFY_FAIL, main
from umeb.constructions import (
    BravyiSmolin3,
    External,
    Lift,
    UMEBCandidate,
    WeylFamily,
    as_lift,
    bravyi_smolin_3,
    bravyi_smolin_states,
    left_factors,
    lift,
    load_umeb,
    provenance_to_str,
    save_umeb,
    umeb_6,
    weyl,
    weyl_family,
)
from umeb.linalg import (
    DEFAULT_TOLERANCES,
    RANK_RTOL,
    DimensionMismatchError,
    RankDeficiencyError,
    distinct_rows,
    gram_matrix,
    hs_inner,
    hs_norm,
    orthonormal_complement,
    seeded_random_matrix,
    unitarity_residual,
)
from umeb.spectral import sector_summaries, signature
from umeb.verification import (
    CERT_ZERO_TOL,
    STEP_TOL,
    _project,
    _refine_in_complement,
    search_extension,
    structural_certify,
    to_state,
    verify_axioms,
)


def _weyl_subset_lift():
    # Six Weyl operators mislabelled as the d = 3 base, then lifted: the
    # lifted set is extendible although its provenance names the base.
    return lift(UMEBCandidate(3, weyl_family(3).elements[:6], BravyiSmolin3()), 2)


def _bs3_minus_one():
    # Extendible, and the ascent climbs towards its unitary for 1,500
    # iterations and more: it never reaches a fixed point early.
    return UMEBCandidate(3, bravyi_smolin_3().elements[:5], External("bs3 minus one"))


def haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _lu_weyl_subset(d, missing, seed):
    """The Weyl basis of dimension d less `missing` members, chosen and then
    rotated by a local unitary U -> A U B^T from `seed`: an extendible set
    whose complement is spanned by the rotated missing members."""
    rng = np.random.default_rng(seed)
    keep = rng.permutation(d * d)[missing:]
    a, b = haar_unitary(d, rng), haar_unitary(d, rng)
    return UMEBCandidate(d, a @ weyl_family(d).matrices[keep] @ b.T, External("lu weyl subset"))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def test_to_state_identity():
    s = to_state(np.eye(2))
    expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)
    np.testing.assert_allclose(s.schmidt_coefficients, [2**-0.5, 2**-0.5], atol=1e-15)
    assert s.is_maximally_entangled()


def test_to_state_flat_schmidt_spectrum_for_unitaries():
    for u in umeb_6().elements:
        s = to_state(u)
        np.testing.assert_allclose(
            s.schmidt_coefficients, np.full(6, 6**-0.5), atol=1e-12
        )
        assert s.is_maximally_entangled()
        assert s.norm() == pytest.approx(1.0, abs=1e-12)


def test_to_state_rank_one_case():
    s = to_state(np.diag([np.sqrt(2.0), 0.0]))
    np.testing.assert_allclose(s.schmidt_coefficients, [1.0, 0.0], atol=1e-15)
    assert s.norm() == pytest.approx(1.0)
    assert not s.is_maximally_entangled()


@pytest.mark.parametrize("eps", [1e-12, 5e-11, 2e-10, 1e-9, 3e-9])
def test_maximal_entanglement_is_the_unitarity_verdict(eps):
    # Schmidt coefficients off by ~eps/2 from 1/2; the unitarity residual is ~2 eps.
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    u = q @ np.diag([1.0 + eps, 1.0, 1.0, 1.0])
    unitary = unitarity_residual(u) < DEFAULT_TOLERANCES.unitarity_tol
    assert to_state(u).is_maximally_entangled() == unitary


def test_to_state_rejects_non_square_with_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match="square"):
        to_state(np.ones((2, 3)))


def test_state_overlap_matches_trace_inner_product():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        a, b = haar_unitary(d, rng), haar_unitary(d, rng)
        lhs = hs_inner(a, b) / d
        rhs = to_state(a).overlap(to_state(b))
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

def test_verify_axioms_passes_on_constructed_sets():
    report = verify_axioms(umeb_6())
    assert report.passed
    assert report.element_count == 30
    assert report.max_unitarity_residual < 1e-12
    assert report.max_gram_offdiag < 1e-12
    assert report.max_gram_diag_error < 1e-12
    assert report.condition_i_ok


def test_verify_axioms_flags_complete_basis():
    report = verify_axioms(weyl_family(3))
    assert not report.condition_i_ok
    assert not report.passed
    assert report.max_gram_offdiag < 1e-12


def test_verify_axioms_flags_duplicates():
    c = UMEBCandidate(2, (np.eye(2), np.eye(2)), External("duplicates"))
    report = verify_axioms(c)
    assert not report.passed
    assert report.max_gram_offdiag == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Extension search
# ---------------------------------------------------------------------------

def test_search_validates_arguments():
    c = bravyi_smolin_3()
    with pytest.raises(ValueError):
        search_extension(c, restarts=0)
    with pytest.raises(ValueError):
        search_extension(c, iters=0)
    with pytest.raises(ValueError):
        search_extension(c, seed=-1)
    with pytest.raises(ValueError):
        search_extension(c, extension_tol=0.0)


def test_search_rejects_non_orthogonal_candidates():
    c = UMEBCandidate(2, (np.eye(2), np.eye(2)), External("duplicates"))
    with pytest.raises(ValueError):
        search_extension(c, restarts=1, iters=1)


def test_search_finds_dropped_weyl_element():
    fam = weyl_family(2)
    c = UMEBCandidate(2, fam.elements[:3], External("one short"))
    res = search_extension(c, restarts=5, iters=200, seed=0)
    assert res.verdict == "ExtensionFound"
    assert res.complement_dim == 1
    # the witness spans the same line as the element that was dropped
    missing = fam.elements[3]
    overlap = abs(hs_inner(missing, res.extension)) / (hs_norm(missing) * hs_norm(res.extension))
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert res.extension_unitarity_residual < 1e-8
    assert res.extension_max_gram_overlap < 1e-6


def test_search_loose_tolerance_does_not_fake_an_extension():
    # The gap 3 - sqrt(6) is below 0.6, but no unitary lies in the complement,
    # so the nominated witness must fail re-verification.
    res = search_extension(bravyi_smolin_3(), 5, 50, extension_tol=0.6)
    assert res.verdict == "NoExtensionFound"
    assert res.gap < 0.6
    assert res.extension is None
    assert any("fails re-verification" in n for n in res.notes)


def test_search_on_complete_basis_reports_trivial_complement():
    res = search_extension(weyl_family(3), restarts=2, iters=5, seed=0)
    assert res.verdict == "NoExtensionFound"
    assert res.complement_dim == 0
    assert res.gap == 3.0
    assert res.witness is None
    assert any("full matrix space" in n for n in res.notes)


def test_search_is_deterministic():
    c = bravyi_smolin_3()
    r1 = search_extension(c, restarts=10, iters=50, seed=4)
    r2 = search_extension(c, restarts=10, iters=50, seed=4)
    assert r1.gap == r2.gap
    assert r1.best_restart == r2.best_restart
    assert r1.witness.tobytes() == r2.witness.tobytes()


def test_search_witness_lies_in_complement_with_norm_d():
    c = bravyi_smolin_3()
    res = search_extension(c, restarts=5, iters=100, seed=0)
    w = res.witness
    assert hs_norm(w) ** 2 == pytest.approx(3.0, abs=1e-9)
    for u in c.elements:
        assert abs(hs_inner(u, w)) < 1e-8
    assert res.best_nuclear_norm <= 3.0 + 1e-9


def test_search_objective_traces_are_monotone():
    c = bravyi_smolin_3()
    res = search_extension(c, restarts=10, iters=100, seed=1)
    assert len(res.objective_traces) == 10
    for trace in res.objective_traces:
        diffs = np.diff(np.array(trace))
        assert diffs.min() > -1e-12


@pytest.mark.parametrize("make, climbs", [
    (bravyi_smolin_3, False),
    (_weyl_subset_lift, False),
    (lambda: UMEBCandidate(2, weyl_family(2).elements[:3], External("one short")), False),
    (_bs3_minus_one, True),
], ids=["bs3", "weyl_subset_lift", "weyl_2_one_short", "bs3_minus_one"])
def test_search_objective_traces_have_iters_values(make, climbs):
    # iters is a cap: a restart that reaches a fixed point of the ascent stops
    # one evaluation later, so a shorter trace ends on two equal objectives.
    # A restart that is still climbing runs all iters.
    res = search_extension(make(), restarts=3, iters=37, seed=4)
    assert len(res.objective_traces) == 3
    for trace in res.objective_traces:
        assert 2 <= len(trace) <= 37
        if len(trace) < 37:
            assert abs(trace[-1] - trace[-2]) < 1e-12
    if climbs:
        assert [len(t) for t in res.objective_traces] == [37, 37, 37]


@st.composite
def _complement_points(draw):
    """Orthonormal complement rows of a random span, and a point m of the
    complement with ||m||_F = sqrt(d)."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, d * d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    flat = np.array(orthonormal_complement(span)).reshape(-1, d * d)
    x = rng.standard_normal(len(flat)) + 1j * rng.standard_normal(len(flat))
    m = (x @ flat).reshape(d, d)
    return flat, np.sqrt(d) * m / np.linalg.norm(m)


@settings(max_examples=200, deadline=None)
@given(_complement_points())
def test_projected_polar_factor_never_vanishes(point):
    # The ascent rescales P(U V^dag) without a guard; this is the bound that
    # makes that safe: <P(U V^dag), m> = ||m||_* >= ||m||_F.
    flat, m = point
    u, _, vh = np.linalg.svd(m)
    assert np.linalg.norm(_project(flat, (u @ vh)[None])) >= 1 - 1e-12


def _complement_rows(c):
    return np.array(orthonormal_complement(c.elements)).reshape(-1, c.dim * c.dim)


def _reference_ascent(c, restarts, iters, seed, stop=True):
    """One restart at a time: the loop search_extension batches.

    Restart r starts from the r-th matrix drawn, as seeded_random_matrix
    draws its one, from a generator seeded with ``seed``.  With ``stop``, a
    restart ends as search_extension's do: after the objective of the first
    matrix that a step moved by at most STEP_TOL.  Without it, every restart
    runs all iters.  Returns each restart's objective trace and its last
    matrix.
    """
    d = c.dim
    flat = _complement_rows(c)
    rng = np.random.default_rng(seed)

    def project(m):
        return ((flat.conj() @ m.ravel()) @ flat).reshape(d, d)

    traces, finals = [], []
    for r in range(restarts):
        x = rng.standard_normal((d, d))
        y = rng.standard_normal((d, d))
        m = project((x + 1j * y) / np.sqrt(2.0))
        m = np.sqrt(d) * m / np.linalg.norm(m)
        trace = []
        settled = False
        for t in range(iters):
            u, s, vh = np.linalg.svd(m)
            trace.append(s.sum())
            if settled or t == iters - 1:
                break
            p = project(u @ vh)
            step = np.sqrt(d) * p / np.linalg.norm(p)
            settled = stop and np.max(np.abs(step - m)) <= STEP_TOL
            m = step
        traces.append(trace)
        finals.append(m)
    return traces, finals


def _reference_refine(witness, flat, d, steps=80):
    """Gauss-Newton refinement with the Jacobian built one column at a time."""
    x = flat.conj() @ witness.ravel()
    eye = np.eye(d)
    best, best_resid = None, np.inf
    for _ in range(steps):
        m = (x @ flat).reshape(d, d)
        err = m.conj().T @ m - eye
        resid = float(np.max(np.abs(err)))
        if resid < best_resid:
            best, best_resid = m, resid
        if resid < 1e-14:
            break
        f = np.concatenate([err.real.ravel(), err.imag.ravel()])
        cols = []
        for k in range(flat.shape[0]):
            bk = flat[k].reshape(d, d)
            for dk in (bk, 1j * bk):
                de = dk.conj().T @ m + m.conj().T @ dk
                cols.append(np.concatenate([de.real.ravel(), de.imag.ravel()]))
        delta, *_ = np.linalg.lstsq(np.stack(cols, axis=1), -f, rcond=None)
        x = x + delta[0::2] + 1j * delta[1::2]
    return best if best_resid <= 1e-9 else None


@pytest.mark.parametrize("make", [
    bravyi_smolin_3,
    umeb_6,
    # Restarts stop at different iterations, some at the cap: rows are
    # removed from the batch more than once.
    lambda: _lu_weyl_subset(3, 7, 1),
], ids=["bravyi_smolin_3", "umeb_6", "lu_weyl_subset"])
def test_search_batched_ascent_matches_one_restart_at_a_time(make):
    c = make()
    ref, _ = _reference_ascent(c, restarts=8, iters=200, seed=3)
    res = search_extension(c, restarts=8, iters=200, seed=3)
    assert [len(t) for t in res.objective_traces] == [len(t) for t in ref]
    for got, want in zip(res.objective_traces, ref):
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    finals = np.array([t[-1] for t in ref])
    assert abs(res.gap - (c.dim - finals.max())) < 1e-12
    np.testing.assert_allclose(res.restart_final_gaps, c.dim - finals, rtol=0, atol=1e-12)
    # Stopping loses nothing: the unstopped loop ends on the same gaps.
    full, _ = _reference_ascent(c, restarts=8, iters=200, seed=3, stop=False)
    np.testing.assert_allclose(
        res.restart_final_gaps, c.dim - np.array(full)[:, -1], rtol=0, atol=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(1, min(8, d * d - 1)), st.integers(0, 2**32 - 1),
    )),
    st.integers(0, 1000),
)
def test_search_stopped_traces_are_prefixes_of_the_unstopped_ascent(subset, seed):
    c = _lu_weyl_subset(*subset)
    res = search_extension(c, restarts=3, iters=200, seed=seed)
    full, _ = _reference_ascent(c, restarts=3, iters=200, seed=seed, stop=False)
    for got, want in zip(res.objective_traces, full):
        assert np.max(np.abs(np.subtract(got, want[:len(got)]))) < 1e-12
        assert abs(got[-1] - want[-1]) < 1e-12
    # The same search with the stop rule off runs every restart to the cap.
    with mock.patch.object(verification, "STEP_TOL", -1.0):
        unstopped = search_extension(c, restarts=3, iters=200, seed=seed)
    assert all(len(t) == 200 for t in unstopped.objective_traces)
    assert res.verdict == unstopped.verdict


def test_search_stops_bs3_restarts_at_their_fixed_point():
    # On bs3 the complement is the antisymmetric 3x3 matrices, where the
    # nuclear norm is constant, so the ascent has nothing to climb.
    res = search_extension(bravyi_smolin_3(), 100, 500)
    assert sum(map(len, res.objective_traces)) <= 300
    assert res.gap == pytest.approx(3 - np.sqrt(6), abs=1e-12)


@pytest.mark.parametrize("make", [bravyi_smolin_3, umeb_6, _bs3_minus_one])
def test_search_witness_is_the_best_restarts_last_matrix(make):
    res = search_extension(make(), restarts=8, iters=200, seed=3)
    assert res.verdict == "NoExtensionFound" and not res.refined
    last = res.objective_traces[res.best_restart][-1]
    assert abs(np.linalg.svd(res.witness, compute_uv=False).sum() - last) < 1e-12
    assert res.best_nuclear_norm == last


def test_search_best_restart_is_first_maximiser():
    # A one-dimensional complement: every restart lands on the same line, so
    # the final objectives tie (exactly, on common platforms).
    c = UMEBCandidate(2, weyl_family(2).elements[:3], External("one short"))
    res = search_extension(c, restarts=8, iters=1, seed=0)
    finals = [t[-1] for t in res.objective_traces]
    assert res.best_restart == finals.index(max(finals))


def test_search_restarts_are_a_prefix_of_larger_searches():
    c = bravyi_smolin_3()
    small = search_extension(c, restarts=5, iters=100, seed=2)
    large = search_extension(c, restarts=20, iters=100, seed=2)
    np.testing.assert_allclose(
        np.array(large.objective_traces[:5]), np.array(small.objective_traces),
        rtol=0, atol=1e-12,
    )


@pytest.mark.parametrize("make", [bravyi_smolin_3, umeb_6])
def test_search_restart_zero_starts_from_seeded_random_matrix(make):
    c = make()
    real, drawn = verification.seeded_random_stack, []

    def spy(*args):
        drawn.append(real(*args))
        return drawn[-1]

    with mock.patch.object(verification, "seeded_random_stack", spy):
        search_extension(c, restarts=7, iters=50, seed=11)
    (starts,) = drawn
    assert starts.shape == (7, c.dim, c.dim)
    assert starts[0].tobytes() == seeded_random_matrix(c.dim, 11).tobytes()


def test_search_builds_one_generator_per_call():
    with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rng:
        search_extension(bravyi_smolin_3(), restarts=30, iters=50, seed=5)
        assert rng.call_count == 1
        search_extension(umeb_6(), restarts=1, iters=50, seed=0)
        assert rng.call_count == 2


def test_search_traces_hold_only_the_iterations_run():
    # Every bs3 restart stops after two SVDs, so a cap of 2**62 costs nothing.
    res = search_extension(bravyi_smolin_3(), restarts=2, iters=2**62)
    assert res.verdict == "NoExtensionFound"
    assert [len(t) for t in res.objective_traces] == [2, 2]
    assert res.gap == pytest.approx(3 - np.sqrt(6), abs=1e-12)
    tracemalloc.start()
    try:
        search_extension(bravyi_smolin_3(), restarts=100, iters=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A (restarts, iters) float array would take 16 MB.
    assert peak < 2 * 2**20


def test_search_telemetry_of_restarts_that_stop_apart():
    # Restarts stop at different iterations, so their traces differ in length.
    c = _lu_weyl_subset(3, 7, 1)
    res = search_extension(c, restarts=8, iters=200, seed=3)
    assert len({len(t) for t in res.objective_traces}) > 1
    finals = np.array([t[-1] for t in res.objective_traces])
    assert res.best_restart == int(np.argmax(finals))
    assert res.restart_final_gaps == tuple((c.dim - finals).tolist())
    for trace, plateau in zip(res.objective_traces, res.restart_plateau_iters):
        near = np.flatnonzero(np.array(trace) >= trace[-1] - 1e-12)
        assert plateau == near[0]


def test_search_reports_per_restart_telemetry():
    res = search_extension(bravyi_smolin_3(), restarts=6, iters=80, seed=1)
    assert len(res.restart_final_gaps) == len(res.restart_plateau_iters) == 6
    assert not res.refined
    for trace, gap, plateau in zip(
        res.objective_traces, res.restart_final_gaps, res.restart_plateau_iters
    ):
        assert gap == pytest.approx(3.0 - trace[-1], abs=1e-15)
        assert 0 <= plateau < 80
        assert abs(trace[plateau] - trace[-1]) <= 1e-12
        assert plateau == 0 or abs(trace[plateau - 1] - trace[-1]) > 1e-12
    found = search_extension(_weyl_subset_lift(), restarts=4, iters=300, seed=0)
    assert found.verdict == "ExtensionFound"
    assert found.refined
    assert found.to_dict()["refined"] is True


def test_refinement_jacobian_matches_column_loop():
    c = _weyl_subset_lift()
    flat = _complement_rows(c)
    traces, finals = _reference_ascent(c, restarts=4, iters=300, seed=0)
    rng = np.random.default_rng(0)
    for trace, m in zip(traces, finals):
        assert trace[-1] > c.dim - 1e-6
        # Step off the unitary inside the complement, so Gauss-Newton has work.
        kick = rng.standard_normal(len(flat)) + 1j * rng.standard_normal(len(flat))
        m = m + 1e-2 * (kick @ flat).reshape(m.shape)
        ref = _reference_refine(m, flat, c.dim)
        got = _refine_in_complement(m, flat, c.dim)
        assert ref is not None and got is not None
        assert np.max(np.abs(got - ref)) < 1e-12


# ---------------------------------------------------------------------------
# Structural certification
# ---------------------------------------------------------------------------

def test_certify_explicit_30_member_set():
    cert = structural_certify(umeb_6())
    assert cert.overall == "CertifiedConditionalOnBase"
    names = [ch.name for ch in cert.checks]
    assert names == [
        "weyl_sector_spans_offdiagonal_blocks",
        "complement_is_block_diagonal",
        "vandermonde_det_nonzero",
        "base_trace_system_reduces",
        "base_case_verdict",
        "set_passes_axioms",
    ]
    assert all(ch.passed for ch in cert.checks)
    assert cert.base_provenance == "bravyi_smolin_3"


def test_certify_lift_of_dimension_3_base():
    cert = structural_certify(lift(bravyi_smolin_3(), 4))
    assert cert.overall == "CertifiedConditionalOnBase"
    by_name = {ch.name: ch for ch in cert.checks}
    assert by_name["complement_is_block_diagonal"].detail < 1e-10
    assert by_name["vandermonde_det_nonzero"].detail == pytest.approx(16.0, abs=1e-9)


def test_certify_not_applicable_without_lift_provenance():
    cert = structural_certify(weyl_family(3))
    assert cert.overall == "NotApplicable"
    assert cert.checks == ()


def test_certify_nested_lift_recurses():
    nested = lift(lift(bravyi_smolin_3(), 2), 2)
    cert = structural_certify(nested)
    assert cert.overall == "CertifiedConditionalOnBase"
    assert any("recursively" in n for n in cert.notes)


def test_certify_fails_on_tampered_weyl_sector():
    good = lift(bravyi_smolin_3(), 2)
    elements = list(good.elements)
    elements[0] = np.kron(np.eye(2), weyl(3, 0, 0))  # block-diagonal intruder
    bad = UMEBCandidate(6, tuple(elements), good.provenance, good.exact_cos_theta)
    cert = structural_certify(bad)
    assert cert.overall == "Failed"
    assert not cert.checks[0].passed


def test_certify_fails_on_count_mismatch():
    c = UMEBCandidate(6, umeb_6().elements[:10], Lift(External("b"), 3, 6, 2))
    cert = structural_certify(c)
    assert cert.overall == "Failed"


def test_certified_sets_also_pass_numeric_search():
    # structural and numeric verdicts agree on lifted candidates
    for cand in (umeb_6(), lift(bravyi_smolin_3(), 3)):
        assert structural_certify(cand).overall == "CertifiedConditionalOnBase"
        for seed in range(10):
            res = search_extension(cand, restarts=50, iters=40, seed=seed)
            assert res.verdict == "NoExtensionFound"
            assert res.gap > 1e-3


def test_certify_derived_check_is_exact_on_lifts():
    for cand in (umeb_6(), *(lift(bravyi_smolin_3(), q) for q in (2, 4, 8))):
        cert = structural_certify(cand)
        assert cert.overall == "CertifiedConditionalOnBase"
        assert cert.checks[1].name == "complement_is_block_diagonal"
        assert cert.checks[1].detail == 0.0


def test_certify_duplicated_weyl_element_fails_without_raising():
    good = lift(bravyi_smolin_3(), 2)
    elements = list(good.elements)
    elements[1] = elements[0]
    bad = UMEBCandidate(6, tuple(elements), good.provenance, good.exact_cos_theta)
    cert = structural_certify(bad)
    assert cert.overall == "Failed"
    assert not cert.checks[0].passed
    assert not cert.checks[1].passed
    assert "weyl sector rank not established: the set fails verify_axioms" in cert.notes


def test_certify_derived_check_bounds_true_off_block_mass():
    # A 1e-12 block-diagonal perturbation leaves a complement with a small
    # off-block part; check 2's derived bound must sit above it.
    q, d = 2, 3
    good = lift(bravyi_smolin_3(), q)
    elements = list(good.elements)
    elements[0] = elements[0] + 1e-12 * np.eye(q * d)
    perturbed = UMEBCandidate(q * d, tuple(elements), good.provenance, good.exact_cos_theta)
    check = structural_certify(perturbed).checks[1]
    assert 0.0 < check.detail < 1e-10
    weyl_sector = elements[: good.provenance.weyl_count]
    blocks = np.array(orthonormal_complement(weyl_sector)).reshape(-1, q, d, q, d)
    for a in range(q):
        blocks[:, a, :, a, :] = 0.0
    off_mass = float(np.max(np.abs(blocks)))
    assert off_mass > 0.0
    assert off_mass <= check.detail


def test_certify_rejects_base_sector_that_is_not_the_base():
    c = _weyl_subset_lift()
    assert verify_axioms(c).passed
    assert search_extension(c, restarts=4, iters=300, seed=0).verdict == "ExtensionFound"
    cert = structural_certify(c)
    assert cert.overall == "Failed"
    assert cert.checks[-2].name == "base_case_verdict"
    assert not cert.checks[-2].passed
    assert any("base_sector_matches_base" in n for n in cert.notes)
    for cand in (umeb_6(), *(lift(bravyi_smolin_3(), q) for q in (2, 4, 8))):
        assert structural_certify(cand).overall == "CertifiedConditionalOnBase"


def test_certify_base_sector_allows_reordered_rephased_base():
    base = bravyi_smolin_3().elements
    shuffled = tuple(np.exp(0.3j * k) * base[(k + 2) % 6] for k in range(6))
    c = lift(UMEBCandidate(3, shuffled, BravyiSmolin3()), 2)
    cert = structural_certify(c)
    assert cert.overall == "CertifiedConditionalOnBase"
    assert cert.checks[-1].detail < 1e-12


def _tampered_base_sectors():
    good = lift(bravyi_smolin_3(), 2)
    n = good.provenance.weyl_count
    off_block = np.zeros((6, 6), dtype=complex)
    off_block[0, 3] = 1e-6
    swapped_phase = list(good.elements)
    swapped_phase[n] = np.kron(np.diag([1.0, -1.0]), bravyi_smolin_3().elements[0])
    leaky = list(good.elements)
    leaky[n + 1] = leaky[n + 1] + off_block
    external = lift(UMEBCandidate(3, bravyi_smolin_3().elements, External("b")), 2)
    mixed = list(external.elements)
    mixed[n + 6] = np.kron(np.diag([1.0, -1.0]), bravyi_smolin_3().elements[1])
    # U_1 replaced by U_0: every block matches some base element, but the
    # sector misses U_1, so D_i (x) U_1 extends the set.
    repeated = list(bravyi_smolin_3().elements)
    repeated[1] = repeated[0]
    return [
        UMEBCandidate(6, tuple(swapped_phase), good.provenance),
        UMEBCandidate(6, tuple(leaky), good.provenance),
        UMEBCandidate(6, tuple(mixed), external.provenance),
        lift(UMEBCandidate(3, tuple(repeated), BravyiSmolin3()), 2),
    ]


@pytest.mark.parametrize("bad", _tampered_base_sectors())
def test_certify_fails_on_tampered_base_sector(bad):
    cert = structural_certify(bad)
    assert cert.overall == "Failed"
    assert not cert.checks[-1].passed
    assert any("base_sector_matches_base" in n for n in cert.notes)


def test_certify_external_base_is_read_from_the_sector():
    base = UMEBCandidate(4, weyl_family(4).elements[:12], External("user d=4 set"))
    for c in (lift(base, 3), lift(lift(base, 2), 2)):
        cert = structural_certify(c)
        assert cert.overall == "CertifiedConditionalOnBase"
        assert cert.checks[-1].detail < 1e-12


def test_certify_holds_base_residuals_to_the_threshold():
    # Element 0's non-unit eigenphase moved by 3e-10: the base's Gram
    # residual (1.9e-10) fails check 5's threshold.
    cert = structural_certify(_moved_phase_lift(3e-10))
    assert cert.overall == "Failed"
    assert not cert.checks[-1].passed
    assert cert.checks[-1].detail >= CERT_ZERO_TOL
    for ch in cert.checks:
        if ch.passed and ch.threshold == CERT_ZERO_TOL:
            assert ch.detail < ch.threshold, ch.name


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_certify_tower_rebuilds_only_its_leaf(monkeypatch):
    tower = bravyi_smolin_3()
    for _ in range(60):
        tower = lift(tower, 1)
    calls = {"rebuild_from_provenance": 0, "lift": 0}
    _counting(monkeypatch, verification, "rebuild_from_provenance", calls)
    _counting(monkeypatch, constructions, "lift", calls)
    cert = structural_certify(tower)
    assert cert.overall == "CertifiedConditionalOnBase"
    assert calls == {"rebuild_from_provenance": 1, "lift": 0}


def _conjugated_weyl_sector_tower():
    # lift(bs3, 2) with its Weyl sector conjugated by I_2 (x) V: no longer the
    # exact rebuild, but it passes checks 1-5 on its own, and so it must when
    # it is the base of a further lift.
    inner = lift(bravyi_smolin_3(), 2)
    n = inner.provenance.weyl_count
    v = haar_unitary(3, np.random.default_rng(7))
    conj = np.kron(np.eye(2), v)
    weyl_sector = conj @ inner.matrices[:n] @ conj.conj().T
    moved = UMEBCandidate(6, np.concatenate([weyl_sector, inner.matrices[n:]]), inner.provenance)
    return moved, lift(moved, 2)


def test_certify_reads_a_lifted_base_from_its_sector():
    moved, nested = _conjugated_weyl_sector_tower()
    assert structural_certify(moved).overall == "CertifiedConditionalOnBase"
    assert verify_axioms(nested).passed
    assert structural_certify(nested).overall == "CertifiedConditionalOnBase"
    res = search_extension(nested, restarts=20, iters=300, seed=0)
    assert res.verdict == "NoExtensionFound"
    assert res.gap == pytest.approx(4 * (3 - np.sqrt(6)), abs=1e-6)


def test_certify_fails_on_tampered_inner_level():
    good = lift(bravyi_smolin_3(), 2)
    elements = good.matrices.copy()
    elements[0] = np.kron(np.eye(2), weyl(3, 0, 0))
    bad = UMEBCandidate(6, elements, good.provenance)
    cert = structural_certify(lift(bad, 2))
    assert cert.overall == "Failed"
    assert not cert.checks[-1].passed
    assert any("extracted base fails the axioms" in n for n in cert.notes)


def test_certify_nested_notes_carry_the_base_notes():
    leaf_note = structural_certify(lift(bravyi_smolin_3(), 2)).notes[0]
    assert "standing assumption" in leaf_note
    for c in (lift(umeb_6(), 4), lift(lift(bravyi_smolin_3(), 2), 2)):
        assert structural_certify(c).notes == (
            "base certified recursively: CertifiedConditionalOnBase",
            f"base: {leaf_note}",
        )
    cert = structural_certify(lift(_weyl_subset_lift(), 2))
    assert cert.overall == "Failed"
    assert cert.notes[0] == "base certified recursively: Failed"
    assert cert.notes[1].startswith("base: base_sector_matches_base failed")


def _moved_phase_base(shift):
    # The d = 3 base with element 0's non-unit eigenphase moved by shift.
    theta = float(np.arccos(-7.0 / 8.0)) + shift
    psi = bravyi_smolin_states()[0]
    u0 = np.eye(3) - (1.0 - np.exp(1j * theta)) * np.outer(psi, psi.conj())
    return UMEBCandidate(3, (u0,) + bravyi_smolin_3().elements[1:], External("moved phase"))


def _moved_phase_lift(shift):
    # The moved base is unitary to rounding, so lift takes it as it is: the
    # q = 2 lift is the Kronecker products it states, bit for bit.
    base = _moved_phase_base(shift)
    assert unitarity_residual(base.matrices) < 1e-15
    c = lift(base, 2)
    left = left_factors(c.provenance.q)
    products = [np.kron(f, w) for f in left[:2] for w in weyl_family(3).elements]
    products += [np.kron(f, u) for f in left[2:] for u in base.elements]
    assert c.matrices.tobytes() == np.array(products).tobytes()
    return c


def test_certify_moved_phase_base_passes_but_its_lift_fails_the_axioms():
    # Gram residual 5.06e-11: the base alone passes the axioms.  Tr(F^dag F)
    # = q = 2 doubles it in the lift, to 1.01e-10, so the lifted set fails
    # verify_axioms, and with it check 6; check 5 holds the base at the
    # lift's scale, so it fails on the same figure.
    base = _moved_phase_base(8e-11)
    assert verify_axioms(base).passed
    assert verify_axioms(base).max_gram_offdiag == pytest.approx(5.06e-11, rel=1e-2)
    c = lift(base, 2)
    cert = structural_certify(c)
    assert cert.overall == "Failed"
    base_case, axioms = cert.checks[-2:]
    report = verify_axioms(c)
    assert not report.passed
    assert not axioms.passed and axioms.detail == report.max_gram_offdiag
    assert axioms.detail == pytest.approx(1.012e-10, rel=1e-3)
    assert not base_case.passed
    assert base_case.detail == 2 * verify_axioms(base).max_gram_offdiag
    assert base_case.detail == pytest.approx(axioms.detail, rel=1e-12)
    # Checks 1-2 have no rank from the failed report; check 5's note names
    # the scale it held the base at.
    assert cert.notes[0] == "weyl sector rank not established: the set fails verify_axioms"
    assert cert.notes[1] == (
        "extracted base fails the axioms, its Gram residuals scaled by q = 2 "
        "as in the lift (condition (i) ok: True)"
    )
    assert cert.notes[2].startswith("the set fails verify_axioms")


def test_certify_names_the_scaling_only_when_the_lift_reaches_gram_tol():
    # 3e-11 moves the base's Gram residual to about 1.9e-11: doubled, it stays
    # below gram_tol, so the lift and check 5 pass, and check 5's detail is
    # the doubled figure.  No note names the scaling.
    base = _moved_phase_base(3e-11)
    assert 1e-11 < 2 * verify_axioms(base).max_gram_offdiag < DEFAULT_TOLERANCES.gram_tol
    c = lift(base, 2)
    cert = structural_certify(c)
    assert verify_axioms(c).passed and cert.overall == "CertifiedConditionalOnBase"
    assert cert.checks[-2].detail == 2 * verify_axioms(base).max_gram_offdiag
    assert not any("scale" in n for n in cert.notes)
    # On every exact lift of bs3 the base's Gram residual enters at q times
    # its size too.
    bs3 = verify_axioms(bravyi_smolin_3())
    gram = max(bs3.max_gram_offdiag, bs3.max_gram_diag_error)
    for exact in (umeb_6(), *(lift(bravyi_smolin_3(), q) for q in (2, 4, 8))):
        cert = structural_certify(exact)
        q = as_lift(exact.provenance).q
        assert cert.checks[-2].detail == max(q * gram, bs3.max_unitarity_residual)
        assert not any("scale" in n for n in cert.notes)


def test_certify_holds_each_zero_threshold_check_only_to_its_threshold():
    base = bravyi_smolin_3().elements
    rephased = tuple(np.exp(0.3j * k) * base[(k + 2) % 6] for k in range(6))
    inputs = [
        umeb_6(),
        *(lift(bravyi_smolin_3(), q) for q in (2, 4, 8)),
        *_tampered_base_sectors(),
        lift(UMEBCandidate(3, rephased, BravyiSmolin3()), 2),
        *_conjugated_weyl_sector_tower(),
        _moved_phase_lift(3e-10),
        lift(_moved_phase_base(8e-11), 2),
        # Check 5 fails below its threshold: on the inner verdict, and on
        # condition (i) of a complete base.
        lift(_weyl_subset_lift(), 2),
        lift(UMEBCandidate(3, weyl_family(3).elements, External("complete")), 2),
    ]
    reasons = []
    for c in inputs:
        cert = structural_certify(c)
        for ch in cert.checks:
            if ch.threshold != CERT_ZERO_TOL or ch.passed == (ch.detail < ch.threshold):
                continue
            if ch.name == "set_passes_axioms":
                assert not ch.passed and not verify_axioms(c).condition_i_ok
                reasons.append("the set fails condition (i)")
                continue
            if ch.name == "weyl_sector_spans_offdiagonal_blocks":
                # A failed report establishes no rank for check 1.
                assert not ch.passed and not verify_axioms(c).passed
                reasons.append("check 1: the set fails verify_axioms")
                continue
            assert ch.name == "base_case_verdict" and not ch.passed
            reasons += [
                n for n in cert.notes
                if n == "base certified recursively: Failed"
                or "base fails the axioms" in n and n.endswith("(condition (i) ok: False)")
            ]
    # Four tampered base sectors and both moved-phase lifts fail the axioms.
    no_rank = "check 1: the set fails verify_axioms"
    assert reasons == [no_rank] * 6 + [
        "base certified recursively: Failed",
        no_rank,
        "extracted base fails the axioms, its Gram residuals scaled by q = 2 as in the lift "
        "(condition (i) ok: False)",
        "the set fails condition (i)",
    ]


def test_certify_checks_a_leaf_shape_before_building_it(monkeypatch):
    bs3 = bravyi_smolin_3().elements
    calls = {"weyl_family": 0}
    _counting(monkeypatch, constructions, "weyl_family", calls)
    for prov, elements, leaf in (
        (Lift(WeylFamily(40), 3, 6, 1), bs3, "weyl_family(d=40) has 1600 elements in dimension 40"),
        (Lift(BravyiSmolin3(), 3, 5, 1), bs3[:5], "bravyi_smolin_3 has 6 elements in dimension 3"),
    ):
        cert = structural_certify(UMEBCandidate(3, elements, prov))
        assert cert.overall == "Failed"
        assert not cert.checks[-1].passed
        assert cert.notes[-1].startswith(f"base {leaf}, but the lift declares")
    assert calls == {"weyl_family": 0}


def test_certify_tower_renders_its_base_provenance_once(monkeypatch):
    tower = bravyi_smolin_3()
    for _ in range(60):
        tower = lift(tower, 1)
    expected = provenance_to_str(tower.provenance.base)
    leaf_note = structural_certify(lift(bravyi_smolin_3(), 1)).notes[0]
    calls = {"provenance_to_str": 0}
    _counting(monkeypatch, verification, "provenance_to_str", calls)
    cert = structural_certify(tower)
    assert calls == {"provenance_to_str": 1}
    assert cert.overall == "CertifiedConditionalOnBase"
    assert cert.base_provenance == expected
    assert len(cert.notes) == 60
    assert cert.notes[-1] == "base: " * 59 + leaf_note


# Base-sector substitutions of lift(bs3, 2).  Element (i, n) of its base
# sector is D_i (x) U_n, at index weyl_count + 6i + n; D_0 = I, D_1 = diag(1, -1).
_FOURIER_ROWS = (np.eye(2), np.diag([1.0, -1.0]))
_PHASES = (0.0, 0.3, np.pi / 2, np.pi)
_ROWS = st.sampled_from([(0,), (1,), (0, 1)])


@st.composite
def _drawn_element(draw):
    kind = draw(st.sampled_from(["weyl", "weyl_block", "bs3", "haar"]))
    if kind == "weyl":
        return weyl(6, draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    if kind == "haar":
        return haar_unitary(6, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    row = _FOURIER_ROWS[draw(st.integers(0, 1))]
    if kind == "weyl_block":
        return np.kron(row, weyl(3, draw(st.integers(0, 2)), draw(st.integers(0, 2))))
    u = bravyi_smolin_3().elements[draw(st.integers(0, 5))]
    return np.exp(1j * draw(st.sampled_from(_PHASES))) * np.kron(row, u)


@st.composite
def _substituted_lifts(draw):
    """lift(bs3, 2) with one to three base-sector substitutions: an element
    replaced by a drawn unitary, two base indices swapped, or one rephased,
    each in Fourier row 0, row 1 or both.  Swaps and rephasings made in both
    rows keep the set's span, so some draws must still certify."""
    good = lift(bravyi_smolin_3(), 2)
    sector = list(good.elements[good.provenance.weyl_count:])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "swap", "rephase"]))
        if op == "replace":
            sector[draw(st.integers(0, 11))] = draw(_drawn_element())
            continue
        n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        phase = np.exp(1j * draw(st.sampled_from(_PHASES[1:])))
        for i in draw(_ROWS):
            a, b = 6 * i + n, 6 * i + m
            if op == "swap":
                sector[a], sector[b] = sector[b], sector[a]
            else:
                sector[a] = phase * sector[a]
    elements = good.elements[:good.provenance.weyl_count] + tuple(sector)
    return UMEBCandidate(6, elements, good.provenance)


@settings(max_examples=30, deadline=None)
@given(_substituted_lifts())
def test_base_sector_substitutions_fail_or_stay_unextendible(c):
    cert = structural_certify(c)
    assert cert.overall in ("Failed", "CertifiedConditionalOnBase")
    if cert.overall != "Failed":
        assert search_extension(c, restarts=20, iters=200, seed=0).verdict == "NoExtensionFound"


# ---------------------------------------------------------------------------
# Checks 1-2 from the held axiom report
# ---------------------------------------------------------------------------

def _variant(q, change):
    good = lift(bravyi_smolin_3(), q)
    m = good.matrices.copy()
    change(m, good.provenance.weyl_count)
    return UMEBCandidate(good.dim, m, good.provenance, good.exact_cos_theta)


def _rephase(m, n):
    m[:n] *= np.exp(0.7j * np.arange(n))[:, None, None]


def _duplicate(m, n):
    m[1] = m[0]


def _scale(m, n):
    m[4] *= 1 + 1e-9


def _shrink_one_shift(m, n):
    # Shift 1 of lift(bs3, 3), scaled below the rank threshold of the rest.
    m[:n].reshape(3, 2, 9, 9, 9)[:, 0] *= 1e-9


def _diagonal_entry(m, n):
    m[2, 0, 1] = 1e-13  # tile (0, 0), where element 2 of lift(bs3, 3) is zero


def _swap_shifts(m, n):
    m[[0, 9]] = m[[9, 0]]  # D_0 S (x) W_00 and D_0 S^2 (x) W_00


def _intruder(m, n):
    m[0] = np.kron(np.eye(2), weyl(3, 0, 0))


def _added(m, n):
    m[0] += 0.5 * m[1]


def _doubled(m, n):
    m[0] *= 2


TAMPERED = {
    # name: (q, change)
    "rephased": (3, _rephase),
    "duplicated": (2, _duplicate),
    "scaled": (3, _scale),
    "one_shift_shrunk": (3, _shrink_one_shift),
    "diagonal_entry": (3, _diagonal_entry),
    "swapped_across_shifts": (3, _swap_shifts),
    "block_diagonal_intruder": (2, _intruder),
    "added": (2, _added),
    "doubled": (2, _doubled),
}


@pytest.mark.parametrize("name, mass", [
    ("diagonal_entry", 1e-13), ("block_diagonal_intruder", 1.0),
])
def test_certificate_with_mass_off_the_tiles_reports_its_diagonal_mass(name, mass):
    q, change = TAMPERED[name]
    c = _variant(q, change)
    n, d = c.provenance.weyl_count, c.provenance.base_dim
    tiles = c.matrices[:n].reshape(n, q, d, q, d)
    diag = np.stack([tiles[:, a, :, a, :] for a in range(q)])
    span, off = structural_certify(c).checks[:2]
    assert span.detail == np.max(np.abs(diag)) == mass
    # Check 2's bound is ||E||_F / (sqrt(L) - ||E||_F), with L the floor the
    # passed report gives the sector's squared singular values; nan when the
    # report fails, as the intruder's does.
    report = verify_axioms(c)
    norm = np.linalg.norm(diag)
    if report.passed:
        low = report.dim - (report.max_gram_diag_error + (n - 1) * report.max_gram_offdiag)
        want = norm / (np.sqrt(low) - norm)
    else:
        want = float("nan")
    assert (name == "diagonal_entry") == report.passed
    assert repr(off.detail) == repr(float(want))


def _svd_calls(monkeypatch):
    """Record the shape of every np.linalg.svd input from here on."""
    svd, shapes = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return shapes


VOUCHED = {
    "umeb_6": umeb_6,
    **{f"lift_bs3_{q}": (lambda q=q: lift(bravyi_smolin_3(), q)) for q in range(1, 9)},
    "lift_lift_bs3_2_2": lambda: lift(lift(bravyi_smolin_3(), 2), 2),
    "lift_umeb_6_3": lambda: lift(umeb_6(), 3),
}


@pytest.mark.parametrize("name", sorted(VOUCHED))
def test_certify_makes_no_svd_on_a_set_its_report_vouches_for(name, monkeypatch):
    c = VOUCHED[name]()
    shapes = _svd_calls(monkeypatch)
    assert structural_certify(c).overall == "CertifiedConditionalOnBase"
    assert shapes == []


def _count_left_factor_builds(monkeypatch):
    """Empty the q-keyed factor table and the held left phases, then record
    each q whose Fourier matrix is built and the shape of every eigensolve."""
    constructions._factor_table.cache_clear()
    spectral._LEFT_PHASES.clear()
    builds, shapes = [], []
    fourier, phases = constructions.fourier_matrix, spectral._phases
    monkeypatch.setattr(constructions, "fourier_matrix", lambda q: builds.append(q) or fourier(q))
    monkeypatch.setattr(spectral, "_phases", lambda m: shapes.append(np.shape(m)) or phases(m))
    return builds, shapes


def test_certify_and_signature_build_the_left_factors_once_per_q(monkeypatch):
    c = lift(bravyi_smolin_3(), 8)
    builds, _ = _count_left_factor_builds(monkeypatch)
    for run in (structural_certify, signature):
        # A fresh layout of the same q reads the factors the first run built.
        fresh = UMEBCandidate(c.dim, c.matrices, Lift(BravyiSmolin3(), 3, 6, 8), c.exact_cos_theta)
        run(fresh)
        # The q = 1 table serves check 5's base, its own q = 1 lift.
        assert builds == [8, 1]


def test_every_layer_reads_the_one_layout_of_umeb_6(monkeypatch):
    layout = as_lift(umeb_6().provenance)
    builds, _ = _count_left_factor_builds(monkeypatch)
    c = umeb_6()
    assert verify_axioms(c).passed
    assert signature(c).summary.provably_infinite_count == 24
    assert structural_certify(c).overall == "CertifiedConditionalOnBase"
    assert builds == [2, 1]  # and check 5's base, its own q = 1 lift
    assert as_lift(c.provenance) == layout == Lift(BravyiSmolin3(), 3, 6, 2)


def test_each_q_builds_and_eigensolves_its_left_factors_once(tmp_path, monkeypatch):
    builds, shapes = _count_left_factor_builds(monkeypatch)
    base = bravyi_smolin_3()
    path = tmp_path / "m.json"
    save_umeb(lift(base, 4), path)
    made = [lift(base, 4), load_umeb(path), lift(base, 4)]
    made.append(UMEBCandidate(12, made[0].matrices, Lift(BravyiSmolin3(), 3, 6, 4), made[0].exact_cos_theta))
    for c in made:
        assert verify_axioms(c).passed
        assert structural_certify(c).overall == "CertifiedConditionalOnBase"
        assert signature(c).summary.provably_infinite_count > 0
    assert len({id(c.provenance) for c in made}) == len(made)  # four fresh layouts
    # The phases made for the first layout serve the others while it lives.
    # Check 5's rebuilt base is its own q = 1 lift.
    assert builds == [4, 1]
    assert [shape for shape in shapes if shape[-1] == 4] == [(16, 4, 4)]


# ---------------------------------------------------------------------------
# The Gram from a lift's factors, and the facts a candidate holds
# ---------------------------------------------------------------------------

GRAM_ROUNDING = 1e-13
# The factored and the stack Gram sum the same products in another order, and
# the tile and the stack unitarity residual sum T^dag T over d terms against
# qd.  For the sets drawn here, D <= 24 and every element unitary, the Gram
# residuals differed by at most 7.1e-15 over 600 draws and the unitarity
# residuals by at most 2.3e-16; this bound leaves a margin of 14 and is still
# 1000 times below gram_tol.


def _stack_report(c):
    """verify_axioms on the stored stack: a fresh candidate whose split is forced to None."""
    with mock.patch.object(Lift, "split", lambda self, matrices: None):
        return verify_axioms(UMEBCandidate(c.dim, c.matrices, c.provenance, c.exact_cos_theta))


def _parent_stack_report(c):
    """The dense report as verify_axioms formed it before the tile residual,
    frozen here: every figure from the stored stack, with today's key added."""
    g = gram_matrix(c.matrices)
    d, n = c.dim, len(c.matrices)
    off = g - np.diag(np.diag(g))
    max_unit = unitarity_residual(c.matrices)
    max_off = float(np.max(np.abs(off))) if n > 1 else 0.0
    max_diag = float(np.max(np.abs(np.diag(g) - d)))
    tol = DEFAULT_TOLERANCES
    return {
        "dim": d,
        "element_count": n,
        "max_unitarity_residual": float(max_unit),
        "max_gram_offdiag": max_off,
        "max_gram_diag_error": max_diag,
        "condition_i_ok": n < d * d,
        "passed": (max_unit < tol.unitarity_tol and max_off < tol.gram_tol
                   and max_diag < tol.gram_tol and n < d * d),
        "gram_from": "stack",
        "unitarity_from": "stack",
    }


def _report_and_shapes(c):
    """verify_axioms on c, and the shape of every stack that gram_matrix and
    the candidate's unitarity_residual received."""
    grams, residuals = [], []

    def spy(real, shapes):
        return lambda mats: shapes.append(np.shape(mats)) or real(mats)

    with mock.patch.object(verification, "gram_matrix", spy(verification.gram_matrix, grams)), \
            mock.patch.object(constructions, "unitarity_residual",
                              spy(constructions.unitarity_residual, residuals)):
        return verify_axioms(c), grams, residuals


def _drawn_base(d, kind, count, rng):
    if kind == "orthogonal":
        # A W_nm B over some Weyl labels: trace-orthogonal unitaries.
        a, b = haar_unitary(d, rng), haar_unitary(d, rng)
        labels = rng.permutation(d * d)[:min(count, d * d)]
        mats = [a @ weyl(d, k // d, k % d) @ b for k in labels]
    elif kind == "haar":
        # Independent unitaries: off-diagonal Gram entries of order d.
        mats = [haar_unitary(d, rng) for _ in range(count)]
    else:
        # One unitary repeated: off-diagonal Gram entries exactly d.
        mats = [haar_unitary(d, rng)] * count
    return UMEBCandidate(d, mats, External(f"drawn {kind}"))


# Random towers: a drawn base in dimension d <= 4, lifted by q <= 4 and then,
# while D stays <= 24, once more by the outer q.
TOWERS = dict(
    d=st.integers(2, 4),
    q=st.integers(1, 4),
    outer=st.sampled_from([None, 2, 3]),
    kind=st.sampled_from(["orthogonal", "haar", "repeated"]),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


def _drawn_tower(base, q, outer):
    c = lift(base, q)
    if outer is not None and c.dim * outer <= 24:
        c = lift(c, outer)  # a tower of depth 2
    return c


def _tower(d, q, outer, kind, count, seed):
    return _drawn_tower(_drawn_base(d, kind, count, np.random.default_rng(seed)), q, outer)


@settings(max_examples=40, deadline=None)
@given(**TOWERS)
def test_factored_gram_matches_the_stack_gram_property(d, q, outer, kind, count, seed):
    c = _tower(d, q, outer, kind, count, seed)
    assert not c.factored.self_lift
    got, shapes, _ = _report_and_shapes(c)
    want = _stack_report(c)
    assert (got.gram_from, want.gram_from) == ("factors", "stack")
    # No Gram of D x D matrices, but for q = 1, where the right factors are the stack.
    if c.provenance.q > 1:
        assert max(shape[-1] for shape in shapes) < c.dim
    assert got.passed == want.passed
    assert abs(got.max_unitarity_residual - want.max_unitarity_residual) <= GRAM_ROUNDING
    assert got.condition_i_ok == want.condition_i_ok
    assert abs(got.max_gram_offdiag - want.max_gram_offdiag) <= GRAM_ROUNDING
    assert abs(got.max_gram_diag_error - want.max_gram_diag_error) <= GRAM_ROUNDING


@settings(max_examples=40, deadline=None)
@given(**TOWERS)
def test_tile_residual_matches_the_stack_residual_property(d, q, outer, kind, count, seed):
    c = _tower(d, q, outer, kind, count, seed)
    view = c.factored
    layout = c.provenance
    assert view.layout == layout
    got, grams, residuals = _report_and_shapes(c)
    assert (got.unitarity_from, _stack_report(c).unitarity_from) == ("tiles", "stack")
    assert abs(c.unitarity_residual - unitarity_residual(c.matrices)) <= GRAM_ROUNDING
    assert got.passed == _stack_report(c).passed
    # One residual, of at most q tiles per distinct right factor, each d x d.
    distinct = len(view.distinct)
    assert len(residuals) == 1
    count, d = residuals[0][0], residuals[0][-1]
    assert d == layout.base_dim and count <= layout.q * distinct
    # Nothing of the stack's size reaches either, but for q = 1, where the
    # tiles are the elements.
    if layout.q > 1:
        assert max(np.prod(shape) for shape in grams + residuals) < c.matrices.size


def test_tiles_of_lift_bs3_8():
    c = lift(bravyi_smolin_3(), 8)
    right = c.provenance.split(c.matrices)
    tiles = c.factored.tiles
    # 15 distinct right factors (9 Weyl operators, 6 bs3 elements), each met
    # by the 8 distinct nonzero entries f of the left factors it sits on.
    assert tiles.shape == (15 * 8, 3, 3)
    # Each tile is one of the products f Y, and no two are equal.
    left = left_factors(c.provenance.q)
    values = np.unique(left[left != 0])
    distinct = np.unique(right.reshape(len(right), -1), axis=0).reshape(-1, 3, 3)
    products = np.array([f * y for f in values for y in distinct])
    matches = [[np.array_equal(t, p) for p in products] for t in tiles]
    assert sorted(map(np.argmax, matches)) == list(range(len(products)))
    assert all(sum(row) == 1 for row in matches)


# Whether verify_axioms passes each, judged on its stored stack, and whether
# it is still an exact product F_k (x) Y_k, so that the factored Gram serves it.
TAMPERED_VERDICTS = {
    # name: (passes, splits)
    "rephased": (True, False),
    "duplicated": (False, True),
    "scaled": (False, True),
    "one_shift_shrunk": (False, False),
    "diagonal_entry": (True, False),
    "swapped_across_shifts": (True, False),
    "block_diagonal_intruder": (False, False),
    "added": (False, True),
    "doubled": (False, True),
}


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_tampered_lifts_keep_their_stack_verdict(name):
    c = _variant(*TAMPERED[name])
    passes, splits = TAMPERED_VERDICTS[name]
    assert c.factored.self_lift != splits
    got, grams, residuals = _report_and_shapes(c)
    want = _stack_report(c)
    assert got.passed == want.passed == passes
    if splits:
        assert (got.gram_from, got.unitarity_from) == ("factors", "tiles")
        assert max(shape[-1] for shape in grams + residuals) < c.dim
        assert abs(got.max_unitarity_residual - want.max_unitarity_residual) <= GRAM_ROUNDING
        assert abs(got.max_gram_offdiag - want.max_gram_offdiag) <= GRAM_ROUNDING
        assert abs(got.max_gram_diag_error - want.max_gram_diag_error) <= GRAM_ROUNDING
    else:
        # The set's own q = 1 lift: a Gram of its one left factor [1] and
        # of its stack, and the residual of its stack, so bit for bit the
        # report formed before the tile residual existed.
        assert grams == [(1, 1, 1), c.matrices.shape]
        assert residuals == [c.matrices.shape]
        assert got.to_dict() == want.to_dict()
        assert repr(got.to_dict()) == repr(_parent_stack_report(c))


def _unsplit_set(kind, q, where, seed):
    """A set its provenance's lift layout does not split: a random unitary
    stack labelled External, an exact bs3 lift with one entry one ulp off or
    one element's phase moved, or B U A^T of each element of a bs3 lift."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        d = 1 + where % 8
        mats = [haar_unitary(d, rng) for _ in range(1 + seed % 12)]
        return UMEBCandidate(d, mats, External("random unitaries"))
    good = lift(bravyi_smolin_3(), q)
    m = good.matrices.copy()
    k = where % len(m)
    if kind == "ulp":
        i, j = divmod(where // len(m) % good.dim**2, good.dim)
        m[k, i, j] = complex(np.nextafter(m[k, i, j].real, np.inf), m[k, i, j].imag)
    elif kind == "phase":
        m[k] *= np.exp(1j * rng.uniform(0.1, 6.2))
    else:
        a, b = haar_unitary(good.dim, rng), haar_unitary(good.dim, rng)
        m = b @ m @ a.T
    return UMEBCandidate(good.dim, m, good.provenance, good.exact_cos_theta)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "ulp", "phase", "local_unitaries"]),
    q=st.sampled_from([2, 4, 8]),
    where=st.integers(0, 10**9),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_unsplit_set_is_its_own_q1_lift_bit_for_bit_property(kind, q, where, seed):
    c = _unsplit_set(kind, q, where, seed)
    layout = as_lift(c.provenance)
    assume(layout is None or layout.split(c.matrices) is None)
    view = c.factored
    assert view.self_lift and view.layout == Lift(c.provenance, c.dim, len(c), 1)
    assert view.distinct is c.matrices
    # The reference figures, from the stored stack alone.
    g = gram_matrix(c.matrices)
    diag = np.diag(g).copy()
    np.fill_diagonal(g, 0.0)
    residual = unitarity_residual(c.matrices)
    report = verify_axioms(c)
    assert (report.gram_from, report.unitarity_from) == ("stack", "stack")
    assert c.unitarity == (residual, "stack")
    assert report.max_unitarity_residual == residual
    assert report.max_gram_offdiag == float(np.max(np.abs(g)))
    assert report.max_gram_diag_error == float(np.max(np.abs(diag - c.dim)))
    # One eigvals of the stack gives every element's phases.
    phases = np.mod(np.angle(np.linalg.eigvals(c.matrices)), 2 * np.pi)
    phases[phases >= 2 * np.pi] -= 2 * np.pi
    phases.sort(axis=-1)
    got = sorted(np.sort(r.phases).tobytes() for r in signature(c).records)
    assert got == sorted(row.tobytes() for row in phases)


@pytest.mark.parametrize("name", ["added", "doubled", "scaled"])
def test_certify_fails_a_set_that_fails_the_axioms(name, tmp_path, capsys):
    c = _variant(*TAMPERED[name])
    assert not verify_axioms(c).passed
    cert = structural_certify(c)
    assert cert.overall == "Failed"
    # Checks 1-2 read the sector's rank from the failed report, so they fail
    # with it; checks 3-5 pass: the base sector is intact.
    assert [ch.passed for ch in cert.checks] == [False, False, True, True, True, False]
    assert cert.checks[-1].name == "set_passes_axioms"
    assert cert.notes[0] == "weyl sector rank not established: the set fails verify_axioms"
    assert any(n.startswith("the set fails verify_axioms") for n in cert.notes)
    path = tmp_path / f"{name}.json"
    save_umeb(c, path)
    assert main(["certify", str(path)]) == EXIT_VERIFY_FAIL
    assert "FAIL  set_passes_axioms" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_certify_makes_no_svd_on_a_tampered_set(name, monkeypatch):
    c = _variant(*TAMPERED[name])
    shapes = _svd_calls(monkeypatch)
    structural_certify(c)
    assert shapes == []


@settings(max_examples=30, deadline=None)
@given(**TOWERS)
def test_certify_makes_no_svd_property(d, q, outer, kind, count, seed):
    c = _tower(d, q, outer, kind, count, seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        shapes = _svd_calls(monkeypatch)
        structural_certify(c)
    assert shapes == []


def test_report_vouches_only_within_the_gershgorin_rank_bound():
    c = umeb_6()
    n = as_lift(c.provenance).weyl_count
    report = verify_axioms(c)
    assert report.passed and report.dim == 6 and n == 18
    floor = verification._sector_floor
    spread = report.max_gram_diag_error + (n - 1) * report.max_gram_offdiag
    assert floor(report, n) == 6 - spread
    assert floor(replace(report, passed=False), n) is None

    def residuals(diag_err, off_err):
        return replace(report, max_gram_diag_error=diag_err, max_gram_offdiag=off_err)

    # L = D - diag_err - (n - 1) off_err, U = D + the same spread.
    # L = 2^-50 > 0, but sqrt(L) = 3.0e-8 <= RANK_RTOL sqrt(U) = 3.5e-8.
    assert floor(residuals(6 - 2.0**-50, 0.0), n) is None
    # L = 2^-45: sqrt(L) = 1.7e-7 clears it.
    assert floor(residuals(6 - 2.0**-45, 0.0), n) == 2.0**-45
    assert floor(residuals(6.0, 0.0), n) is None
    # The off-diagonal residual counts n - 1 times: 17 * (6 / 16) > 6.
    assert floor(residuals(0.0, 6 / 16), n) is None
    assert floor(residuals(0.0, 6 / 18), n) == 6 - 17 * (6 / 18)

    # Exact zeros on a diagonal tile: -0.0 is one, the least subnormal is not.
    for entry in (-0.0, 5e-324):
        m = c.matrices.copy()
        m[0, 0, 0] = entry  # tile (0, 0), where element 0 is zero
        cert = structural_certify(UMEBCandidate(6, m, c.provenance, c.exact_cos_theta))
        assert cert.overall == "CertifiedConditionalOnBase"
        assert repr(cert.checks[0].detail) == repr(abs(entry))


def _assert_checks_one_two_hold_to_the_svd(c):
    """Checks 1-2 of ``c``'s certificate against one SVD of its Weyl sector,
    flattened to rows: the floor the report gives lies below every squared
    singular value, check 1 passes a set the SVD's rank rule would pass, and
    check 2's bound is at least the one the SVD's least singular value gives."""
    layout = as_lift(c.provenance)
    n = layout.weyl_count
    report = verify_axioms(c)
    span, off = structural_certify(c).checks[:2]
    if not n:
        assert span.passed and off.passed and off.detail == 0.0
        return
    s = np.linalg.svd(c.matrices[:n].reshape(n, -1), compute_uv=False)
    full_rank = s[-1] > RANK_RTOL * s[0]
    low = verification._sector_floor(report, n)
    # A passed report always clears the rank rule (D < 10^10).
    assert (low is None) == (not report.passed)
    if low is not None:
        # Gershgorin on the sector's Gram: every s^2 lies in [L, U], up to
        # rounding of order D * 1e-16 in the residuals and in the SVD.
        high = 2 * report.dim - low
        assert low - s[-1] ** 2 <= 1e-12 * report.dim
        assert s[0] ** 2 - high <= 1e-12 * report.dim
        assert full_rank
        assert span.passed == (span.detail < CERT_ZERO_TOL)
    if span.passed:
        assert full_rank and span.detail < CERT_ZERO_TOL
    diag = np.diagonal(layout.blocks(c.matrices)[:n], axis1=1, axis2=3)
    norm = np.linalg.norm(diag)
    svd_bound = norm / (s[-1] - norm) if s[-1] > norm else float("nan")
    # sqrt(L) <= s_min up to rounding, so the report's bound is the larger.
    if np.isnan(svd_bound):
        assert np.isnan(off.detail)
    if not np.isnan(off.detail):
        assert off.detail >= svd_bound * (1 - 1e-12)
    if off.passed:
        assert svd_bound < CERT_ZERO_TOL


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_checks_one_two_of_a_tampered_set_hold_to_the_svd(name):
    _assert_checks_one_two_hold_to_the_svd(_variant(*TAMPERED[name]))


@pytest.mark.parametrize("name", sorted(VOUCHED))
def test_checks_one_two_of_a_vouched_set_hold_to_the_svd(name):
    _assert_checks_one_two_hold_to_the_svd(VOUCHED[name]())


@settings(max_examples=30, deadline=None)
@given(**TOWERS)
def test_checks_one_two_hold_to_the_svd_property(d, q, outer, kind, count, seed):
    _assert_checks_one_two_hold_to_the_svd(_tower(d, q, outer, kind, count, seed))


def _scale_one(m, k, t):
    m[k] *= 1 + t


def _add_another(m, k, t):
    m[k] += t * m[(k + 1) % len(m)]


def _rephase_one(m, k, t):
    m[k] *= np.exp(1j * t)


def _move_one_entry(m, k, t):
    m[k, 0, -1] += t


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["bs3", "orthogonal"]),
    q=st.integers(1, 3),
    outer=st.sampled_from([None, 2]),
    edit=st.sampled_from([_scale_one, _add_another, _rephase_one, _move_one_entry]),
    where=st.integers(0, 10**6),
    size=st.sampled_from([1e-9, 1e-6, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_edit_that_fails_the_axioms_never_certifies_property(
    kind, q, outer, edit, where, size, seed
):
    if kind == "bs3":
        base = bravyi_smolin_3()
    else:
        base = _drawn_base(3, "orthogonal", 6, np.random.default_rng(seed))
    good = _drawn_tower(base, q, outer)
    assert structural_certify(good).overall == "CertifiedConditionalOnBase"
    m = good.matrices.copy()
    edit(m, where % len(m), size)
    c = UMEBCandidate(good.dim, m, good.provenance, good.exact_cos_theta)
    if not verify_axioms(c).passed:
        assert structural_certify(c).overall == "Failed"
    else:
        assert edit is _rephase_one


def test_verify_then_certify_forms_each_report_once(monkeypatch):
    made = []
    real = verification.VerificationReport.of.__func__

    def counting(cls, c):
        made.append(provenance_to_str(c.provenance))
        return real(cls, c)

    monkeypatch.setattr(verification.VerificationReport, "of", classmethod(counting))
    c = lift(lift(bravyi_smolin_3(), 2), 2)
    report = verify_axioms(c)
    assert verify_axioms(c) is report is c.axiom_report
    assert structural_certify(c).overall == "CertifiedConditionalOnBase"
    # The tower, its extracted base (check 5, then check 6 one level down) and
    # the rebuilt leaf: one report each.
    assert made == [
        provenance_to_str(c.provenance), provenance_to_str(c.provenance.base), "bravyi_smolin_3",
    ]


def _unfactored_lift(q):
    """lift(bravyi_smolin_3(), q) as a copy that holds no right factors, as
    a lift loaded from its elements: its factored view is Lift.split's compare."""
    built = lift(bravyi_smolin_3(), q)
    c = UMEBCandidate(built.dim, built.matrices, built.provenance, built.exact_cos_theta)
    assert c._right_factors is None
    return c


def test_verify_of_a_fresh_lift_stays_below_one_and_a_half_stacks():
    c = _unfactored_lift(8)
    tracemalloc.start()
    try:
        assert verify_axioms(c).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The split compares tile by tile, and nothing after it is of the
    # stack's size.
    assert peak < 1.5 * c.matrices.nbytes


def test_verify_of_a_fresh_lift_stays_below_half_a_stack():
    c = _unfactored_lift(8)
    tracemalloc.start()
    try:
        assert verify_axioms(c).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The split peaks at about a third of the stack; the Gram's off-diagonal
    # maximum, taken over blocks of rows, forms no 552 x 552 array.
    assert peak < 0.5 * c.matrices.nbytes


def test_verify_of_a_lift_that_holds_its_factors_stays_below_a_quarter_of_a_stack():
    c = lift(bravyi_smolin_3(), 8)
    assert c._right_factors is not None
    tracemalloc.start()
    try:
        assert verify_axioms(c).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Its split is read from the stack with no tile compare, so the peak is
    # set by what follows the split, well below Lift.split's third.
    assert peak < 0.25 * c.matrices.nbytes


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    left_kinds=st.integers(1, 5),
    right_kinds=st.integers(1, 5),
    block=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_offdiag_product_equals_the_whole_array_maximum_property(
    n, left_kinds, right_kinds, block, seed
):
    rng = np.random.default_rng(seed)
    left, right = rng.random((left_kinds, left_kinds)), rng.random((right_kinds, right_kinds))
    index, kind = rng.integers(0, left_kinds, n), rng.integers(0, right_kinds, n)
    whole = left[index][:, index] * right[kind][:, kind]
    np.fill_diagonal(whole, 0.0)
    # A block of 1 to 200 entries: one row per block, a few, or all.
    with mock.patch.object(verification, "_GRAM_BLOCK", block):
        assert verification._max_offdiag_product(left, index, right, kind) == whole.max()


def test_verify_and_spectra_split_and_check_unitarity_once(monkeypatch, tmp_path):
    # A lift loaded from a file of its elements, which holds no factors: a
    # copy of the stack was not built from them, so it is saved as elements.
    built = lift(bravyi_smolin_3(), 8)
    path = tmp_path / "l8.json"
    copy = UMEBCandidate(built.dim, built.matrices, built.provenance, built.exact_cos_theta)
    save_umeb(copy, path)
    c = load_umeb(path)
    assert c.provenance == built.provenance and c._right_factors is None
    splits, residuals = [], []
    real_split, real_residual = Lift.split, constructions.unitarity_residual

    def counting_split(self, matrices):
        splits.append(np.shape(matrices))
        return real_split(self, matrices)

    def counting_residual(a):
        residuals.append(np.shape(a))
        return real_residual(a)

    monkeypatch.setattr(Lift, "split", counting_split)
    for module in (constructions, verification, spectral):
        monkeypatch.setattr(module, "unitarity_residual", counting_residual)
    report = verify_axioms(c)
    sig = signature(c)
    rows = sector_summaries(c)
    assert report.passed and (report.gram_from, report.unitarity_from) == ("factors", "tiles")
    # One split; no residual of the full stack, but one of the tiles and one
    # of the distinct right factors per signature.
    assert len(splits) == 1
    assert c.matrices.shape not in residuals
    assert residuals.count((120, 3, 3)) == 1
    view = c.factored
    assert c.factored is view and not view.self_lift
    assert not any(part.flags.writeable for part in (view.index, view.distinct, view.kind))

    # A fresh candidate over the same stack holds nothing yet.
    fresh = UMEBCandidate(c.dim, c.matrices, c.provenance, c.exact_cos_theta)
    again = signature(fresh)
    assert len(splits) == 2
    assert c.matrices.shape not in residuals
    assert residuals.count((120, 3, 3)) == 2
    assert repr(again.to_dict()) == repr(sig.to_dict())
    assert again.canonical_key() == sig.canonical_key()
    assert rows == again.sectors

    # A lift holds the factors it was built from, so it reads its split
    # from its stack with no Lift.split call.
    built = lift(bravyi_smolin_3(), 8)
    assert verify_axioms(built).passed
    assert repr(signature(built).to_dict()) == repr(sig.to_dict())
    assert len(splits) == 2
    assert c.matrices.shape not in residuals


def test_right_factors_are_told_apart_once(monkeypatch):
    c = lift(bravyi_smolin_3(), 8)
    right = c.provenance.split(c.matrices)
    shapes = []
    for module in (constructions, spectral):
        real = module.distinct_rows
        monkeypatch.setattr(module, "distinct_rows",
                            lambda a, real=real: shapes.append(np.shape(a)) or real(a))
    fresh = UMEBCandidate(c.dim, c.matrices, c.provenance, c.exact_cos_theta)
    verify_axioms(fresh)
    structural_certify(fresh)
    signature(fresh)
    # The tiles, the factored Gram and the factored spectra all read the
    # kinds the candidate holds.
    assert shapes.count(right.shape) == 1
    view = fresh.factored
    assert fresh.factored is view
    assert not any(part.flags.writeable for part in (view.index, view.distinct, view.kind))


# ---------------------------------------------------------------------------
# The complement, grouped by left factor
# ---------------------------------------------------------------------------

COMPLEMENT_TOL = 1e-12


def _assert_grouped_complement_matches_the_stack(c):
    """The grouped complement of ``c`` against the null space of its whole stack."""
    try:
        want = np.array(orthonormal_complement(c.matrices)).reshape(-1, c.dim, c.dim)
    except RankDeficiencyError:
        with pytest.raises(RankDeficiencyError):
            c.factored.complement()
        return
    got = c.factored.complement()
    assert got.shape == want.shape
    if c.factored.self_lift:
        assert got.tobytes() == want.tobytes()
    rows, ref = got.reshape(len(got), c.dim**2), want.reshape(len(want), c.dim**2)
    assert np.abs(rows.conj() @ rows.T - np.eye(len(rows))).max(initial=0.0) <= COMPLEMENT_TOL
    assert np.abs(c.matrices.reshape(len(c), -1).conj() @ rows.T).max(initial=0.0) \
        <= COMPLEMENT_TOL
    assert np.abs(rows.T @ rows.conj() - ref.T @ ref.conj()).max(initial=0.0) <= COMPLEMENT_TOL


_GROUPED = (
    [(f"bs3_q{q}", lambda q=q: lift(bravyi_smolin_3(), q)) for q in range(1, 9)]
    + [(f"umeb6_q{q}", lambda q=q: lift(umeb_6(), q)) for q in range(1, 5)]
    + [("tower", lambda: lift(lift(bravyi_smolin_3(), 2), 2))]
    + [(f"tampered_{name}", lambda name=name: _variant(*TAMPERED[name])) for name in TAMPERED]
)


@pytest.mark.parametrize("make", [make for _, make in _GROUPED], ids=[n for n, _ in _GROUPED])
def test_grouped_complement_matches_the_stack_complement(make):
    _assert_grouped_complement_matches_the_stack(make())


_SELF_LIFTS = {
    "bs3": bravyi_smolin_3,
    "weyl_subset": lambda: UMEBCandidate(3, weyl_family(3).matrices[:6], WeylFamily(3)),
    "external_umeb6": lambda: UMEBCandidate(6, umeb_6().matrices, External("copy")),
    "external_lift_bs3_8": lambda: UMEBCandidate(
        24, lift(bravyi_smolin_3(), 8).matrices, External("copy")),
    "unsplit_tampered": lambda: _variant(*TAMPERED["diagonal_entry"]),
}


@pytest.mark.parametrize("name", sorted(_SELF_LIFTS))
def test_a_self_lift_complement_is_the_stack_null_space_bit_for_bit(name):
    c = _SELF_LIFTS[name]()
    assert c.factored.self_lift
    _assert_grouped_complement_matches_the_stack(c)
    result = search_extension(c, restarts=2, iters=20, seed=3)
    assert result.complement_from == "stack"


@settings(max_examples=40, deadline=None)
@given(**TOWERS)
def test_grouped_complement_of_towers_matches_the_stack_property(d, q, outer, kind, count, seed):
    _assert_grouped_complement_matches_the_stack(_tower(d, q, outer, kind, count, seed))


@pytest.mark.parametrize("make", [
    lambda: lift(UMEBCandidate(3, bravyi_smolin_3().matrices[[0, 0, 1, 2, 3, 4]],
                               BravyiSmolin3()), 2),
    lambda: _variant(*TAMPERED["duplicated"]),
], ids=["repeated_base_element", "duplicated_weyl_element"])
def test_grouped_complement_of_a_dependent_group_raises(make):
    c = make()
    assert not c.factored.self_lift
    with pytest.raises(RankDeficiencyError):
        c.factored.complement()
    with pytest.raises(RankDeficiencyError):
        orthonormal_complement(c.matrices)


def test_grouped_complement_takes_one_null_space_per_distinct_group(monkeypatch):
    calls = []
    real = constructions.orthonormal_complement
    monkeypatch.setattr(constructions, "orthonormal_complement",
                        lambda mats: calls.append(np.shape(mats)) or real(mats))
    lift(bravyi_smolin_3(), 8).factored.complement()
    # The 56 Weyl-sector groups share the 9 Weyl operators, the 8 base groups bs3.
    assert sorted(calls) == [(6, 3, 3), (9, 3, 3)]


@pytest.mark.parametrize("make", [lambda: lift(bravyi_smolin_3(), 8), lambda: lift(umeb_6(), 4)],
                         ids=["lift_bs3_8", "lift_umeb6_4"])
def test_search_at_dimension_24_reads_its_complement_from_the_factors(make):
    result = search_extension(make(), restarts=3, iters=50, seed=1)
    assert result.verdict == "NoExtensionFound"
    assert abs(result.gap - 8 * (3 - np.sqrt(6))) <= 1e-9
    assert (result.complement_dim, result.complement_from) == (24, "factors")
