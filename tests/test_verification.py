from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umeb import constructions, verification
from umeb.constructions import (
    BravyiSmolin3,
    External,
    Lift,
    UMEBCandidate,
    WeylFamily,
    bravyi_smolin_3,
    bravyi_smolin_states,
    lift,
    provenance_to_str,
    umeb_6,
    weyl,
    weyl_family,
)
from umeb.linalg import (
    DimensionMismatchError,
    Tolerances,
    hs_inner,
    hs_norm,
    orthonormal_complement,
    seeded_random_matrix,
    unitarity_residual,
)
from umeb.verification import (
    CERT_ZERO_TOL,
    STEP_TOL,
    SUB_SEED_STRIDE,
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

    With ``stop``, a restart ends as search_extension's do: after the
    objective of the first matrix that a step moved by at most STEP_TOL.
    Without it, every restart runs all iters.  Returns each restart's
    objective trace and its last matrix.
    """
    d = c.dim
    flat = _complement_rows(c)

    def project(m):
        return ((flat.conj() @ m.ravel()) @ flat).reshape(d, d)

    traces, finals = [], []
    for r in range(restarts):
        m = project(seeded_random_matrix(d, seed * SUB_SEED_STRIDE + r))
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
    assert any("rank 17" in n for n in cert.notes)


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
    assert cert.checks[-1].name == "base_case_verdict"
    assert not cert.checks[-1].passed
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


def test_certify_holds_base_residuals_to_the_threshold_under_loose_tolerances():
    # Element 0's non-unit eigenphase moved by 3e-10: the base's Gram
    # residual (1.9e-10) passes tolerances of 1e-8 but not check 5's threshold.
    theta = float(np.arccos(-7.0 / 8.0)) + 3e-10
    psi = bravyi_smolin_states()[0]
    u0 = np.eye(3) - (1.0 - np.exp(1j * theta)) * np.outer(psi, psi.conj())
    base = UMEBCandidate(3, (u0,) + bravyi_smolin_3().elements[1:], External("moved phase"))
    loose = Tolerances(unitarity_tol=1e-8, gram_tol=1e-8)
    cert = structural_certify(lift(base, 2, loose))
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


def test_certify_moved_phase_below_the_threshold_certifies():
    # Gram residual 5.06e-11: below check 5's threshold, so the base passes
    # whatever tolerances a caller would have chosen.
    cert = structural_certify(lift(_moved_phase_base(8e-11), 2))
    assert cert.overall == "CertifiedConditionalOnBase"
    assert cert.checks[-1].detail == pytest.approx(5.06e-11, rel=1e-2)


def test_certify_holds_each_zero_threshold_check_only_to_its_threshold():
    base = bravyi_smolin_3().elements
    rephased = tuple(np.exp(0.3j * k) * base[(k + 2) % 6] for k in range(6))
    loose = Tolerances(unitarity_tol=1e-8, gram_tol=1e-8)
    inputs = [
        umeb_6(),
        *(lift(bravyi_smolin_3(), q) for q in (2, 4, 8)),
        *_tampered_base_sectors(),
        lift(UMEBCandidate(3, rephased, BravyiSmolin3()), 2),
        *_conjugated_weyl_sector_tower(),
        lift(_moved_phase_base(3e-10), 2, loose),
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
            assert ch.name == "base_case_verdict" and not ch.passed
            reasons += [
                n for n in cert.notes
                if n == "base certified recursively: Failed"
                or n.endswith("base fails the axioms (condition (i) ok: False)")
            ]
    assert reasons == [
        "base certified recursively: Failed",
        "extracted base fails the axioms (condition (i) ok: False)",
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
