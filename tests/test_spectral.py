import gc
import json
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umeb import spectral
from umeb.constructions import (
    BravyiSmolin3,
    External,
    Lift,
    UMEBCandidate,
    _kron_rows,
    as_lift,
    bravyi_smolin_3,
    left_factors,
    lift,
    umeb_6,
    weyl,
    weyl_family,
)
from umeb.linalg import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    root_of_unity,
    unitarity_residual,
)
from umeb.spectral import (
    ElementSpectrum,
    Finite,
    NoOrderUpTo,
    ProvablyInfinite,
    compare_signatures,
    eigenphases,
    niven_classify,
    order_up_to,
    sector_summaries,
    sector_table,
    signature,
)
from umeb.spectral import PHASE_BUCKET, _bucket, _cls_key, _element_phases
from umeb.verification import structural_certify, verify_axioms

THETA = float(np.arccos(-7.0 / 8.0))


def haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# eigenphases
# ---------------------------------------------------------------------------

def test_eigenphases_identity():
    np.testing.assert_array_equal(eigenphases(np.eye(3)), np.zeros(3))


def test_eigenphases_quarter_turns():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(eigenphases(rot), [np.pi / 2, 3 * np.pi / 2], atol=1e-12)


def test_eigenphases_of_dimension_3_family():
    for u in bravyi_smolin_3().elements:
        np.testing.assert_allclose(eigenphases(u), [0.0, 0.0, THETA], atol=1e-12)


def test_eigenphases_rejects_non_unitary():
    with pytest.raises(ValueError):
        eigenphases(2.0 * np.eye(2))


def test_eigenphases_of_a_stack_equal_per_matrix_calls_bit_for_bit():
    rng = np.random.default_rng(8)
    for stack in (
        np.stack([haar_unitary(5, rng) for _ in range(10)]),
        lift(bravyi_smolin_3(), 4).matrices,
    ):
        phases = eigenphases(stack)
        assert phases.shape == stack.shape[:2]
        for row, u in zip(phases, stack):
            assert row.tobytes() == eigenphases(u).tobytes()
    assert eigenphases(np.empty((0, 3, 3))).shape == (0, 3)


def test_eigenphases_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        eigenphases(np.ones((2, 3)))


def test_eigenphases_sorted_in_range():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        phases = eigenphases(haar_unitary(d, rng))
        assert phases.shape == (d,)
        assert np.all(phases >= 0.0) and np.all(phases < 2 * np.pi)
        assert np.all(np.diff(phases) >= 0.0)


# ---------------------------------------------------------------------------
# order_up_to and niven_classify
# ---------------------------------------------------------------------------

def test_order_up_to_basic():
    assert order_up_to(np.pi, 10) == Finite(2)
    assert order_up_to(2 * np.pi / 3, 10) == Finite(3)
    assert order_up_to(0.0, 10) == Finite(1)
    assert order_up_to(THETA, 1000) == NoOrderUpTo(1000)


def test_order_up_to_consistency_across_bounds():
    rng = np.random.default_rng(9)
    for _ in range(30):
        den = int(rng.integers(1, 20))
        num = int(rng.integers(0, den))
        phase = 2 * np.pi * num / den
        first = order_up_to(phase, den)
        assert isinstance(first, Finite)
        for bound in (den + 1, 3 * den, 144):
            assert order_up_to(phase, bound) == first


def test_order_up_to_validates_input():
    with pytest.raises(ValueError):
        order_up_to(1.0, 0)


def test_niven_classification():
    assert niven_classify(Fraction(-7, 8)) == ProvablyInfinite(Fraction(-7, 8))
    assert niven_classify(Fraction(3, 5)) == ProvablyInfinite(Fraction(3, 5))
    assert niven_classify(Fraction(1, 2)) == Finite(6)
    assert niven_classify(Fraction(-1, 2)) == Finite(3)
    assert niven_classify(0) == Finite(4)
    assert niven_classify(1) == Finite(1)
    assert niven_classify(-1) == Finite(2)
    with pytest.raises(ValueError):
        niven_classify(Fraction(9, 8))


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def test_signature_of_weyl_family_has_orders_dividing_3():
    sig = signature(weyl_family(3), 24)
    for record in sig.records:
        for cls in record.classifications:
            assert isinstance(cls, Finite)
            assert 3 % cls.order == 0
    assert sig.summary.provably_infinite_count == 0
    assert sig.summary.no_order_count == 0


def test_signature_of_single_identity():
    c = UMEBCandidate(4, (np.eye(4),), External("identity"))
    sig = signature(c, 10)
    assert len(sig.records) == 1
    assert sig.records[0].classifications == (Finite(1),) * 4


def test_signature_uses_exact_cosine_metadata():
    sig = signature(bravyi_smolin_3(), 144)
    assert sig.summary.provably_infinite_count == 6
    assert sig.summary.no_order_count == 0
    for record in sig.records:
        kinds = [type(cls) for cls in record.classifications]
        assert kinds.count(ProvablyInfinite) == 1


def test_signature_without_metadata_reports_unresolved():
    c = bravyi_smolin_3()
    stripped = UMEBCandidate(3, c.elements, External("no metadata"))
    sig = signature(stripped, 144)
    assert sig.summary.provably_infinite_count == 0
    assert sig.summary.no_order_count == 6


def test_signature_invariance_under_conjugation_and_permutation():
    rng = np.random.default_rng(11)
    c = bravyi_smolin_3()
    base_sig = signature(c, 144)
    for _ in range(5):
        v = haar_unitary(3, rng)
        perm = rng.permutation(len(c.elements))
        twisted = UMEBCandidate(
            3,
            tuple(v @ c.elements[p] @ v.conj().T for p in perm),
            External("twisted"),
            c.exact_cos_theta,
        )
        assert signature(twisted, 144).canonical_key() == base_sig.canonical_key()


def test_signature_permutation_matches_canonically():
    c = bravyi_smolin_3()
    rng = np.random.default_rng(2)
    perm = rng.permutation(6)
    shuffled = UMEBCandidate(
        3, tuple(c.elements[p] for p in perm), c.provenance, c.exact_cos_theta
    )
    a, b = signature(c, 144), signature(shuffled, 144)
    # canonical keys are bit-identical; raw phases keep per-element float
    # noise below the bucket width, so they only match to tolerance
    assert a.canonical_key() == b.canonical_key()
    for ra, rb in zip(a.records, b.records):
        assert ra.canonical_key() == rb.canonical_key()
        assert np.abs(np.array(ra.phases) - np.array(rb.phases)).max() < 1e-12


def test_phase_bucketing_absorbs_wraparound_noise():
    eps = 1e-13
    a = UMEBCandidate(2, (np.diag([np.exp(1j * eps), 1.0]),), External("a"))
    b = UMEBCandidate(2, (np.diag([np.exp(-1j * eps), 1.0]),), External("b"))
    assert compare_signatures(signature(a, 10), signature(b, 10)) == "NotDistinguished"


def test_compare_signatures():
    c = bravyi_smolin_3()
    sig = signature(c, 144)
    assert compare_signatures(sig, sig) == "NotDistinguished"
    w = weyl_family(3)
    subset = UMEBCandidate(3, w.elements[:6], External("weyl subset"))
    assert compare_signatures(sig, signature(subset, 144)) == "Distinguished"
    # different shapes are trivially distinguished
    assert compare_signatures(sig, signature(weyl_family(2), 144)) == "Distinguished"


# ---------------------------------------------------------------------------
# sector summaries
# ---------------------------------------------------------------------------

def test_sector_summaries_for_lifted_candidate():
    rows = sector_summaries(lift(bravyi_smolin_3(), 2), 144)
    assert [r.name for r in rows] == ["weyl", "base"]
    weyl_row, base_row = rows
    assert weyl_row.element_count == 18
    assert weyl_row.provably_infinite_count == 0
    assert weyl_row.no_order_count == 0
    assert base_row.element_count == 12
    assert base_row.elements_with_infinite == 12


def test_sector_summaries_single_sector_otherwise():
    rows = sector_summaries(weyl_family(3), 24)
    assert [r.name for r in rows] == ["all"]
    assert rows[0].element_count == 9


def test_sector_table_renders_aligned_columns():
    rows = sector_summaries(lift(bravyi_smolin_3(), 2), 144)
    table = sector_table(rows)
    lines = table.splitlines()
    assert lines[0].startswith("sector")
    assert "O_min" in lines[0] and "O_max" in lines[0]
    assert len(lines) == 4
    assert lines[2].startswith("weyl")
    assert lines[3].startswith("base")


def test_sector_summaries_are_the_signature_sectors():
    for c in (lift(bravyi_smolin_3(), 2), weyl_family(3), umeb_6()):
        for bound in (7, 144):
            assert sector_summaries(c, bound) == signature(c, bound).sectors


# ---------------------------------------------------------------------------
# the one-pass signature against the per-element path
# ---------------------------------------------------------------------------

def _reference_order(phase, bound):
    """Frozen single-phase order scan: the first n <= bound that returns to 1."""
    n = np.arange(1, bound + 1)
    r = np.mod(n * float(phase), 2 * np.pi)
    hits = np.flatnonzero(np.minimum(r, 2 * np.pi - r) < DEFAULT_TOLERANCES.phase_tol)
    return Finite(int(n[hits[0]])) if hits.size else NoOrderUpTo(bound)


def _reference_classify(phase, bound, exact_cos):
    """Frozen per-phase classification, with the rational-cosine promotion."""
    cls = _reference_order(phase, bound)
    if isinstance(cls, Finite) or exact_cos is None:
        return cls
    if not isinstance(niven_classify(exact_cos), ProvablyInfinite):
        return cls
    theta = float(np.arccos(float(exact_cos)))
    for shifted in ((phase - theta) % (2 * np.pi), (phase + theta) % (2 * np.pi)):
        if isinstance(_reference_order(shifted, bound), Finite):
            return ProvablyInfinite(Fraction(exact_cos))
    return cls


def _reference_spectrum(phases, bound, exact_cos):
    """One element's record from its own phases, each classified by its own scans."""
    entries = []
    for phase in phases:
        cls = _reference_classify(float(phase), bound, exact_cos)
        entries.append((_bucket(float(phase)), cls, float(phase)))
    entries.sort(key=lambda e: (e[0], _cls_key(e[1])))
    return ElementSpectrum(
        phases=tuple(e[2] for e in entries),
        phase_ticks=tuple(e[0] for e in entries),
        classifications=tuple(e[1] for e in entries),
    )


def _reference_records(c, bound, rows=None):
    """Frozen per-element path: each matrix's eigenphases (or the given phase
    ``rows``, one per element), with none of the signature's batched helpers;
    the records sorted by canonical key."""
    if rows is None:
        rows = [eigenphases(u) for u in c.elements]
    records = [_reference_spectrum(row, bound, c.exact_cos_theta) for row in rows]
    records.sort(key=lambda r: r.canonical_key())
    return records


def _haar_set(cos_theta):
    rng = np.random.default_rng(17)
    mats = tuple(haar_unitary(4, rng) for _ in range(6))
    return UMEBCandidate(4, mats, External("haar"), cos_theta)


def _root_of_unity_diagonals():
    mats = tuple(np.diag([root_of_unity(k * j, 6) for j in range(4)]) for k in range(12))
    return UMEBCandidate(4, mats, External("repeated phases"))


def _wraparound_pair():
    eps = 1e-13
    mats = (np.diag([np.exp(1j * eps), 1.0]), np.diag([np.exp(-1j * eps), 1.0]))
    return UMEBCandidate(2, mats, External("wraparound"))


REFERENCE_SETS = {
    "bs3": bravyi_smolin_3,
    "umeb6": umeb_6,
    "lift_bs3_2": lambda: lift(bravyi_smolin_3(), 2),
    "lift_bs3_3": lambda: lift(bravyi_smolin_3(), 3),
    "lift_umeb6_2": lambda: lift(umeb_6(), 2),
    "bs3_no_cosine": lambda: UMEBCandidate(3, bravyi_smolin_3().elements, External("no cos")),
    "haar_irrational_cosine": lambda: _haar_set(Fraction(-7, 8)),
    "haar_rational_cosine": lambda: _haar_set(Fraction(1, 2)),
    "root_of_unity_diagonals": _root_of_unity_diagonals,
    "wraparound_pair": _wraparound_pair,
}


# Sets laid out as lifts take their phases from factor sums, which match a
# per-element eigensolve to rounding; a phase of 0 may read 2*pi - ulp there.
LIFT_LAID_OUT = {"umeb6", "lift_bs3_2", "lift_bs3_3", "lift_umeb6_2"}


def _circular_distance(a, b) -> float:
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return float(np.max(np.minimum(d, 2 * np.pi - d), initial=0.0))


@pytest.mark.parametrize("bound", [1, 7, 144])
@pytest.mark.parametrize("name", sorted(REFERENCE_SETS))
def test_signature_matches_per_element_reference_bit_for_bit(name, bound):
    c = REFERENCE_SETS[name]()
    sig = signature(c, bound)
    ref = _reference_records(c, bound)
    assert len(sig.records) == len(ref) == len(c)
    for got, want in zip(sig.records, ref):
        if name in LIFT_LAID_OUT:
            assert _circular_distance(got.phases, want.phases) < 1e-12
        else:
            assert np.array(got.phases).tobytes() == np.array(want.phases).tobytes()
        assert got.phase_ticks == want.phase_ticks
        assert got.classifications == want.classifications
    assert sig.canonical_key() == (c.dim, len(c), tuple(r.canonical_key() for r in ref))


# ---------------------------------------------------------------------------
# factor spectra of lift-laid-out sets against the full-stack path
# ---------------------------------------------------------------------------

def _relabel(c):
    """The same stored matrices as an External set: the full-stack path."""
    return UMEBCandidate(c.dim, c.matrices, External("relabelled"), c.exact_cos_theta)


def _tower():
    return lift(lift(bravyi_smolin_3(), 2), 2)


LIFTS = {
    **{f"bs3_q{q}": (lambda q=q: lift(bravyi_smolin_3(), q)) for q in range(1, 9)},
    **{f"umeb6_q{q}": (lambda q=q: lift(umeb_6(), q)) for q in (2, 3, 4)},
    "umeb6": umeb_6,
    "tower_2_2": _tower,
}


def _assert_same_up_to_raw_phases(a, b):
    assert a.canonical_key() == b.canonical_key()
    assert a.summary == b.summary
    for ra, rb in zip(a.records, b.records, strict=True):
        assert ra.phase_ticks == rb.phase_ticks
        assert ra.classifications == rb.classifications
        assert _circular_distance(ra.phases, rb.phases) < 1e-12


def _assert_bit_identical(a, b):
    assert a.canonical_key() == b.canonical_key()
    assert a.summary == b.summary
    for ra, rb in zip(a.records, b.records, strict=True):
        assert np.array(ra.phases).tobytes() == np.array(rb.phases).tobytes()
        assert ra.phase_ticks == rb.phase_ticks
        assert ra.classifications == rb.classifications


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_lift_signature_matches_the_relabelled_full_stack_path(name):
    c = LIFTS[name]()
    assert as_lift(c.provenance).split(c.matrices) is not None
    _assert_same_up_to_raw_phases(signature(c), signature(_relabel(c)))


@pytest.mark.parametrize("name", ["bs3_q2", "bs3_q5", "bs3_q8", "umeb6", "umeb6_q3", "tower_2_2"])
def test_lift_signature_sectors_match_the_full_stack_path(name, monkeypatch):
    c = LIFTS[name]()
    factored = {bound: signature(c, bound) for bound in (7, 144)}
    # No split: the full-stack path under the same provenance and sectors.
    # A fresh candidate, since c holds the split it has already made.
    monkeypatch.setattr(Lift, "split", lambda self, matrices: None)
    unsplit = UMEBCandidate(c.dim, c.matrices, c.provenance, c.exact_cos_theta)
    assert unsplit.factored.self_lift
    for bound, sig in factored.items():
        full = signature(unsplit, bound)
        _assert_same_up_to_raw_phases(sig, full)
        assert sig.sectors == full.sectors
        assert [r.name for r in sig.sectors] == ["weyl", "base"]


def _eigensolve_shapes(monkeypatch):
    """Shapes of the arrays the spectral layer eigensolves, by every path."""
    shapes = []
    real = spectral._phases

    def counted(m):
        shapes.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(spectral, "_phases", counted)
    return shapes


@pytest.mark.parametrize("q", range(1, 9))
def test_left_phases_are_held_while_their_label_lives(q):
    spectral._LEFT_PHASES.clear()
    p = Lift(BravyiSmolin3(), 3, 6, q)
    phases = spectral._left_phases(p)
    assert spectral._left_phases(Lift(BravyiSmolin3(), 3, 6, q)) is phases
    assert not phases.flags.writeable
    assert phases.tobytes() == eigenphases(left_factors(q)).tobytes()
    del p
    gc.collect()
    assert len(spectral._LEFT_PHASES) == 0


def test_lift_spectra_come_from_the_factor_stacks(monkeypatch):
    # The left factors once while a set of the layout lives, then the
    # distinct right factors once per set: 552 right factors of
    # lift(bs3, 8) are 15 distinct matrices, the tower's 132 are 65.
    spectral._LEFT_PHASES.clear()
    shapes = _eigensolve_shapes(monkeypatch)
    c = lift(bravyi_smolin_3(), 8)
    signature(c)
    assert shapes == [(64, 8, 8), (15, 3, 3)]
    shapes.clear()
    signature(c)
    assert shapes == []  # its signature is held
    again = lift(bravyi_smolin_3(), 8)
    signature(again)
    assert shapes == [(15, 3, 3)]
    del c, again
    gc.collect()
    shapes.clear()
    signature(lift(bravyi_smolin_3(), 8))
    assert shapes == [(64, 8, 8), (15, 3, 3)]
    shapes.clear()
    signature(_tower())
    assert shapes == [(4, 2, 2), (65, 6, 6)]
    shapes.clear()
    signature(_relabel(umeb_6()))
    assert shapes == [(1, 1, 1), (30, 6, 6)]  # its own q = 1 lift


def test_a_second_signature_is_the_held_one(monkeypatch):
    c = lift(bravyi_smolin_3(), 4)
    sig = signature(c, 144)
    shapes = _eigensolve_shapes(monkeypatch)
    assert signature(c, 144) is sig
    assert signature(c) is sig
    assert shapes == []
    assert sector_summaries(c, 144) is sig.sectors
    assert signature(c, 12) is not sig and signature(c, 12).bound == 12


def test_each_bound_type_is_held_as_a_fresh_call_gives_it():
    c = lift(bravyi_smolin_3(), 2)
    signature(c, 144)
    by_float = signature(c, 144.0)
    assert signature(c, 144.0) is by_float
    assert repr(by_float) == repr(signature(lift(bravyi_smolin_3(), 2), 144.0))
    assert repr(signature(c, 144)) != repr(by_float)  # bound=144 against bound=144.0


def test_a_signature_that_raises_is_not_held():
    c = _scaled_lift()
    for bound in (144, 144, 12):
        with pytest.raises(ValueError, match="not unitary"):
            signature(c, bound)
        with pytest.raises(ValueError, match="not unitary"):
            sector_summaries(c, bound)
    assert c not in spectral._SIGNATURES


def test_a_held_signature_is_freed_with_its_set():
    c = lift(bravyi_smolin_3(), 4)
    signature(c)
    signature(c, 12)
    gc.collect()  # so that the collection below frees only c
    held = len(spectral._SIGNATURES)
    assert c in spectral._SIGNATURES
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None  # no held signature refers to its set
    assert len(spectral._SIGNATURES) == held - 1


def test_a_fresh_copy_of_a_set_is_signed_alike():
    c = lift(bravyi_smolin_3(), 8)
    copy = UMEBCandidate(c.dim, c.matrices, c.provenance, c.exact_cos_theta)
    a, b = signature(c), signature(copy)
    assert a is not b and signature(copy) is b
    assert repr(a.to_dict()) == repr(b.to_dict())
    assert a.key == b.key


def _circle_rows(phases):
    # Wrap at 1 rad, where no phase of these sets lies, so the order is stable.
    return np.sort(np.mod(phases + 1.0, 2 * np.pi), axis=-1)


def _near_bucket_edge(phases, margin=1e-12):
    ticks = np.asarray(phases) / PHASE_BUCKET
    return bool(np.any(np.abs(ticks - np.floor(ticks) - 0.5) * PHASE_BUCKET < margin))


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 4),
    q=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 16),
)
def test_lifts_of_random_unitary_bases_match_the_full_stack_path_property(d, q, seed, count):
    # A W_nm B over some Weyl labels: trace-orthogonal unitaries with random spectra.
    rng = np.random.default_rng(seed)
    a, b = haar_unitary(d, rng), haar_unitary(d, rng)
    labels = rng.permutation(d * d)[:min(count, d * d)]
    base = UMEBCandidate(d, [a @ weyl(d, k // d, k % d) @ b for k in labels], External("drawn"))
    c = lift(base, q)
    assert c.provenance.split(c.matrices) is not None
    full = eigenphases(c.matrices)
    np.testing.assert_allclose(_circle_rows(_element_phases(c)),
                               _circle_rows(full), rtol=0, atol=1e-12)
    sig, ref = signature(c, 24), signature(_relabel(c), 24)
    assert sig.summary == ref.summary
    # Phases within rounding of a bucket edge may tick either way.
    if not _near_bucket_edge(full):
        _assert_same_up_to_raw_phases(sig, ref)


def _nudged(c, k, i, j):
    m = c.matrices.copy()
    x = m[k, i, j]
    m[k, i, j] = complex(np.nextafter(x.real, np.inf), x.imag)
    return UMEBCandidate(c.dim, m, c.provenance, c.exact_cos_theta)


def _weyl_block_swapped(c):
    """Element 0 of lift(bs3, 3) with its block in row 1 taken from W_01, not W_00."""
    m = c.matrices.copy()
    blocks = m.reshape(len(m), 3, 3, 3, 3)
    col = int(np.flatnonzero(np.abs(blocks[0, 1, 0, :, 0]) > 0)[0])
    blocks[0, 1, :, col, :] = blocks[0, 1, 0, col, 0] * weyl(3, 0, 1)
    return UMEBCandidate(c.dim, m, c.provenance, c.exact_cos_theta)


TAMPERED = {
    "nonzero_weyl_entry": lambda: _nudged(lift(bravyi_smolin_3(), 3), 0, 0, 3),
    "zero_weyl_entry": lambda: _nudged(lift(bravyi_smolin_3(), 3), 5, 0, 0),
    "base_entry": lambda: _nudged(umeb_6(), 29, 4, 4),
    "tower_entry": lambda: _nudged(_tower(), 100, 11, 11),
    "weyl_block_swapped": lambda: _weyl_block_swapped(lift(bravyi_smolin_3(), 3)),
}


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_tampered_lifts_take_the_full_stack_path_bit_for_bit(name, monkeypatch):
    c = TAMPERED[name]()
    assert as_lift(c.provenance).split(c.matrices) is None
    shapes = _eigensolve_shapes(monkeypatch)
    sig = signature(c)
    # The one left factor [1] of its own q = 1 lift, and its stack.
    assert shapes == [(1, 1, 1), c.matrices.shape]
    _assert_bit_identical(sig, signature(_relabel(c)))
    assert [r.name for r in sig.sectors] == ["weyl", "base"]


def _scaled_lift():
    """A q = 2 lift whose right factors, all scaled by 1.5, split its stack."""
    layout = Lift(External("scaled"), 3, 6, 2)
    right = 1.5 * np.concatenate([np.tile(weyl_family(3).matrices, (2, 1, 1)),
                                  np.tile(bravyi_smolin_3().matrices, (2, 1, 1))])
    return UMEBCandidate(6, _kron_rows(left_factors(layout.q)[layout.factor_index()], right), layout)


def test_non_unitary_lift_raises_the_full_stack_error():
    c = _scaled_lift()
    assert c.provenance.split(c.matrices) is not None
    with pytest.raises(ValueError) as want:
        eigenphases(c.matrices)
    for cand in (c, _relabel(c)):
        with pytest.raises(ValueError) as got:
            signature(cand)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("matrix is not unitary")


def _lift_at_the_threshold(stored_passes: bool):
    """An exact lift layout on the unitarity threshold: its stored matrices pass
    it as ``stored_passes`` says, and its right factors, checked on their own,
    the other way, each missing by a rounding."""
    rng = np.random.default_rng(0)
    tol = DEFAULT_TOLERANCES.unitarity_tol
    layout = Lift(External("threshold"), 2, 1, 4)
    left = left_factors(layout.q)[layout.factor_index()]
    for _ in range(200):
        u, e = haar_unitary(2, rng), rng.standard_normal((2, 2)) + 0j
        lo, hi = 0.0, 1e-9  # bisect the perturbation onto the threshold
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if unitarity_residual(u + mid * e) >= tol else (mid, hi)
        y = u + (hi if stored_passes else lo) * e
        m = _kron_rows(left, np.concatenate([np.tile(weyl_family(2).matrices, (12, 1, 1)), [y] * 4]))
        if (unitarity_residual(m) < tol) == stored_passes:
            return UMEBCandidate(8, m, layout)
    raise AssertionError("no threshold case found")


def test_right_factors_past_the_threshold_take_their_phases_from_the_factors(monkeypatch):
    # The eigenvalues of F (x) Y are products of F's and Y's whether or not Y
    # passes the threshold on its own: the stack is never eigensolved.
    c = _lift_at_the_threshold(stored_passes=True)
    right = c.provenance.split(c.matrices)
    assert unitarity_residual(right) >= DEFAULT_TOLERANCES.unitarity_tol
    spectral._left_phases(c.provenance)  # held for its label, as an earlier signature leaves it
    shapes = _eigensolve_shapes(monkeypatch)
    sig = signature(c)
    assert shapes == [(len(c.factored.distinct), 2, 2)]
    _assert_same_up_to_raw_phases(sig, signature(_relabel(c)))


def test_stored_matrices_past_the_threshold_raise_the_full_stack_error():
    c = _lift_at_the_threshold(stored_passes=False)
    right = c.provenance.split(c.matrices)
    assert unitarity_residual(right) < DEFAULT_TOLERANCES.unitarity_tol
    with pytest.raises(ValueError) as want:
        eigenphases(c.matrices)
    with pytest.raises(ValueError) as got:
        signature(c)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("stored_passes", [True, False])
def test_lifts_at_the_threshold_are_judged_on_their_stored_matrices(stored_passes):
    # The tile residual lies within a rounding of the threshold, so every
    # verdict is the stored stack's, and lift names an element that fails
    # on its own.
    c = _lift_at_the_threshold(stored_passes)
    stored = unitarity_residual(c.matrices)
    assert c.unitarity == (stored, "stack")
    report = verify_axioms(c)
    assert (report.max_unitarity_residual, report.unitarity_from) == (stored, "stack")
    assert report.passed == stored_passes
    if stored_passes:
        lift(c, 2)  # accepted, as its stored matrices pass
    else:
        with pytest.raises(ValueError, match=r"^base element (\d+) is not unitary") as err:
            lift(c, 2)
        i = int(err.value.args[0].split()[2])
        assert unitarity_residual(c.elements[i]) >= DEFAULT_TOLERANCES.unitarity_tol


def test_compare_signatures_reads_the_keys_signature_stored(monkeypatch):
    a, b = signature(lift(bravyi_smolin_3(), 8)), signature(lift(umeb_6(), 4))
    for sig in (a, b):
        records = tuple(r.canonical_key() for r in sig.records)
        assert sig.canonical_key() == (sig.dim, sig.element_count, records)
    calls = []
    real = spectral._cls_key
    monkeypatch.setattr(spectral, "_cls_key", lambda c: calls.append(c) or real(c))
    assert compare_signatures(a, b) == "Distinguished"
    assert compare_signatures(a, a) == "NotDistinguished"
    assert calls == []


def test_compare_against_relabelled_and_other_lifts():
    c = lift(bravyi_smolin_3(), 8)
    assert compare_signatures(signature(c), signature(_relabel(c))) == "NotDistinguished"
    a, b = lift(bravyi_smolin_3(), 4), lift(umeb_6(), 2)
    assert (a.dim, len(a)) == (b.dim, len(b))
    assert compare_signatures(signature(a), signature(b)) == "Distinguished"


# ---------------------------------------------------------------------------
# each distinct factor, phase and row once, against the per-element reference
# ---------------------------------------------------------------------------

def _reference_element_phases(c):
    """Each element's phases from eigensolves of its own: of its two factors,
    one at a time, when its lift layout splits it into unitary factors, else
    of the element."""
    layout = as_lift(c.provenance)
    right = None if layout is None else layout.split(c.matrices)
    if right is None or unitarity_residual(right) >= DEFAULT_TOLERANCES.unitarity_tol:
        return [eigenphases(u) for u in c.elements]
    left = left_factors(layout.q)
    return [
        np.sort(np.mod(eigenphases(left[i])[:, None] + eigenphases(y)[None, :], 2 * np.pi).ravel())
        for i, y in zip(layout.factor_index(), right)
    ]


def _reference_stats(spectra):
    cls = [x for r in spectra for x in r.classifications]
    finite = [x.order for x in cls if isinstance(x, Finite)]
    return {
        "min_finite_order": min(finite, default=None),
        "max_finite_order": max(finite, default=None),
        "provably_infinite_count": sum(isinstance(x, ProvablyInfinite) for x in cls),
        "no_order_count": sum(isinstance(x, NoOrderUpTo) for x in cls),
    }


def _reference_signature(c, bound):
    """Records, key and to_dict() of a per-element pass over ``c``."""
    rows = _reference_element_phases(c)
    spectra = [_reference_spectrum(row, bound, c.exact_cos_theta) for row in rows]
    records = _reference_records(c, bound, rows)
    layout = as_lift(c.provenance)
    groups = [("all", spectra)]
    if layout is not None and layout.fits(c.matrices):
        groups = [("weyl", spectra[:layout.weyl_count]), ("base", spectra[layout.weyl_count:])]
    sectors = [
        {"name": name, "element_count": len(group), **_reference_stats(group),
         "elements_with_infinite": sum(
             any(isinstance(x, ProvablyInfinite) for x in r.classifications) for r in group)}
        for name, group in groups
    ]
    key = (c.dim, len(c), tuple(r.canonical_key() for r in records))
    doc = {"dim": c.dim, "element_count": len(c), "bound": bound,
           "summary": _reference_stats(spectra), "sectors": sectors,
           "records": [r.to_dict() for r in records]}
    return tuple(records), key, doc


def _permuted(c, provenance):
    order = np.random.default_rng(5).permutation(len(c))
    return UMEBCandidate(c.dim, c.matrices[order], provenance, c.exact_cos_theta)


def _with_duplicates(c):
    m = np.concatenate([c.matrices, c.matrices[3:9], c.matrices[-2:]])
    return UMEBCandidate(c.dim, m, External("duplicated"), c.exact_cos_theta)


def _conjugated(c):
    """The complex conjugate set: each phase theta + 2*pi*k/n becomes its
    negative, which the promotion reaches by the other shift."""
    return UMEBCandidate(c.dim, c.matrices.conj(), External("conjugated"), c.exact_cos_theta)


def _one_ulp_apart():
    """lift(bs3, 2) with the right factor of its first base element one ulp
    off, in an entry that moves that factor's eigenphases: still exactly the
    products of its factors, so it takes the factor path with 16 distinct
    right factors, two of them one ulp apart."""
    c = lift(bravyi_smolin_3(), 2)
    layout = c.provenance
    right = layout.split(c.matrices).copy()
    y = right[layout.weyl_count]
    y[0, 0] = complex(np.nextafter(y[0, 0].real, np.inf), y[0, 0].imag)
    return UMEBCandidate(c.dim, layout.products(right), layout, c.exact_cos_theta)


DISTINCT = {
    **{f"bs3_q{q}": (lambda q=q: lift(bravyi_smolin_3(), q)) for q in (2, 4, 8)},
    **{f"umeb6_q{q}": (lambda q=q: lift(umeb_6(), q)) for q in (1, 2, 3, 4)},
    "umeb6": umeb_6,
    "tower_2_2": _tower,
    "relabelled_bs3_q4": lambda: _relabel(lift(bravyi_smolin_3(), 4)),
    "permuted_external_bs3_q4": lambda: _permuted(lift(bravyi_smolin_3(), 4), External("perm")),
    "permuted_under_its_lift": lambda: _permuted(lift(bravyi_smolin_3(), 2), Lift(BravyiSmolin3(), 3, 6, 2)),
    "duplicated_bs3_q2": lambda: _with_duplicates(lift(bravyi_smolin_3(), 2)),
    "duplicated_weyl": lambda: _with_duplicates(weyl_family(4)),
    "conjugated_bs3_q4": lambda: _conjugated(lift(bravyi_smolin_3(), 4)),
    "one_ulp_apart": _one_ulp_apart,
}


@pytest.mark.parametrize("bound", [1, 7, 144])
@pytest.mark.parametrize("name", sorted({**REFERENCE_SETS, **DISTINCT}))
def test_signature_equals_the_per_element_reference(name, bound):
    c = {**REFERENCE_SETS, **DISTINCT}[name]()
    sig = signature(c, bound)
    records, key, doc = _reference_signature(c, bound)
    assert sig.records == records
    assert sig.key == key
    assert json.dumps(sig.to_dict()) == json.dumps(doc)


def test_signature_at_bound_7_promotes_and_leaves_phases_unresolved():
    for name in ("bs3_q8", "umeb6_q4", "relabelled_bs3_q4", "conjugated_bs3_q4"):
        summary = signature(DISTINCT[name](), 7).summary
        assert summary.provably_infinite_count > 0 and summary.no_order_count > 0


def test_right_factors_one_ulp_apart_are_solved_apart(monkeypatch):
    c, plain = _one_ulp_apart(), lift(bravyi_smolin_3(), 2)
    shapes = _eigensolve_shapes(monkeypatch)
    a, b = signature(c), signature(plain)
    assert [s for s in shapes if s[1:] == (3, 3)] == [(16, 3, 3), (15, 3, 3)]
    assert json.dumps(a.to_dict()) != json.dumps(b.to_dict())


def test_elements_with_one_phase_row_share_one_record():
    sig = signature(lift(bravyi_smolin_3(), 8))
    assert len(sig.records) == 552
    distinct = {id(r) for r in sig.records}
    assert len(distinct) == len({np.array(r.phases).tobytes() for r in sig.records}) < 552


def test_signature_checks_unitarity_on_the_held_residual(monkeypatch):
    calls = []
    real = spectral.unitarity_residual
    monkeypatch.setattr(spectral, "unitarity_residual", lambda m: calls.append(np.shape(m)) or real(m))
    stack = _relabel(lift(bravyi_smolin_3(), 4))
    stack.unitarity_residual  # held once, as verify_axioms leaves it
    signature(stack)
    # Only the one left factor [1] of its own q = 1 lift, which eigenphases
    # checks as it checks any input.
    assert calls == [(1, 1, 1)]
    c = lift(bravyi_smolin_3(), 4)
    spectral._left_phases(c.provenance)  # held for its label, as an earlier signature leaves it
    calls.clear()
    signature(c)
    assert calls == []  # no right factor is checked apart from the held residual


# ---------------------------------------------------------------------------
# the batched order scan
# ---------------------------------------------------------------------------

_TOL = DEFAULT_TOLERANCES.phase_tol
_roots = st.builds(lambda n, k: 2 * np.pi * (k % n) / n, st.integers(1, 250), st.integers(0, 250))
_near_roots = st.builds(
    lambda root, shift: float(np.mod(root + shift, 2 * np.pi)),
    _roots, st.floats(-2 * _TOL, 2 * _TOL),
)
_anywhere = st.floats(0.0, 2 * np.pi, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(
    phases=st.lists(st.one_of(_roots, _near_roots, _anywhere), max_size=40),
    bound=st.integers(1, 200),
)
def test_order_up_to_of_an_array_is_each_phase_alone_property(phases, bound):
    labels = order_up_to(np.array(phases, dtype=float), bound)
    assert labels == tuple(order_up_to(p, bound) for p in phases)
    assert labels == tuple(_reference_order(p, bound) for p in phases)


def test_order_up_to_scans_long_arrays_in_blocks(monkeypatch):
    phases = np.concatenate([2 * np.pi * np.arange(40) / 40, [THETA, -THETA, np.pi]])
    whole = order_up_to(phases, 50)
    monkeypatch.setattr(spectral, "_SCAN_ENTRIES", 120)  # two phases per block at bound 50
    assert order_up_to(phases, 50) == whole
    assert whole == tuple(_reference_order(p, 50) for p in phases)
    assert order_up_to(np.empty(0), 5) == ()
    assert order_up_to(np.float64(np.pi), 4) == Finite(2)


# ---------------------------------------------------------------------------
# one owner of the lift's layout
# ---------------------------------------------------------------------------

def _drawn_base(d, seed, count):
    # As in the full-stack property above: A W_nm B over some Weyl labels.
    rng = np.random.default_rng(seed)
    a, b = haar_unitary(d, rng), haar_unitary(d, rng)
    labels = rng.permutation(d * d)[:min(count, d * d)]
    return UMEBCandidate(d, [a @ weyl(d, k // d, k % d) @ b for k in labels], External("drawn"))


def _unsigned_zero_bits(a):
    return (a + 0.0).tobytes()  # -0 + 0 is +0; every other value is kept


def _fits_by_every_reader(c):
    """Sector names, and whether certify's shape check passed and split succeeded."""
    names = [r.name for r in signature(c, 24).sectors]
    notes = structural_certify(c).notes
    shape_ok = not any("does not match the declared lift" in note for note in notes)
    return names, shape_ok and as_lift(c.provenance).split(c.matrices) is not None


def test_a_stack_that_does_not_fit_its_declared_lift_is_one_sector():
    c = lift(bravyi_smolin_3(), 2)
    short = UMEBCandidate(6, c.matrices[:-1], c.provenance, c.exact_cos_theta)
    weyl_20 = UMEBCandidate(6, weyl_family(6).matrices[:20], Lift(BravyiSmolin3(), 3, 6, 2))
    for bad in (short, weyl_20):
        assert structural_certify(bad).overall == "Failed"
        assert _fits_by_every_reader(bad) == (["all"], False)
        assert [r.element_count for r in signature(bad).sectors] == [len(bad)]
    assert _fits_by_every_reader(c) == (["weyl", "base"], True)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 4),
    q=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 16),
    k=st.integers(0, 3),
    append=st.booleans(),
)
def test_sectors_split_exactly_when_the_stack_fits_its_lift_property(
    d, q, seed, count, k, append
):
    c = lift(_drawn_base(d, seed, count), q)
    if append:
        rng = np.random.default_rng(seed)
        extra = np.reshape([haar_unitary(c.dim, rng) for _ in range(k)], (k, c.dim, c.dim))
        m = np.concatenate([c.matrices, extra])
    else:
        m = c.matrices[:len(c) - min(k, len(c) - 1)]
    names, fits = _fits_by_every_reader(UMEBCandidate(c.dim, m, c.provenance))
    assert (names == ["weyl", "base"]) == fits
    assert fits == (len(m) == len(c))


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 4),
    q=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 16),
)
def test_lift_reads_back_the_factors_it_builds_from_property(d, q, seed, count):
    base = _drawn_base(d, seed, count)
    m = lift(base, q).matrices
    layout = Lift(base.provenance, d, len(base), q)
    right = layout.right_factors(m)
    tiled = np.concatenate([np.tile(weyl_family(d).matrices, (q * (q - 1), 1, 1)),
                            np.tile(base.matrices, (q, 1, 1))])
    # Bit for bit up to the sign of a zero, which the exact 1 of a left factor
    # can flip: (1 + 0i)(-0 + bi) has real part -0 - 0b, +0 for b < 0.
    assert _unsigned_zero_bits(layout.products(right)) == _unsigned_zero_bits(m)
    assert _unsigned_zero_bits(right) == _unsigned_zero_bits(tiled)
    if q == 1:
        return  # every entry then lies in the block the right factor is read from
    # One ulp in the last block row, which the reader never reads.
    rng = np.random.default_rng(seed)
    e, i, j = rng.integers(len(m)), (q - 1) * d + rng.integers(d), rng.integers(q * d)
    moved = m.copy()
    moved[e, i, j] = complex(np.nextafter(m[e, i, j].real, np.inf), m[e, i, j].imag)
    assert layout.split(moved) is None
    assert layout.right_factors(moved).tobytes() == right.tobytes()


# ---------------------------------------------------------------------------
# _classify against one scan of every phase and both its shifts
# ---------------------------------------------------------------------------

def _one_scan_classify(values, bound, exact_cos):
    """Frozen classification that scans every phase and its +/-theta shifts together."""
    k = len(values)
    scan = [values]
    if exact_cos is not None and -1 <= exact_cos <= 1:
        theta = float(np.arccos(float(exact_cos)))
        scan += [np.mod(values - theta, 2 * np.pi), np.mod(values + theta, 2 * np.pi)]
    labels = order_up_to(np.concatenate(scan), bound)
    own = labels[:k]
    if (
        exact_cos is None
        or all(isinstance(cls, Finite) for cls in own)
        or not isinstance(niven_classify(exact_cos), ProvablyInfinite)
    ):
        return own
    infinite = ProvablyInfinite(Fraction(exact_cos))
    return tuple(
        infinite
        if not isinstance(cls, Finite) and (isinstance(minus, Finite) or isinstance(plus, Finite))
        else cls
        for cls, minus, plus in zip(own, labels[k:2 * k], labels[2 * k:])
    )


_COSINES = (None, Fraction(-7, 8), Fraction(1, 3), Fraction(1, 2), Fraction(0), Fraction(2))


@st.composite
def _mixed_phases(draw):
    """Distinct ascending phases: roots of unity, roots shifted by +/-theta
    for an irrational-angle cosine, and arbitrary phases."""
    phases = []
    for kind in draw(st.lists(st.sampled_from(["root", "shifted", "other"]), max_size=12)):
        n = draw(st.integers(1, 40))
        root = 2 * np.pi * draw(st.integers(0, n - 1)) / n
        if kind == "root":
            phases.append(root)
        elif kind == "shifted":
            theta = float(np.arccos(draw(st.sampled_from([-7 / 8, 1 / 3]))))
            phases.append(np.mod(root + draw(st.sampled_from([-1, 1])) * theta, 2 * np.pi))
        else:
            phases.append(draw(st.floats(0, 2 * np.pi, exclude_max=True)))
    return np.unique(np.array(phases, dtype=np.float64))


def _labels_or_error(classify, values, bound, exact_cos):
    try:
        return classify(values, bound, exact_cos)
    except ValueError:
        return "ValueError"


@settings(max_examples=200, deadline=None)
@given(values=_mixed_phases(), exact_cos=st.sampled_from(_COSINES),
       bound=st.sampled_from([1, 12, 144]))
def test_classify_matches_one_scan_of_every_shift_property(values, exact_cos, bound):
    got = _labels_or_error(spectral._classify, values, bound, exact_cos)
    assert got == _labels_or_error(_one_scan_classify, values, bound, exact_cos)
    if exact_cos == 2:
        unresolved = not all(isinstance(cls, Finite) for cls in order_up_to(values, bound))
        assert (got == "ValueError") == unresolved


def test_classify_scans_the_shifts_of_unresolved_phases_only(monkeypatch):
    sizes = []
    real = spectral.order_up_to
    monkeypatch.setattr(spectral, "order_up_to",
                        lambda phase, bound: sizes.append(np.size(phase)) or real(phase, bound))
    sig = signature(lift(bravyi_smolin_3(), 8))
    # 132 distinct phases, of which 8 resist the finite scan: 2 x 8 shifts.
    assert sizes == [132, 16]
    assert sig.summary.provably_infinite_count == 6 * 8 * 8
    # Every phase of a Weyl family is a root of unity: no shift is scanned.
    sizes.clear()
    signature(UMEBCandidate(3, weyl_family(3).matrices, External("x"), Fraction(-7, 8)))
    assert len(sizes) == 1
