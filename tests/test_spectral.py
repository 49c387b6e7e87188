from fractions import Fraction

import numpy as np
import pytest

from umeb.constructions import (
    External,
    UMEBCandidate,
    bravyi_smolin_3,
    lift,
    umeb_6,
    weyl_family,
)
from umeb.linalg import DEFAULT_TOLERANCES, DimensionMismatchError, root_of_unity
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
from umeb.spectral import _bucket, _classify_phase, _cls_key

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
    with pytest.raises(ValueError):
        order_up_to(1.0, 5, tol=0.0)


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

def _reference_records(c, bound, tol=DEFAULT_TOLERANCES):
    """Frozen per-element path: each matrix's eigenphases, each phase classified."""
    records = []
    for u in c.elements:
        entries = []
        for phase in eigenphases(u, tol):
            cls = _classify_phase(float(phase), bound, tol.phase_tol, c.exact_cos_theta)
            entries.append((_bucket(float(phase)), cls, float(phase)))
        entries.sort(key=lambda e: (e[0], _cls_key(e[1])))
        records.append(ElementSpectrum(
            phases=tuple(e[2] for e in entries),
            phase_ticks=tuple(e[0] for e in entries),
            classifications=tuple(e[1] for e in entries),
        ))
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
    "empty": lambda: UMEBCandidate(3, (), External("empty")),
}


@pytest.mark.parametrize("bound", [1, 7, 144])
@pytest.mark.parametrize("name", sorted(REFERENCE_SETS))
def test_signature_matches_per_element_reference_bit_for_bit(name, bound):
    c = REFERENCE_SETS[name]()
    sig = signature(c, bound)
    ref = _reference_records(c, bound)
    assert len(sig.records) == len(ref) == len(c)
    for got, want in zip(sig.records, ref):
        assert np.array(got.phases).tobytes() == np.array(want.phases).tobytes()
        assert got.phase_ticks == want.phase_ticks
        assert got.classifications == want.classifications
    assert sig.canonical_key() == (c.dim, len(c), tuple(r.canonical_key() for r in ref))
