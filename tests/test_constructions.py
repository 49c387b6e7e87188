import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umeb.constructions import (
    BravyiSmolin3,
    External,
    Lift,
    UMEBCandidate,
    UMEBFormatError,
    Umeb6,
    WeylFamily,
    as_lift,
    bravyi_smolin_3,
    bravyi_smolin_states,
    cyclic_shift,
    fourier_matrix,
    lift,
    lift_counts,
    load_umeb,
    provenance_from_str,
    provenance_to_str,
    rebuild_from_provenance,
    row_diag,
    save_umeb,
    umeb_6,
    weyl,
    weyl_family,
)
from umeb.linalg import gram_matrix, unitarity_residual


# ---------------------------------------------------------------------------
# Weyl operators
# ---------------------------------------------------------------------------

def test_weyl_identity_and_explicit_values():
    np.testing.assert_array_equal(weyl(3, 0, 0), np.eye(3))
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(weyl(3, 1, 0), np.diag([1, w, w * w]), atol=1e-15)
    np.testing.assert_array_equal(
        weyl(2, 1, 1), np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    )


def test_weyl_periodicity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(0, d))
        m = int(rng.integers(0, d))
        np.testing.assert_array_equal(weyl(d, n, m), weyl(d, n + d, m))
        np.testing.assert_array_equal(weyl(d, n, m), weyl(d, n, m + d))


def test_weyl_unitarity():
    for d in range(1, 7):
        for n in range(d):
            for m in range(d):
                assert unitarity_residual(weyl(d, n, m)) < 1e-12


def test_weyl_family_counts_and_gram():
    c1 = weyl_family(1)
    assert len(c1) == 1
    np.testing.assert_array_equal(c1.elements[0], np.eye(1))
    for d in (2, 3):
        fam = weyl_family(d)
        assert len(fam) == d * d
        assert fam.provenance == WeylFamily(d)
        g = gram_matrix(fam.elements)
        np.testing.assert_allclose(g, d * np.eye(d * d), atol=1e-12)


# ---------------------------------------------------------------------------
# The q-dimensional factors
# ---------------------------------------------------------------------------

def test_cyclic_shift_pattern_and_order():
    s = cyclic_shift(4)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 2] = expected[2, 3] = expected[3, 0] = 1.0
    np.testing.assert_array_equal(s, expected)
    np.testing.assert_allclose(np.linalg.matrix_power(s, 4), np.eye(4), atol=1e-15)
    np.testing.assert_array_equal(cyclic_shift(1), np.eye(1))
    np.testing.assert_array_equal(
        cyclic_shift(2), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    )


def test_cyclic_shift_eigenvalues_are_roots_of_unity():
    ev = np.sort_complex(np.linalg.eigvals(cyclic_shift(4)))
    expected = np.sort_complex(np.array([1, 1j, -1, -1j], dtype=complex))
    np.testing.assert_allclose(ev, expected, atol=1e-12)


def test_fourier_matrix_values_and_det():
    np.testing.assert_array_equal(fourier_matrix(1), np.eye(1))
    np.testing.assert_array_equal(
        fourier_matrix(2), np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    )
    assert abs(np.linalg.det(fourier_matrix(3))) == pytest.approx(3**1.5, abs=1e-12)


def test_row_diag():
    np.testing.assert_array_equal(row_diag(fourier_matrix(2), 1), np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(row_diag(fourier_matrix(5), 0), np.eye(5))
    np.testing.assert_array_equal(
        row_diag(fourier_matrix(4), 1), np.diag([1.0, 1.0j, -1.0, -1.0j])
    )
    with pytest.raises(IndexError):
        row_diag(fourier_matrix(3), 3)


# ---------------------------------------------------------------------------
# Bravyi-Smolin family and the explicit 30-member set
# ---------------------------------------------------------------------------

def test_bravyi_smolin_states_norms_and_overlaps():
    states = bravyi_smolin_states()
    assert states.shape == (6, 3)
    np.testing.assert_allclose(np.linalg.norm(states, axis=1), np.ones(6), atol=1e-14)
    for i in range(6):
        for j in range(i + 1, 6):
            ov = abs(np.vdot(states[i], states[j])) ** 2
            assert ov == pytest.approx(0.2, abs=1e-14)


def test_bravyi_smolin_3_properties():
    c = bravyi_smolin_3()
    assert len(c) == 6
    assert c.dim == 3
    assert c.exact_cos_theta == Fraction(-7, 8)
    assert c.provenance == BravyiSmolin3()
    for u in c.elements:
        assert unitarity_residual(u) < 1e-12
    np.testing.assert_allclose(gram_matrix(c.elements), 3 * np.eye(6), atol=1e-12)


def test_umeb_6_properties():
    c = umeb_6()
    assert len(c) == 30
    assert c.dim == 6
    assert c.provenance == Umeb6()
    for u in c.elements:
        assert unitarity_residual(u) < 1e-12
    np.testing.assert_allclose(gram_matrix(c.elements), 6 * np.eye(30), atol=1e-12)


# ---------------------------------------------------------------------------
# Lift
# ---------------------------------------------------------------------------

def test_lift_counts_formulas():
    assert lift_counts(3, 6, 2) == (30, 33)
    assert lift_counts(3, 6, 4) == (132, 141)
    # base with d(d-1) elements lifts to (qd)(qd-1) elements
    for d, q in ((3, 2), (4, 3), (2, 5)):
        constructed, _ = lift_counts(d, d * (d - 1), q)
        assert constructed == (q * d) * (q * d - 1)


def test_lift_provenance_owns_the_layout():
    p = Lift(BravyiSmolin3(), 3, 6, 4)
    assert (p.weyl_count, p.element_count, p.dim) == (108, 132, 12)
    assert as_lift(p) is p
    assert as_lift(Umeb6()) == Lift(BravyiSmolin3(), 3, 6, 2)
    assert as_lift(WeylFamily(3)) is None
    assert as_lift(External("x")) is None
    for q in (1, 2, 3):
        lifted = lift(bravyi_smolin_3(), q)
        assert len(lifted) == lifted.provenance.element_count
        assert lifted.dim == lifted.provenance.dim


def test_lift_sizes_and_gram():
    base = bravyi_smolin_3()
    for q in (2, 3):
        lifted = lift(base, q)
        assert lifted.dim == 3 * q
        assert len(lifted) == q * (q - 1) * 9 + 6 * q
        g = gram_matrix(lifted.elements)
        np.testing.assert_allclose(g, 3 * q * np.eye(len(lifted)), atol=1e-12)
        assert lifted.exact_cos_theta == Fraction(-7, 8)
        assert lifted.provenance == Lift(BravyiSmolin3(), 3, 6, q)


def test_lift_q1_is_the_base():
    base = bravyi_smolin_3()
    lifted = lift(base, 1)
    assert len(lifted) == 6
    for a, b in zip(lifted.elements, base.elements):
        np.testing.assert_array_equal(a, b)


def test_lift_block_structure():
    base = bravyi_smolin_3()
    q, d = 3, 3
    lifted = lift(base, q)
    weyl_count = q * (q - 1) * d * d
    for m in lifted.elements[:weyl_count]:
        blocks = m.reshape(q, d, q, d)
        for b in range(q):
            assert np.max(np.abs(blocks[b, :, b, :])) == 0.0
    for m in lifted.elements[weyl_count:]:
        blocks = m.reshape(q, d, q, d)
        for a in range(q):
            for b in range(q):
                if a != b:
                    assert np.max(np.abs(blocks[a, :, b, :])) == 0.0


def _kron_reference_lift(base, q):
    """Per-element np.kron assembly of the lift, in its canonical order."""
    rows = [np.diag(fourier_matrix(q)[i]) for i in range(q)]
    weyl_sector = [
        np.kron(rows[i] @ np.linalg.matrix_power(cyclic_shift(q), j), weyl(base.dim, n, m))
        for i in range(q) for j in range(1, q)
        for n in range(base.dim) for m in range(base.dim)
    ]
    return np.array(
        weyl_sector + [np.kron(rows[i], u) for i in range(q) for u in base.elements]
    ).reshape(-1, q * base.dim, q * base.dim)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_lift_matrices_equal_per_element_kron_bit_for_bit(q):
    for base in (bravyi_smolin_3(), weyl_family(2)):
        got = lift(base, q).matrices
        assert got.tobytes() == _kron_reference_lift(base, q).tobytes()


def test_umeb_6_matrices_equal_per_element_kron_bit_for_bit():
    pairs = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]])
    diags = np.eye(2), np.diag([1.0, -1.0])
    want = [np.kron(f, weyl(3, n, m)) for f in pairs for n in range(3) for m in range(3)]
    want += [np.kron(f, u) for f in diags for u in bravyi_smolin_3().elements]
    assert umeb_6().matrices.tobytes() == np.array(want, dtype=complex).tobytes()


def test_candidate_stores_one_read_only_array():
    c = lift(bravyi_smolin_3(), 2)
    assert c.matrices.shape == (30, 6, 6) and c.matrices.dtype == np.complex128
    assert not c.matrices.flags.writeable
    assert isinstance(c.elements, tuple) and len(c.elements) == 30
    for i, e in enumerate(c.elements):
        assert not e.flags.writeable
        assert np.shares_memory(e, c.matrices)
        assert e.tobytes() == c.matrices[i].tobytes()
    with pytest.raises(ValueError):
        c.elements[0][0, 0] = 2.0
    source = np.eye(2)
    kept = UMEBCandidate(2, (source,), External("copy"))
    source[0, 0] = 5.0
    assert kept.elements[0][0, 0] == 1.0
    assert UMEBCandidate(3, (), External("empty")).matrices.shape == (0, 3, 3)


def test_lift_validates_input():
    base = bravyi_smolin_3()
    with pytest.raises(ValueError):
        lift(base, 0)
    bad = UMEBCandidate(2, (2.0 * np.eye(2),), External("not unitary"))
    with pytest.raises(ValueError):
        lift(bad, 2)


def test_candidate_validation():
    with pytest.raises(ValueError):
        UMEBCandidate(2, (np.eye(3),), External("wrong shape"))
    c = UMEBCandidate(2, (np.eye(2),), External("ok"))
    assert not c.elements[0].flags.writeable
    c2 = UMEBCandidate(2, (np.eye(2),), External("frac"), exact_cos_theta=Fraction(1, 2))
    assert c2.exact_cos_theta == Fraction(1, 2)


# ---------------------------------------------------------------------------
# Provenance strings
# ---------------------------------------------------------------------------

def test_provenance_round_trip():
    cases = [
        WeylFamily(5),
        BravyiSmolin3(),
        Umeb6(),
        Lift(BravyiSmolin3(), 3, 6, 4),
        Lift(Lift(BravyiSmolin3(), 3, 6, 2), 6, 30, 2),
        External("hand-made set"),
    ]
    for p in cases:
        assert provenance_from_str(provenance_to_str(p)) == p


def test_unknown_provenance_becomes_external():
    p = provenance_from_str("mystery source v2")
    assert p == External("mystery source v2")


def test_rebuild_from_provenance():
    assert rebuild_from_provenance(External("x")) is None
    fam = rebuild_from_provenance(WeylFamily(3))
    assert len(fam) == 9
    lifted = rebuild_from_provenance(Lift(BravyiSmolin3(), 3, 6, 2))
    assert len(lifted) == 30
    # inconsistent base shape is rejected
    assert rebuild_from_provenance(Lift(BravyiSmolin3(), 3, 7, 2)) is None


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def test_save_load_round_trip_is_bit_exact(tmp_path):
    c = umeb_6()
    path = tmp_path / "u6.json"
    save_umeb(c, path)
    back = load_umeb(path)
    assert back.dim == c.dim
    assert back.provenance == c.provenance
    assert back.exact_cos_theta == c.exact_cos_theta
    for a, b in zip(c.elements, back.elements):
        assert a.tobytes() == b.tobytes()


def test_save_preserves_negative_zero(tmp_path):
    # complex() keeps the zero signs; the literal -0.0+0.0j would not
    m = np.array([[complex(-0.0, 0.0), 1.0], [1.0, complex(0.0, -0.0)]])
    c = UMEBCandidate(2, (m,), External("signed zeros"))
    path = tmp_path / "z.json"
    save_umeb(c, path)
    back = load_umeb(path).elements[0]
    assert back.tobytes() == c.elements[0].tobytes()
    assert np.signbit(back[0, 0].real)
    assert np.signbit(back[1, 1].imag)


def test_save_is_deterministic(tmp_path):
    c = bravyi_smolin_3()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_umeb(c, p1)
    save_umeb(c, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_schema_violations(tmp_path):
    def attempt(doc):
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(UMEBFormatError):
            load_umeb(path)

    attempt("not json {")
    attempt([1, 2, 3])
    attempt({"dim": 2, "provenance": "x", "exact_cos_theta": None})
    attempt({"dim": 0, "provenance": "x", "exact_cos_theta": None, "elements": [[[1, 0]]]})
    attempt({"dim": 2, "provenance": 7, "exact_cos_theta": None,
             "elements": [[[1, 0], [0, 0], [0, 0], [1, 0]]]})
    attempt({"dim": 2, "provenance": "x", "exact_cos_theta": [1, 0],
             "elements": [[[1, 0], [0, 0], [0, 0], [1, 0]]]})
    attempt({"dim": 2, "provenance": "x", "exact_cos_theta": None, "elements": []})
    # a 3x3 matrix in a file claiming dim 2
    nine = [[1, 0]] * 9
    attempt({"dim": 2, "provenance": "x", "exact_cos_theta": None, "elements": [nine]})
    # non-finite entry
    attempt('{"dim": 1, "provenance": "x", "exact_cos_theta": null, '
            '"elements": [[[1e999, 0]]]}')
    # entry that is not a [re, im] pair
    attempt({"dim": 1, "provenance": "x", "exact_cos_theta": None, "elements": [[[1]]]})


def test_loaded_canonical_provenance_is_structured(tmp_path):
    path = tmp_path / "l2.json"
    save_umeb(lift(bravyi_smolin_3(), 2), path)
    back = load_umeb(path)
    assert back.provenance == Lift(BravyiSmolin3(), 3, 6, 2)


# ---------------------------------------------------------------------------
# File format: old layout, round trips and corrupted documents
# ---------------------------------------------------------------------------

def _fmt_real_17g(x):
    # Entry formatting of files written before shortest round-trip reals.
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _save_17g(c, path):
    ect = c.exact_cos_theta
    ect_text = "null" if ect is None else f"[{ect.numerator}, {ect.denominator}]"
    rows = [
        "    [" + ", ".join(
            f"[{_fmt_real_17g(z.real)}, {_fmt_real_17g(z.imag)}]" for z in e.ravel()
        ) + "]"
        for e in c.elements
    ]
    lines = [
        "{",
        f'  "dim": {c.dim},',
        f'  "provenance": {json.dumps(provenance_to_str(c.provenance))},',
        f'  "exact_cos_theta": {ect_text},',
        '  "elements": [',
        ",\n".join(rows),
        "  ]",
        "}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _signed_zero_candidate():
    m = np.array([[complex(-0.0, 0.0), 1.0], [1.0, complex(0.0, -0.0)]])
    return UMEBCandidate(2, (m,), External("signed zeros"))


@pytest.mark.parametrize("make", [umeb_6, _signed_zero_candidate])
def test_files_with_17_digit_reals_load_bit_exact(tmp_path, make):
    c = make()
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    _save_17g(c, old)
    save_umeb(c, new)
    if make is umeb_6:
        assert old.read_text() != new.read_text()
    back = load_umeb(old)
    assert back.provenance == c.provenance
    assert back.exact_cos_theta == c.exact_cos_theta
    assert [e.tobytes() for e in back.elements] == [e.tobytes() for e in c.elements]


_SPECIAL_REALS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300, 1e300, -1e300,
     1.7976931348623157e308, 1.0, -1.0]
)
_REALS = st.one_of(_SPECIAL_REALS, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _matrix_sets(draw):
    dim, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n = 2 * dim * dim * count
    parts = draw(st.lists(_REALS, min_size=n, max_size=n))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(count, dim, dim)


@settings(max_examples=60, deadline=None)
@given(_matrix_sets())
def test_save_load_round_trip_property(tmp_path_factory, mats):
    c = UMEBCandidate(mats.shape[1], tuple(mats), External("drawn"))
    path = tmp_path_factory.mktemp("rt") / "m.json"
    save_umeb(c, path)
    back = load_umeb(path)
    assert [e.tobytes() for e in back.elements] == [m.tobytes() for m in mats]


_BIG_INT = 10**400


# Corruptions of one [re, im] entry; "drop" deletes the entry instead.
_CORRUPTIONS = {
    "true": lambda re_, im: True,
    "string": lambda re_, im: "1.5",
    "null": lambda re_, im: None,
    "true_part": lambda re_, im: [re_, True],
    "string_part": lambda re_, im: ["1.5", im],
    "null_part": lambda re_, im: [re_, None],
    "one_list": lambda re_, im: [re_],
    "three_list": lambda re_, im: [re_, im, 0.0],
    "nested_pair": lambda re_, im: [[re_, im], im],
    "big_int": lambda re_, im: [_BIG_INT, im],
    "nan": lambda re_, im: [re_, float("nan")],
}


@pytest.mark.parametrize("how", [*_CORRUPTIONS, "drop"])
@settings(max_examples=10, deadline=None)
@given(element=st.integers(0, 5), entry=st.integers(0, 8))
def test_corrupted_entry_raises_format_error_property(tmp_path_factory, how, element, entry):
    path = tmp_path_factory.mktemp("bad") / "bs3.json"
    save_umeb(bravyi_smolin_3(), path)
    doc = json.loads(path.read_text())
    pairs = doc["elements"][element]
    if how == "drop":
        del pairs[entry]
    else:
        pairs[entry] = _CORRUPTIONS[how](*pairs[entry])
    path.write_text(json.dumps(doc))
    reason = {
        "drop": "element has 8 entries, expected 9",
        "big_int": "matrix entry out of the double range",
        "nan": "matrix entries must be finite",
    }.get(how, rf"entry {entry} is not a \[re, im\] pair of numbers")
    with pytest.raises(UMEBFormatError, match=f"^element {element}: {reason}"):
        load_umeb(path)


def test_load_maps_conversion_and_parser_crashes_to_format_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 1, "provenance": "x", "exact_cos_theta": null, '
                    f'"elements": [[[{_BIG_INT}, 0]]]}}')
    with pytest.raises(UMEBFormatError, match="element 0"):
        load_umeb(path)
    depth = 100_000
    path.write_text('{"dim": 1, "provenance": "x", "exact_cos_theta": null, '
                    f'"elements": {"[" * depth}{"]" * depth}}}')
    with pytest.raises(UMEBFormatError, match="nested too deeply"):
        load_umeb(path)


def test_d24_lift_round_trip_is_bit_exact_and_deterministic(tmp_path):
    c = lift(bravyi_smolin_3(), 8)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_umeb(c, p1)
    save_umeb(c, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_umeb(p1)
    assert back.provenance == c.provenance
    assert [e.tobytes() for e in back.elements] == [e.tobytes() for e in c.elements]
