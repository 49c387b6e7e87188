import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umeb import constructions
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
    leaf_shape,
    left_factors,
    lift,
    lift_counts,
    load_umeb,
    matrix_to_pairs,
    pairs_to_matrix,
    provenance_from_str,
    provenance_to_str,
    rebuild_from_provenance,
    row_diag,
    save_umeb,
    umeb_6,
    weyl,
    weyl_family,
)
from umeb.linalg import DimensionMismatchError, distinct_rows, gram_matrix, unitarity_residual
from umeb.spectral import signature
from umeb.verification import structural_certify, verify_axioms


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


@pytest.mark.parametrize("q", range(1, 9))
def test_lift_states_its_left_factors_once(q):
    p = Lift(BravyiSmolin3(), 3, 6, q)
    left, index = left_factors(q), p.factor_index()
    assert left.shape == (q * q, q, q) and index.shape == (p.element_count,)
    # The last q are the D_i, bit for bit: certificate check 5 reads them here.
    for i, d_i in enumerate(left[q * (q - 1):]):
        assert d_i.tobytes() == row_diag(fourier_matrix(q), i).tobytes()
    # Row 0 of each factor is one exact 1: column j of D_i S^j, column 0 of D_i.
    cols = [j for _ in range(q) for j in range(1, q)] + [0] * q
    want_rows = np.eye(q)[cols]
    assert np.array_equal(left[:, 0, :], want_rows)
    assert np.array_equal(np.bincount(index), [9] * (q * (q - 1)) + [6] * q)
    base = bravyi_smolin_3()
    rights = np.concatenate([np.tile(weyl_family(3).matrices, (q * (q - 1), 1, 1)),
                             np.tile(base.matrices, (q, 1, 1))])
    c = lift(base, q)
    assert np.array_equal(p.split(c.matrices), rights)
    assert np.array_equal(c.factored.index, index)


@pytest.mark.parametrize("q", range(1, 9))
def test_lift_shares_one_read_only_build_of_its_left_factors(q):
    left = left_factors(q)
    assert left_factors(q) is left
    assert not left.flags.writeable
    with pytest.raises(ValueError):
        left[0, 0, 0] = 2.0
    # Every lift by q reads that one build and holds nothing beyond its
    # fields, so equality and hashing are unchanged.
    p = Lift(BravyiSmolin3(), 3, 6, q)
    c = lift(bravyi_smolin_3(), q)
    assert p.products(p.split(c.matrices)).tobytes() == c.matrices.tobytes()
    assert vars(p) == {"base": BravyiSmolin3(), "base_dim": 3, "base_count": 6, "q": q}
    assert p == Lift(BravyiSmolin3(), 3, 6, q)
    assert hash(p) == hash(Lift(BravyiSmolin3(), 3, 6, q))


def _reference_factor_table(q):
    """The factors, each row's nonzero column and value, and each value's
    position among the distinct values by bytes, built entry by entry."""
    w, shift = fourier_matrix(q), cyclic_shift(q)
    d = [np.diag(w[i]) for i in range(q)]
    left = np.array(
        [d[i] @ np.linalg.matrix_power(shift, j) for i in range(q) for j in range(1, q)] + d
    ).reshape(q * q, q, q)
    cols = np.zeros((q * q, q), dtype=np.intp)
    values = np.zeros((q * q, q), dtype=np.complex128)
    for k, a in itertools.product(range(q * q), range(q)):
        (cols[k, a],) = np.flatnonzero(left[k, a])  # monomial: one nonzero per row
        values[k, a] = left[k, a, cols[k, a]]
    spellings = sorted({v.tobytes() for v in values.ravel()})
    kinds = np.array([spellings.index(v.tobytes()) for v in values.ravel()]).reshape(q * q, q)
    return left, cols, values, kinds


@pytest.mark.parametrize("q", range(1, 9))
def test_factor_table_is_read_only_and_equals_a_reference_build(q):
    table = constructions._factor_table(q)
    assert constructions._factor_table(q) is table
    for got, want in zip(table, _reference_factor_table(q), strict=True):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 1
    assert table[0] is left_factors(q)


@pytest.mark.parametrize("q", (1, 2, 3, 8))
def test_lift_base_products_are_the_base_sector_bit_for_bit(q):
    base = bravyi_smolin_3()
    c = lift(base, q)
    p = c.provenance
    right = np.tile(base.matrices, (q, 1, 1))
    assert p.base_products(right).tobytes() == c.matrices[p.weyl_count:].tobytes()


@pytest.mark.parametrize("q", (1, 2, 3, 4))
def test_lift_weyl_sector_holds_each_shift_on_its_tiles(q):
    # Element (i, j, nm) is D_i S^j (x) W_nm: phase F[i, a] times W_nm on
    # each tile (a, a + j mod q), and zero on every other tile.
    d = 3
    c = lift(bravyi_smolin_3(), q)
    p = c.provenance
    tiles = p.blocks(c.matrices)[:p.weyl_count].reshape(q, q - 1, d * d, q, d, q, d)
    phases = fourier_matrix(q)
    for i, j, k in itertools.product(range(q), range(1, q), range(d * d)):
        for a, b in itertools.product(range(q), repeat=2):
            want = phases[i, a] * weyl_family(d).matrices[k] if b == (a + j) % q else 0
            assert np.array_equal(tiles[i, j - 1, k, a, :, b, :], np.broadcast_to(want, (d, d)))


def test_lift_split_is_none_unless_the_stack_is_exactly_the_products():
    c = lift(bravyi_smolin_3(), 3)
    p = c.provenance
    assert p.split(c.matrices) is not None
    assert as_lift(Umeb6()).split(umeb_6().matrices) is not None
    assert p.split(c.matrices[:, :6, :6]) is None  # wrong shape
    assert p.split(c.matrices[:-1]) is None  # wrong count
    assert p.split(c.matrices[0]) is None  # not a stack
    tampered = c.matrices.copy()
    tampered[0, 3:6, 6:9] = weyl(3, 1, 1)  # a block of another product
    assert p.split(tampered) is None
    nudged = c.matrices.copy()
    nudged[-1, 8, 8] = np.nextafter(nudged[-1, 8, 8].real, 2.0) + 1j * nudged[-1, 8, 8].imag
    assert p.split(nudged) is None


def _split_by_products(layout, matrices):
    """The split verdict as a whole-stack compare with the products of the
    stack's own right factors."""
    return layout.fits(matrices) and np.array_equal(
        matrices, layout.products(layout.right_factors(matrices))
    )


def _next_up(x):
    return complex(np.nextafter(x.real, np.inf), x.imag)


def _add_tiny(x):
    return x + 1e-13


def _flip_zero_signs(x):
    # -0.0 against 0.0 in each part that is zero; a nonzero part is kept.
    return complex(-x.real if x.real == 0 else x.real, -x.imag if x.imag == 0 else x.imag)


def _nan(x):
    return complex(np.nan, x.imag)


def _inf(x):
    return complex(np.inf, x.imag)


def _imag_inf(x):
    return complex(x.real, -np.inf)


@settings(max_examples=200, deadline=None)
@given(
    q=st.integers(1, 4),
    edit=st.sampled_from([_next_up, _add_tiny, _flip_zero_signs, _nan, _inf, _imag_inf]),
    on_tile=st.booleans(),
    element=st.integers(0, 10**6),
    row=st.integers(0, 10**6),
    entry=st.integers(0, 10**6),
)
def test_lift_split_verdict_equals_the_whole_stack_compare_property(
    q, edit, on_tile, element, row, entry
):
    c = lift(bravyi_smolin_3(), q)
    layout, d = c.provenance, 3
    left = left_factors(layout.q)[layout.factor_index()]
    k, a = element % len(c.matrices), row % q
    nonzero = int(np.flatnonzero(left[k, a])[0])
    # Off the tiles: any other column of tiles in row-tile a (none when q = 1).
    b = nonzero if on_tile or q == 1 else (nonzero + 1 + entry % (q - 1)) % q
    i, j = a * d + entry // q % d, b * d + entry // (q * d) % d
    m = c.matrices.copy()
    m[k, i, j] = edit(m[k, i, j])
    with np.errstate(invalid="ignore"):
        got = layout.split(m)
        want = _split_by_products(layout, m)
    assert (got is not None) == want
    if want:
        assert got.tobytes() == layout.right_factors(m).tobytes()


def test_lift_split_of_a_fresh_lift_stays_below_half_a_stack():
    # A copy of the stack holds no factors, so its factored view is
    # Lift.split's tile-by-tile compare, the path of a lift loaded from its
    # elements.
    built = lift(bravyi_smolin_3(), 8)
    c = UMEBCandidate(built.dim, built.matrices, built.provenance, built.exact_cos_theta)
    assert c._right_factors is None
    tracemalloc.start()
    try:
        assert not c.factored.self_lift
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Each element's q tiles, and their expected f Y, are 1/q of the stack
    # each; the products themselves are not formed.
    assert peak < 0.5 * c.matrices.nbytes


def test_split_of_a_lift_that_holds_its_factors_stays_below_a_twentieth_of_a_stack():
    c = lift(bravyi_smolin_3(), 8)
    assert c._right_factors is not None
    tracemalloc.start()
    try:
        assert not c.factored.self_lift
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The right factors are read from block (0, c_k) of each element, 1/q^2
    # of the stack, and told apart; no tile is compared.
    assert peak < 0.05 * c.matrices.nbytes


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
    with pytest.raises(ValueError, match="at least one element"):
        UMEBCandidate(3, (), External("empty"))


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


@pytest.mark.parametrize("make", [bravyi_smolin_3, lambda: lift(bravyi_smolin_3(), 2)],
                         ids=["stack", "held"])
def test_candidates_are_equal_and_hash_by_identity(make):
    c, twin = make(), make()
    assert c == c and c != twin and c in [twin, c] and c not in [twin]
    assert len({c, twin, c}) == 2


def test_repr_names_the_header_and_forms_no_stack():
    c = lift(bravyi_smolin_3(), 8)
    assert repr(c) == (
        "UMEBCandidate(dim=24, provenance=Lift(base=BravyiSmolin3(), base_dim=3, base_count=6, "
        "q=8), exact_cos_theta=Fraction(-7, 8))"
    )
    assert "matrices" not in vars(c)


@pytest.mark.parametrize("as_array", [True, False], ids=["array", "list"])
def test_candidate_owns_a_read_only_bit_exact_copy(as_array):
    signed = np.array([[-0.0, complex(1.0, -0.0)], [1.0, complex(-0.0, -0.0)]])
    given = [signed.copy(), np.eye(2, dtype=np.complex128)]
    if as_array:
        given = np.stack(given)
    c = UMEBCandidate(2, given, External("signed zeros"))
    assert c.matrices.tobytes() == np.stack([signed, np.eye(2)]).astype(np.complex128).tobytes()
    assert not c.matrices.flags.writeable
    given[0][0, 0] = 7.0
    given[1][1, 1] = 7.0
    assert c.matrices[0, 0, 0] == 0.0 and c.matrices[1, 1, 1] == 1.0
    with pytest.raises(ValueError):
        c.matrices[0, 0, 0] = 1.0


class _CallerArray(np.ndarray):
    pass


def _identities(n, dtype=np.complex128):
    return np.stack([np.eye(2, dtype=dtype)] * n)


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make", [
    lambda: (lambda a: (a, a))(_identities(3)),
    lambda: (lambda a: (a[::2], a))(_identities(6)),
    lambda: (lambda a: (a, a))(_identities(3, np.float64)),
    lambda: (lambda a: (a, a[0]))([np.eye(2, dtype=np.complex128)] * 3),
    lambda: (lambda a: (memoryview(a), a))(_identities(3)),
    lambda: (lambda a: (a.view(_CallerArray), a))(_identities(3)),
    lambda: (lambda a: (_read_only(a.view()), a))(_identities(3)),
], ids=["array", "strided_view", "float_array", "list", "memoryview", "subclass",
        "read_only_view"])
def test_mutating_the_callers_array_never_changes_the_candidate(make):
    given, writable = make()
    c = UMEBCandidate(2, given, External("caller's"))
    writable[..., 0, 0] = 9.0
    assert c.matrices[0, 0, 0] == 1.0 and not c.matrices.flags.writeable


def test_builders_hand_their_fresh_arrays_over_uncopied(tmp_path):
    path = tmp_path / "m.json"
    save_umeb(umeb_6(), path)
    for c in (lift(bravyi_smolin_3(), 3), umeb_6(), load_umeb(path)):
        # A copy would own its buffer; the builder's own array is kept instead.
        assert not c.matrices.flags.owndata and not c.matrices.flags.writeable
    assert UMEBCandidate(6, umeb_6().matrices, External("caller's")).matrices.flags.owndata


def test_candidate_rejects_malformed_stacks():
    with pytest.raises(DimensionMismatchError, match=r"\(3, 3\).*\(2, 2\)"):
        UMEBCandidate(2, np.stack([np.eye(3)]), External("wrong dim"))
    with pytest.raises(DimensionMismatchError):
        UMEBCandidate(2, (np.eye(2), np.eye(3)), External("ragged"))
    with pytest.raises(ValueError, match="must be finite"):
        UMEBCandidate(2, (np.eye(2), np.full((2, 2), np.nan)), External("nan"))
    with pytest.raises(ValueError, match="must be finite"):
        UMEBCandidate(2, np.full((1, 2, 2), np.inf), External("inf"))
    with pytest.raises(ValueError, match="at least one element"):
        UMEBCandidate(4, np.empty((0, 4, 4)), External("empty"))


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


@pytest.mark.parametrize(
    "label",
    [" x ", "\tweyl subset\t", "\nfrom a notebook\n", "  ", "lead \t\n", " \n\ttrail"],
    ids=["spaces", "tabs", "newlines", "blank", "trailing", "leading"],
)
def test_a_padded_external_label_round_trips_through_the_saved_layout(
    tmp_path, general_decoder_off, label
):
    c = UMEBCandidate(3, weyl_family(3).elements[:6], External(label))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_umeb(c, first)
    back = load_umeb(first)  # the general decoder is off: the saved layout's fast path
    assert back.provenance == External(label)
    save_umeb(back, second)
    assert second.read_bytes() == first.read_bytes()


# External labels that read back as another provenance, or as none, unless
# the file marks them: each canonical spelling, padded, a lift string, an
# invalid lift, and the mark itself.
_COLLIDING_LABELS = [
    "bravyi_smolin_3", "umeb_6", "weyl_family(d=3)", " bravyi_smolin_3", "umeb_6\n",
    "\tweyl_family(d=3) ", "lift(q=2, d=3, n=6, base=bravyi_smolin_3)",
    " lift(q=1, d=3, n=6, base=x)\n", "lift(q=0, d=3, n=6, base=x)",
    "external:", "external:x", "external:bravyi_smolin_3", "external:external:x",
]


@pytest.mark.parametrize("label", _COLLIDING_LABELS)
def test_an_external_label_spelled_like_a_provenance_round_trips(
    tmp_path, general_decoder_off, label
):
    base = UMEBCandidate(3, weyl_family(3).elements[:6], External(label))
    for c in (base, lift(base, 2)):
        path = tmp_path / "m.json"
        save_umeb(c, path)
        back = load_umeb(path)  # the general decoder is off: the saved layout's fast path
        assert back.provenance == c.provenance
        for report in (verify_axioms, structural_certify, signature):
            assert repr(report(back).to_dict()) == repr(report(c).to_dict()), report.__name__
        assert signature(back).key == signature(c).key


_LABEL_PARTS = st.sampled_from(
    ["", " ", "\n", "bravyi_smolin_3", "umeb_6", "weyl_family(d=3)", "lift(q=2, d=3, n=6, base=",
     ")", "external:", "x"]
)


@settings(max_examples=300, deadline=None)
@given(label=st.one_of(st.text(max_size=12), st.lists(_LABEL_PARTS, max_size=5).map("".join)))
def test_every_provenance_string_reads_back_as_its_provenance(label):
    for p in (External(label), Lift(External(label), 3, 6, 2),
              Lift(Lift(External(label), 3, 6, 2), 6, 30, 3)):
        assert provenance_from_str(provenance_to_str(p)) == p


def test_an_unmarked_label_keeps_its_string():
    assert provenance_to_str(External("weyl subset")) == "weyl subset"
    assert provenance_to_str(External(" x ")) == " x "
    assert provenance_to_str(External("umeb_6")) == "external:umeb_6"
    assert provenance_to_str(Lift(External("umeb_6"), 6, 30, 2)) == (
        "lift(q=2, d=6, n=30, base=external:umeb_6)"
    )
    # Too deep to parse: it would not read back, so it is marked.
    deep = "lift(q=1, d=3, n=6, base=" * 1200 + "x" + ")" * 1200
    assert provenance_to_str(External(deep)) == "external:" + deep
    assert provenance_from_str("external:" + deep) == External(deep)


def test_rebuild_from_provenance():
    assert rebuild_from_provenance(External("x")) is None
    fam = rebuild_from_provenance(WeylFamily(3))
    assert len(fam) == 9
    lifted = rebuild_from_provenance(Lift(BravyiSmolin3(), 3, 6, 2))
    assert len(lifted) == 30
    # inconsistent base shape is rejected
    assert rebuild_from_provenance(Lift(BravyiSmolin3(), 3, 7, 2)) is None


def test_rebuild_checks_the_declared_base_shape_before_building(monkeypatch):
    calls = []
    real = constructions.weyl_family
    monkeypatch.setattr(constructions, "weyl_family", lambda d: calls.append(d) or real(d))
    # 1,600 operators of size 40 x 40 would be built only to be thrown away.
    assert rebuild_from_provenance(Lift(WeylFamily(40), 3, 6, 2)) is None
    assert calls == []
    # Lifted and explicit bases declare their shape through their own layout.
    assert rebuild_from_provenance(Lift(Lift(WeylFamily(40), 40, 1600, 2), 3, 6, 2)) is None
    assert rebuild_from_provenance(Lift(Umeb6(), 6, 29, 2)) is None
    assert calls == []
    assert len(rebuild_from_provenance(Lift(Umeb6(), 6, 30, 2))) == lift_counts(6, 30, 2)[0]
    nested = rebuild_from_provenance(Lift(Lift(BravyiSmolin3(), 3, 6, 2), 6, 30, 2))
    assert len(nested) == lift_counts(6, 30, 2)[0]


def test_leaf_shape_names_only_sets_built_directly():
    assert leaf_shape(WeylFamily(4)) == (4, 16)
    assert leaf_shape(BravyiSmolin3()) == (3, 6)
    for p in (Umeb6(), Lift(BravyiSmolin3(), 3, 6, 2), External("x")):
        assert leaf_shape(p) is None


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


@pytest.mark.parametrize("pairs, dim, message", [
    ([], 0, "dim must be a positive integer, got 0"),
    ([[1.0, 0.0]], -1, "dim must be a positive integer, got -1"),
    ([], 2, "element has 0 entries, expected 4 for dim 2"),
])
def test_pairs_to_matrix_rejects_empty_and_nonpositive_shapes(pairs, dim, message):
    with pytest.raises(UMEBFormatError, match=f"^{message}$"):
        pairs_to_matrix(pairs, dim)


def _with_provenance(path, provenance):
    save_umeb(bravyi_smolin_3(), path)
    doc = json.loads(path.read_text())
    doc["provenance"] = provenance
    path.write_text(json.dumps(doc))


_DEEP_PROVENANCE = "lift(q=1, d=3, n=6, base=" * 2000 + "bravyi_smolin_3" + ")" * 2000


@pytest.mark.parametrize("provenance, reason", [
    (_DEEP_PROVENANCE, "nested too deeply"),
    ("lift(q=0, d=3, n=6, base=bravyi_smolin_3)", "q >= 1"),
    ("lift(q=2, d=0, n=6, base=bravyi_smolin_3)", "positive dimension"),
], ids=["nested_too_deeply", "q_zero", "d_zero"])
def test_load_maps_bad_provenance_to_format_errors(tmp_path, provenance, reason):
    path = tmp_path / "bad.json"
    _with_provenance(path, provenance)
    with pytest.raises(UMEBFormatError, match=f"^provenance .*{re.escape(reason)}"):
        load_umeb(path)


def test_load_keeps_moderately_nested_provenance(tmp_path):
    path = tmp_path / "deep.json"
    _with_provenance(path, "lift(q=1, d=3, n=6, base=" * 50 + "bravyi_smolin_3" + ")" * 50)
    p = load_umeb(path).provenance
    for _ in range(50):
        assert isinstance(p, Lift) and p.q == 1
        p = p.base
    assert p == BravyiSmolin3()


def test_d24_lift_round_trip_is_bit_exact_and_deterministic(tmp_path):
    c = lift(bravyi_smolin_3(), 8)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_umeb(c, p1)
    save_umeb(c, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_umeb(p1)
    assert back.provenance == c.provenance
    assert [e.tobytes() for e in back.elements] == [e.tobytes() for e in c.elements]


# ---------------------------------------------------------------------------
# File format: the writer against one json.dumps per element
# ---------------------------------------------------------------------------

# The writer spelled out line by line, kept as the reference: each element
# one line, one json.dumps of its pair list.  Given ``right``, the
# lines are those matrices, under "right_factors".
def _reference_save_text(c, right=None):
    ect = c.exact_cos_theta
    ect_text = "null" if ect is None else f"[{ect.numerator}, {ect.denominator}]"
    key, matrices = ("elements", c.elements) if right is None else ("right_factors", right)
    lines = [
        "{",
        f'  "dim": {c.dim},',
        f'  "provenance": {json.dumps(provenance_to_str(c.provenance))},',
        f'  "exact_cos_theta": {ect_text},',
        f'  "{key}": [',
    ]
    n = len(matrices)
    for i, e in enumerate(matrices):
        comma = "," if i + 1 < n else ""
        lines.append(f"    {json.dumps(matrix_to_pairs(e), allow_nan=False)}{comma}")
    lines += ["  ]", "}"]
    return "\n".join(lines) + "\n"


def _external(c):
    """The same stack under an External label, which save_umeb always writes as elements."""
    return UMEBCandidate(c.dim, c.matrices, External("stack copy"), c.exact_cos_theta)


def _dense_unitaries(dim, count):
    rng = np.random.default_rng(7)
    z = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return UMEBCandidate(dim, np.linalg.qr(z)[0], External("dense"))


# A lift is saved as its right factors, so the element lines of its stack
# are pinned under an External label.
@pytest.mark.parametrize("make", [
    lambda: _external(lift(bravyi_smolin_3(), 2)),
    lambda: _external(lift(bravyi_smolin_3(), 4)),
    lambda: _external(lift(bravyi_smolin_3(), 8)),
    lambda: _external(lift(umeb_6(), 4)), lambda: weyl_family(4),
    lambda: _dense_unitaries(6, 40), _signed_zero_candidate,
], ids=["lift_bs3_2", "lift_bs3_4", "lift_bs3_8", "lift_umeb6_4", "weyl_4", "dense", "signed_zeros"])
def test_save_writes_the_reference_bytes(tmp_path, make):
    c = make()
    path = tmp_path / "m.json"
    save_umeb(c, path)
    assert path.read_bytes() == _reference_save_text(c).encode("utf-8")


# Sizes and sha256 digests recorded from an earlier, vectorised writer, so
# the writer and _reference_save_text cannot drift together unnoticed.
@pytest.mark.parametrize("make, size, digest", [
    pytest.param(bravyi_smolin_3, 1534,
                 "dad99aa13ef9405ad614eee5be9e0d9d59e57e211852fdc7fce9ee3ca4953409", id="bs3"),
    pytest.param(umeb_6, 17938,
                 "d5d29a9f5d03e5e76a52c9ddba3caea3b718e36667d3a2dbf813d97e1311108c", id="umeb6"),
    pytest.param(lambda: lift(bravyi_smolin_3(), 8), 90228,
                 "4b3b7194e190c9846809542868d1f5a979eac3e0539d89f1e2fad451cf24f9f9",
                 id="lift_bs3_8"),
    pytest.param(lambda: lift(umeb_6(), 4), 297088,
                 "fd83ce739d52392eb67421c997525ac5cec6cdde8141e994860aeac56988d308",
                 id="lift_umeb6_4"),
])
def test_saved_files_keep_their_recorded_bytes(tmp_path, make, size, digest):
    path = tmp_path / "m.json"
    save_umeb(make(), path)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_a_set_with_no_elements_is_refused_at_construction():
    # load_umeb refuses a file with no elements, so no set, and no file of
    # save_umeb's, holds none.
    for dim in (2, 3):
        for empty in ([], (), np.empty((0, dim, dim)), np.empty(0)):
            with pytest.raises(ValueError, match="at least one element"):
                UMEBCandidate(dim, empty, External("e"))


# The factors read back from a lift of the d = 3 set are the ones it was
# built from, so these files keep the bytes they had when the save read them.
@pytest.mark.parametrize("q", [1, 2, 4, 8])
def test_save_writes_the_factored_reference_bytes(tmp_path, q):
    c = lift(bravyi_smolin_3(), q)
    path = tmp_path / "m.json"
    save_umeb(c, path)
    right = c.provenance.right_factors(c.matrices)
    assert path.read_bytes() == _reference_save_text(c, right).encode("utf-8")


def test_a_lift_of_umeb6_is_saved_as_the_factors_it_was_built_from(tmp_path):
    c = lift(umeb_6(), 4)
    path = tmp_path / "m.json"
    save_umeb(c, path)
    right = np.concatenate([np.tile(weyl_family(6).matrices, (12, 1, 1)),
                            np.tile(umeb_6().matrices, (4, 1, 1))])
    assert path.read_bytes() == _reference_save_text(c, right).encode("utf-8")
    # Read back from the stack, 96 of their zeros have another sign, and
    # their products miss 192 zero signs of the stack.
    read_back = c.provenance.right_factors(c.matrices)
    assert np.count_nonzero(read_back.view(np.int64) != right.view(np.int64)) == 96
    rebuilt = c.provenance.products(read_back)
    assert np.count_nonzero(rebuilt.view(np.int64) != c.matrices.view(np.int64)) == 192


# Mostly the zeros a lift holds, among reals whose repr is short, long,
# subnormal or has an exponent.
_SAVED_REALS = st.sampled_from([0.0, -0.0] * 6 + [5e-324, -5e-324, 1e-05, 1e308, 1e16, -1.0, 0.5])


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    count=st.integers(1, 6),
    data=st.data(),
)
def test_save_writes_the_reference_bytes_property(tmp_path_factory, dim, count, data):
    n = 2 * dim * dim * count
    parts = data.draw(st.lists(_SAVED_REALS, min_size=n, max_size=n))
    mats = np.array(parts, dtype=np.float64).view(np.complex128).reshape(count, dim, dim)
    c = UMEBCandidate(dim, mats, External("drawn"))
    path = tmp_path_factory.mktemp("save") / "m.json"
    save_umeb(c, path)
    assert path.read_bytes() == _reference_save_text(c).encode("utf-8")


def test_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save_umeb(bravyi_smolin_3(), path)
    old = path.read_bytes()
    encode, calls = constructions._line, []

    def failing_line(pairs):
        calls.append(len(pairs))
        if len(calls) == 2:
            raise RuntimeError("encoding failed")
        return encode(pairs)

    monkeypatch.setattr(constructions, "_line", failing_line)
    with pytest.raises(RuntimeError, match="encoding failed"):
        save_umeb(umeb_6(), path)
    assert len(calls) == 2
    assert path.read_bytes() == old


def test_d24_save_stays_within_a_memory_bound(tmp_path):
    c = _external(lift(bravyi_smolin_3(), 8))
    path = tmp_path / "d24.json"
    tracemalloc.start()
    try:
        save_umeb(c, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The encoded lines are about the file; one string joining them, or
    # the whole file's pair lists, is one more file size or several.
    assert peak < 1.5 * path.stat().st_size


# ---------------------------------------------------------------------------
# File format: the elements scan against the general decoder
# ---------------------------------------------------------------------------

# The loader as it was before the elements scan, kept as the reference: the
# whole document through json, each element through a pair check.
def _reference_pairs_to_matrix(pairs, dim):
    if len(pairs) != dim * dim:
        raise UMEBFormatError(
            f"element has {len(pairs)} entries, expected {dim * dim} for dim {dim}"
        )
    numbers = {int, float}
    if (
        not set(map(type, pairs)) <= {list, tuple}
        or set(map(len, pairs)) != {2}
        or not set(map(type, itertools.chain.from_iterable(pairs))) <= numbers
    ):
        i = next(
            i for i, pair in enumerate(pairs)
            if not (type(pair) in {list, tuple} and len(pair) == 2
                    and all(type(x) in numbers for x in pair))
        )
        raise UMEBFormatError(f"entry {i} is not a [re, im] pair of numbers")
    try:
        parts = np.array(pairs, dtype=np.float64)
    except OverflowError as exc:
        raise UMEBFormatError(f"matrix entry out of the double range: {exc}") from exc
    if not np.all(np.isfinite(parts)):
        raise UMEBFormatError("matrix entries must be finite")
    return parts.view(np.complex128).reshape(dim, dim)


def _reference_load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UMEBFormatError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise UMEBFormatError("not valid JSON: values nested too deeply") from exc
    if not isinstance(doc, dict):
        raise UMEBFormatError("top-level value must be an object")
    for key in ("dim", "provenance", "exact_cos_theta", "elements"):
        if key not in doc:
            raise UMEBFormatError(f"missing key {key!r}")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise UMEBFormatError("dim must be a positive integer")
    if not isinstance(doc["provenance"], str):
        raise UMEBFormatError("provenance must be a string")
    try:
        prov = provenance_from_str(doc["provenance"])
    except RecursionError as exc:
        raise UMEBFormatError("provenance is nested too deeply to parse") from exc
    except ValueError as exc:
        raise UMEBFormatError(f"provenance describes no valid lift: {exc}") from exc
    ect_raw = doc["exact_cos_theta"]
    if ect_raw is None:
        ect = None
    elif (
        isinstance(ect_raw, list)
        and len(ect_raw) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in ect_raw)
        and ect_raw[1] != 0
    ):
        ect = Fraction(ect_raw[0], ect_raw[1])
    else:
        raise UMEBFormatError("exact_cos_theta must be null or [numerator, denominator]")
    if not isinstance(doc["elements"], list) or not doc["elements"]:
        raise UMEBFormatError("elements must be a nonempty list")
    elements = []
    for i, raw in enumerate(doc["elements"]):
        if not isinstance(raw, list):
            raise UMEBFormatError(f"element {i} must be a list of [re, im] pairs")
        try:
            elements.append(_reference_pairs_to_matrix(raw, dim))
        except UMEBFormatError as exc:
            raise UMEBFormatError(f"element {i}: {exc}") from exc
    return UMEBCandidate(dim, tuple(elements), prov, ect)


def _outcome(load, path):
    """What a loader makes of a file: its exact values, or its exact error."""
    try:
        c = load(path)
    except Exception as exc:  # the reference's ValueError for > 4300 digits too
        return ("error", type(exc), str(exc))
    return ("loaded", c.dim, c.provenance, c.exact_cos_theta, c.matrices.shape,
            c.matrices.tobytes())


def _refuse_general_decoder(text):
    raise AssertionError("the file was read by the general decoder")


@pytest.fixture
def general_decoder_off(monkeypatch):
    """Make any load that leaves the elements scan fail loudly."""
    monkeypatch.setattr(constructions, "_decode_document", _refuse_general_decoder)


_PLAIN_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**30, 10**30).map(str),
)
_EDGE_REALS = st.sampled_from([
    "-0.0", "0.0", "0", "-0", "5e-324", "-5e-324", "1e300", "-1e300", "1e-300", "1E+2",
    "2.5e-3", "1e400", "-1e400", "1e-400", str(10**400), "-" + str(10**400), "1" * 309,
    "-0e0", "00", "01", "-01", "1.", ".5", "+1", "1e", "1e5e3", "1.2.3", "1e5.3", "1.5e+-3",
    "1-2", "1+2", "--1", "-.5", "1.e5", "2e-", "1e5.", "-", "0x1",
])
_ODD_REALS = st.one_of(_EDGE_REALS, st.text("0123456789-+.eE", min_size=1, max_size=6))
_WHITESPACE = st.sampled_from([" ", "\n", "\t", "\r\n", "  "])
# Spellings next to the zeros the loader reads by a byte compare: other
# zeros, non-zeros that start like them, and those zeros ended by whitespace.
_NEAR_ZEROS = [
    "0.00", "-0.00", "0.0e0", "-0.0e-0", "0.0E+1", "0.05", "-0.05", "0.0e5", "-0.0e5", "0.01",
    "-0", "0", "00.0", "0.0.0", "-0.0-", "0.0 ", "-0.0\n", "0.0\t", " 0.0", "-0.0\r\n",
]


@st.composite
def _sparse_reals(draw):
    """About 90% the tokens 0.0 and -0.0, as in a saved lift; else a nearby spelling or any real."""
    k = draw(st.integers(0, 19))
    if k < 18:
        return draw(st.sampled_from(["0.0", "-0.0"]))
    return draw(st.sampled_from(_NEAR_ZEROS) if k == 18 else _PLAIN_REALS)


def _layout(value, style, depth=0):
    """A nested list of token strings written like json.dumps would write it."""
    if isinstance(value, str):
        return value
    parts = [_layout(v, style, depth + 1) for v in value]
    if style == "indent" or (style == "lines" and depth == 0):
        pad = "\n" + "    " * (depth + 1)
        return "[" + pad + ("," + pad).join(parts) + "\n" + "    " * depth + "]"
    return "[" + ", ".join(parts) + "]"


@st.composite
def _documents(draw):
    """Matrix-set files, most of them plain, each with at most a few faults.

    A plain file holds only JSON number tokens that are finite doubles; half
    the files are sparse, mostly the tokens 0.0 and -0.0.  The faults are an
    odd token (or all tokens odd), whitespace inside a token or anywhere, a
    real or a pair moved to another pair or element (which keeps the count
    of brackets or of reals), reordered or duplicated keys, a key whose
    value holds "elements" and '}', and trailing garbage.
    """
    dim, count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = 2 * dim * dim * count
    odd = draw(st.sampled_from(["none", "one", "all"]))
    plain = draw(st.sampled_from([_PLAIN_REALS, _sparse_reals()]))
    tokens = draw(st.lists(_ODD_REALS if odd == "all" else plain, min_size=n, max_size=n))
    if odd == "one":
        tokens[draw(st.integers(0, n - 1))] = draw(_ODD_REALS)
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, n - 1))
        at = draw(st.integers(0, len(tokens[k])))
        tokens[k] = tokens[k][:at] + draw(_WHITESPACE) + tokens[k][at:]
    pairs = [tokens[i:i + 2] for i in range(0, n, 2)]
    if draw(st.integers(0, 9)) == 0:
        i, j = draw(st.integers(0, len(pairs) - 1)), draw(st.integers(0, len(pairs) - 1))
        pairs[j].append(pairs[i].pop())
    value = [pairs[i:i + dim * dim] for i in range(0, len(pairs), dim * dim)]
    if draw(st.integers(0, 9)) == 0:
        i, j = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))
        value[j].append(value[i].pop())
    elements = _layout(value, draw(st.sampled_from(["lines", "single", "indent"])))
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(elements)))
        elements = elements[:at] + draw(_WHITESPACE) + elements[at:]
    provenance = draw(st.sampled_from([
        "x", "lift(q=2, d=3, n=6, base=bravyi_smolin_3)", 'elements": [[[1, 0]]]', "elements",
    ]))
    members = [
        ("dim", str(dim)),
        ("provenance", json.dumps(provenance)),
        ("exact_cos_theta", draw(st.sampled_from(["null", "[-7, 8]"] * 10 + ["[1, 0]"]))),
        ("elements", elements),
    ]
    members = list(draw(st.permutations(members)))
    if draw(st.integers(0, 9)) == 0:
        members.insert(draw(st.integers(0, 4)), draw(st.sampled_from(members)))
    if draw(st.integers(0, 9)) == 0:
        members.insert(draw(st.integers(0, 4)), ("note", '{"elements": [1, "}"]}'))
    text = "{\n" + ",\n".join(f"  {json.dumps(k)}: {v}" for k, v in members) + "\n}\n"
    return text + draw(st.sampled_from([""] * 39 + ["x", "}", " 1"]))


# A chunk size of 1 cuts the elements text after every ',' it can.
@pytest.mark.parametrize("chunk", [constructions._SCAN_CHUNK, 1])
@settings(max_examples=300, deadline=None)
@given(text=_documents())
def test_load_matches_the_general_decoder_property(tmp_path_factory, chunk, text):
    path = tmp_path_factory.mktemp("doc") / "m.json"
    path.write_bytes(text.encode("utf-8"))
    default, constructions._SCAN_CHUNK = constructions._SCAN_CHUNK, chunk
    try:
        assert _outcome(load_umeb, path) == _outcome(_reference_load, path)
    finally:
        constructions._SCAN_CHUNK = default


_HEADER = '"dim": 1, "provenance": "x", "exact_cos_theta": null'


@pytest.mark.parametrize("text", [
    # The first of two elements values is not valid JSON.
    '{' + _HEADER + ', "elements": [[[1.0,]]], "elements": [[[1.0, 0.0]]]}',
    '{' + _HEADER + ', "elements": [[[1.0, 0.0]]], "elements": [[[2.0, 0.0]]]}',
    '\ufeff{' + _HEADER + ', "elements": [[[1.0, 0.0]]]}',
    '{' + _HEADER + ', "elements": [[[1.0, 0.0]]]} {}',
    '{' + _HEADER + ', "elements": [[[1.0, 0.0]]],}',
    '{' + _HEADER + ', "elements": [[[1.0, 0.0]],]}',
    '{' + _HEADER + ', "elements": [[[1.0, "0.0"]]]}',
    '{' + _HEADER + ', "elements": [[[1.0, 0.0]] ]  , "note": "]"}',
    '{' + _HEADER + ', "elements": [[[1.0, 0.0]]] 5}',
    '{' + _HEADER + ', "elements": [[[1.0,\u00a00.0]]]}',
    '{' + _HEADER + ', "elements": [[[1.0, NaN]]]}',
    '{' + _HEADER + ', "elements": [[[1.0, Infinity]]]}',
    '{' + _HEADER + ', "elements": [[1.0, 0.0]]}',
    '{' + _HEADER + ', "elements": [[[[1.0, 0.0]]]]}',
    '{' + _HEADER + ', "elements": [[[1.0, 0.0]]]',
    '{"dim": 1, "dim": 2, "provenance": "x", "exact_cos_theta": null, "elements": [[[1.0, 0.0]]]}',
    '{"dim": true, "provenance": "x", "exact_cos_theta": null, "elements": [[[1.0, 0.0]]]}',
    '{"dim": 1, "provenance": "x", "elements": [[[1.0, 0.0]]]}',
    '[' + '[' * 5000 + ']' * 5000 + ']',
])
def test_load_matches_the_general_decoder_on_handpicked_files(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_umeb, path) == _outcome(_reference_load, path)


def _saved_layout(dim, tokens, provenance="x", cos="null", key="elements", side=None):
    """The text save_umeb writes for a set whose reals are spelled ``tokens``:
    ``side`` x ``side`` matrices (``dim`` by default) under ``key``."""
    d2 = (dim if side is None else side) ** 2
    lines = []
    for k in range(0, len(tokens), 2 * d2):
        row = tokens[k:k + 2 * d2]
        lines.append("    [" + ", ".join(f"[{a}, {b}]" for a, b in zip(row[::2], row[1::2])) + "]")
    return (
        "{\n"
        f'  "dim": {dim},\n'
        f'  "provenance": {json.dumps(provenance)},\n'
        f'  "exact_cos_theta": {cos},\n'
        f'  "{key}": [\n' + ",\n".join(lines) + "\n  ]\n}\n"
    )


# Zero spellings in every place a real can sit: each needs json's double,
# whether the byte compare reads it or json does.
_ZERO_SPELLING_FILES = [
    _saved_layout(1, [re_, im])
    for re_, im in [
        ("0.0", "-0.0"), ("-0.0", "0.0"), ("0.0", "1.5"), ("-0.0 ", "-0.0\n"), ("0.0\t", "0.0 "),
        ("-0", "0.0"), ("0.0", "-0"), ("0", "-0.0"), ("0.00", "-0.00"), ("0.0e0", "-0.0e-0"),
        ("0.0e5", "-0.0e5"), ("0.05", "-0.05"), ("0.0E+1", "-0.01"), ("0.01", "-0.0"),
        ("10.0", "-10.0"), ("1e-0", "0.0e-5"), ("\n0.0", "\n-0.0"), ("0.0\r\n", "-0.0\r\n"),
    ]
] + [
    _saved_layout(2, "0.0 -0.0 -0.0 0.0 0.0 -0.0 -0.0 0.0 "
                     "-0.0 0.0 0.0 -0.0 0.0 0.0 1.0 -0.0".split()),
    _saved_layout(1, "0.0 -0.0 -0.0 0.0 0.0 0.0 -0.0 -0.0".split()),
]


@pytest.mark.parametrize("chunk", [constructions._SCAN_CHUNK, 1])
@pytest.mark.parametrize("text", _ZERO_SPELLING_FILES)
def test_load_matches_the_general_decoder_on_zero_spellings(tmp_path, monkeypatch, chunk, text):
    path = tmp_path / "m.json"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(constructions, "_SCAN_CHUNK", chunk)
    assert _outcome(load_umeb, path) == _outcome(_reference_load, path)


@st.composite
def _saved_documents(draw):
    """Files in the saved layout with any number tokens, then up to three
    single-byte deletions, insertions or swaps anywhere in the text."""
    dim, count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = 2 * dim * dim * count
    tokens = draw(st.lists(draw(st.sampled_from([_PLAIN_REALS, _sparse_reals()])),
                           min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        odd = st.one_of(_ODD_REALS, st.sampled_from(_NEAR_ZEROS))
        tokens[draw(st.integers(0, n - 1))] = draw(odd)
    text = _saved_layout(
        dim, tokens,
        provenance=draw(st.sampled_from(
            ["x", "lift(q=2, d=3, n=6, base=bravyi_smolin_3)", 'a"b\\'])),
        cos=draw(st.sampled_from(["null", "[-7, 8]"])),
    )
    return _byte_edits(draw, text)


def _byte_edits(draw, text):
    """``text`` after up to three single-byte deletions, insertions or swaps."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(text) - 2))
        how = draw(st.sampled_from(["delete", "insert", "swap"]))
        if how == "delete":
            text = text[:at] + text[at + 1:]
        elif how == "insert":
            text = text[:at] + draw(st.sampled_from('0123456789-+.eE[],: \n"{}x')) + text[at:]
        else:
            text = text[:at] + text[at + 1] + text[at] + text[at + 2:]
    return text


@pytest.mark.parametrize("chunk", [constructions._SCAN_CHUNK, 1])
def test_load_matches_the_general_decoder_on_saved_layouts_property(tmp_path_factory, chunk):
    fast = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_saved_documents())
    def check(text):
        path = tmp_path_factory.mktemp("saved") / "m.json"
        path.write_bytes(text.encode("utf-8"))
        fast.append(constructions._load_saved(io.BytesIO(text.encode("utf-8"))) is not None)
        assert _outcome(load_umeb, path) == _outcome(_reference_load, path)

    default, constructions._SCAN_CHUNK = constructions._SCAN_CHUNK, chunk
    try:
        check()
    finally:
        constructions._SCAN_CHUNK = default
    # The fast path must see a fair share of the files, not only fall back.
    assert sum(fast) >= 0.2 * len(fast)


@st.composite
def _saved_factored_documents(draw):
    """Files of right factors in the saved layout with any number tokens,
    mostly of the count and dim of the lift they name, then byte edits."""
    q, d, n = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    layout = Lift(External("x"), d, n, q)
    count = max(1, layout.element_count + draw(st.sampled_from([0] * 8 + [-1, 1])))
    dim = layout.dim + draw(st.sampled_from([0] * 8 + [1]))
    size = 2 * d * d * count
    tokens = draw(st.lists(draw(st.sampled_from([_PLAIN_REALS, _sparse_reals()])),
                           min_size=size, max_size=size))
    provenance = draw(st.sampled_from([provenance_to_str(layout)] * 8 + ["x"]))
    text = _saved_layout(dim, tokens, provenance, draw(st.sampled_from(["null", "[-7, 8]"])),
                         key="right_factors", side=d)
    return _byte_edits(draw, text)


def _general_load(path):
    """load_umeb with the saved-layout scan declining every file."""
    real, constructions._load_saved = constructions._load_saved, lambda text: None
    try:
        return load_umeb(path)
    finally:
        constructions._load_saved = real


@pytest.mark.parametrize("chunk", [constructions._SCAN_CHUNK, 1])
def test_factored_files_load_as_the_general_decoder_reads_them_property(tmp_path_factory, chunk):
    fast = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=_saved_factored_documents())
    def check(text):
        path = tmp_path_factory.mktemp("factored") / "m.json"
        path.write_bytes(text.encode("utf-8"))
        scanned = constructions._load_saved(io.BytesIO(text.encode("utf-8")))
        fast.append(scanned is not None)
        assert _outcome(load_umeb, path) == _outcome(_general_load, path)
        if scanned is not None:
            right = _general_load(path)._right_factors
            assert scanned._right_factors.tobytes() == right.tobytes()

    default, constructions._SCAN_CHUNK = constructions._SCAN_CHUNK, chunk
    try:
        check()
    finally:
        constructions._SCAN_CHUNK = default
    assert sum(fast) >= 0.2 * len(fast)


@pytest.mark.parametrize("real, negative", [("-0", False), ("-0.0", True), ("0", False)])
def test_load_keeps_json_signed_zeros(tmp_path, real, negative):
    path = tmp_path / "z.json"
    path.write_text('{"dim": 1, "provenance": "x", "exact_cos_theta": null, '
                    f'"elements": [[[{real}, 1.5]]]}}')
    value = load_umeb(path).matrices[0, 0, 0].real
    assert value == 0.0 and bool(np.signbit(value)) is negative


@pytest.mark.parametrize("real, reason", [
    ("1e400", "matrix entries must be finite"),
    ("-1e400", "matrix entries must be finite"),
    (str(10**400), "matrix entry out of the double range"),
])
def test_load_keeps_messages_for_reals_beyond_the_double_range(tmp_path, real, reason):
    path = tmp_path / "big.json"
    save_umeb(bravyi_smolin_3(), path)
    text = path.read_text()
    first = text.index("[[", text.index('"elements"')) + 2  # element 0's first real
    path.write_text(text[:first] + real + text[text.index(",", first):])
    with pytest.raises(UMEBFormatError, match=rf"^element 0: {re.escape(reason)}"):
        load_umeb(path)


def test_load_rejects_a_huge_declared_dim_without_allocating(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1000000, "provenance": "x", "exact_cos_theta": null, '
                    '"elements": [[[1.0, 0.0]]]}')
    t0 = time.perf_counter()
    with pytest.raises(UMEBFormatError) as info:
        load_umeb(path)
    assert time.perf_counter() - t0 < 1.0
    assert str(info.value) == "element 0: element has 1 entries, expected 1000000000000 for dim 1000000"


def test_saved_layout_declaring_more_reals_than_it_holds_allocates_nothing(tmp_path):
    # Read as 10^5 lines of dim 300, the one pair would be a 144 GB stack.
    text = _saved_layout(1, ["1.0", "0.0"]).replace('"dim": 1', '"dim": 300')
    path = tmp_path / "huge.json"
    path.write_text(text.replace("\n  ]", "\n" * 100_000 + "  ]"))
    tracemalloc.start()
    try:
        outcome = _outcome(load_umeb, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == _outcome(_reference_load, path)
    assert peak < 20 * path.stat().st_size


@pytest.mark.parametrize("dim", [1, 2])
def test_a_saved_layout_with_no_matrix_lines_raises_the_general_error(tmp_path, dim):
    path = tmp_path / "m.json"
    path.write_text(_saved_layout(dim, []).replace("[\n\n  ]", "[\n  ]"))
    assert path.read_text().endswith('"elements": [\n  ]\n}\n')
    outcome = _outcome(load_umeb, path)
    assert outcome == ("error", UMEBFormatError, "elements must be a nonempty list")
    assert outcome == _outcome(_reference_load, path)


def test_a_saved_header_declaring_a_huge_dim_builds_no_line_pattern(tmp_path):
    # Read as dim 3000, the one short line would need a 72 MB line pattern.
    path = tmp_path / "huge.json"
    path.write_text(_saved_layout(1, ["1.0", "0.0"]).replace('"dim": 1', '"dim": 3000'))
    tracemalloc.start()
    try:
        outcome = _outcome(load_umeb, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == _outcome(_reference_load, path)
    assert peak < 100 * path.stat().st_size


@pytest.mark.parametrize("make", [
    bravyi_smolin_3, umeb_6, _signed_zero_candidate, lambda: weyl_family(1),
    lambda: lift(umeb_6(), 2),
])
def test_saved_files_load_through_the_elements_scan(tmp_path, general_decoder_off, make):
    c = make()
    path = tmp_path / "m.json"
    save_umeb(c, path)
    back = load_umeb(path)
    assert back.provenance == c.provenance and back.exact_cos_theta == c.exact_cos_theta
    assert back.matrices.tobytes() == c.matrices.tobytes()


# Headers that json reads to the saved values but that save_umeb never writes.
_OTHER_HEADERS = [
    ('"dim": 3,', '"dim":3,'),
    ('"dim": 3,', '"dim": 2, "dim": 3,'),
    ('"exact_cos_theta": [-7, 8]', '"exact_cos_theta": [-14, 16]'),
    ('"provenance": "bravyi_smolin_3"', '"provenance": "bravyi_smolin_\\u0033"'),
    ('{\n  "dim": 3,\n  "provenance": "bravyi_smolin_3",\n',
     '{\n  "provenance": "bravyi_smolin_3",\n  "dim": 3,\n'),
]


@pytest.mark.parametrize("old, new", _OTHER_HEADERS)
def test_only_the_saved_header_takes_the_fast_path(tmp_path, old, new):
    path = tmp_path / "m.json"
    save_umeb(bravyi_smolin_3(), path)
    text = path.read_text()
    assert constructions._load_saved(io.BytesIO(text.encode())) is not None
    text = text.replace(old, new, 1)
    path.write_text(text)
    assert constructions._load_saved(io.BytesIO(text.encode())) is None
    assert _outcome(load_umeb, path) == _outcome(_reference_load, path)
    assert load_umeb(path).matrices.tobytes() == bravyi_smolin_3().matrices.tobytes()


def test_a_one_line_file_is_declined_before_json_reads_it(monkeypatch):
    c = lift(bravyi_smolin_3(), 2)
    text = json.dumps({"dim": c.dim, "provenance": provenance_to_str(c.provenance),
                       "exact_cos_theta": [-7, 8],
                       "elements": [matrix_to_pairs(e) for e in c.elements]})

    def refuse(*args, **kwargs):
        raise AssertionError("json decoded a file the line scan declines")

    monkeypatch.setattr(json, "loads", refuse)
    assert constructions._load_saved(io.BytesIO(text.encode())) is None


@pytest.mark.parametrize("layout", ["saved", "one_line"])
def test_a_file_read_from_a_pipe_loads_as_from_disk(tmp_path, layout):
    c = lift(bravyi_smolin_3(), 2)
    path = tmp_path / "m.json"
    save_umeb(c, path)
    if layout == "one_line":
        path.write_text(json.dumps(json.loads(path.read_text())))
    code = ("import sys; from umeb.constructions import load_umeb; "
            "sys.stdout.write(load_umeb('/dev/stdin').matrices.tobytes().hex())")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], input=path.read_bytes(), env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert bytes.fromhex(done.stdout.decode()) == load_umeb(path).matrices.tobytes()


def test_reordered_and_reindented_files_load_the_same_values(tmp_path):
    c = umeb_6()
    doc = {
        "elements": [matrix_to_pairs(e) for e in c.elements],
        "exact_cos_theta": [-7, 8],
        "provenance": "umeb_6",
        "dim": 6,
    }
    path = tmp_path / "m.json"
    for indent in (None, 4):
        path.write_text(json.dumps(doc, indent=indent))
        assert load_umeb(path).matrices.tobytes() == c.matrices.tobytes()
    # Saved files with CRLF line ends, which the binary line scan declines.
    for c in (umeb_6(), lift(bravyi_smolin_3(), 2)):
        save_umeb(c, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_umeb(path).matrices.tobytes() == c.matrices.tobytes()


def _not_utf8_past_8kb(path):
    """A saved umeb_6() file with one 0xff byte in a matrix line past its first 8 KB."""
    save_umeb(umeb_6(), path)
    data = path.read_bytes()
    at = data.index(b"0.0", 9000)
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(UnicodeDecodeError) as info:
        with open(path, encoding="utf-8") as fh:
            fh.read()
    return str(info.value)


def test_a_byte_that_is_not_utf8_in_the_matrix_lines_raises_the_text_read_error(tmp_path):
    path = tmp_path / "m.json"
    expected = _not_utf8_past_8kb(path)
    assert "position 9" in expected
    with pytest.raises(UnicodeDecodeError) as info:
        load_umeb(path)
    assert str(info.value) == expected


@settings(max_examples=40, deadline=None)
@given(_matrix_sets())
def test_saved_drawn_sets_load_through_the_elements_scan_property(tmp_path_factory, mats):
    path = tmp_path_factory.mktemp("scan") / "m.json"
    save_umeb(UMEBCandidate(mats.shape[1], mats, External("drawn")), path)
    # Set per example: hypothesis runs every example under one test call.
    real, constructions._decode_document = constructions._decode_document, _refuse_general_decoder
    try:
        back = load_umeb(path)
    finally:
        constructions._decode_document = real
    assert back.matrices.tobytes() == mats.tobytes()


def test_d24_load_reads_the_scan_within_a_memory_bound(tmp_path, general_decoder_off):
    c = _external(lift(bravyi_smolin_3(), 8))
    path = tmp_path / "d24.json"
    save_umeb(c, path)
    tracemalloc.start()
    try:
        back = load_umeb(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.matrices.tobytes() == c.matrices.tobytes()
    # json.load peaked at 13.6 times the file size here.
    assert peak < 8 * path.stat().st_size
    # The text, the parsed stack and one chunk's scan; a copy of the stack on
    # construction, or the whole skeleton joined for comparison, is one more.
    assert peak < path.stat().st_size + 1.25 * c.matrices.nbytes




# ---------------------------------------------------------------------------
# File format: a lift saved as its right factors
# ---------------------------------------------------------------------------

_FACTORED_LINE = '\n  "right_factors": [\n'


def _saved_and_loaded(c, path):
    save_umeb(c, path)
    return load_umeb(path)


def _assert_same_set(back, c):
    assert back.dim == c.dim and back.provenance == c.provenance
    assert back.exact_cos_theta == c.exact_cos_theta
    assert np.array_equal(back.matrices.view(np.int64), c.matrices.view(np.int64))


def _copy(c):
    """The same stack and provenance in a candidate that was not built from factors."""
    return UMEBCandidate(c.dim, c.matrices, c.provenance, c.exact_cos_theta)


@pytest.mark.parametrize("make, factored", [
    (lambda tmp: lift(bravyi_smolin_3(), 1), True),
    (lambda tmp: lift(bravyi_smolin_3(), 8), True),
    (lambda tmp: lift(_saved_and_loaded(bravyi_smolin_3(), tmp / "bs3.json"), 4), True),
    (lambda tmp: lift(umeb_6(), 4), True),
    (lambda tmp: lift(lift(bravyi_smolin_3(), 2), 2), True),
    (lambda tmp: _saved_and_loaded(lift(umeb_6(), 2), tmp / "u2.json"), True),
    (lambda tmp: umeb_6(), False),  # assembled from its own 2 x 2 factors
    (lambda tmp: _copy(lift(bravyi_smolin_3(), 2)), False),
    (lambda tmp: bravyi_smolin_3(), False),
    (lambda tmp: _external(lift(bravyi_smolin_3(), 2)), False),
], ids=["lift_bs3_1", "lift_bs3_8", "lift_loaded_bs3_4", "lift_umeb6_4", "tower", "loaded_factored",
        "umeb6", "copy", "bs3", "external"])
def test_save_writes_right_factors_exactly_when_built_from_them(tmp_path, make, factored):
    c = make(tmp_path)
    path = tmp_path / "m.json"
    assert (c._right_factors is not None) == factored
    back = _saved_and_loaded(c, path)
    assert (_FACTORED_LINE in path.read_text()) == factored
    _assert_same_set(back, c)
    # A loaded factored file holds its factors, so it saves to the same bytes.
    again = tmp_path / "again.json"
    save_umeb(back, again)
    assert again.read_bytes() == path.read_bytes()


def _orthogonal_base(d, count, rng):
    labels = rng.permutation(d * d)[:count]
    return UMEBCandidate(d, weyl_family(d).matrices[labels], External("weyl subset"))


def _random_unitary_base(d, count, rng):
    z = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    return UMEBCandidate(d, np.linalg.qr(z)[0], External("random unitaries"))


_TOWER_BASES = {
    "weyl_subset": _orthogonal_base,
    "random_unitaries": _random_unitary_base,
    "umeb6": lambda d, count, rng: umeb_6(),
}


def _assert_factored_is_lift_split(c):
    """The factored view a candidate holds is its provenance's lift layout,
    and its distinct right factors and kinds are byte for byte those that
    Lift.split and distinct_rows give for its stack."""
    layout = as_lift(c.provenance)
    want = layout.split(c.matrices)
    assert want is not None
    view = c.factored
    assert view.layout == layout and not view.self_lift
    assert view.index.tobytes() == layout.factor_index().tobytes()
    first, kind = distinct_rows(want)
    assert view.distinct.tobytes() == want[first].tobytes()
    assert view.kind.tobytes() == kind.tobytes()


def test_saved_towers_round_trip_bit_for_bit_property(tmp_path_factory):
    layouts = []

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.sampled_from(sorted(_TOWER_BASES)),
        d=st.integers(2, 3),
        count=st.integers(1, 4),
        qs=st.lists(st.integers(1, 3), min_size=1, max_size=2),
        edit=st.sampled_from([None, _next_up, _add_tiny, _flip_zero_signs]),
        entry=st.integers(0, 10**9),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(base, d, count, qs, edit, entry, seed):
        c = _TOWER_BASES[base](d, count, np.random.default_rng(seed))
        for q in qs:
            if c.dim * q <= 24:
                c = lift(c, q)
        built = isinstance(c.provenance, Lift)
        if built:
            _assert_factored_is_lift_split(c)
        if edit is not None:  # a tampered copy under the same provenance
            m = c.matrices.copy()
            flat = m.reshape(-1)
            flat[entry % flat.size] = edit(flat[entry % flat.size])
            c = UMEBCandidate(c.dim, m, c.provenance, c.exact_cos_theta)
            assert c._right_factors is None
        path = tmp_path_factory.mktemp("tower") / "m.json"
        back = _saved_and_loaded(c, path)
        layouts.append(_FACTORED_LINE in path.read_text())
        assert layouts[-1] == (built and edit is None)
        _assert_same_set(back, c)
        if layouts[-1]:
            _assert_factored_is_lift_split(back)

    check()
    # Both layouts must be seen, not only one.
    assert 0.1 * len(layouts) <= sum(layouts) <= 0.9 * len(layouts)


@pytest.mark.parametrize("make", [
    lambda: lift(bravyi_smolin_3(), 8), lambda: lift(umeb_6(), 4),
    lambda: lift(lift(bravyi_smolin_3(), 2), 2),
], ids=["lift_bs3_8", "lift_umeb6_4", "tower"])
def test_the_scan_reads_a_saved_factored_file(tmp_path, general_decoder_off, make):
    c = make()
    path = tmp_path / "m.json"
    save_umeb(c, path)
    assert _FACTORED_LINE in path.read_text()
    back = load_umeb(path)
    _assert_same_set(back, c)
    assert back._right_factors.tobytes() == c._right_factors.tobytes()
    assert not back._right_factors.flags.writeable
    _assert_factored_is_lift_split(back)


def test_d24_factored_file_is_small_and_loads_one_stack(tmp_path):
    c = lift(bravyi_smolin_3(), 8)
    path = tmp_path / "l8.json"
    save_umeb(c, path)
    # 552 right factors of 3 x 3, not 552 elements of 24 x 24.
    assert path.stat().st_size < 0.05 * len(_reference_save_text(c))
    tracemalloc.start()
    try:
        back = load_umeb(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_set(back, c)
    # The rebuilt stack, the left factor of each element and the decoded
    # factors; a copy of the stack on construction would be one stack more.
    assert peak < 1.75 * c.matrices.nbytes
    assert not back.matrices.flags.owndata and not back.matrices.flags.writeable


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _factors(edit):
    def apply(doc):
        edit(doc["right_factors"])
    return apply


def _entry(value):
    def edit(factors):
        factors[2][1] = value
    return edit


_L2 = lift(bravyi_smolin_3(), 2)
_NOT_A_LIFT = "right_factors need a provenance that names a lift, not "
_NOT_30 = "right_factors must be a list of the lift's 30 factors"
_NOT_A_PAIR = "right factor 2: entry 1 is not a [re, im] pair of numbers"

def _huge_lift(doc):
    # 40,000 elements of 200 x 200, a 25.6 GB stack, named by a file of 30 factors.
    doc["provenance"], doc["dim"] = "lift(q=200, d=1, n=1, base=x)", 200


_BAD_FACTORED_FILES = {
    "both_keys": (_set("elements", [matrix_to_pairs(e) for e in _L2.elements]),
                  "a file holds 'elements' or 'right_factors', not both"),
    "bs3_provenance": (_set("provenance", "bravyi_smolin_3"), _NOT_A_LIFT + "'bravyi_smolin_3'"),
    "weyl_provenance": (_set("provenance", "weyl_family(d=3)"), _NOT_A_LIFT + "'weyl_family(d=3)'"),
    "external_provenance": (_set("provenance", "hand-made set"), _NOT_A_LIFT + "'hand-made set'"),
    "one_factor_short": (_factors(lambda f: f.pop()), _NOT_30),
    "one_factor_over": (_factors(lambda f: f.append(f[0])), _NOT_30),
    "empty": (_set("right_factors", []), _NOT_30),
    "not_a_list": (_set("right_factors", {"0": 1}), _NOT_30),
    "factor_2x2": (_factors(lambda f: f.__setitem__(4, f[4][:4])),
                   "right factor 4: element has 4 entries, expected 9 for dim 3"),
    "factor_4x4": (_factors(lambda f: f.__setitem__(4, f[4] + f[4][:7])),
                   "right factor 4: element has 16 entries, expected 9 for dim 3"),
    "factor_not_a_list": (_factors(lambda f: f.__setitem__(3, "x")),
                          "right factor 3 must be a list of [re, im] pairs"),
    "dim_not_qd": (_set("dim", 7), "dim 7 is not the lift's q*d = 6"),
    "huge_lift": (_huge_lift, "the lift's 40000 elements of dim 200 are too large to rebuild"),
    "nan": (_factors(_entry([float("nan"), 0.0])), "right factor 2: matrix entries must be finite"),
    "true": (_factors(_entry([True, 0.0])), _NOT_A_PAIR),
    "string": (_factors(_entry(["1.5", 0.0])), _NOT_A_PAIR),
    "big_int": (_factors(_entry([_BIG_INT, 0.0])),
                "right factor 2: matrix entry out of the double range"),
}


def _in_saved_layout(doc):
    """A decoded document written in the layout save_umeb writes: one key
    per line, and each matrix list one item per line."""
    items = []
    for key, value in doc.items():
        if key in ("elements", "right_factors") and isinstance(value, list):
            lines = ",\n".join("    " + json.dumps(item) for item in value)
            items.append(f"  {json.dumps(key)}: [\n{lines}\n  ]")
        else:
            items.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def _bad_factored_file(path, name, saved_layout=False):
    save_umeb(_L2, path)
    text = path.read_text()
    doc = json.loads(text)
    assert "right_factors" in doc and _in_saved_layout(doc) == text
    _BAD_FACTORED_FILES[name][0](doc)
    path.write_text(_in_saved_layout(doc) if saved_layout else json.dumps(doc))


@pytest.mark.parametrize("name", sorted(_BAD_FACTORED_FILES))
def test_bad_factored_files_raise_format_errors(tmp_path, monkeypatch, name):
    # One error text in the saved layout, which the line scan declines, and
    # in json.dumps form, and no product formed for either.
    def refuse(self, right):
        raise AssertionError("a refused file formed its products")

    monkeypatch.setattr(Lift, "products", refuse)
    errors = []
    for saved_layout in (True, False):
        path = tmp_path / f"bad_{saved_layout}.json"
        _bad_factored_file(path, name, saved_layout)
        with pytest.raises(UMEBFormatError) as info:
            load_umeb(path)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(_BAD_FACTORED_FILES[name][1])


def test_factors_whose_products_overflow_raise_a_format_error(tmp_path, monkeypatch):
    # Right factor 18 of lift(bs3, 3) sits under D_1 S, whose nonzero entries
    # are complex: each is finite, but 1.7e308 - 1.7e308j times one is not.
    decoded = []
    decode = constructions._decode_document
    monkeypatch.setattr(constructions, "_decode_document",
                        lambda text: decoded.append(text) or decode(text))
    c = lift(bravyi_smolin_3(), 3)
    for saved_layout in (True, False):
        path = tmp_path / f"overflow_{saved_layout}.json"
        save_umeb(c, path)
        doc = json.loads(path.read_text())
        doc["right_factors"][18][0] = [1.7e308, -1.7e308]
        path.write_text(_in_saved_layout(doc) if saved_layout else json.dumps(doc))
        with pytest.raises(UMEBFormatError, match="^right factor products must be finite$"):
            load_umeb(path)
        # The line scan reads the saved layout; only the other goes through json.
        assert len(decoded) == (0 if saved_layout else 1)


def test_a_lift_too_large_to_rebuild_is_saved_as_elements(tmp_path, monkeypatch):
    c = lift(bravyi_smolin_3(), 2)
    monkeypatch.setattr(constructions, "_MAX_REBUILT_BYTES", c.matrices.nbytes - 1)
    big = lift(bravyi_smolin_3(), 2)
    assert big._right_factors is not None
    back = _saved_and_loaded(big, tmp_path / "m.json")
    assert _FACTORED_LINE not in (tmp_path / "m.json").read_text()
    _assert_same_set(back, c)
    _assert_factored_is_lift_split(big)


def test_a_factored_file_too_large_to_rebuild_allocates_nothing(tmp_path):
    # 40,000 factors of 1 x 1 would rebuild to a 25.6 GB stack of 200 x 200.
    q = 200
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "dim": q, "provenance": f"lift(q={q}, d=1, n=1, base=x)", "exact_cos_theta": None,
        "right_factors": [[[1.0, 0.0]]] * (q * q),
    }))
    tracemalloc.start()
    try:
        with pytest.raises(UMEBFormatError, match="too large to rebuild"):
            load_umeb(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * path.stat().st_size


# ---------------------------------------------------------------------------
# File format: each distinct matrix line encoded and parsed once
# ---------------------------------------------------------------------------

# The saved-layout line encoder as it was when it encoded every matrix, kept
# as the reference for the bytes a save writes.
def _per_row_element_block(reals, d2):
    tokens = np.array(["0.0", "-0.0"], dtype=object)[np.signbit(reals).view(np.uint8)]
    nonzero = reals != 0
    if nonzero.any():
        tokens[nonzero] = json.dumps(reals[nonzero].tolist(), allow_nan=False)[1:-1].split(", ")
    pairs = tokens.reshape(-1, d2, 2)
    grid = np.empty((len(pairs), 4 * d2 + 1), dtype=object)
    grid[:, 0] = "    [["
    grid[:, 1::4] = pairs[:, :, 0]
    grid[:, 2::4] = ", "
    grid[:, 3::4] = pairs[:, :, 1]
    grid[:, 4::4] = "], ["
    grid[:, -1] = "]],\n"
    return "".join(grid.ravel().tolist())


def _per_row_saved_text(c):
    """The text of ``c`` saved as its elements by the per-row encoder."""
    reals = np.ascontiguousarray(c.matrices).view(np.float64).reshape(-1)
    lines = _per_row_element_block(reals, c.dim ** 2)
    cos = "null" if c.exact_cos_theta is None else (
        f"[{c.exact_cos_theta.numerator}, {c.exact_cos_theta.denominator}]")
    return (
        "{\n"
        f'  "dim": {c.dim},\n'
        f'  "provenance": {json.dumps(provenance_to_str(c.provenance))},\n'
        f'  "exact_cos_theta": {cos},\n'
        '  "elements": [\n' + lines[:-len(",\n")] + "\n  ]\n}\n"
    )


def _scanned_load(monkeypatch, path):
    """load_umeb of ``path`` with the general decoder refused, and the
    number of matrix lines the scan parsed."""
    lines = []
    read = constructions._read_lines

    def counting(piece, pattern):
        lines.append(piece.count(b"\n"))
        return read(piece, pattern)

    with monkeypatch.context() as m:
        m.setattr(constructions, "_read_lines", counting)
        m.setattr(constructions, "_decode_document", _refuse_general_decoder)
        back = load_umeb(path)
    return back, sum(lines)


@pytest.mark.parametrize("make, distinct", [
    pytest.param(lambda: lift(bravyi_smolin_3(), 8), 15, id="lift_bs3_8"),
    pytest.param(lambda: lift(umeb_6(), 4), 65, id="lift_umeb6_4"),
    pytest.param(lambda: lift(bravyi_smolin_3(), 4), 15, id="lift_bs3_4"),
    pytest.param(lambda: _external(lift(bravyi_smolin_3(), 8)), 552, id="elements_bs3_8"),
])
def test_each_distinct_line_of_a_saved_file_is_parsed_once(tmp_path, monkeypatch, make, distinct):
    c = make()
    path = tmp_path / "m.json"
    save_umeb(c, path)
    back, parsed = _scanned_load(monkeypatch, path)
    assert parsed == distinct
    assert back.matrices.tobytes() == c.matrices.tobytes()


@st.composite
def _repeating_sets(draw):
    """Stacks of a few distinct matrices in any order, with twins that hold
    one zero of the other sign or one real one ulp away, and at times a last
    matrix that repeats an earlier one."""
    dim = draw(st.integers(1, 3))
    size = 2 * dim * dim
    reals = st.one_of(st.sampled_from([0.0, -0.0]), _REALS)
    kinds = [np.array(draw(st.lists(reals, min_size=size, max_size=size)), dtype=np.float64)
             for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        twin = kinds[draw(st.integers(0, len(kinds) - 1))].copy()
        at = draw(st.integers(0, size - 1))
        if twin[at] == 0:
            twin[at] = -twin[at]
        else:
            with np.errstate(over="ignore"):  # the largest double steps to inf
                moved = np.nextafter(twin[at], draw(st.sampled_from([np.inf, -np.inf])))
            twin[at] = moved if np.isfinite(moved) else np.nextafter(twin[at], 0.0)
        kinds.append(twin)
    order = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=16))
    if draw(st.booleans()):
        order.append(draw(st.sampled_from(order)))
    return np.array([kinds[k] for k in order]).view(np.complex128).reshape(len(order), dim, dim)


def test_repeated_matrices_save_per_row_bytes_and_load_bit_exact_property(tmp_path_factory,
                                                                          monkeypatch):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mats=_repeating_sets(),
           chunk=st.sampled_from([1, 40, 150, constructions._SCAN_CHUNK]))
    def check(mats, chunk):
        c = UMEBCandidate(mats.shape[1], mats, External("repeats"))
        path = tmp_path_factory.mktemp("repeats") / "m.json"
        with monkeypatch.context() as m:
            m.setattr(constructions, "_SCAN_CHUNK", chunk)
            save_umeb(c, path)
            assert path.read_text() == _per_row_saved_text(c)
            back, parsed = _scanned_load(monkeypatch, path)
        assert back.matrices.view(np.int64).tobytes() == mats.view(np.int64).tobytes()
        # A saved line is a function of its matrix's bytes, so the scan
        # parses one line per distinct matrix, a repeated last one included.
        assert parsed == len(distinct_rows(mats)[0])

    check()


@pytest.mark.parametrize("chunk", [constructions._SCAN_CHUNK, 1])
def test_one_value_spelled_three_ways_loads_as_the_general_decoder_reads_it(
        tmp_path, monkeypatch, chunk):
    text = _saved_layout(
        1, "1.0 0.0 1.00 0.0 1e0 0.0 1.0 0.0 1e0 0.0 1.00 -0.0 1.00 0.0".split())
    path = tmp_path / "m.json"
    path.write_text(text)
    monkeypatch.setattr(constructions, "_SCAN_CHUNK", chunk)
    back, parsed = _scanned_load(monkeypatch, path)
    # Four distinct line texts; the last line spells the second.
    assert parsed == 4
    assert _outcome(load_umeb, path) == _outcome(_reference_load, path)
    assert back.matrices.view(np.int64).tobytes() == _reference_load(path).matrices.view(
        np.int64).tobytes()


_REPEATED_LINE = "    [[1.5, -0.0]]"


@pytest.mark.parametrize("at, line", [
    (2, "    [[1.5, true]],\n"),
    (2, '    [[1.5, "-0.0"]],\n'),
    (3, "    [[1.5, 1e400]],\n"),
    (1, "    [[1.5, -0.0]],,\n"),
    (2, "    [[1.5, -0.0, 0.0]],\n"),
    (3, "    [[1.5, -0.0],\n"),
    (4, "    [[1.5, 0.0]\n"),
    (4, "    [[1.5, -0.0]],\n"),  # the last line with the comma of the others
    (2, "    [[1.5, -0.0]]\n"),  # a middle line without its comma, as the last one
])
@pytest.mark.parametrize("chunk", [constructions._SCAN_CHUNK, 1])
def test_one_corrupt_copy_of_a_repeated_line_raises_the_general_error(
        tmp_path, monkeypatch, chunk, at, line):
    lines = [_REPEATED_LINE + ",\n"] * 4 + [_REPEATED_LINE + "\n"]
    lines[at] = line
    path = tmp_path / "m.json"
    path.write_text('{\n  "dim": 1,\n  "provenance": "x",\n  "exact_cos_theta": null,\n'
                    '  "elements": [\n' + "".join(lines) + "  ]\n}\n")
    monkeypatch.setattr(constructions, "_SCAN_CHUNK", chunk)
    outcome = _outcome(load_umeb, path)
    assert outcome[:2] == ("error", UMEBFormatError)
    assert outcome == _outcome(_reference_load, path)
