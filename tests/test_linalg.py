import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umeb.linalg import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    RankDeficiencyError,
    Tolerances,
    as_matrix,
    as_stack,
    distinct_rows,
    gram_matrix,
    hs_inner,
    hs_norm,
    kron,
    orthonormal_complement,
    root_of_unity,
    seeded_random_matrix,
    seeded_random_stack,
    unitarity_residual,
)


def test_default_tolerances():
    assert isinstance(DEFAULT_TOLERANCES, Tolerances)
    assert DEFAULT_TOLERANCES.unitarity_tol == 1e-10
    assert DEFAULT_TOLERANCES.gram_tol == 1e-10
    assert DEFAULT_TOLERANCES.phase_tol == 1e-9


def test_root_of_unity_quadrants_are_exact():
    assert root_of_unity(0, 4) == 1.0 + 0.0j
    assert root_of_unity(1, 4) == 1.0j
    assert root_of_unity(2, 4) == -1.0 + 0.0j
    assert root_of_unity(3, 4) == -1.0j
    # exact also when the reduced fraction lands on a quadrant
    assert root_of_unity(3, 6) == -1.0 + 0.0j
    assert root_of_unity(2, 8) == 1.0j


def test_root_of_unity_periodicity_and_value():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(-30, 30))
        assert root_of_unity(k, n) == root_of_unity(k + n, n)
        np.testing.assert_allclose(
            root_of_unity(k, n), np.exp(2j * np.pi * k / n), atol=1e-15
        )


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_as_stack_takes_arrays_and_sequences_alike():
    signed = np.array([[-0.0, 1.0], [1.0, -0.0j]], dtype=np.complex128)
    from_list = as_stack([signed, np.eye(2)])
    assert from_list.shape == (2, 2, 2) and from_list.dtype == np.complex128
    assert from_list[0].tobytes() == signed.tobytes()
    assert as_stack(from_list) is from_list
    assert as_stack([]).shape == (0, 0, 0)
    assert as_stack(np.empty((0, 3, 3))).shape == (0, 3, 3)


@pytest.mark.parametrize("mats", [
    [np.eye(2), np.eye(3)],
    [np.eye(2), np.ones(2)],
    np.ones((2, 2, 3)),
    np.eye(2),
    [1.0, 2.0],
], ids=["ragged", "matrix_and_vector", "non_square", "one_matrix", "scalars"])
def test_as_stack_rejects_shapes_other_than_n_d_d(mats):
    with pytest.raises(DimensionMismatchError):
        as_stack(mats)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_as_stack_rejects_non_finite_entries(bad):
    m = np.eye(2, dtype=np.complex128)
    m[1, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        as_stack([np.eye(2), m])
    with pytest.raises(ValueError, match="must be finite"):
        as_stack(np.stack([np.eye(2), m]))


def test_kron_matches_numpy():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.eye(3)
    np.testing.assert_array_equal(kron(a, b), np.kron(a, b))


def test_hs_inner_and_norm():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    b = np.array([[1.0j, 0.0], [0.0, 1.0]], dtype=complex)
    expected = np.trace(a.conj().T @ b)
    assert hs_inner(a, b) == pytest.approx(expected)
    assert hs_norm(a) == pytest.approx(np.linalg.norm(a))
    with pytest.raises(DimensionMismatchError):
        hs_inner(a, np.eye(3))


def test_gram_matrix_values_and_mismatch():
    mats = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    g = gram_matrix(mats)
    np.testing.assert_allclose(g, 2.0 * np.eye(2), atol=1e-15)
    with pytest.raises(DimensionMismatchError):
        gram_matrix([np.eye(2), np.eye(3)])


def test_unitarity_residual():
    assert unitarity_residual(np.eye(4)) == 0.0
    assert unitarity_residual(2.0 * np.eye(2)) == pytest.approx(3.0)


def test_stacked_unitarity_residual_is_the_largest_per_matrix_residual():
    rng = np.random.default_rng(4)
    stack = np.stack([np.eye(3) + 1e-9 * rng.standard_normal((3, 3)) for _ in range(7)])
    per_matrix = [unitarity_residual(m) for m in stack]
    assert unitarity_residual(stack) == max(per_matrix)
    assert unitarity_residual(np.empty((0, 3, 3))) == 0.0
    with pytest.raises(DimensionMismatchError):
        unitarity_residual(np.ones((2, 2, 3)))


def test_gram_matrix_of_a_stack_equals_that_of_its_list():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    assert gram_matrix(stack).tobytes() == gram_matrix(list(stack)).tobytes()


def test_complement_of_identity_in_dim_2():
    comp = orthonormal_complement([np.eye(2)])
    assert len(comp) == 3
    for b in comp:
        assert abs(hs_inner(np.eye(2), b)) < 1e-12
        assert hs_norm(b) == pytest.approx(1.0)
    g = gram_matrix(comp)
    np.testing.assert_allclose(g, np.eye(3), atol=1e-12)


def test_complement_contains_dropped_orthogonal_direction():
    # three of the four trace-orthogonal unitaries in dim 2; the fourth must
    # span the complement
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    xz = x @ z
    comp = orthonormal_complement([np.eye(2), x, z])
    assert len(comp) == 1
    overlap = abs(hs_inner(comp[0], xz)) / hs_norm(xz)
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_complement_of_complete_basis_is_empty():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    comp = orthonormal_complement([np.eye(2), x, z, x @ z])
    assert comp == []


def test_complement_rejects_dependent_inputs():
    with pytest.raises(RankDeficiencyError):
        orthonormal_complement([np.eye(2), 2.0 * np.eye(2)])


def test_complement_random_spans_are_orthogonal():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d * d))
        mats = [
            (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for _ in range(k)
        ]
        comp = orthonormal_complement(mats)
        assert len(comp) == d * d - k
        for b in comp:
            for m in mats:
                assert abs(hs_inner(m, b)) < 1e-10 * hs_norm(m)
        if comp:
            np.testing.assert_allclose(gram_matrix(comp), np.eye(len(comp)), atol=1e-12)


def test_seeded_random_matrix_is_deterministic():
    a = seeded_random_matrix(4, 123)
    b = seeded_random_matrix(4, 123)
    c = seeded_random_matrix(4, 124)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    assert a.shape == (4, 4)


@pytest.mark.parametrize("d", [1, 3, 6, 24])
@pytest.mark.parametrize("seed", [0, 2, 10**20])
def test_seeded_random_stack_extends_seeded_random_matrix(d, seed):
    stack = seeded_random_stack(d, 20, seed)
    assert stack.shape == (20, d, d) and stack.dtype == np.complex128
    # Matrix 0 is seeded_random_matrix's, and a shorter draw is a prefix.
    assert stack[0].tobytes() == seeded_random_matrix(d, seed).tobytes()
    assert stack[:5].tobytes() == seeded_random_stack(d, 5, seed).tobytes()
    # The one-matrix rule: real parts of all entries first, then imaginary.
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    assert seeded_random_matrix(d, seed).tobytes() == ((x + 1j * y) / np.sqrt(2.0)).tobytes()


def test_seeded_random_stack_rejects_a_dim_below_one():
    with pytest.raises(ValueError, match="dim"):
        seeded_random_stack(0, 3, 0)


# Signed zeros, one-ulp twins, two NaN payloads and any other double.
_ODD_NAN = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
_REALS = st.sampled_from(
    [0.0, -0.0, 1.0, float(np.nextafter(1.0, 2.0)), np.nan, _ODD_NAN, -2.5]
) | st.floats(width=64)


@st.composite
def _stacks_with_repeats(draw):
    """A real or complex (n, ...) stack whose rows repeat a few drawn rows."""
    is_complex = draw(st.booleans())
    shape = draw(st.sampled_from([(1,), (3,), (2, 2)]))
    size = int(np.prod(shape)) * (2 if is_complex else 1)
    row = st.lists(_REALS, min_size=size, max_size=size)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    a = np.array([pool[k] for k in picks], dtype=np.float64)
    if is_complex:
        a = a.view(np.complex128)
    return a.reshape((len(picks),) + shape)


@settings(max_examples=200, deadline=None)
@given(_stacks_with_repeats())
def test_distinct_rows_matches_a_dict_of_row_bytes(a):
    first_of = {}
    for k, row in enumerate(a):
        first_of.setdefault(row.tobytes(), k)
    kinds = sorted(first_of)
    first, inverse = distinct_rows(a)
    # Each kind's first occurrence, the kinds in byte order.
    assert first.tolist() == [first_of[key] for key in kinds]
    # Every row maps to its kind, and the kinds rebuild the stack bit for bit.
    assert inverse.tolist() == [kinds.index(row.tobytes()) for row in a]
    assert a[first][inverse].tobytes() == a.tobytes()
