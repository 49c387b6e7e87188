"""Dense complex linear algebra for small matrix-subspace work.

All matrices are square numpy arrays of complex128, at dimensions of a few
dozen at most.  Matrices are treated as vectors of a Hilbert space under the
trace inner product Tr(a^dag b), which is the geometry every orthogonality
statement in this package lives in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "RankDeficiencyError",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "as_square",
    "as_stack",
    "distinct_rows",
    "root_of_unity",
    "kron",
    "hs_inner",
    "hs_norm",
    "gram_matrix",
    "unitarity_residual",
    "singular_values",
    "orthonormal_complement",
    "RANK_RTOL",
    "seeded_random_matrix",
    "seeded_random_stack",
]

TWO_PI = 2.0 * np.pi


class DimensionMismatchError(ValueError):
    """Operands do not have the required (matching, square) shapes."""


class RankDeficiencyError(ValueError):
    """Input matrices are linearly dependent where independence is required."""


@dataclass(frozen=True)
class Tolerances:
    """The type of :data:`DEFAULT_TOLERANCES`.  Its fields take no arguments,
    so every instance holds the package's fixed thresholds."""

    unitarity_tol: float = field(default=1e-10, init=False)
    gram_tol: float = field(default=1e-10, init=False)
    phase_tol: float = field(default=1e-9, init=False)


# The one set of numerical thresholds every layer reads; no function or
# command takes another.  Unitarity residuals must fall below
# ``unitarity_tol`` (a state is maximally entangled when its generating matrix
# passes that test) and Gram residuals below ``gram_tol``.  ``phase_tol``
# serves only eigenphase orders: a phase has order n when n times it lies
# within ``phase_tol`` of a multiple of 2*pi.
DEFAULT_TOLERANCES = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    """As :func:`as_matrix`, and also reject a matrix that is not square."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _same_square(a, b) -> tuple[np.ndarray, np.ndarray]:
    ma, mb = as_square(a), as_square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return ma, mb


# Single phase primitive: every root of unity in the package comes from here,
# so identical (k mod n)/n arguments produce bit-identical complex values.
# Quadrant angles are returned exactly.
_QUADRANT = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def root_of_unity(k: int, n: int) -> complex:
    """e^(2*pi*i*k/n) with k reduced mod n; exact on quadrant angles."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    r = k % n
    if (4 * r) % n == 0:
        return _QUADRANT[(4 * r) // n]
    return complex(np.exp(2j * np.pi * (r / n)))


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


def hs_inner(a, b) -> complex:
    """Trace inner product Tr(a^dag b) of two square matrices of equal size."""
    ma, mb = _same_square(a, b)
    return complex(np.vdot(ma, mb))


def hs_norm(a) -> float:
    """Frobenius norm, i.e. sqrt of the trace inner product of a with itself."""
    return float(np.linalg.norm(as_matrix(a)))


def as_stack(mats) -> np.ndarray:
    """Coerce an array or a sequence of d x d matrices to one (n, d, d)
    complex128 stack, rejecting NaN/Inf; an empty sequence gives (0, 0, 0)."""
    try:
        m = np.asarray(mats, dtype=np.complex128)
    except ValueError as exc:
        raise DimensionMismatchError(f"matrices do not form one (n, d, d) stack: {exc}") from exc
    if m.shape == (0,):
        m = m.reshape(0, 0, 0)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise DimensionMismatchError(f"expected an (n, d, d) stack, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``a`` (each a[k], flattened) told apart by their exact bytes.

    Returns the index of each kind's first row, kinds in byte order, and each
    row's kind.  Bytes, not float equality: rows one ulp apart, or 0.0 and
    -0.0, stay apart.  ``np.unique`` gives the same from two sorted copies:
    the split of a held ``lift(bravyi_smolin_3(), 8)`` then peaks at about
    340 KB, past the 254,362 B bound of its memory test.
    """
    flat = np.ascontiguousarray(a).reshape(len(a), int(np.prod(a.shape[1:])))
    rows = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel()
    order = rows.argsort(kind="stable")
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def gram_matrix(mats) -> np.ndarray:
    """Matrix of pairwise trace inner products of square matrices.

    Entry (a, b) is Tr(m_a^dag m_b).  ``mats`` is an (n, d, d) stack or a
    sequence of matrices that share one dimension.
    """
    m = as_stack(mats)
    if not len(m):
        raise ValueError("gram_matrix needs at least one matrix")
    flat = m.reshape(len(m), -1)
    return flat.conj() @ flat.T


def unitarity_residual(a) -> float:
    """Max entry magnitude of a^dag a - I; zero exactly when a is unitary.

    An (n, d, d) stack gives the largest residual of its matrices, and an
    empty one 0.0.
    """
    m = as_stack(a) if np.ndim(a) == 3 else as_square(a)
    eye = np.eye(m.shape[-1], dtype=np.complex128)
    return float(np.max(np.abs(np.swapaxes(m.conj(), -1, -2) @ m - eye), initial=0.0))


def singular_values(a) -> np.ndarray:
    """Singular values of a square matrix, descending."""
    return np.linalg.svd(as_square(a), compute_uv=False)


# Relative singular-value floor: a stacked matrix set whose smallest
# singular value falls below RANK_RTOL times its largest is rank deficient.
# The complement and the lift certificate's rank test share it.
RANK_RTOL = 1e-8


def orthonormal_complement(mats) -> list[np.ndarray]:
    """Orthonormal basis of the trace-orthogonal complement of span(mats).

    The inputs are flattened into the rows of one n x d^2 matrix A, and the
    basis is its null space read from a single SVD A = U S V^dag: the rows of
    V^dag after the first n satisfy Tr(a^dag v) = 0 for every input a, as
    they stand (not conjugated).

    Parameters
    ----------
    mats : (n, d, d) stack or sequence of square complex matrices, all of
        one dimension d, linearly independent.

    Returns
    -------
    list of d x d arrays, pairwise orthonormal in the trace inner product and
    orthogonal to every input; its length is d^2 - len(mats).

    Raises
    ------
    RankDeficiencyError
        If the inputs are not linearly independent, judged by ``RANK_RTOL``.
    DimensionMismatchError
        If the inputs are not square matrices of one common dimension.
    """
    m = as_stack(mats)
    if not len(m):
        raise ValueError("orthonormal_complement needs at least one matrix")
    n, d = len(m), m.shape[1]
    _, s, vh = np.linalg.svd(m.reshape(n, d * d))
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    if rank < n:
        raise RankDeficiencyError(
            f"input set of {n} matrices has rank {rank}; "
            "complement of a dependent set is ill-posed"
        )
    return list(vh[n:].reshape(-1, d, d))


def seeded_random_matrix(dim: int, seed: int) -> np.ndarray:
    """Deterministic random matrix with i.i.d. standard complex Gaussian entries.

    Each entry is (x + i y) / sqrt(2) with x, y drawn from N(0, 1) using
    numpy's default generator seeded with ``seed``; the real parts of all
    entries are drawn first, then the imaginary parts.  The Frobenius norm
    concentrates near ``dim``."""
    return seeded_random_stack(dim, 1, seed)[0]


def seeded_random_stack(dim: int, count: int, seed: int) -> np.ndarray:
    """Matrices 0 .. count-1 of the stream :func:`seeded_random_matrix` begins,
    from one generator in one call: a shorter stack is a prefix of a longer one."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    z = np.random.default_rng(seed).standard_normal((count, 2, dim, dim))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
