"""Matrix families for unextendible maximally entangled bases.

Builders for the generalized Pauli (Weyl) family, the six-member
Bravyi-Smolin family in dimension 3, the thirty-member dimension-6 set, and
the tensor-product lift that turns an N-member set in dimension d into a
q(q-1)d^2 + qN member set in dimension qd.  Candidates carry provenance so
the verification layer can replay the structural argument behind a lift, and
they round-trip through a JSON file format for external sets.
"""

from __future__ import annotations

import io
import itertools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional, Union

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    as_square,
    as_stack,
    distinct_rows,
    orthonormal_complement,
    root_of_unity,
    unitarity_residual,
)

__all__ = [
    "WeylFamily",
    "BravyiSmolin3",
    "Umeb6",
    "Lift",
    "External",
    "Provenance",
    "as_lift",
    "Factored",
    "UMEBCandidate",
    "UMEBFormatError",
    "weyl",
    "weyl_family",
    "cyclic_shift",
    "fourier_matrix",
    "row_diag",
    "left_factors",
    "bravyi_smolin_states",
    "bravyi_smolin_3",
    "umeb_6",
    "lift",
    "lift_counts",
    "leaf_shape",
    "provenance_to_str",
    "provenance_from_str",
    "rebuild_from_provenance",
    "save_umeb",
    "load_umeb",
    "matrix_to_pairs",
    "pairs_to_matrix",
]


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylFamily:
    """Complete d^2-member Weyl operator family in dimension d."""

    dim: int


@dataclass(frozen=True)
class BravyiSmolin3:
    """Six-member Bravyi-Smolin family in dimension 3."""


@dataclass(frozen=True)
class Umeb6:
    """Thirty-member dimension-6 set assembled from its explicit 2x2 factors."""


@dataclass(frozen=True)
class Lift:
    """Tensor-product lift of a base set; keeps the base's shape parameters."""

    base: "Provenance"
    base_dim: int
    base_count: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("lift requires q >= 1")
        if self.base_dim < 1 or self.base_count < 1:
            raise ValueError("lift base must have positive dimension and count")

    @property
    def weyl_count(self) -> int:
        """Size q(q-1)d^2 of the Weyl sector, which leads the element order."""
        q, d = self.q, self.base_dim
        return q * (q - 1) * d * d

    @property
    def element_count(self) -> int:
        """Size q(q-1)d^2 + qN of the lifted set: Weyl sector, then base sector."""
        return self.weyl_count + self.q * self.base_count

    @property
    def dim(self) -> int:
        """Dimension qd of the lifted set's matrices."""
        return self.q * self.base_dim

    def factor_index(self) -> np.ndarray:
        """Index into :func:`left_factors` of each element's left factor.

        The Weyl sector holds d^2 elements per factor D_i S^j, the base sector
        N per factor D_i.
        """
        q = self.q
        return np.concatenate([
            np.repeat(np.arange(q * (q - 1)), self.base_dim**2),
            np.repeat(np.arange(q * (q - 1), q * q), self.base_count),
        ])

    def fits(self, matrices) -> bool:
        """Whether a stack has this layout's shape: the one test of "laid out as this lift"."""
        return np.shape(matrices) == (self.element_count, self.dim, self.dim)

    def blocks(self, matrices) -> np.ndarray:
        """A stack that :meth:`fits`, as a view: [k, a, :, b, :] is block (a, b) of element k."""
        return np.asarray(matrices).reshape(-1, self.q, self.base_dim, self.q, self.base_dim)

    def right_factors(self, matrices) -> np.ndarray:
        """The right factor Y_k of each element of a stack that :meth:`fits`, read from its
        block (0, c_k), where F_k[0, c_k] is exactly 1: exact for a product F_k (x) Y_k."""
        _, cols, _, _ = _factor_table(self.q)
        lead = cols[self.factor_index(), 0]
        return self.blocks(matrices)[np.arange(len(lead)), 0, :, lead, :]

    def products(self, right: np.ndarray) -> np.ndarray:
        """The stack F_k (x) Y_k of this layout, from the (n, d, d) right factors Y_k."""
        return _kron_rows(left_factors(self.q)[self.factor_index()], right)

    def base_products(self, right: np.ndarray) -> np.ndarray:
        """The base sector F_k (x) Y_k, from its (qN, d, d) right factors Y_k:
        the last qN rows of :meth:`products`, bit for bit, without the Weyl sector."""
        index = self.factor_index()[self.weyl_count:]
        return _kron_rows(left_factors(self.q)[index], right)

    def split(self, matrices) -> Optional[np.ndarray]:
        """The right factors Y_k of a stack in this layout, or None.

        None unless the stack :meth:`fits` and equals the :meth:`products` of
        its :meth:`right_factors` in value, as every :func:`lift` does; with
        no tolerance, each element's spectrum is then its factors' product
        spectrum, up to one rounding per entry.  Values, not bits: -0.0
        equals 0.0, so those products can differ from the stack in the sign
        of a zero: ``umeb_6()`` splits, and so does a lift of it, whose
        factors read back from block (0, c_k), (1 + 0j) Y_k, hold 0.0 at
        some places where the Y_k it was built from hold -0.0.

        The products are not formed.  Every left factor is monomial, so row-tile
        a of F_k (x) Y_k is f Y_k in the column of row a's one nonzero f, and
        every other tile is 0 Y_k.  Each element's q such tiles are read from
        the stack and compared with f Y_k, the complex multiply of
        :meth:`products`.  Those compares fail for a non-finite Y_k (in row-tile
        0, f is exactly 1, and 1 times inf or nan leaves a nan), so a passing
        Y_k is finite and every other product entry is +-0.  The stack then
        equals its products exactly when it holds no more nonzero reals than
        its tiles do: the tiles are distinct entries of the stack, and a nan
        counts as nonzero.
        """
        if not self.fits(matrices):
            return None
        m = np.ascontiguousarray(matrices, dtype=np.complex128)
        right = self.right_factors(m)
        index = self.factor_index()
        _, cols, values, _ = _factor_table(self.q)
        rows = np.arange(self.q)
        tiles = self.blocks(m)[np.arange(len(m))[:, None], rows, :, cols[index], :]
        if not np.array_equal(tiles, values[index][:, :, None, None] * right[:, None]):
            return None
        if np.count_nonzero(m.view(np.float64)) != np.count_nonzero(tiles.view(np.float64)):
            return None
        return right


@dataclass(frozen=True)
class External:
    """Set loaded from a file whose origin this package cannot reconstruct."""

    source: str


Provenance = Union[WeylFamily, BravyiSmolin3, Umeb6, Lift, External]


def as_lift(p: Provenance) -> Optional[Lift]:
    """The lift a provenance describes, or None when it describes none.

    The explicit 30-member set counts: it is the q = 2 lift of the d = 3 base
    in the same element order, so the sector split carries over.
    """
    if isinstance(p, Lift):
        return p
    if isinstance(p, Umeb6):
        return Lift(BravyiSmolin3(), 3, 6, 2)
    return None


# Leads the string of an External label that would otherwise read back as
# another provenance, or as none; provenance_from_str strips it.
_EXTERNAL_MARK = "external:"


def provenance_to_str(p: Provenance) -> str:
    """Canonical string form used in the JSON file format.

    :func:`provenance_from_str` reads it back as ``p``: an External label
    spelled like another provenance, or already led by ``_EXTERNAL_MARK``,
    is written after that mark, at any depth of a lift.
    """
    if isinstance(p, WeylFamily):
        return f"weyl_family(d={p.dim})"
    if isinstance(p, BravyiSmolin3):
        return "bravyi_smolin_3"
    if isinstance(p, Umeb6):
        return "umeb_6"
    if isinstance(p, Lift):
        base = provenance_to_str(p.base)
        return f"lift(q={p.q}, d={p.base_dim}, n={p.base_count}, base={base})"
    if isinstance(p, External):
        try:
            plain = not p.source.startswith(_EXTERNAL_MARK) and provenance_from_str(p.source) == p
        except (ValueError, RecursionError):
            plain = False
        return p.source if plain else _EXTERNAL_MARK + p.source
    raise TypeError(f"unknown provenance {p!r}")


_WEYL_RE = re.compile(r"^weyl_family\(d=(\d+)\)$")
# DOTALL: a base label may hold line breaks.
_LIFT_RE = re.compile(r"^lift\(q=(\d+), d=(\d+), n=(\d+), base=(.*)\)$", re.DOTALL)


def provenance_from_str(s: str) -> Provenance:
    """Parse a canonical provenance string, padded or not; any other is External,
    verbatim, and one led by ``_EXTERNAL_MARK`` the External label after it."""
    if s.startswith(_EXTERNAL_MARK):
        return External(s[len(_EXTERNAL_MARK):])
    text = s.strip()
    if text == "bravyi_smolin_3":
        return BravyiSmolin3()
    if text == "umeb_6":
        return Umeb6()
    m = _WEYL_RE.match(text)
    if m:
        return WeylFamily(int(m.group(1)))
    m = _LIFT_RE.match(text)
    if m:
        return Lift(
            base=provenance_from_str(m.group(4)),
            base_dim=int(m.group(2)),
            base_count=int(m.group(3)),
            q=int(m.group(1)),
        )
    return External(s)


# ---------------------------------------------------------------------------
# Candidate container
# ---------------------------------------------------------------------------

class _Fresh(np.ndarray):
    """A stack this module built and holds nowhere else: a candidate keeps it uncopied."""


@dataclass(frozen=True, eq=False)
class Factored:
    """A set's stored matrices read as products F_k (x) Y_k of one lift layout.

    ``layout`` is the lift the provenance names when :meth:`Lift.split`
    accepts the stack, else (``self_lift``) the set's own q = 1 lift
    ``Lift(provenance, dim, n, 1)``: left factor [1] and right factors the
    stored matrices, each its own kind, so ``distinct`` is the stack itself,
    with no sort and no copy.  Y_k = distinct[kind[k]] and ``index`` is
    ``layout.factor_index()``; every array is read-only.  The split is the
    last read of a split set's stack: every fact this view gives is formed
    from the factors, which the split found equal to the stack in value.
    """

    layout: Lift
    index: np.ndarray
    distinct: np.ndarray
    kind: np.ndarray
    self_lift: bool

    @cached_property
    def tiles(self) -> np.ndarray:
        """The distinct nonzero d x d tiles of the products, formed on first use
        and then held: one per distinct pair (f, Y_k), told apart by exact
        bytes.  Every left factor is monomial, so row-tile a of F_k (x) Y_k is
        f Y_k and every other tile is 0: (F (x) Y)^dag (F (x) Y) is block
        diagonal with blocks T^dag T.  Each tile is formed as f Y_k, the
        complex multiply :meth:`Lift.split` compared the stack's tile with, so
        it equals that tile in value.  At q = 1 each element is its one tile,
        so the tiles are ``distinct``, with no copy."""
        if self.layout.q == 1:
            return self.distinct
        k, a = self._tile_sources()
        _, _, values, _ = _factor_table(self.layout.q)
        return values[self.index[k], a][:, None, None] * self.distinct[self.kind[k]]

    def right_factors(self) -> np.ndarray:
        """Each element's right factor Y_k: for a split, the bytes
        :meth:`Lift.right_factors` reads from the stack."""
        return self.distinct[self.kind]

    def complement(self) -> np.ndarray:
        """An orthonormal basis of the trace-orthogonal complement of the
        products' span, as a (D^2 - n, D, D) stack.

        The q^2 left factors are pairwise trace-orthogonal, Tr(F_f^dag F_g) =
        q delta_fg, so the span is the orthogonal sum over f of F_f (x)
        span{Y_k : F_k = F_f}, and so is its complement: F_f (x) C / sqrt(q)
        over an orthonormal basis C of each group's complement among the
        d x d matrices.  Elements are grouped by left factor, and the null
        space is taken by :func:`~umeb.linalg.orthonormal_complement` once per
        distinct group of right-factor kinds: two for a lift by q > 1, its
        Weyl and its base groups.  At q = 1 the one group is the set's right
        factors, for the self-lift its stored matrices, and the basis is
        their null space as it stands.  Raises RankDeficiencyError when a
        group is dependent, which the set then is.
        """
        q, d = self.layout.q, self.layout.base_dim
        groups = [self.kind[self.index == f] for f in range(q * q)]
        nulls = {}
        for kinds in groups:
            if kinds.tobytes() not in nulls:
                # A self-lift's one group is its stored matrices in order: no copy.
                group = self.distinct if self.self_lift else self.distinct[kinds]
                nulls[kinds.tobytes()] = np.array(orthonormal_complement(group)).reshape(-1, d, d)
        parts = [nulls[kinds.tobytes()] for kinds in groups]
        if q == 1:
            return parts[0]
        factor = np.repeat(np.arange(q * q), [len(part) for part in parts])
        return _kron_rows(left_factors(q)[factor] / np.sqrt(q), np.concatenate(parts))

    def _tile_sources(self) -> tuple[np.ndarray, np.ndarray]:
        """Element k and row-tile a of the first tile of each distinct pair (f, Y_k)."""
        q = self.layout.q
        value = _factor_table(q)[3]
        pairs = value[self.index] * len(self.distinct) + self.kind[:, None]
        _, first = np.unique(pairs, return_index=True)
        return np.divmod(first, q)


# The tile and the stack unitarity residual of a split set sum T^dag T over d
# terms against qd, so they differ by rounding only: at most 2.3e-16 over the
# random towers of the tests, D <= 24.  A tile figure this close to the
# unitarity threshold is not trusted to fall on the stack's side of it.
_TILE_ROUNDING = 1e-13


@dataclass(frozen=True, eq=False)
class UMEBCandidate:
    """An ordered set of d x d matrices with provenance and exact metadata.

    ``elements`` may be given as any sequence of matrices, an (n, d, d)
    array included.  The set is stored once, as the read-only (n, d, d)
    complex128 array ``matrices``; ``elements`` becomes the tuple of its
    rows, read-only views.  Two candidates are equal only when they are the
    same object, and hash by identity, as :class:`Factored` does; the repr
    names ``dim``, ``provenance`` and ``exact_cos_theta``, not the matrices.
    ``exact_cos_theta``, when present, is the exact rational cosine of the
    one non-unit eigenphase shared by every Bravyi-Smolin-derived element; the
    spectral layer uses it to prove infinite eigenvalue orders.

    A set built from its right factors Y_k, every :func:`lift` and a
    :func:`load_umeb` of a file of them, holds those factors as its one
    stored form.  Its ``matrices`` and ``elements`` are the
    :meth:`Lift.products` of the factors, formed on their first read and
    then held; the axiom check, the certificate and the spectral layer read
    only the factors, so they form no stack.  A save writes the factors,
    unless the stack is beyond the largest a file of them is rebuilt to;
    it then writes the stack (:func:`save_umeb`).

    A set holds at least one element: ValueError otherwise.

    Three whole-stack facts are computed on first use and then held:
    :attr:`factored`, the stack read as F_k (x) Y_k, by its lift layout or
    as the set's own q = 1 lift; :attr:`unitarity`, the largest residual of
    the stored matrices, read from that view's distinct tiles
    (:attr:`Factored.tiles`), and where it was read; and
    :attr:`axiom_report`, the report
    :func:`~umeb.verification.verify_axioms` returns.  The axiom check, the
    certificate and the spectral layer all read them, so a candidate
    verified, certified and then signed pays for each once.  Holding them
    is safe because ``matrices`` and the right factors are read-only and
    ``dim`` and ``provenance`` are frozen: nothing these facts depend on
    can change.
    """

    dim: int
    elements: tuple[np.ndarray, ...] = field(repr=False)
    provenance: Provenance
    exact_cos_theta: Optional[Fraction] = None
    matrices: np.ndarray = field(init=False, repr=False)
    # The right factors whose Lift.products the stack is, bit for bit, when
    # _of_right_factors built the set from them; None for any other set.
    _right_factors: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @classmethod
    def _of_right_factors(cls, prov: Provenance, right: np.ndarray,
                          cos: Optional[Fraction]) -> "UMEBCandidate":
        """The set F_k (x) Y_k of the lift layout ``prov`` names, held as its
        (n, d, d) right factors Y_k, which the caller built and hands over:
        they are made read-only here, and no stack is formed until
        :meth:`__getattr__` forms it.  Only these factors rebuild every zero's
        sign of that stack: (1 + 0j) Y_k, read back from it, turns -0.0 - 0.0j
        into 0.0 - 0.0j (:meth:`Lift.split`).  The caller sees to it that
        their products are finite."""
        right.flags.writeable = False
        c = object.__new__(cls)
        for name, value in (("dim", as_lift(prov).dim), ("provenance", prov),
                            ("exact_cos_theta", cos), ("_right_factors", right)):
            object.__setattr__(c, name, value)
        return c

    def __getattr__(self, name: str):
        # Reached only for an attribute that is not set: the stack of a set
        # held as its right factors, which is formed here on its first read
        # and then held, read-only, as a set built from a stack holds it.
        right = vars(self).get("_right_factors")
        if name not in ("matrices", "elements") or right is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        stack = as_lift(self.provenance).products(right)
        stack.flags.writeable = False
        object.__setattr__(self, "matrices", stack)
        object.__setattr__(self, "elements", tuple(stack))
        return vars(self)[name]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not len(self.elements):
            raise ValueError("a set holds at least one element")
        stack = as_stack(self.elements)
        # Copy what a caller may still write: its array, or a view of memory
        # it holds.  A converted sequence or dtype is already a copy, and the
        # builders here hand over fresh arrays as _Fresh.
        if not isinstance(self.elements, _Fresh) and (
            stack is self.elements or not stack.flags.owndata
        ):
            stack = stack.copy()
        if stack.shape[1:] != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"elements have shape {stack.shape[1:]}, expected ({self.dim}, {self.dim})"
            )
        stack.flags.writeable = False
        object.__setattr__(self, "matrices", stack)
        object.__setattr__(self, "elements", tuple(stack))
        if self.exact_cos_theta is not None:
            object.__setattr__(self, "exact_cos_theta", Fraction(self.exact_cos_theta))

    def __len__(self) -> int:
        right = self._right_factors
        return len(self.matrices if right is None else right)

    @cached_property
    def factored(self) -> Factored:
        """The stack as :class:`Factored` reads it.  A set built from its right
        factors Y_k is their products, which split, with no compare: each
        right factor is F_k[0, c_k] Y_k, F_k[0, c_k] exactly 1, the complex
        multiply of the products, so it has the bytes :meth:`Lift.right_factors`
        reads from the stack, whose zeros may differ in sign from Y_k's."""
        layout, right = as_lift(self.provenance), None
        if self._right_factors is not None:
            values = _factor_table(layout.q)[2]
            right = values[layout.factor_index(), 0][:, None, None] * self._right_factors
        elif layout is not None:
            right = layout.split(self.matrices)
        if right is None:
            layout = Lift(self.provenance, self.dim, len(self), 1)
            distinct, kind = self.matrices, np.arange(len(self))
        else:
            first, kind = distinct_rows(right)
            distinct = right[first]
        index = layout.factor_index()
        for part in (index, distinct, kind):
            part.flags.writeable = False
        return Factored(layout, index, distinct, kind, right is None)

    @cached_property
    def unitarity(self) -> tuple[float, str]:
        """The largest unitarity residual of the stored matrices, and where it
        was read: ``"tiles"`` or ``"stack"``.

        It is the residual of the distinct tiles :attr:`Factored.tiles`: the
        stored matrices for the self-lift (``"stack"``), and for a split the
        stack's figure summed over d terms, not qd, so equal to it up to
        rounding (``"tiles"``).  A tile figure within that rounding of
        ``unitarity_tol`` could fall on the other side of it from the stack's,
        so there, and only there, the stack is read (``"stack"``).
        """
        residual = unitarity_residual(self.factored.tiles)
        if abs(residual - DEFAULT_TOLERANCES.unitarity_tol) > _TILE_ROUNDING:
            return residual, "stack" if self.factored.self_lift else "tiles"
        return unitarity_residual(self.matrices), "stack"

    @property
    def unitarity_residual(self) -> float:
        """The residual of :attr:`unitarity`."""
        return self.unitarity[0]

    @cached_property
    def axiom_report(self) -> "VerificationReport":
        """The :func:`~umeb.verification.verify_axioms` report of this set."""
        from . import verification  # the verification layer imports this module

        return verification.VerificationReport.of(self)


# ---------------------------------------------------------------------------
# Weyl operators and the lift's q-dimensional factors
# ---------------------------------------------------------------------------

def weyl(d: int, n: int, m: int) -> np.ndarray:
    """Weyl operator sum_k e^(2*pi*i*k*n/d) |k+m mod d><k|.

    Unitary for every (n, m); periodic in both indices mod d, with equal
    indices giving bit-identical entries.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    u = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        u[(k + m) % d, k] = root_of_unity(k * n, d)
    return u


def weyl_family(d: int) -> UMEBCandidate:
    """All d^2 Weyl operators, ordered lexicographically in (n, m)."""
    elements = [weyl(d, n, m) for n in range(d) for m in range(d)]
    return UMEBCandidate(d, tuple(elements), WeylFamily(d))


def cyclic_shift(q: int) -> np.ndarray:
    """q x q permutation matrix with superdiagonal ones and a bottom-left one.

    Maps |k> to |k-1 mod q>; its q-th power is the identity and its
    eigenvalues are the q-th roots of unity.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    s = np.zeros((q, q), dtype=np.complex128)
    for i in range(q - 1):
        s[i, i + 1] = 1.0
    s[q - 1, 0] = 1.0
    return s


def fourier_matrix(q: int) -> np.ndarray:
    """q x q matrix with entry (j, k) = e^(2*pi*i*j*k/q); Vandermonde in the
    q-th roots of unity, hence invertible."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    w = np.empty((q, q), dtype=np.complex128)
    for j in range(q):
        for k in range(q):
            w[j, k] = root_of_unity(j * k, q)
    return w


def row_diag(m, i: int) -> np.ndarray:
    """Diagonal matrix whose diagonal is row i (0-indexed) of a square matrix."""
    mm = as_square(m)
    if not 0 <= i < mm.shape[0]:
        raise IndexError(f"row index {i} out of range for dimension {mm.shape[0]}")
    return np.diag(mm[i, :].copy())


@cache
def _factor_table(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The left factors of a lift by q, built on the first call and then shared, read-only.

    Returns the (q^2, q, q) :func:`left_factors` and three (q^2, q) arrays:
    the column and the value of each row's one nonzero entry (every left
    factor is monomial), and the position of that value among the distinct
    values, told apart by exact bytes.  Held until the process exits, it has
    no more entries than the lift by q that asked for it.
    """
    w, shift = fourier_matrix(q), cyclic_shift(q)
    rows = [row_diag(w, i) for i in range(q)]
    shifted = [row @ np.linalg.matrix_power(shift, j) for row in rows for j in range(1, q)]
    left = np.array(shifted + rows)
    cols = np.argmax(left != 0, axis=2)
    values = np.take_along_axis(left, cols[:, :, None], axis=2)[:, :, 0]
    kinds = distinct_rows(values.reshape(-1, 1))[1].reshape(q * q, q)
    for part in (left, cols, values, kinds):
        part.flags.writeable = False
    return left, cols, values, kinds


def left_factors(q: int) -> np.ndarray:
    """The q^2 distinct q x q left factors of a lift by q, D_i S^j (j >= 1) and then D_i.

    Each run is lexicographic in (i, j), where D_i is the diagonal of row i
    of the Fourier matrix and S the cyclic shift; :meth:`Lift.factor_index`
    names each element's factor.  Row 0 of every factor holds one nonzero
    entry, exactly 1: in column j of D_i S^j and column 0 of D_i.  Built once
    per q and held, read-only, until the process exits.
    """
    return _factor_table(q)[0]


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products a_k (x) b_k of two stacks of one length, row by row.

    One broadcast product; each entry is the single multiplication np.kron
    makes, so every row is bit-identical to it (einsum is not).
    """
    n = a.shape[1] * b.shape[1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, n, n)


# ---------------------------------------------------------------------------
# Bravyi-Smolin family (d = 3) and the explicit 30-member set (d = 6)
# ---------------------------------------------------------------------------

# cos(theta) = -7/8 makes the six operators pairwise trace-orthogonal:
# Tr(U_i^dag U_j) = (7 + 8 cos theta)/5 for i != j given |<psi_i|psi_j>|^2 = 1/5.
_EXACT_COS_THETA = Fraction(-7, 8)
_E_I_THETA = complex(-7.0 / 8.0, np.sqrt(15.0) / 8.0)


def bravyi_smolin_states() -> np.ndarray:
    """The six unit vectors behind the Bravyi-Smolin family, as rows.

    Row pairs (2p, 2p+1) are (|a> +/- alpha |b>) / sqrt(1 + alpha^2) over the
    cyclic index pairs (a, b) = (0,1), (1,2), (2,0), with alpha the golden
    ratio.  Any two distinct rows have squared overlap exactly 1/5.
    """
    alpha = (1.0 + np.sqrt(5.0)) / 2.0
    norm = np.sqrt(1.0 + alpha * alpha)
    states = np.zeros((6, 3), dtype=np.complex128)
    for p, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        for s, sign in enumerate((1.0, -1.0)):
            v = np.zeros(3, dtype=np.complex128)
            v[a] = 1.0
            v[b] = sign * alpha
            states[2 * p + s] = v / norm
    return states


def bravyi_smolin_3() -> UMEBCandidate:
    """Six 3x3 unitaries U_i = I - (1 - e^(i theta)) |psi_i><psi_i|.

    Each has eigenvalues {1, 1, e^(i theta)} with cos theta = -7/8, recorded
    exactly in the candidate's metadata.
    """
    eye = np.eye(3, dtype=np.complex128)
    elements = []
    for psi in bravyi_smolin_states():
        proj = np.outer(psi, psi.conj())
        elements.append(eye - (1.0 - _E_I_THETA) * proj)
    return UMEBCandidate(3, tuple(elements), BravyiSmolin3(), _EXACT_COS_THETA)


def umeb_6() -> UMEBCandidate:
    """The explicit 30-member set in dimension 6, built from its 2x2 factors.

    Eighteen elements are delta_pm (x) W_nm with W_nm the dimension-3 Weyl
    operators, and twelve are eta_pm (x) U_i with U_i the Bravyi-Smolin
    family, where delta_pm swaps the two blocks (with sign) and eta_pm is
    diagonal.  This assembly is independent of :func:`lift`; the two agree as
    unordered matrix sets.
    """
    delta_plus = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    delta_minus = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)
    eta_plus = np.eye(2, dtype=np.complex128)
    eta_minus = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

    left = np.repeat([delta_plus, delta_minus, eta_plus, eta_minus], [9, 9, 6, 6], axis=0)
    right = np.concatenate([np.tile(weyl_family(3).matrices, (2, 1, 1)),
                            np.tile(bravyi_smolin_3().matrices, (2, 1, 1))])
    elements = _kron_rows(left, right)
    return UMEBCandidate(6, elements.view(_Fresh), Umeb6(), _EXACT_COS_THETA)


# ---------------------------------------------------------------------------
# The lift
# ---------------------------------------------------------------------------

def lift_counts(base_dim: int, base_count: int, q: int) -> tuple[int, int]:
    """Element count of :func:`lift`, and the count the abstract states.

    Returns ``(q(q-1)d^2 + qN, (qd)^2 - (d^2 - N))``.  The first is the size
    of :func:`lift`'s set, whose complement is comp(base)^q.  The second is
    not an erratum but the exact size of another valid lift: the Weyl sector,
    plus D_i (x) W_nm for 1 <= i < q, plus I (x) U_n, whose complement is
    I (x) comp(base).  The abstract alone does not say which one the paper's
    body builds; the CLI reports both whenever they differ.
    """
    constructed = Lift(External("lift_counts"), base_dim, base_count, q).element_count
    closed_form = (q * base_dim) ** 2 - (base_dim**2 - base_count)
    return constructed, closed_form


def lift(base: UMEBCandidate, q: int) -> UMEBCandidate:
    """Lift an N-member set in dimension d to q(q-1)d^2 + qN members in qd.

    The set holds its right factors and forms its stack on the first read
    of ``matrices`` or ``elements`` (:class:`UMEBCandidate`).  Its products
    are finite: a base within ``unitarity_tol`` has entries of modulus at
    most sqrt(1 + unitarity_tol), and every Weyl and left-factor entry has
    modulus 1 or 0.

    The ordering is canonical: first the Weyl sector (D_i S^j) (x) W_nm,
    lexicographic in (i, j, n, m) with j >= 1, where D_i is the diagonal of
    row i of the q x q Fourier matrix and S the cyclic shift; then the base
    sector D_i (x) U_n, lexicographic in (i, n).  Shift powers j = 0 are
    excluded: those products are block-diagonal and would not be
    trace-orthogonal to the base sector.

    For q = 1 the Weyl sector is empty and the result is the base itself.
    Raises ValueError when a base element's unitarity residual is not below
    ``DEFAULT_TOLERANCES.unitarity_tol``.
    """
    d = base.dim
    prov = Lift(base=base.provenance, base_dim=d, base_count=len(base), q=q)
    tol = DEFAULT_TOLERANCES.unitarity_tol
    if base.unitarity_residual >= tol:
        i = next(i for i, u in enumerate(base.matrices) if unitarity_residual(u) >= tol)
        raise ValueError(f"base element {i} is not unitary within tolerance")

    right = np.concatenate([np.tile(weyl_family(d).matrices, (q * (q - 1), 1, 1)),
                            np.tile(base.matrices, (q, 1, 1))])
    return UMEBCandidate._of_right_factors(prov, right, base.exact_cos_theta)


def _too_large(layout: Lift) -> bool:
    """Whether the complex128 stack of ``layout`` is beyond ``_MAX_REBUILT_BYTES``."""
    return layout.element_count * layout.dim**2 * 16 > _MAX_REBUILT_BYTES


def leaf_shape(p: Provenance) -> Optional[tuple[int, int]]:
    """Dimension and size of the set a leaf provenance names; None if not a leaf.

    A leaf is a set built directly, not as a lift: a Weyl family or the
    six-member dimension-3 family.
    """
    if isinstance(p, WeylFamily):
        return p.dim, p.dim * p.dim
    if isinstance(p, BravyiSmolin3):
        return 3, 6
    return None


def rebuild_from_provenance(p: Provenance) -> Optional[UMEBCandidate]:
    """Reconstruct the candidate a provenance tag describes, if possible.

    External sets cannot be rebuilt and give None; a lift is rebuilt
    recursively when its base can be.  A lift whose base's shape differs
    from the declared ``base_dim`` and ``base_count`` gives None before
    anything is built.
    """
    if isinstance(p, WeylFamily):
        return weyl_family(p.dim)
    if isinstance(p, BravyiSmolin3):
        return bravyi_smolin_3()
    if isinstance(p, Umeb6):
        return umeb_6()
    if isinstance(p, Lift):
        inner = as_lift(p.base)
        shape = leaf_shape(p.base) if inner is None else (inner.dim, inner.element_count)
        if shape != (p.base_dim, p.base_count):
            return None
        base = rebuild_from_provenance(p.base)
        return None if base is None else lift(base, p.q)
    return None


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

class UMEBFormatError(ValueError):
    """A matrix-set file does not conform to the JSON schema."""


def matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pair list of a matrix, the file format's element form."""
    flat = np.ascontiguousarray(m, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()


_PAIR_TYPES = {list, tuple}
# Exact types: bool is an int subclass, and np.array would take "1.5" too.
_NUMBER_TYPES = {int, float}


def _is_pair(entry) -> bool:
    return (
        type(entry) in _PAIR_TYPES
        and len(entry) == 2
        and all(type(x) in _NUMBER_TYPES for x in entry)
    )


def pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    """Inverse of :func:`matrix_to_pairs` for a dim x dim matrix.

    One vectorised pass: the entry shapes and number types are checked by
    C-level iteration before any conversion, then all pairs are converted by
    one ``np.array`` call, which keeps every bit, signed zeros included.
    The entry that breaks the rules is looked for only on failure.
    :func:`load_umeb` converts every matrix of a file it decodes through
    here, so every matrix error comes from here.
    """
    if dim < 1:
        raise UMEBFormatError(f"dim must be a positive integer, got {dim}")
    if len(pairs) != dim * dim:
        raise UMEBFormatError(
            f"element has {len(pairs)} entries, expected {dim * dim} for dim {dim}"
        )
    if (
        not set(map(type, pairs)) <= _PAIR_TYPES
        or set(map(len, pairs)) != {2}
        or not set(map(type, itertools.chain.from_iterable(pairs))) <= _NUMBER_TYPES
    ):
        i = next(i for i, pair in enumerate(pairs) if not _is_pair(pair))
        raise UMEBFormatError(f"entry {i} is not a [re, im] pair of numbers")
    try:
        parts = np.array(pairs, dtype=np.float64)
    except OverflowError as exc:
        raise UMEBFormatError(f"matrix entry out of the double range: {exc}") from exc
    if not np.all(np.isfinite(parts)):
        raise UMEBFormatError("matrix entries must be finite")
    return parts.view(np.complex128).reshape(dim, dim)


def _pairs_to_stack(items: list, dim: int, what: str) -> np.ndarray:
    """The (n, dim, dim) stack of a nonempty list of :func:`matrix_to_pairs`
    lists, each converted by :func:`pairs_to_matrix`, whose error it raises
    for the first item that breaks a rule, with ``what`` and its index."""
    matrices = []
    for i, item in enumerate(items):
        if not isinstance(item, list):
            raise UMEBFormatError(f"{what} {i} must be a list of [re, im] pairs")
        try:
            matrices.append(pairs_to_matrix(item, dim))
        except UMEBFormatError as exc:
            raise UMEBFormatError(f"{what} {i}: {exc}") from exc
    return np.stack(matrices)


# The saved layout: a header, one line per element (:func:`_line`), the last
# one without its ',', and the footer.
_FOOTER = "  ]\n}\n"
# The two layouts: a set built from its right factors is saved as those
# d x d factors, any other set as its matrices.
_ELEMENTS, _RIGHT_FACTORS = "elements", "right_factors"
# The largest stack a file of right factors is rebuilt to: the stack is q^2
# times the factors, so a small file could otherwise ask for any size.  A
# set whose stack is larger is saved as its elements, so its file loads.
_MAX_REBUILT_BYTES = 1 << 31


def _header(dim: int, provenance: Provenance, cos: Optional[Fraction], key: str) -> str:
    """The lines of a saved file before its first matrix line, ``key`` the list they open."""
    cos_text = "null" if cos is None else f"[{cos.numerator}, {cos.denominator}]"
    return (
        "{\n"
        f'  "dim": {dim},\n'
        f'  "provenance": {json.dumps(provenance_to_str(provenance))},\n'
        f'  "exact_cos_theta": {cos_text},\n'
        f'  "{key}": [\n'
    )


def _line(pairs: list) -> str:
    """The file line of one element's :func:`matrix_to_pairs` list."""
    return "    " + json.dumps(pairs, allow_nan=False) + ",\n"


def save_umeb(candidate: UMEBCandidate, path) -> None:
    """Write a candidate to the matrix-set JSON format.

    A candidate that holds its right factors, every :func:`lift` and a
    :func:`load_umeb` of a file of them, is saved as those d x d factors
    Y_k under ``"right_factors"``, one per line in element order, with no
    stack formed; :func:`load_umeb` holds them again, and their products
    are the stack bit for bit.  It is saved as its matrices under
    ``"elements"`` instead when its stack is beyond ``_MAX_REBUILT_BYTES``,
    the largest a file of factors is rebuilt to, so that the file loads.
    Every other candidate, ``umeb_6()`` among them (it is assembled from
    its own 2 x 2 factors), is saved as its matrices too; so is a lift
    loaded from a file of its elements or its stack copied into a new
    candidate, which hold no factors.
    The file is a fixed header, one line per matrix, ``json.dumps`` of its
    :func:`matrix_to_pairs` (:func:`_line`), and a fixed footer;
    :func:`load_umeb` reads either layout without the general JSON decoder.
    Every real is its shortest round-trip ``repr``, which reproduces every
    double bit-exactly on load (``-0.0`` included) and always carries a
    ``.`` or an exponent; output bytes are deterministic.  A line depends
    only on its matrix's bytes, so each distinct matrix
    (:func:`distinct_rows`) is encoded once (15 lines, not 552, for
    ``lift(bravyi_smolin_3(), 8)``) and its line laid out wherever the
    matrix stands.  Zeros are encoded too: a dense 552-element D = 24 file,
    no line repeated, saves in 169-254 ms against 46-71 ms when each zero
    was written from its sign bit; no workload saves such a file.  Every
    line is encoded before ``path`` is opened, so an encoding error leaves
    any file there as it was.
    """
    right = candidate._right_factors
    if right is None or _too_large(as_lift(candidate.provenance)):
        key, matrices = _ELEMENTS, candidate.matrices
    else:
        key, matrices = _RIGHT_FACTORS, right
    kinds, kind = distinct_rows(matrices)
    lines = [_line(matrix_to_pairs(matrices[k])) for k in kinds.tolist()]
    body = [lines[k] for k in kind.tolist()]
    body[-1] = body[-1][:-2] + "\n"
    header = _header(candidate.dim, candidate.provenance, candidate.exact_cos_theta, key)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(body)
        fh.write(_FOOTER)


def _decode_document(text: str):
    """The whole document decoded by ``json``, its errors as UMEBFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UMEBFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise UMEBFormatError("not valid JSON: values nested too deeply") from exc


def _read_header(doc) -> tuple[int, Provenance, Optional[Fraction]]:
    """Dimension, provenance and cosine of a decoded document, checked in file order.

    The document holds its matrices under exactly one of ``"elements"`` and
    ``"right_factors"``.
    """
    if not isinstance(doc, dict):
        raise UMEBFormatError("top-level value must be an object")
    for key in ("dim", "provenance", "exact_cos_theta"):
        if key not in doc:
            raise UMEBFormatError(f"missing key {key!r}")
    if _ELEMENTS in doc and _RIGHT_FACTORS in doc:
        raise UMEBFormatError(f"a file holds {_ELEMENTS!r} or {_RIGHT_FACTORS!r}, not both")
    if _ELEMENTS not in doc and _RIGHT_FACTORS not in doc:
        raise UMEBFormatError(f"missing key {_ELEMENTS!r}")

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
    return dim, prov, ect


# Bytes a JSON number token is made of: each run of them in a matrix line
# is one token, which json reads.
_IS_NUMBER = bytes(ch in b"0123456789-+.eE" for ch in range(256))
_TO_SPACES = bytes.maketrans(b"[],\n", b"    ")
_SCAN_CHUNK = 1 << 16  # about the bytes of distinct matrix lines scanned at a time
# The first bytes of the two zero tokens a saved file holds: '0.0' or
# '-0.0' and the ',' or ']' that ends it.
_POSITIVE_ZEROS = [int.from_bytes(b"0.0" + end, "little") for end in (b",", b"]")]
_NEGATIVE_ZEROS = [int.from_bytes(b"-0.0" + end, "little") for end in (b",", b"]")]
_SPACE = ord(" ")


def _read_lines(piece: bytes, pattern: bytes) -> Optional[np.ndarray]:
    """The reals of the matrix lines ``piece``, or None unless it reads
    ``pattern`` with each run of number bytes cut to one '#'.

    A token that is exactly ``0.0`` or ``-0.0`` and ends at a ',' or ']' is
    read from its first bytes as the double json gives it, +0.0 or -0.0;
    every other token goes through one ``json.loads``.  :func:`_load_saved`
    passes each distinct line of a file once.
    """
    number = np.frombuffer(piece.translate(_IS_NUMBER), dtype=np.bool_)
    first = number.copy()
    first[1:] &= ~number[:-1]
    starts = np.flatnonzero(first)
    skeleton = np.frombuffer(piece, dtype=np.uint8).copy()
    skeleton[starts] = ord("#")
    if skeleton[first | ~number].tobytes() != pattern:
        return None
    heads = np.ndarray(len(piece), dtype="<u8", buffer=piece + b" " * 7, strides=(1,))[starts]
    heads &= 0xFFFFFFFFFF
    negative = (heads == _NEGATIVE_ZEROS[0]) | (heads == _NEGATIVE_ZEROS[1])
    heads &= 0xFFFFFFFF
    positive = (heads == _POSITIVE_ZEROS[0]) | (heads == _POSITIVE_ZEROS[1])
    rest = ~(positive | negative)
    reals = np.where(negative, -0.0, 0.0)
    text = bytearray(piece.translate(_TO_SPACES))
    chars = np.frombuffer(text, dtype=np.uint8)
    zeros = starts[~rest]
    for k in range(3):
        chars[zeros + k] = _SPACE
    chars[starts[negative] + 3] = _SPACE
    try:
        values = json.loads(b"[" + b",".join(text.split()) + b"]")
        reals[rest] = np.array(values, dtype=np.float64)
    except (ValueError, OverflowError):  # not JSON numbers, or beyond the double range
        return None
    return reals


def _load_saved(stream) -> Optional[UMEBCandidate]:
    """The candidate the binary ``stream`` holds when it is laid out as
    :func:`save_umeb` writes.

    The five header lines must be what :func:`_header` writes for the values
    json reads from them.  The matrix lines run up to the first line shorter
    than the saved line less its ',', which must start the footer.  One dict
    maps each line's bytes, the last line's as if it ended in ',' like the
    others, to its first row.  The distinct lines, in batches of about ``_SCAN_CHUNK``
    bytes, must each be the saved line with any JSON number token for each
    real (:func:`_read_lines`), and a repeated line copies its first row.
    Lines of right factors must first pass the checks of
    :func:`_factored_layout`, so no product is formed for a file the general
    decoder refuses.  None on any mismatch or error, or a real that is not a
    finite double; the general decoder then gives the value or the error.
    Right factors whose products overflow raise the decoder's
    UMEBFormatError at once.  A line read is at least as long as the saved
    line, four bytes a real, so the stack is at most twice the bytes of its
    lines; beyond it, memory holds the distinct lines and one batch's scan.
    """
    try:
        head = b"".join([stream.readline() for _ in range(5)])
        # A saved header opens the matrix list; without this, json would
        # decode all of a one-line file before it failed.
        if not head.endswith(b"[\n"):
            return None
        doc = json.loads(head + b"]}")
        dim, prov, cos = _read_header(doc)
        key = _RIGHT_FACTORS if _RIGHT_FACTORS in doc else _ELEMENTS
        if head != _header(dim, prov, cos, key).encode():
            return None
    except (ValueError, RecursionError):
        return None
    layout = as_lift(prov)  # when it is None, right factors fail _factored_layout below
    d = layout.base_dim if key == _RIGHT_FACTORS and layout is not None else dim
    d2 = d * d
    text = stream.readline()
    # This runs before the line pattern, 8 bytes a pair, is built, so a
    # header that declares a huge dim builds none much longer than twice
    # the first line.
    if len(text) < 4 * d2:
        return None
    line = _line([[0, 0]] * d2).replace("0", "#").encode()
    first_rows: dict[bytes, int] = {}
    sources = []
    while len(text) >= len(line) - 1:  # the last line has no ','
        after = stream.readline()
        if len(after) < len(line) - 1:  # the last line: keyed as if it ended in ','
            text = text[:-1] + b",\n"
        sources.append(first_rows.setdefault(text, len(sources)))
        text = after
    n = len(sources)
    if n == 0 or text + stream.read(len(_FOOTER)) != _FOOTER.encode():
        return None
    if key == _RIGHT_FACTORS:
        try:
            _factored_layout(dim, prov, n)
        except UMEBFormatError:
            return None
    sources = np.array(sources)
    new = sources == np.arange(n)
    rows = np.flatnonzero(new)
    lines = list(first_rows)  # in the order of ``rows``
    step = max(1, _SCAN_CHUNK // len(lines[0]))
    out = np.empty((n, 2 * d2), dtype=np.float64)
    for i in range(0, len(lines), step):
        batch = lines[i:i + step]
        reals = _read_lines(b"".join(batch), line * len(batch))
        if reals is None:
            return None
        out[rows[i:i + step]] = reals.reshape(len(batch), 2 * d2)
    out[~new] = out[sources[~new]]
    if not np.isfinite(out).all():
        return None
    matrices = out.view(np.complex128).reshape(n, d, d)
    if key == _RIGHT_FACTORS:
        return _rebuild_lift(matrices, prov, cos)
    return UMEBCandidate(dim, matrices.view(_Fresh), prov, cos)


def _factored_layout(dim: int, prov: Provenance, count: Optional[int]) -> Lift:
    """The lift layout of a file of ``count`` right factors (None for a
    value that is not a list) under this ``dim`` and provenance, checked
    before any product is formed."""
    layout = as_lift(prov)
    if layout is None:
        raise UMEBFormatError(
            f"right_factors need a provenance that names a lift, not {provenance_to_str(prov)!r}"
        )
    if dim != layout.dim:
        raise UMEBFormatError(f"dim {dim} is not the lift's q*d = {layout.dim}")
    n = layout.element_count
    if _too_large(layout):
        raise UMEBFormatError(f"the lift's {n} elements of dim {dim} are too large to rebuild")
    if count != n:
        raise UMEBFormatError(f"right_factors must be a list of the lift's {n} factors")
    return layout


def _rebuild_lift(right: np.ndarray, prov: Provenance, cos: Optional[Fraction]) -> UMEBCandidate:
    """The lift a file's right factors hold, in the layout its provenance
    names, held as :func:`lift` holds it.  Finite factors can still overflow
    in a product, and a set holds only finite entries.  Every nonzero entry
    of the stack is a tile entry and every other entry is +-0, so the stack
    is finite exactly when the distinct tiles are, which are checked here, at
    load and not at a later first read of the stack: UMEBFormatError otherwise."""
    candidate = UMEBCandidate._of_right_factors(prov, right, cos)
    with np.errstate(over="ignore"):
        if not np.isfinite(candidate.factored.tiles).all():
            raise UMEBFormatError("right factor products must be finite")
    return candidate


def load_umeb(path) -> UMEBCandidate:
    """Read a matrix-set JSON file written by :func:`save_umeb` or by hand.

    A file in exactly the layout :func:`save_umeb` writes, with any JSON
    number spelling for each real, is read line by line in binary mode, with
    no Python object per zero, and each distinct line is parsed once
    (:func:`_load_saved`).  Every other file, in any other layout (another
    key order or indentation, ``\\r\\n`` line ends, duplicate keys, integer
    ``-0``, values that are not finite, malformed text), is read again from
    its start in text mode, as ``open(path, encoding="utf-8")`` reads it,
    and loads through ``json`` and :func:`pairs_to_matrix`, which give the
    same values and every error; a pipe is read into memory first.
    Reals may be written in any JSON number form, so files with 17
    significant digits, as older versions wrote them, load bit-exactly too.
    A file of ``"right_factors"`` is read the same two ways: its provenance
    must name a lift, and the candidate holds the factors as its one
    stored form, so a save writes the same file again: such a file loads
    only when its stack is within ``_MAX_REBUILT_BYTES``, the bound within
    which a save writes factors.  Its stack, their
    :meth:`Lift.products`, is formed on the first read of ``matrices`` or
    ``elements``, but factors whose products overflow are refused here.
    Canonical provenance strings are parsed back into structured provenance
    (so certification still applies to files this package wrote); any other
    string is kept as an External label.

    Raises
    ------
    UMEBFormatError
        On schema violations: missing keys, wrong types, non-square or
        mismatched elements, non-finite entries or integers beyond the double
        range, malformed cosine metadata, values or provenance nested too
        deeply to parse, a provenance lift with q or d below 1; for
        ``"right_factors"``, both matrix keys present, a provenance that names
        no lift, a ``dim`` other than the lift's q d, a factor count other than
        its element count, a factor other than d x d, a lift too large to
        rebuild, or factors whose products overflow the double range.
    """
    with open(path, "rb") as fh:
        stream = fh if fh.seekable() else io.BytesIO(fh.read())  # a pipe is read once
        saved = _load_saved(stream)
        if saved is not None:
            return saved
        stream.seek(0)
        with io.TextIOWrapper(stream, encoding="utf-8") as text:
            doc = _decode_document(text.read())
    dim, prov, ect = _read_header(doc)
    if _RIGHT_FACTORS in doc:
        right = doc[_RIGHT_FACTORS]
        layout = _factored_layout(dim, prov, len(right) if isinstance(right, list) else None)
        return _rebuild_lift(_pairs_to_stack(right, layout.base_dim, "right factor"), prov, ect)
    if not isinstance(doc[_ELEMENTS], list) or not doc[_ELEMENTS]:
        raise UMEBFormatError("elements must be a nonempty list")
    stack = _pairs_to_stack(doc[_ELEMENTS], dim, "element")
    return UMEBCandidate(dim, stack.view(_Fresh), prov, ect)
