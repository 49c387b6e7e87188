"""Matrix families for unextendible maximally entangled bases.

Builders for the generalized Pauli (Weyl) family, the six-member
Bravyi-Smolin family in dimension 3, the thirty-member dimension-6 set, and
the tensor-product lift that turns an N-member set in dimension d into a
q(q-1)d^2 + qN member set in dimension qd.  Candidates carry provenance so
the verification layer can replay the structural argument behind a lift, and
they round-trip through a JSON file format for external sets.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    Tolerances,
    as_matrix,
    as_stack,
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
    "UMEBCandidate",
    "UMEBFormatError",
    "weyl",
    "weyl_family",
    "cyclic_shift",
    "fourier_matrix",
    "row_diag",
    "bravyi_smolin_states",
    "bravyi_smolin_3",
    "umeb_6",
    "lift",
    "lift_counts",
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


def provenance_to_str(p: Provenance) -> str:
    """Canonical string form used in the JSON file format."""
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
        return p.source
    raise TypeError(f"unknown provenance {p!r}")


_WEYL_RE = re.compile(r"^weyl_family\(d=(\d+)\)$")
_LIFT_RE = re.compile(r"^lift\(q=(\d+), d=(\d+), n=(\d+), base=(.*)\)$")


def provenance_from_str(s: str) -> Provenance:
    """Parse a canonical provenance string; anything unrecognized is External."""
    s = s.strip()
    if s == "bravyi_smolin_3":
        return BravyiSmolin3()
    if s == "umeb_6":
        return Umeb6()
    m = _WEYL_RE.match(s)
    if m:
        return WeylFamily(int(m.group(1)))
    m = _LIFT_RE.match(s)
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

@dataclass(frozen=True)
class UMEBCandidate:
    """An ordered set of d x d matrices with provenance and exact metadata.

    ``elements`` may be given as any sequence of matrices, an (n, d, d)
    array included.  The set is stored once, as the read-only (n, d, d)
    complex128 array ``matrices``; ``elements`` becomes the tuple of its
    rows, read-only views.
    ``exact_cos_theta``, when present, is the exact rational cosine of the
    one non-unit eigenphase shared by every Bravyi-Smolin-derived element; the
    spectral layer uses it to prove infinite eigenvalue orders.
    """

    dim: int
    elements: tuple[np.ndarray, ...]
    provenance: Provenance
    exact_cos_theta: Optional[Fraction] = None
    matrices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not len(self.elements):
            stack = np.empty((0, self.dim, self.dim), dtype=np.complex128)
        else:
            stack = as_stack(self.elements)
            if isinstance(self.elements, np.ndarray):
                # asarray kept the caller's buffer; a sequence was copied.
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
        return len(self.elements)


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
    mm = as_matrix(m)
    if mm.shape[0] != mm.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mm.shape}")
    if not 0 <= i < mm.shape[0]:
        raise IndexError(f"row index {i} out of range for dimension {mm.shape[0]}")
    return np.diag(mm[i, :].copy())


def _kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products a_i (x) b_j of two stacks, lexicographic in (i, j).

    One broadcast product; each entry is the single multiplication np.kron
    makes, so the result is bit-identical to it (einsum is not).
    """
    n = a.shape[1] * b.shape[1]
    return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(-1, n, n)


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

    elements = np.concatenate([
        _kron_pairs(np.stack([delta_plus, delta_minus]), weyl_family(3).matrices),
        _kron_pairs(np.stack([eta_plus, eta_minus]), bravyi_smolin_3().matrices),
    ])
    return UMEBCandidate(6, elements, Umeb6(), _EXACT_COS_THETA)


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


def lift(base: UMEBCandidate, q: int, tol: Tolerances = DEFAULT_TOLERANCES) -> UMEBCandidate:
    """Lift an N-member set in dimension d to q(q-1)d^2 + qN members in qd.

    The ordering is canonical: first the Weyl sector (D_i S^j) (x) W_nm,
    lexicographic in (i, j, n, m) with j >= 1, where D_i is the diagonal of
    row i of the q x q Fourier matrix and S the cyclic shift; then the base
    sector D_i (x) U_n, lexicographic in (i, n).  Shift powers j = 0 are
    excluded: those products are block-diagonal and would not be
    trace-orthogonal to the base sector.

    For q = 1 the Weyl sector is empty and the result is the base itself.
    """
    d = base.dim
    prov = Lift(base=base.provenance, base_dim=d, base_count=len(base.elements), q=q)
    tol_u = tol.unitarity_tol
    if unitarity_residual(base.matrices) >= tol_u:
        i = next(i for i, u in enumerate(base.matrices) if unitarity_residual(u) >= tol_u)
        raise ValueError(f"base element {i} is not unitary within tolerance")

    w = fourier_matrix(q)
    fourier_rows = np.stack([row_diag(w, i) for i in range(q)])
    shift = cyclic_shift(q)
    factors = np.array(
        [fourier_rows[i] @ np.linalg.matrix_power(shift, j) for i in range(q) for j in range(1, q)],
        dtype=np.complex128,
    ).reshape(-1, q, q)
    elements = np.concatenate([
        _kron_pairs(factors, weyl_family(d).matrices),
        _kron_pairs(fourier_rows, base.matrices),
    ])
    return UMEBCandidate(q * d, elements, prov, base.exact_cos_theta)


def rebuild_from_provenance(p: Provenance) -> Optional[UMEBCandidate]:
    """Reconstruct the candidate a provenance tag describes, if possible.

    External sets cannot be rebuilt and give None; a lift is rebuilt
    recursively when its base can be.
    """
    if isinstance(p, WeylFamily):
        return weyl_family(p.dim)
    if isinstance(p, BravyiSmolin3):
        return bravyi_smolin_3()
    if isinstance(p, Umeb6):
        return umeb_6()
    if isinstance(p, Lift):
        base = rebuild_from_provenance(p.base)
        if base is None:
            return None
        if base.dim != p.base_dim or len(base.elements) != p.base_count:
            return None
        return lift(base, p.q)
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
    """
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


def save_umeb(candidate: UMEBCandidate, path) -> None:
    """Write a candidate to the matrix-set JSON format.

    Each element is one line, encoded in one pass by the C JSON encoder.
    Reals are written as their shortest round-trip ``repr``, which
    reproduces every double bit-exactly on load (``-0.0`` included) and
    always carries a ``.`` or an exponent; output bytes are deterministic.
    """
    n = len(candidate.elements)
    lines = ["{"]
    lines.append(f'  "dim": {candidate.dim},')
    lines.append(f'  "provenance": {json.dumps(provenance_to_str(candidate.provenance))},')
    ect = candidate.exact_cos_theta
    if ect is None:
        lines.append('  "exact_cos_theta": null,')
    else:
        lines.append(f'  "exact_cos_theta": [{ect.numerator}, {ect.denominator}],')
    lines.append('  "elements": [')
    for i, e in enumerate(candidate.elements):
        comma = "," if i + 1 < n else ""
        lines.append(f"    {json.dumps(matrix_to_pairs(e), allow_nan=False)}{comma}")
    lines.append("  ]")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_umeb(path) -> UMEBCandidate:
    """Read a matrix-set JSON file written by :func:`save_umeb` or by hand.

    Each element is checked and converted in one vectorised pass by
    :func:`pairs_to_matrix`.  Reals may be written in any JSON number form,
    so files with 17 significant digits, as older versions wrote them, load
    bit-exactly too.  Canonical provenance strings are parsed back into
    structured provenance (so certification still applies to files this
    package wrote); any other string is kept as an External label.

    Raises
    ------
    UMEBFormatError
        On schema violations: missing keys, wrong types, non-square or
        mismatched elements, non-finite entries or integers beyond the double
        range, malformed cosine metadata, values or provenance nested too
        deeply to parse, a provenance lift with q or d below 1.
    """
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
            elements.append(pairs_to_matrix(raw, dim))
        except UMEBFormatError as exc:
            raise UMEBFormatError(f"element {i}: {exc}") from exc
    return UMEBCandidate(dim, tuple(elements), prov, ect)
