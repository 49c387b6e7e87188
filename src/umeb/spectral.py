"""Spectral signatures and eigenvalue-order classification.

Two unitary sets related by simultaneous conjugation and relabeling have the
same eigenvalue multisets, so any invariant built from eigenphases separates
inequivalent sets soundly.  This module computes such a signature: for every
element, the sorted eigenphases and the multiplicative order of each
eigenvalue.  Orders are reported as Finite(n), as the honest NoOrderUpTo
when a scan finds nothing, or as ProvablyInfinite when exact rational-cosine
metadata applies: a rational cosine whose square is outside
{0, 1/4, 1/2, 3/4, 1} belongs to an angle that is no rational multiple of pi,
and multiplying by any root of unity cannot repair that.

Every element of a lift is a Kronecker product F (x) Y of a q x q and a
d x d unitary, so its eigenphases are the sums of theirs mod 2*pi.  Every
set is read as a lift: one its layout splits (``Lift.split``) takes its
spectra from the factors, and any other set is its own q = 1 lift, whose
stored matrices are its factors.  A monomial factor, one nonzero entry in
each row and column (every left factor D_i S^j and every Weyl operator),
has its eigenphases in closed form from the cycles of its permutation;
the others are eigensolved, in one batched ``eigvals``.  The only thing
held is each set's signature per bound; the left factors' phases are
taken afresh for each, at a cost far below the signature's.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .constructions import UMEBCandidate, as_lift, left_factors
from .linalg import DEFAULT_TOLERANCES, TWO_PI, distinct_rows, unitarity_residual

__all__ = [
    "Finite",
    "NoOrderUpTo",
    "ProvablyInfinite",
    "OrderClassification",
    "ElementSpectrum",
    "SignatureSummary",
    "SpectralSignature",
    "SectorRow",
    "PHASE_BUCKET",
    "eigenphases",
    "order_up_to",
    "niven_classify",
    "signature",
    "compare_signatures",
    "sector_summaries",
    "sector_table",
]


# Bucket width for canonical phase comparison; fixed so signatures computed on
# different platforms agree bit for bit.
PHASE_BUCKET = 1e-9
_FULL_TURN_TICKS = round(TWO_PI / PHASE_BUCKET)


# ---------------------------------------------------------------------------
# Order classifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finite:
    """Least positive n with lambda^n = 1 (within phase tolerance)."""

    order: int


@dataclass(frozen=True)
class NoOrderUpTo:
    """No power up to the scan bound returned to 1; nothing is claimed beyond."""

    bound: int


@dataclass(frozen=True)
class ProvablyInfinite:
    """Order infinite by the rational-cosine criterion; reason is the exact cosine."""

    reason: Fraction


OrderClassification = Union[Finite, NoOrderUpTo, ProvablyInfinite]

# The first entry of each kind's _cls_key.
_FINITE, _NO_ORDER, _INFINITE = 0, 1, 2


def _cls_key(c: OrderClassification) -> tuple[int, int, int]:
    if isinstance(c, Finite):
        return (_FINITE, c.order, 1)
    if isinstance(c, NoOrderUpTo):
        return (_NO_ORDER, c.bound, 1)
    return (_INFINITE, c.reason.numerator, c.reason.denominator)


def _cls_dict(c: OrderClassification) -> dict:
    if isinstance(c, Finite):
        return {"kind": "Finite", "order": c.order}
    if isinstance(c, NoOrderUpTo):
        return {"kind": "NoOrderUpTo", "bound": c.bound}
    return {
        "kind": "ProvablyInfinite",
        "cos": [c.reason.numerator, c.reason.denominator],
    }


# ---------------------------------------------------------------------------
# Per-phase primitives
# ---------------------------------------------------------------------------

def _require_unitary(res: float) -> None:
    """Raise unless ``res``, a unitarity residual, is below the threshold."""
    if res >= DEFAULT_TOLERANCES.unitarity_tol:
        raise ValueError(f"matrix is not unitary (residual {res:.3e})")


def eigenphases(u) -> np.ndarray:
    """Eigenvalue phases of a unitary matrix, ascending in [0, 2*pi).

    An (n, d, d) stack gives one row of d phases per matrix, each equal to
    that matrix's single result bit for bit.  A monomial matrix, one nonzero
    entry in each row and column (Weyl operators and the lift's left factors
    D_i S^j among them), takes its phases in closed form from its cycles
    (:func:`_phases`); the others come from one batched ``eigvals`` call.
    Raises ValueError when the input is not unitary within
    ``DEFAULT_TOLERANCES.unitarity_tol`` (for a stack, its largest residual);
    eigenphases of non-unitary matrices would not lie on the circle and have
    no order to speak of.
    """
    m = np.asarray(u, dtype=np.complex128)
    _require_unitary(unitarity_residual(m))
    return _phases(m)


def _phases(m: np.ndarray) -> np.ndarray:
    """:func:`eigenphases` of a complex128 matrix or stack already judged unitary.

    A matrix is monomial when, by exact compare with 0, each row and each
    column holds one nonzero entry.  Such a matrix permutes the basis up to
    phases, and on each cycle of its permutation, of length L, its
    eigenvalues are the L-th roots of the product of the cycle's entries:
    row r, t steps along its cycle from the cycle's least row, has the phase
    (S + 2*pi*t) / L mod 2*pi, where S is the sum of the entries' ``angle``
    taken in cycle order from the least row (:func:`_cycle_phases`).  The
    other matrices of the stack go through one batched ``eigvals``.  A stack
    that holds a non-finite entry goes to ``eigvals`` whole, which refuses it.
    """
    k = m.shape[-1]
    stack = m.reshape(-1, k, k)
    if not stack.size or not np.isfinite(stack).all():
        return _eig_phases(m)
    nonzero = stack != 0
    monomial = (nonzero.sum(axis=1) == 1).all(axis=1) & (nonzero.sum(axis=2) == 1).all(axis=1)
    phases = np.empty(stack.shape[:2])
    phases[monomial] = _cycle_phases(stack[monomial], nonzero[monomial])
    if not monomial.all():
        phases[~monomial] = _eig_phases(stack[~monomial])
    return phases.reshape(m.shape[:-1])


def _eig_phases(m: np.ndarray) -> np.ndarray:
    """Ascending eigenphases of a matrix or stack from one ``eigvals`` call."""
    phases = np.mod(np.angle(np.linalg.eigvals(m)), TWO_PI)
    phases[phases >= TWO_PI] -= TWO_PI
    phases.sort(axis=-1)
    return phases


def _cycle_phases(stack: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """Ascending eigenphases of an (n, k, k) stack of monomial matrices, whose
    nonzero pattern is ``nonzero``, from the cycles of their permutations.

    Row r's entry sits in column p(r), and the walk r, p(r), p(p(r)), ...
    runs along r's cycle.  One walk of at most k steps from every row at
    once gives each row's cycle length, its least row and the steps to it,
    and the sum of the angles met, added one at a time in walk order; the
    least row's sum is the cycle's, so every row of a cycle reads one sum.
    """
    n, k = nonzero.shape[:2]
    rows = np.arange(k)
    step = nonzero.argmax(axis=2)
    angle = np.angle(np.take_along_axis(stack, step[:, :, None], axis=2)[:, :, 0])
    at = np.broadcast_to(rows, (n, k)).copy()
    total = angle.copy()
    least, to_least = at.copy(), np.zeros((n, k), dtype=np.intp)
    length = np.full((n, k), k, dtype=np.intp)
    walking = np.ones((n, k), dtype=bool)
    for s in range(1, k):
        at = np.take_along_axis(step, at, axis=1)
        home = walking & (at == rows)
        length[home] = s
        walking &= ~home
        if not walking.any():
            break
        total[walking] += np.take_along_axis(angle, at, axis=1)[walking]
        lower = walking & (at < least)
        least[lower] = at[lower]
        to_least[lower] = s
    cycle = np.take_along_axis(total, least, axis=1)
    phases = np.mod((cycle + TWO_PI * ((length - to_least) % length)) / length, TWO_PI)
    phases[phases >= TWO_PI] -= TWO_PI
    phases.sort(axis=-1)
    return phases


# Entries of one block of an order scan's phases x powers table: a scan runs
# in blocks of rows, and a long one also in blocks of powers, so its memory
# stays bounded whatever the bound.
_SCAN_ENTRIES = 1 << 18


def order_up_to(
    phase, bound: int
) -> Union[OrderClassification, tuple[OrderClassification, ...]]:
    """Smallest n <= bound with n*phase a multiple of 2*pi, within
    ``DEFAULT_TOLERANCES.phase_tol``.

    Returns Finite(n) on success and NoOrderUpTo(bound) otherwise; an
    irrational-multiple-of-pi phase can never be confirmed infinite this way.
    A 1-D array of phases gives a tuple of one classification per phase; a
    single phase is its one-element case.  The scan broadcasts over blocks
    of at most ``_SCAN_ENTRIES`` (phase, power) entries, so its memory does
    not grow with ``bound``; the powers run in ascending blocks, each over
    the phases that no earlier block resolved.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    p = np.asarray(phase, dtype=np.float64)
    flat = p.ravel()
    powers = math.ceil(bound)  # the length of np.arange(1, bound + 1)
    rows = max(1, _SCAN_ENTRIES // powers)
    cols = min(powers, _SCAN_ENTRIES)
    orders = np.zeros(flat.size, dtype=np.int64)
    for lo in range(0, flat.size, rows):
        block = orders[lo:lo + rows]  # a view: its labels land in orders
        for first in range(1, powers + 1, cols):
            todo = np.flatnonzero(block == 0)
            if not todo.size:
                break
            r = flat[lo + todo][:, None] * np.arange(first, min(first + cols, powers + 1))
            np.mod(r, TWO_PI, out=r)
            np.minimum(r, TWO_PI - r, out=r)  # the distance to a multiple of 2*pi
            hits = r < DEFAULT_TOLERANCES.phase_tol
            hit = hits.any(axis=1)
            block[todo[hit]] = hits[hit].argmax(axis=1) + first
    orders = orders.tolist()
    label = {k: Finite(k) if k else NoOrderUpTo(bound) for k in set(orders)}
    labels = tuple(map(label.__getitem__, orders))
    return labels[0] if p.ndim == 0 else labels


# Rational cosines whose angle is a rational multiple of pi, with the order
# of the corresponding eigenvalue e^(i*arccos).
_FINITE_COS_ORDERS = {
    Fraction(1): 1,
    Fraction(-1): 2,
    Fraction(1, 2): 6,
    Fraction(-1, 2): 3,
    Fraction(0): 4,
}


def niven_classify(cos_value) -> OrderClassification:
    """Classify the order of e^(i*theta) from an exact rational cos(theta).

    If cos^2 lies outside {0, 1/4, 1/2, 3/4, 1}, the angle is an irrational
    multiple of pi and the order is infinite; that conclusion survives
    multiplication by any root of unity.  The only rational cosines inside
    that set are 0, +/-1/2, +/-1, each with a known finite order.
    """
    c = Fraction(cos_value)
    if not -1 <= c <= 1:
        raise ValueError(f"cosine {c} outside [-1, 1]")
    if c in _FINITE_COS_ORDERS:
        return Finite(_FINITE_COS_ORDERS[c])
    return ProvablyInfinite(c)


# ---------------------------------------------------------------------------
# Whole-set signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementSpectrum:
    """Eigenphases of one element with their order classifications.

    Entries are sorted by (phase bucket, classification); ``phase_ticks`` are
    the bucketed phases used for canonical comparison, ``phases`` the raw
    floats kept for reporting only.
    """

    phases: tuple[float, ...]
    phase_ticks: tuple[int, ...]
    classifications: tuple[OrderClassification, ...]

    def canonical_key(self):
        return (self.phase_ticks, tuple(_cls_key(c) for c in self.classifications))

    def to_dict(self, shared: Optional[dict] = None) -> dict:
        """The record as JSON-ready data.

        ``shared``, a memo passed from call to call while the records live,
        makes classifications that are one object share one dict, and
        records whose classifications are the same objects, in order, share
        one list.  Copy a shared list or dict before mutating it.
        """
        shared = {} if shared is None else shared
        key = tuple(map(id, self.classifications))
        made = shared.get(key)
        if made is None:
            for c in self.classifications:
                if id(c) not in shared:
                    shared[id(c)] = _cls_dict(c)
            made = shared[key] = [shared[id(c)] for c in self.classifications]
        return {"phases": list(self.phases), "classifications": made}


@dataclass(frozen=True)
class SignatureSummary:
    min_finite_order: Optional[int]
    max_finite_order: Optional[int]
    provably_infinite_count: int
    no_order_count: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SectorRow:
    """Order statistics of one sector of a candidate, in element order."""

    name: str
    element_count: int
    min_finite_order: Optional[int]
    max_finite_order: Optional[int]
    provably_infinite_count: int
    no_order_count: int
    elements_with_infinite: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SpectralSignature:
    """Canonically sorted per-element spectra; a multiset invariant.

    Invariant under simultaneous conjugation of every element by one unitary
    and under any permutation of the elements, because records are compared
    by bucketed phases and sorted.  ``sectors`` summarize the same spectra
    per sector, in element order; they are not part of the canonical key.
    ``key`` is that key, (dim, element_count, each record's canonical key),
    built once by :func:`signature`.
    """

    dim: int
    element_count: int
    bound: int
    records: tuple[ElementSpectrum, ...]
    summary: SignatureSummary
    sectors: tuple[SectorRow, ...]
    key: tuple = field(repr=False, compare=False)

    def canonical_key(self):
        return self.key

    def to_dict(self) -> dict:
        """The signature as JSON-ready data, its records from
        :meth:`ElementSpectrum.to_dict`.

        Records that are one object, as :func:`signature` shares them, share
        one dict; records share one ``classifications`` list per distinct
        tuple of classification objects, and those lists one dict per
        classification object: the 552 records of ``lift(bs3, 8)`` are 18
        record dicts, 12 lists and 11 classification dicts.  Copy a shared
        dict or list before mutating it.
        """
        shared = {}
        made = {key: r.to_dict(shared) for key, r in {id(r): r for r in self.records}.items()}
        return {
            "dim": self.dim,
            "element_count": self.element_count,
            "bound": self.bound,
            "summary": self.summary.to_dict(),
            "sectors": [r.to_dict() for r in self.sectors],
            "records": [made[id(r)] for r in self.records],
        }


def _bucket(phase: float) -> int:
    tick = int(round(phase / PHASE_BUCKET))
    return 0 if tick >= _FULL_TURN_TICKS else tick


def _classify(
    values: np.ndarray, bound: int, exact_cos: Optional[Fraction]
) -> tuple[OrderClassification, ...]:
    """Order classification of each phase in ``values``, from an
    :func:`order_up_to` scan of the phases themselves.

    A phase that resists that scan is ProvablyInfinite when it equals
    +/-theta shifted by a root of unity, with cos(theta) = ``exact_cos``
    rational of irrational angle: a rational multiple of pi plus an
    irrational one stays irrational.  Only those phases, and only when the
    cosine can promote them, have their +/-theta shifts scanned, in one more
    scan; the labels are those one scan of every phase and both its shifts
    gives.  A cosine outside [-1, 1] raises ValueError exactly when some
    phase resists the first scan.
    """
    own = order_up_to(values, bound)
    if exact_cos is None:
        return own
    unresolved = [i for i, cls in enumerate(own) if not isinstance(cls, Finite)]
    if not unresolved or not isinstance(niven_classify(exact_cos), ProvablyInfinite):
        return own
    theta = float(np.arccos(float(exact_cos)))
    phases = values[unresolved]
    shifted = order_up_to(
        np.concatenate([np.mod(phases - theta, TWO_PI), np.mod(phases + theta, TWO_PI)]), bound
    )
    infinite = ProvablyInfinite(Fraction(exact_cos))
    labels = list(own)
    for j, i in enumerate(unresolved):
        if isinstance(shifted[j], Finite) or isinstance(shifted[len(unresolved) + j], Finite):
            labels[i] = infinite
    return tuple(labels)


def _summarize(kinds: np.ndarray, orders: np.ndarray, inverse: np.ndarray) -> SignatureSummary:
    """Order statistics of the phases ``inverse`` points at.

    ``kinds`` and ``orders`` label each distinct phase value: the first entry
    of its classification's :func:`_cls_key`, and its order when Finite.
    """
    counts = np.bincount(inverse.ravel(), minlength=len(kinds))
    finite = orders[(counts > 0) & (kinds == _FINITE)]
    return SignatureSummary(
        min_finite_order=int(finite.min()) if finite.size else None,
        max_finite_order=int(finite.max()) if finite.size else None,
        provably_infinite_count=int(counts[kinds == _INFINITE].sum()),
        no_order_count=int(counts[kinds == _NO_ORDER].sum()),
    )


def _sector_rows(
    c: UMEBCandidate, kinds: np.ndarray, orders: np.ndarray, inverse: np.ndarray
) -> tuple[SectorRow, ...]:
    """Per-sector statistics of the (element, phase) labels ``inverse``.

    A candidate laid out as a lift, by provenance and by its element count
    and dimension, is split into its Weyl sector, the first q(q-1)d^2
    elements, and the base sector holding the rest; anything else is
    summarized as a single sector.
    """
    layout = as_lift(c.provenance)
    sectors = [("all", inverse)]
    if layout is not None and (len(c), c.dim) == (layout.element_count, layout.dim):
        cut = layout.weyl_count
        sectors = [("weyl", inverse[:cut]), ("base", inverse[cut:])]
    return tuple(
        SectorRow(
            name,
            len(rows),
            **asdict(_summarize(kinds, orders, rows)),
            elements_with_infinite=int(np.count_nonzero((kinds[rows] == _INFINITE).any(axis=1))),
        )
        for name, rows in sectors
    )


def _element_phases(c: UMEBCandidate) -> np.ndarray:
    """Eigenphases of each element, one ascending row each, as :func:`eigenphases`.

    Unitarity is judged by the residual the candidate holds, so every set
    raises alike.  The :attr:`~UMEBCandidate.factored` view gives (phi_F +
    phi_Y) mod 2*pi, from one :func:`eigenphases` call on the q^2 left factors
    and one :func:`_phases` call on the distinct right factors, both made
    once per set and bound, as :func:`signature` holds its result: for the
    self-lift, whose left factor [1] has phase 0, the stored matrices'.  The
    left factors and the monomial right factors take their phases in closed
    form, so of a lift of bs3 only the six base factors are eigensolved.
    The eigenvalues of F (x) Y
    are the products of F's and Y's whether or not Y on its own passes the
    unitarity threshold, so a split set's stack is never eigensolved.
    """
    _require_unitary(c.unitarity_residual)
    view = c.factored
    left = eigenphases(left_factors(view.layout.q))[view.index]
    # Both terms lie in [0, 2*pi), so the remainder is exact and below 2*pi.
    phases = np.mod(left[:, :, None] + _phases(view.distinct)[view.kind][:, None, :], TWO_PI)
    phases = phases.reshape(len(view.index), -1)
    phases.sort(axis=-1)
    return phases


def _ranks(keys: list) -> np.ndarray:
    """Dense rank of each key among the distinct keys, in their sorted order."""
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return np.array([rank[k] for k in keys], dtype=np.int64)


# Each set's signatures by (type(bound), bound), freed with the set.
_SIGNATURES: weakref.WeakKeyDictionary[UMEBCandidate, dict] = weakref.WeakKeyDictionary()


def signature(c: UMEBCandidate, bound: int = 144) -> SpectralSignature:
    """Spectral signature of a candidate: sorted spectra with order labels.

    Orders are scanned up to ``bound``; phases the scan cannot resolve are
    promoted to ProvablyInfinite only when the candidate carries exact
    rational-cosine metadata and the phase matches the exact angle up to a
    root of unity (the promotion is as trustworthy as the metadata).

    A set laid out as a lift, whose stored matrices equal the Kronecker
    products of its factors entry for entry, takes its spectra from the
    factors' spectra, and reads no stored matrix; any other set, its own
    q = 1 lift, from its stored matrices' (:func:`_phases`: closed form for
    the monomial ones, one ``eigvals`` of the others).  Unitarity is the
    candidate's held residual (:attr:`~UMEBCandidate.unitarity`).
    Work is done once per distinct thing, which gives what a
    per-element pass gives, since equal inputs give equal outputs: a lift's
    right factors are solved once per distinct matrix, each distinct
    phase value is bucketed and all are classified in one
    :func:`order_up_to` scan (a second scans the cosine shifts of the
    phases it leaves unresolved), and each distinct phase row, told apart by its
    exact bytes, makes one frozen record, which every element with that row
    shares.  Lifts repeat most of their factors, phases and rows.  Each
    element's entries are sorted by (bucket, classification), ties in
    ascending phase, and keep their raw phases.  Summary and sector counts
    are taken over the distinct values.

    The result is held per bound while the set lives, so a second call and
    :func:`sector_summaries` do no work; ``144`` and ``144.0`` are held
    apart, each as a fresh call gives it.  A call that raises holds nothing.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    held = _SIGNATURES.get(c, {})
    key = type(bound), bound
    if key in held:
        return held[key]
    phases = _element_phases(c)
    values, inverse = np.unique(phases, return_inverse=True)
    inverse = inverse.reshape(phases.shape)
    ticks = [_bucket(v) for v in values.tolist()]
    labels = _classify(values, bound, c.exact_cos_theta)
    cls_keys = [_cls_key(cl) for cl in labels]
    kinds = np.array([k[0] for k in cls_keys], dtype=np.int64)
    orders = np.array([k[1] if k[0] == _FINITE else 0 for k in cls_keys], dtype=np.int64)
    # One record per distinct phase row.  Ranks keep the order of ticks and
    # of classification keys, so integer sorts give the order of the tuples:
    # within each ascending row a stable sort by (tick, classification),
    # then the elements, stably, by their row's canonical key.
    first, kind = distinct_rows(phases)
    distinct = inverse[first]
    tick = np.array(ticks, dtype=np.int64)
    within = np.argsort(_ranks(list(zip(ticks, cls_keys)))[distinct], axis=1, kind="stable")
    entries = np.take_along_axis(distinct, within, axis=1)
    row_key = np.concatenate([tick[entries], _ranks(cls_keys)[entries]], axis=1)
    by_key = np.lexsort(row_key[kind].T[::-1])
    rows = entries.tolist()
    shared = [
        ElementSpectrum(
            phases=tuple(row),
            phase_ticks=tuple(row_ticks),
            classifications=tuple(map(labels.__getitem__, idx)),
        )
        for row, row_ticks, idx in zip(
            np.take_along_axis(phases[first], within, axis=1).tolist(),
            tick[entries].tolist(),
            rows,
        )
    ]
    # Each record's canonical key, from the keys of the distinct values.
    keys = [(r.phase_ticks, tuple(map(cls_keys.__getitem__, idx))) for r, idx in zip(shared, rows)]
    picks = kind[by_key].tolist()
    held[key] = SpectralSignature(  # it refers to no candidate, so c stays freeable
        dim=c.dim,
        element_count=len(c),
        bound=bound,
        records=tuple(map(shared.__getitem__, picks)),
        summary=_summarize(kinds, orders, inverse),
        sectors=_sector_rows(c, kinds, orders, inverse),
        key=(c.dim, len(c), tuple(map(keys.__getitem__, picks))),
    )
    _SIGNATURES[c] = held
    return held[key]


def compare_signatures(a: SpectralSignature, b: SpectralSignature) -> str:
    """Distinguished when the canonical signatures differ.

    Sound but not complete for signatures taken with one ``bound`` from sets
    that carry the same ``exact_cos_theta``: such sets related by
    conjugation and relabeling are never Distinguished, while
    NotDistinguished leaves equivalence undecided.  The cosine promotes
    phases to ProvablyInfinite, so ``lift(bs3, 2)`` against a copy of its
    stack without the cosine is Distinguished.
    """
    if a.canonical_key() == b.canonical_key():
        return "NotDistinguished"
    return "Distinguished"


# ---------------------------------------------------------------------------
# Sector summaries (positional, for lifted candidates)
# ---------------------------------------------------------------------------

def sector_summaries(c: UMEBCandidate, bound: int = 144) -> tuple[SectorRow, ...]:
    """Per-sector order statistics: the ``sectors`` of :func:`signature`,
    read from the signature held for ``(c, bound)`` when there is one.

    A lifted candidate is split positionally into its Weyl and base sectors;
    anything else is one sector.  Unlike the signature's canonical records,
    this view depends on element order, which the lift fixes canonically.
    """
    return signature(c, bound).sectors


def sector_table(rows: tuple[SectorRow, ...]) -> str:
    """Aligned text table of sector order statistics."""
    header = ("sector", "elements", "O_min", "O_max", "infinite phases", "unresolved")
    body = []
    for r in rows:
        body.append(
            (
                r.name,
                str(r.element_count),
                "-" if r.min_finite_order is None else str(r.min_finite_order),
                "-" if r.max_finite_order is None else str(r.max_finite_order),
                str(r.provably_infinite_count),
                str(r.no_order_count),
            )
        )
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
