"""Axiom checks, extension search, and structural certification.

Three layers of scrutiny for a candidate set of d x d matrices:

* :func:`verify_axioms` checks the defining conditions exactly as stated:
  fewer than d^2 elements, all unitary, pairwise trace inner products d on
  the diagonal and 0 off it.  Every set is read as a lift F (x) Y: the
  Gram from its factors, Tr((F (x) Y)^dag (F' (x) Y')) = Tr(F^dag F')
  Tr(Y^dag Y'), and the unitarity residual from the distinct nonzero tiles
  of the products, formed from the factors.  A set its lift layout splits
  (``Lift.split``) is read at the factors' size, to a rounding of the
  stored stack's figures, and the split is the last read of its stack; any
  other set is its own q = 1 lift, whose factors are [1] and its stored
  matrices.
* :func:`search_extension` hunts for a unitary inside the trace-orthogonal
  complement by nuclear-norm ascent.  The complement splits over the lift's
  left factors and is taken from them (``Factored.complement``): a split
  set's costs null spaces among d x d matrices, not one among D x D.
  Finding one is rigorous (a constructive
  witness that passes re-verification within ``DEFAULT_TOLERANCES``); not finding one
  is evidence, not proof.
* :func:`structural_certify` replays the block-structure argument behind the
  tensor-product lift, giving a rigorous certificate conditional on the
  unextendibility of the base set.  A last check holds the whole set to
  :func:`verify_axioms`, whose report the candidate holds.  That report
  also gives the span of the Weyl sector, by a Gershgorin bound on its Gram
  residuals, with no SVD.  The block-diagonal check is a bound derived from
  the span check, so no complement is computed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .constructions import (
    BravyiSmolin3,
    Lift,
    UMEBCandidate,
    as_lift,
    leaf_shape,
    left_factors,
    provenance_to_str,
    rebuild_from_provenance,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    RANK_RTOL,
    as_square,
    gram_matrix,
    seeded_random_stack,
    singular_values,
    unitarity_residual,
)

__all__ = [
    "MaxEntangledState",
    "VerificationReport",
    "ExtendibilitySearchResult",
    "CertificateCheck",
    "StructuralCertificate",
    "to_state",
    "verify_axioms",
    "search_extension",
    "structural_certify",
    "CERT_ZERO_TOL",
    "CERT_COND_MAX",
]


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxEntangledState:
    """Bipartite pure state on C^d (x) C^d in the computational product basis.

    ``amplitudes[i*d + j]`` is the coefficient of |i>|j>.  The state has unit
    norm exactly when the generating matrix has squared Frobenius norm d, and
    it is maximally entangled exactly when all Schmidt coefficients equal
    1/sqrt(d), that is when the generating matrix is unitary.
    """

    dim: int
    amplitudes: np.ndarray
    schmidt_coefficients: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "MaxEntangledState") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise ValueError("states live on different dimensions")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def is_maximally_entangled(self) -> bool:
        d = self.dim
        u = np.sqrt(d) * self.amplitudes.reshape(d, d).T
        return unitarity_residual(u) < DEFAULT_TOLERANCES.unitarity_tol


def to_state(u) -> MaxEntangledState:
    """State (I (x) u) sum_i |i>|i> / sqrt(d) associated with a square matrix.

    The amplitude of |i>|j> is u[j, i] / sqrt(d), so trace inner products of
    matrices turn into state overlaps divided by d.  Schmidt coefficients are
    the singular values of u over sqrt(d), descending.
    """
    m = as_square(u)
    d = m.shape[0]
    amps = m.T.ravel() / np.sqrt(d)
    return MaxEntangledState(d, amps, singular_values(m) / np.sqrt(d))


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Numeric residuals of the three defining conditions.

    ``gram_from`` says how the Gram residuals were formed: ``"factors"``
    from a split lift's Kronecker factors, ``"stack"`` from the stored
    matrices.  ``unitarity_from`` says the same of the unitarity residual:
    ``"tiles"`` from the distinct nonzero tiles f Y_k of a split lift's
    products, formed from its factors, ``"stack"`` from every stored matrix.
    """

    dim: int
    element_count: int
    max_unitarity_residual: float
    max_gram_offdiag: float
    max_gram_diag_error: float
    condition_i_ok: bool
    passed: bool
    gram_from: str
    unitarity_from: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def of(cls, c: UMEBCandidate) -> "VerificationReport":
        """The report of ``c``, computed afresh; :func:`verify_axioms` documents it."""
        tol = DEFAULT_TOLERANCES
        n, d = len(c), c.dim
        max_unit, unitarity_from = c.unitarity
        view = c.factored
        left = gram_matrix(left_factors(view.layout.q))
        right = gram_matrix(view.distinct)
        diag = np.diag(left)[view.index] * np.diag(right)[view.kind]
        right = np.abs(right)  # the complex Gram is freed before the maximum copies from it
        max_off = _max_offdiag_product(np.abs(left), right, view.groups)
        max_diag = float(np.max(np.abs(diag - d)))
        condition_i = n < d * d
        return cls(
            dim=d,
            element_count=n,
            max_unitarity_residual=float(max_unit),
            max_gram_offdiag=max_off,
            max_gram_diag_error=max_diag,
            condition_i_ok=condition_i,
            passed=(
                max_unit < tol.unitarity_tol
                and max_off < tol.gram_tol
                and max_diag < tol.gram_tol
                and condition_i
            ),
            gram_from="stack" if view.self_lift else "factors",
            unitarity_from=unitarity_from,
        )


def _max_offdiag_product(left: np.ndarray, right: np.ndarray,
                         groups: tuple[np.ndarray, ...]) -> float:
    """The largest off-diagonal entry of the n x n array |L_ab| |R_ab| =
    left[f_a, f_b] * right[k_a, k_b], where element a has left factor f_a
    and right-factor kind k_a, and ``groups[f]`` lists the kinds of the
    elements of factor f (:attr:`~umeb.constructions.Factored.groups`).

    Entries are magnitudes, and fl(x * y) is monotone in y >= 0 for x >= 0,
    so the largest product over a pair of factors (f, g) is left[f, g] times
    the largest right entry between their two groups, bit for bit: for f = g
    all but each element's own entry.  The right entries are read once, as
    one square over the kinds of the distinct groups (15 x 15 for a lift of
    bs3, the n x n Gram for a set read as its own q = 1 lift), and reduced
    per pair of distinct groups, not per pair of factors.
    """
    factors = [f for f, group in enumerate(groups) if len(group)]
    parts = {}
    for f in factors:
        parts.setdefault(groups[f].tobytes(), groups[f])
    number = {key: u for u, key in enumerate(parts)}
    of = np.array([number[groups[f].tobytes()] for f in factors])
    parts = list(parts.values())
    starts = np.cumsum([0] + [len(part) for part in parts[:-1]])
    kinds = np.concatenate(parts)
    block = right[np.ix_(kinds, kinds)]
    between = np.maximum.reduceat(np.maximum.reduceat(block, starts, axis=0), starts, axis=1)
    np.fill_diagonal(block, 0.0)  # each element's own entry
    within = [block[s:s + len(part), s:s + len(part)].max() for s, part in zip(starts, parts)]
    table = between[np.ix_(of, of)]
    np.fill_diagonal(table, np.array(within)[of])
    table *= left[np.ix_(factors, factors)]
    return float(table.max())


def verify_axioms(c: UMEBCandidate) -> VerificationReport:
    """Check element count, unitarity, and pairwise trace orthogonality.

    ``passed`` requires every unitarity residual below
    ``DEFAULT_TOLERANCES.unitarity_tol``, every Gram residual
    (|Tr(U_a^dag U_b)| off-diagonal, |Tr(U_a^dag U_a) - d| on it) below
    ``DEFAULT_TOLERANCES.gram_tol``, and fewer than d^2 elements.  A complete
    orthogonal basis of the matrix space fails only the count condition.

    Both residuals come from the candidate's :attr:`~UMEBCandidate.factored`
    view.  Unitarity is its held residual of the distinct nonzero tiles.
    Tr((F (x) Y)^dag (F' (x) Y')) = Tr(F^dag F') Tr(Y^dag Y') gives each
    Gram entry as an entry of the left factors' q^2 x q^2 Gram times one of
    the distinct right factors' Gram; the off-diagonal residual is the
    largest product of their magnitudes, per pair of left factors from the
    largest right entry between their groups of kinds, and the
    diagonal error comes from the n diagonal products.  A split lift is read
    at the factors' size, to a rounding of the stored stack's figures
    (``"factors"`` and ``"tiles"``, or ``"stack"`` for a tile figure within
    a rounding of the threshold); any other set is its own q = 1 lift, so
    both figures are its stack's (both ``"stack"``).

    The report is computed on first use and held by the candidate
    (:attr:`~UMEBCandidate.axiom_report`), so the certificate and a second
    call read it without forming the Gram again.
    """
    return c.axiom_report


# ---------------------------------------------------------------------------
# Extension search (nuclear-norm ascent over the complement)
# ---------------------------------------------------------------------------

PLATEAU_TOL = 1e-12
# A restart has plateaued from the first iteration whose objective is within
# this of its final value.

STEP_TOL = 1e-13
# A restart stops at a fixed point of the ascent map: once one step moves its
# matrix by at most this in every entry.  The map is deterministic, so such an
# iterate has no further rise to give.

NOMINATION_GAP = 1e-6
# A best gap below this nominates the winning witness for refinement and
# re-verification.  It picks which witness is checked, never whether it passes
# (that is the re-verification's, at DEFAULT_TOLERANCES), so no caller sets it.


@dataclass(frozen=True)
class ExtendibilitySearchResult:
    """Outcome of the nuclear-norm ascent.

    ``witness`` is the best matrix found inside the complement, scaled to
    squared Frobenius norm d; its nuclear norm is ``best_nuclear_norm`` and
    ``gap = d - best_nuclear_norm``.  When the gap is below ``NOMINATION_GAP``
    the witness is refined to a unitary fixed point when one is nearby, and
    its polar factor is re-verified; the ``extension_*`` figures are that
    re-verification's.  On ExtensionFound, ``extension`` holds the polar
    factor: an exactly unitary matrix re-verified to be trace-orthogonal to
    the whole candidate.  The verdicts are asymmetric: ExtensionFound is
    constructive, NoExtensionFound only reports that the ascent found no
    unitary that passes re-verification.  ``complement_from`` says where
    the complement basis came from: ``"factors"`` for a split lift, whose
    complement splits over its left factors, ``"stack"`` for a set read as
    its own q = 1 lift, whose basis is its stored matrices' null space.
    """

    verdict: str
    best_nuclear_norm: float
    gap: float
    witness: Optional[np.ndarray]
    restarts: int
    iters: int
    seed: int
    complement_dim: int
    complement_from: str
    best_restart: int = 0
    extension: Optional[np.ndarray] = None
    extension_unitarity_residual: Optional[float] = None
    extension_max_gram_overlap: Optional[float] = None
    objective_traces: tuple = ()
    restart_final_gaps: tuple = ()
    restart_plateau_iters: tuple = ()
    refined: bool = False
    notes: tuple = ()

    def to_dict(self) -> dict:
        """Every field in order, but the matrices and the per-iteration traces."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("witness", "extension", "objective_traces")
        }


def _project(flat: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Orthogonal projection of each matrix in the stack m onto the span of
    the orthonormal rows of flat."""
    rows = m.reshape(-1, flat.shape[1])
    return ((rows @ flat.conj().T) @ flat).reshape(m.shape)


def _refine_in_complement(
    witness: np.ndarray, flat: np.ndarray, d: int, steps: int = 80
) -> Optional[np.ndarray]:
    """Drive a near-unitary complement matrix to an exactly unitary one.

    The ascent meets the unitary manifold tangentially, so its gap closes
    only like 1/iterations^2; Gauss-Newton on the unitarity residual, run in
    complement coordinates (which keeps every iterate exactly inside the
    complement), contracts geometrically instead.  Returns the refined matrix
    or None when the residual will not drop below 1e-9 (no unitary nearby).
    """
    x = flat.conj() @ witness.ravel()
    basis_h = flat.conj().reshape(-1, d, d).transpose(0, 2, 1)
    eye = np.eye(d)
    best = None
    best_resid = np.inf
    for _ in range(steps):
        m = (x @ flat).reshape(d, d)
        err = m.conj().T @ m - eye
        resid = float(np.max(np.abs(err)))
        if resid < best_resid:
            best, best_resid = m, resid
        if resid < 1e-14:
            break
        f = np.concatenate([err.real.ravel(), err.imag.ravel()])
        # Columns 2k and 2k+1 are the derivatives of err along B_k and i B_k:
        # X + X^dag and i (X^dag - X), with X = B_k^dag m.
        bm = basis_h @ m
        bm_h = bm.conj().transpose(0, 2, 1)
        de = np.stack([bm + bm_h, 1j * (bm_h - bm)], axis=1).reshape(-1, d * d)
        jac = np.concatenate([de.real, de.imag], axis=1).T
        delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        x = x + delta[0::2] + 1j * delta[1::2]
    if best is None or best_resid > 1e-9:
        return None
    return best


def search_extension(
    c: UMEBCandidate, restarts: int = 100, iters: int = 500, seed: int = 0
) -> ExtendibilitySearchResult:
    """Search the trace-orthogonal complement for a unitary matrix.

    The complement basis is :meth:`~umeb.constructions.Factored.complement`
    of the candidate's factored view: for a split lift, F_f (x) C / sqrt(q)
    over each left factor f and an orthonormal basis C of the complement of
    that factor's right factors, one null space per distinct group of them
    (``complement_from`` ``"factors"``); for any other set, its own q = 1
    lift, the null space of its stored matrices (``"stack"``).  A split
    lift's stored matrices equal its products in value, so the two bases
    span one complement, to rounding.

    Among complement matrices M with ||M||_F^2 = d, the nuclear norm
    sum sigma_i(M) is at most d, with equality exactly on unitaries.  Restart
    r starts from matrix r of the stream ``seeded_random_matrix(d, seed)``
    begins, all drawn by one generator, so the first k restarts of a search
    are those of any larger one with its seed.  Each restart projects its
    start into the complement, rescales, and then alternates: replace M by
    the projection of its polar factor, rescaled.  Every step maximizes the
    linear functional Re Tr(P^dag M) that touches the current objective from
    above, so the recorded objective is non-decreasing along each restart.

    ``iters`` is a cap.  A restart stops at a fixed point of the ascent
    map, once one step moves its matrix by at most ``STEP_TOL`` in every
    entry: the map is deterministic, so that matrix has no further rise to
    give.  One more SVD records its objective, so each of
    ``objective_traces`` holds between 2 and ``iters`` values (1 when
    ``iters`` is 1) and ends on the restart's last matrix.

    Restarts are independent, so the live ones advance together: each
    iteration is one stacked SVD of their (live, d, d) array and one
    projection of their polar factors.  ``best_restart`` is the first
    restart with the largest final objective, and ``witness`` is its last
    matrix.  Restarts whose final objectives tie to rounding error may
    resolve differently from a one-restart-at-a-time loop, whose products
    sum in another order; the objectives agree to ~1e-14.
    ``restart_final_gaps`` and ``restart_plateau_iters`` give, per restart,
    d minus its final objective and the first iteration within
    ``PLATEAU_TOL`` of that final value; ``refined`` says whether the
    winning witness was refined to a unitary fixed point.

    A best gap d - sum sigma_i below ``NOMINATION_GAP`` nominates the winning
    witness.  It is refined inside the complement by Gauss-Newton on the
    unitarity residual (the ascent alone closes the last stretch only
    quadratically slowly), and its polar factor is re-verified against the
    stored elements, the one step that forms a held set's stack.  The verdict
    is ExtensionFound, with that polar factor as ``extension``, only when its
    unitarity residual is below ``DEFAULT_TOLERANCES.unitarity_tol`` and every
    trace overlap below ``DEFAULT_TOLERANCES.gram_tol``; otherwise it is
    NoExtensionFound and a note gives both figures.

    A candidate whose span is the whole matrix space has nothing to search:
    the result is NoExtensionFound with gap d and an explanatory note.
    """
    if restarts < 1:
        raise ValueError("restarts must be a positive integer")
    if iters < 1:
        raise ValueError("iters must be a positive integer")
    if seed < 0:
        raise ValueError("seed must be non-negative")

    tol = DEFAULT_TOLERANCES
    report = verify_axioms(c)
    if (
        report.max_unitarity_residual >= tol.unitarity_tol
        or report.max_gram_offdiag >= tol.gram_tol
        or report.max_gram_diag_error >= tol.gram_tol
    ):
        raise ValueError(
            "candidate fails the unitarity/orthogonality axioms; "
            "run verify_axioms for details"
        )

    d = c.dim
    view = c.factored
    basis = view.complement()
    complement_from = "stack" if view.self_lift else "factors"
    if not len(basis):
        return ExtendibilitySearchResult(
            verdict="NoExtensionFound",
            best_nuclear_norm=0.0,
            gap=float(d),
            witness=None,
            restarts=restarts,
            iters=iters,
            seed=seed,
            complement_dim=0,
            complement_from=complement_from,
            notes=("candidate spans the full matrix space; the complement is trivial",),
        )

    flat = basis.reshape(len(basis), d * d)
    sqrt_d = np.sqrt(d)

    # One generator draws every start.  The live restarts advance together:
    # one stacked SVD and one projection per iteration.  Row i of m is
    # restart r = live[i]: its objective goes on runs[r], and once its last
    # matrix is evaluated that matrix goes to last[r] and the row is removed.
    m = _project(flat, seeded_random_stack(d, restarts, seed))
    m *= (sqrt_d / np.linalg.norm(m, axis=(1, 2)))[:, None, None]
    last = np.empty_like(m)
    runs = [[] for _ in range(restarts)]
    live = np.arange(restarts)
    settled = np.zeros(restarts, dtype=bool)
    for t in range(iters):
        u, s, vh = np.linalg.svd(m)
        for r, objective in zip(live.tolist(), s.sum(axis=1).tolist()):
            runs[r].append(objective)
        # A row ends once its objective is recorded: at the cap, or after the
        # step that reached a fixed point.
        settled |= t == iters - 1
        if settled.any():
            last[live[settled]] = m[settled]
            keep = ~settled
            live, m, u, vh = live[keep], m[keep], u[keep], vh[keep]
            if not live.size:
                break
        # The rescale never divides by zero: for m in the complement,
        # <P(U V^dag), m> = <U V^dag, m> = ||m||_* >= ||m||_F, so by
        # Cauchy-Schwarz ||P(U V^dag)||_F >= ||m||_* / ||m||_F >= 1.
        p = _project(flat, u @ vh)
        step = p * (sqrt_d / np.linalg.norm(p, axis=(1, 2)))[:, None, None]
        settled = np.abs(step - m).max(axis=(1, 2)) <= STEP_TOL
        m = step

    finals = [run[-1] for run in runs]
    plateaus = [next(i for i, v in enumerate(run) if v >= run[-1] - PLATEAU_TOL) for run in runs]
    best_restart = finals.index(max(finals))
    best_norm = finals[best_restart]
    best_witness = last[best_restart]

    gap = d - best_norm
    notes = []
    verdict = "NoExtensionFound"
    extension = ext_unit = ext_overlap = refined = None
    if gap < NOMINATION_GAP:
        refined = _refine_in_complement(best_witness, flat, d)
        if refined is not None:
            # Rescale back to the witness normalization; the refined matrix
            # stays exactly inside the complement by construction.
            best_witness = sqrt_d * refined / np.linalg.norm(refined)
            refined_norm = float(singular_values(best_witness).sum())
            notes.append(
                "winning witness refined to a unitary fixed point "
                f"(gap {gap:.3e} -> {d - refined_norm:.3e})"
            )
            best_norm = refined_norm
            gap = d - refined_norm
        u, _, vh = np.linalg.svd(best_witness)
        polar = u @ vh
        ext_unit = unitarity_residual(polar)
        ext_overlap = max(abs(complex(np.vdot(a, polar))) for a in c.elements)
        figures = f"unitarity residual {ext_unit:.3e}, max trace overlap {ext_overlap:.3e}"
        if ext_unit < tol.unitarity_tol and ext_overlap < tol.gram_tol:
            verdict = "ExtensionFound"
            extension = polar
            notes.append(f"extension re-verified: {figures}")
        else:
            notes.append(
                f"gap {gap:.3e} is below NOMINATION_GAP, but the witness's polar "
                f"factor fails re-verification: {figures}"
            )
    if verdict == "NoExtensionFound":
        notes.append("no unitary found in the complement; this is evidence, not proof")

    return ExtendibilitySearchResult(
        verdict=verdict,
        best_nuclear_norm=best_norm,
        gap=gap,
        witness=best_witness,
        restarts=restarts,
        iters=iters,
        seed=seed,
        complement_dim=len(basis),
        complement_from=complement_from,
        extension=extension,
        extension_unitarity_residual=ext_unit,
        extension_max_gram_overlap=ext_overlap,
        best_restart=best_restart,
        objective_traces=tuple(map(tuple, runs)),
        restart_final_gaps=tuple(d - final for final in finals),
        restart_plateau_iters=tuple(plateaus),
        refined=refined is not None,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Structural certification of lifted candidates
# ---------------------------------------------------------------------------

CERT_ZERO_TOL = 1e-10
# Checks 1, 2 and 5 pass only when their entry-wise figure is below this.

CERT_COND_MAX = 1e8
# Check 4 passes only when the block-trace system's condition number is below this.


@dataclass(frozen=True)
class CertificateCheck:
    """One certificate check: its measured ``detail`` and the ``threshold``
    that detail was compared against."""

    name: str
    passed: bool
    detail: float
    threshold: float

    def __post_init__(self):
        # numpy comparison results sneak in as np.bool_ / np.float64
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "detail", float(self.detail))
        object.__setattr__(self, "threshold", float(self.threshold))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StructuralCertificate:
    """Replay of the block-structure proof for a lifted candidate.

    ``overall`` is CertifiedConditionalOnBase when every check passes and the
    provenance identifies a lift; the certificate is conditional because the
    base set's own unextendibility is either certified recursively or taken
    as an assumption recorded in the notes.
    """

    overall: str
    checks: tuple[CertificateCheck, ...] = ()
    notes: tuple[str, ...] = ()
    base_provenance: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _base_sector_deviation(sector: np.ndarray, layout: Lift, right: np.ndarray,
                           base: UMEBCandidate) -> float:
    """Largest entry of the base ``sector`` minus D_i (x) e^(i phi_n) V_pi(n).

    ``sector`` holds the set's last qN elements and ``right`` every
    element's right factor, both read by ``layout``.  V is the base, and pi
    and phi are the ordering and per-element phases that best match the
    right factors U_n of the elements D_0 (x) U_n to it.  nan when no
    bijective ordering exists.
    """
    n, count = layout.weyl_count, layout.base_count
    ref = base.matrices
    overlaps = np.einsum("jxy,nxy->nj", ref.conj(), right[n:n + count])
    order = np.argmax(np.abs(overlaps), axis=1)
    if len(set(order.tolist())) != count:
        return float("nan")
    best = overlaps[np.arange(count), order]
    matched = np.exp(1j * np.angle(best))[:, None, None] * ref[order]
    deviation = layout.base_products(np.tile(matched, (layout.q, 1, 1)))
    np.subtract(sector, deviation, out=deviation)
    return float(np.max(np.abs(deviation)))


def _mass(blocks: np.ndarray) -> tuple[float, float]:
    """The largest entry magnitude and the Frobenius norm of ``blocks``,
    both exactly 0.0 when every entry is zero."""
    if not np.any(blocks):
        return 0.0, 0.0
    return float(np.max(np.abs(blocks))), float(np.linalg.norm(blocks))


def _sector_floor(report: VerificationReport, n: int) -> Optional[float]:
    """A floor L on the squared singular values of the set's Weyl sector of
    n elements, read from its axiom report; None unless ``report`` passed
    and L clears the rank rule.

    The sector's Gram is a principal n x n submatrix of the set's, whose
    diagonal lies within ``max_gram_diag_error`` of D and whose off-diagonal
    entries are at most ``max_gram_offdiag``.  By Gershgorin each squared
    singular value of the sector lies in [L, U], L = D - diag_err - (n - 1)
    off_err and U = D + diag_err + (n - 1) off_err; when L > 0 and
    sqrt(L) > RANK_RTOL sqrt(U), the sector has rank n.  The residuals are
    floats, formed from the factors or the stack, so they differ from the
    stored stack's exact Gram by rounding of order D * 1e-16, but a passed
    report puts L within n * gram_tol of D: the margin is about D, far
    beyond any rounding.  With n < D^2 that spread is below D whenever
    D < 10^10, so a passed report always clears the rule.
    """
    if not report.passed:
        return None
    spread = report.max_gram_diag_error + (n - 1) * report.max_gram_offdiag
    low, high = report.dim - spread, report.dim + spread
    return low if low > 0 and np.sqrt(low) > RANK_RTOL * np.sqrt(high) else None


def structural_certify(c: UMEBCandidate) -> StructuralCertificate:
    """Certify unextendibility of a lifted candidate, conditional on its base.

    Applicable only when provenance identifies the candidate as a lift (the
    explicit 30-member set counts, being the q = 2 lift in the same order).
    The candidate's shape is read from ``(len(c), c.dim)``.  A set its lift
    layout splits is read from its factors (``Factored``), with no read of
    its stored stack: each element's right factor and check 5's base
    sector, their :meth:`Lift.base_products`, equal in value to the stack's
    rows, and check 1's diagonal blocks, which are 0 Y_k, as the Weyl
    sector's left factors D_i S^j (j >= 1) have zero diagonals.  Any other
    set is read from its stored stack by the layout (``Lift.blocks``,
    ``Lift.right_factors``).

    The checks mirror the proof that any matrix trace-orthogonal to the whole
    set must be zero unless a base extension exists:

    1. weyl_sector_spans_offdiagonal_blocks: the first q(q-1)d^2 elements
       vanish on diagonal blocks and span that full off-diagonal-block space.
       ``detail`` is the largest diagonal-block entry.  The rank comes from
       the set's held axiom report (check 6): the sector's Gram is a
       principal submatrix of the set's, so by Gershgorin every squared
       singular value lies in [L, U], within diag_err + (n - 1) off_err of
       D, and when L clears the rank rule (``_sector_floor``) the sector has
       rank n.  No SVD is made.  A set that fails the axioms has no rank
       established, so it fails this check whatever its detail.
    2. complement_is_block_diagonal: derived from check 1, not recomputed.
       Split the Weyl sector into off-diagonal-block and diagonal-block parts
       O + E.  A unit matrix trace-orthogonal to the sector has off-block mass
       at most ||E||_F / sigma_min(O), and sigma_min(O) >= sqrt(L) - ||E||_F
       by Weyl's inequality, every singular value of the sector being at
       least sqrt(L).  ``detail`` is that bound (nan when sqrt(L) <= ||E||_F
       or no L is established, exactly 0.0 for an exact lift); the check
       passes when check 1 does and the bound is below its threshold.
    3. vandermonde_det_nonzero: the q x q root-of-unity matrix W_q whose rows
       phase the blocks is invertible.  W_q W_q^dag = q I, so ``detail`` is
       the closed form |det W_q| = q^(q/2); threshold half that.
    4. base_trace_system_reduces: W_q is well-conditioned, so the homogeneous
       system forcing all block traces against the base to vanish has only
       the zero solution.  ``detail`` is the closed form cond W_q = 1.
    5. base_case_verdict: first base_sector_matches_base, the last qN
       elements equal the products D_i (x) U_n that :meth:`Lift.base_products`
       forms, with the U_n the base up to ordering and per-element phase.
       Only a leaf, a base that is not itself a lift, is rebuilt from its
       provenance, once its declared shape matches the lift's; any other
       base is read from the sector as the right factors U_n of the
       elements D_0 (x) U_n, and the certificate is conditional
       on that extracted base.  The base is re-verified against the axioms;
       a lifted base is then certified recursively by these five checks on
       the data it holds, its notes carried over prefixed ``base: ``, so a
       tower rebuilds only its leaf, once; a leaf's unextendibility is
       recorded as an assumption.  ``detail`` is the largest of the sector's
       entry-wise deviation (nan when no ordering matches or the leaf's
       shape differs), the base's unitarity residual and q r for each of
       its Gram residuals r: the residual the lift gives it, since
       Tr(D_i^dag D_i) = q and the cross traces between the Weyl and base
       sectors vanish.
    6. set_passes_axioms: the whole set passes :func:`verify_axioms`.  Checks
       3-5 read only the base sector's match to the base, and an edit that
       keeps it (an element rescaled, or replaced by a combination of
       others) leaves them passing while the set is no longer unitary and
       orthogonal.  ``detail`` is the largest of the report's three
       residuals; the report is the one the candidate holds, so a set
       verified first, or a tower's base already verified by check 5 one
       level up, forms no Gram again; checks 1-2 read the same report.

    Each check is held only to the ``threshold`` it reports: CERT_ZERO_TOL
    for checks 1, 2 and 5 (detail below it), 0.5 q^(q/2) for check 3 (at or
    above), CERT_COND_MAX for check 4 (below) and the axiom tolerances for
    check 6 (below).  Check 5 also needs the base to meet condition (i) and
    a lifted base to certify, and check 6 the set to meet condition (i); the
    notes name whichever part failed.
    """
    layout = as_lift(c.provenance)
    if layout is None:
        return StructuralCertificate(
            overall="NotApplicable",
            notes=(
                "structural certification applies only to lifted candidates; "
                f"provenance is {provenance_to_str(c.provenance)!r}",
            ),
        )
    # Rendered once: the inner levels of a tower return only verdict and notes.
    return replace(_certify(c, layout), base_provenance=provenance_to_str(layout.base))


def _certify(c: UMEBCandidate, layout: Lift) -> StructuralCertificate:
    """:func:`structural_certify` for a candidate laid out as ``layout``, but no base_provenance."""
    base_prov, d, q, n = layout.base, layout.base_dim, layout.q, layout.weyl_count

    checks: list[CertificateCheck] = []
    notes: list[str] = []

    if (len(c), c.dim) != (layout.element_count, layout.dim):
        checks.append(CertificateCheck(
            "weyl_sector_spans_offdiagonal_blocks", False, float("nan"), CERT_ZERO_TOL
        ))
        notes.append(
            f"candidate shape ({c.dim}, {len(c)} elements) does not match "
            f"the declared lift (dim {layout.dim}, {layout.element_count} elements)"
        )
        return StructuralCertificate(overall="Failed", checks=tuple(checks), notes=tuple(notes))

    # The held report, which check 6 reads, gives checks 1-2 their rank.
    report = verify_axioms(c)
    # A set this layout splits is read from its factors, any other from its
    # stored stack: the Weyl sector's diagonal blocks, every element's right
    # factor and the base sector's rows.
    view = c.factored
    if view.self_lift:
        m = c.matrices
        diag_mass, diag_norm = _mass(np.diagonal(layout.blocks(m)[:n], axis1=1, axis2=3))
        right, sector = layout.right_factors(m), m[n:]
    else:
        # The Weyl sector's left factors D_i S^j, j >= 1, have zero diagonals,
        # so its diagonal blocks are 0 Y_k: +-0 for a split's finite Y_k.
        diag_mass = diag_norm = 0.0
        right = view.right_factors()
        sector = layout.base_products(right[n:])

    # Check 1: zero diagonal blocks and full rank n, the dimension of the
    # off-diagonal-block space.  Check 2 is derived from the same figures.
    if n:
        low = _sector_floor(report, n)
        margin = np.sqrt(low) - diag_norm if low is not None else 0.0
        off_bound = diag_norm / margin if margin > 0 else float("nan")
        span_ok = low is not None and diag_mass < CERT_ZERO_TOL
        if low is None:
            notes.append("weyl sector rank not established: the set fails verify_axioms")
    else:
        # q = 1: no off-diagonal blocks exist and the complement is everything.
        off_bound = 0.0
        span_ok = True
    checks.append(CertificateCheck(
        "weyl_sector_spans_offdiagonal_blocks", span_ok, diag_mass, CERT_ZERO_TOL
    ))

    # Check 2: the complement of the Weyl sector is block-diagonal.
    checks.append(CertificateCheck(
        "complement_is_block_diagonal", span_ok and off_bound < CERT_ZERO_TOL, off_bound,
        CERT_ZERO_TOL,
    ))

    # Checks 3-4: W_q W_q^dag = q I, so |det W_q| = q^(q/2) and cond W_q = 1.
    det = q ** (q / 2.0)
    checks.append(CertificateCheck("vandermonde_det_nonzero", det >= det / 2, det, det / 2))
    checks.append(CertificateCheck(
        "base_trace_system_reduces", 1.0 < CERT_COND_MAX, 1.0, CERT_COND_MAX
    ))

    # Check 5: the base sector is D_i (x) U_n over the base, and the base case.
    # Only a leaf, a base that is not a lift, is rebuilt, once it has the
    # declared shape (a Weyl family in dimension e costs O(e^4) to build).  Any
    # other base is read from the sector: element (0, n) has right factor U_n.
    leaf = leaf_shape(base_prov)
    if leaf not in (None, (d, layout.base_count)):
        notes.append(
            f"base {provenance_to_str(base_prov)} has {leaf[1]} elements in dimension "
            f"{leaf[0]}, but the lift declares {layout.base_count} in dimension {d}"
        )
        checks.append(CertificateCheck("base_case_verdict", False, float("nan"), CERT_ZERO_TOL))
        return StructuralCertificate(overall="Failed", checks=tuple(checks), notes=tuple(notes))
    base = (rebuild_from_provenance(base_prov) if leaf is not None
            else UMEBCandidate(d, right[n:n + layout.base_count], base_prov))
    sector_dev = _base_sector_deviation(sector, layout, right, base)
    base_report = verify_axioms(base)
    base_detail = float(np.max([
        sector_dev, base_report.max_unitarity_residual, q * base_report.max_gram_offdiag,
        q * base_report.max_gram_diag_error,
    ]))
    base_ok = base_detail < CERT_ZERO_TOL and base_report.condition_i_ok
    which = "extracted" if leaf is None else "reconstructed"
    base_layout = as_lift(base_prov)
    if np.isnan(sector_dev):
        notes.append(
            f"base_sector_matches_base failed: no ordering of the {which} base "
            "matches the base sector's diagonal blocks"
        )
    elif sector_dev >= CERT_ZERO_TOL:
        notes.append(
            f"base_sector_matches_base failed: the base sector deviates from "
            f"D_i (x) U_n over the {which} base by {sector_dev:.3e} "
            f"(threshold {CERT_ZERO_TOL:g})"
        )
    elif not base_ok:
        notes.append(
            f"{which} base fails the axioms, its Gram residuals scaled by q = {q} "
            f"as in the lift (condition (i) ok: {base_report.condition_i_ok})"
        )
    elif base_layout is not None:
        inner = _certify(base, base_layout)
        base_ok = inner.overall == "CertifiedConditionalOnBase"
        notes.append(f"base certified recursively: {inner.overall}")
        notes.extend(f"base: {note}" for note in inner.notes)
    elif isinstance(base_prov, BravyiSmolin3):
        notes.append(
            "base unextendibility for the six-member dimension-3 family "
            "is a standing assumption here; search_extension supplies the "
            "numerical evidence"
        )
    else:
        notes.append(
            "base unextendibility assumed for external set "
            f"{provenance_to_str(base_prov)!r}, as extracted from the base sector; "
            "attach extension-search evidence"
        )
    checks.append(CertificateCheck("base_case_verdict", base_ok, base_detail, CERT_ZERO_TOL))

    # Check 6: the whole set satisfies the axioms.  Checks 3-5 read only the
    # base sector, which edits such as rescaling an element leave intact.
    if not report.passed:
        notes.append(
            "the set fails verify_axioms: unitarity residual "
            f"{report.max_unitarity_residual:.3e}, Gram off-diagonal "
            f"{report.max_gram_offdiag:.3e}, Gram diagonal error "
            f"{report.max_gram_diag_error:.3e} (condition (i) ok: {report.condition_i_ok})"
        )
    checks.append(CertificateCheck(
        "set_passes_axioms", report.passed,
        max(report.max_unitarity_residual, report.max_gram_offdiag, report.max_gram_diag_error),
        min(DEFAULT_TOLERANCES.unitarity_tol, DEFAULT_TOLERANCES.gram_tol),
    ))

    overall = "CertifiedConditionalOnBase" if all(ch.passed for ch in checks) else "Failed"
    return StructuralCertificate(overall=overall, checks=tuple(checks), notes=tuple(notes))
