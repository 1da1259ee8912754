"""Greedy construction of the sparse eigenvector basis, plus its audits.

The 4n projected trains P_k g_{eta1}(a, b) contain n linearly independent
eigenvectors.  Each class's n candidates are densified as one array from
the closed-form projection recipe.  Scanning them in a fixed order (offset,
then modulation) and keeping every candidate that extends the rank of its
class (first fit) yields a deterministic basis whose supports sit between
(eta1+eta2)/2 and 2*(eta1+eta2).  First fit is exactly independent but can
be numerically singular (prime n), so each class whose condition number
exceeds CONDITION_BOUND is re-selected by max-residual column pivoting
over all of its nonzero candidates; the support bounds hold for every
candidate, so they are unaffected.  The audits certify those bounds, the
eigenvalue multiplicities, the support/spectrum uncertainty constraints,
and the orthogonality classification.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    EliminationState,
    TolerancePolicy,
    VerificationError,
    as_vector,
    naive_dft,
    try_extend_rank,
)
from .projection import TrainSum, _class_rows, project
from .trains import DivisorPair, ModulatedDeltaTrain, eta_pair

# Largest 2-norm condition number allowed for one class's unit rows before
# that class is re-selected by pivoting.  First-fit bases of prime n reach
# 1e17; with the gate, whole bases stay below 5.9e5 for every n up to 300.
CONDITION_BOUND = 1e6
# Pivot residuals within this relative margin of the largest count as tied,
# so rounding in the last bits cannot decide which label is taken.
_TIE_MARGIN = 1e-9

__all__ = [
    "CONDITION_BOUND",
    "MultiplicityTable",
    "multiplicities",
    "enumerate_candidates",
    "BasisVectorRecord",
    "EigenBasis",
    "build_basis",
    "SparsityAudit",
    "audit_sparsity",
    "check_uncertainty",
    "GramReport",
    "gram_report",
    "orthogonality_survey",
]


@dataclass(frozen=True)
class MultiplicityTable:
    """Eigenvalue multiplicities of the n-dimensional DFT, indexed by class k.

    dims[k] is the dimension of the eigenspace with eigenvalue i**(-k);
    the four entries always sum to n and depend only on n mod 4.
    """

    n: int
    dims: tuple[int, int, int, int]

    def by_eigenvalue(self, lam: complex) -> int:
        mapping = {(1 + 0j): 0, (-1j): 1, (-1 + 0j): 2, (1j): 3}
        if lam not in mapping:
            raise ValueError(f"{lam!r} is not a fourth root of unity")
        return self.dims[mapping[lam]]


def multiplicities(n: int) -> MultiplicityTable:
    """Closed-form eigenspace dimensions as a function of n mod 4."""
    if n < 1:
        raise ValueError("n must be positive")
    m, r = divmod(n, 4)
    dims = {
        0: (m + 1, m, m, m - 1),
        1: (m + 1, m, m, m),
        2: (m + 1, m, m + 1, m),
        3: (m + 1, m + 1, m + 1, m),
    }[r]
    return MultiplicityTable(n=n, dims=dims)


def enumerate_candidates(
    n: int,
) -> Iterator[tuple[int, int, int, TrainSum]]:
    """All 4n projected stride-eta1 trains in scan order: k, then a, then b."""
    eta = eta_pair(n)
    for k in range(4):
        for a in range(eta.eta1):
            for b in range(eta.eta2):
                g = ModulatedDeltaTrain(n=n, d1=eta.eta1, a=a, b=b)
                yield k, a, b, project(k, g)


@dataclass(eq=False)
class BasisVectorRecord:
    """One selected eigenvector, the projected train P_k g_{eta1}(a, b).

    The label (k, a, b) fixes the vector.  `dense` is unit-normalized;
    `scale` is the norm of the raw projected train, so scale * dense
    reproduces densify_sum(sum).  `sum`, the train's four-term symbolic
    projection, is derived from the label on first read.
    """

    k: int
    a: int
    b: int
    dense: np.ndarray
    support: int
    scale: float

    @property
    def label(self) -> tuple[int, int, int]:
        return (self.k, self.a, self.b)

    @functools.cached_property
    def sum(self) -> TrainSum:
        n = self.dense.size
        g = ModulatedDeltaTrain(n=n, d1=eta_pair(n).eta1, a=self.a, b=self.b)
        return project(self.k, g)


@dataclass(eq=False)
class EigenBasis:
    """n selected eigenvectors grouped by class, with lazy derived caches."""

    n: int
    eta: DivisorPair
    vectors: list[BasisVectorRecord]
    per_class_counts: tuple[int, int, int, int]
    zero_candidates: int = 0  # vanishing projections among all 4n candidates
    _matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _gram: Optional[np.ndarray] = field(default=None, repr=False)
    _reports: dict = field(default_factory=dict, repr=False)
    _labels: Optional[tuple] = field(default=None, repr=False)
    _solver: Optional[list] = field(default=None, repr=False)

    def labels(self) -> list[tuple[int, int, int]]:
        return [rec.label for rec in self.vectors]

    def scales(self) -> np.ndarray:
        return np.array([rec.scale for rec in self.vectors], dtype=np.float64)

    def _label_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Class, flat tensor index (k*eta1 + a)*eta2 + b and scale per vector.

        Built once, for the change of basis, which addresses the flattened
        (4, eta1, eta2) correlation tensor by label.  Refuses a basis that
        does not hold n vectors, such as a file missing a record: it cannot
        span the space, so no coefficients would reconstruct a vector.
        """
        if self._labels is None:
            if len(self.vectors) != self.n:
                raise ValueError(
                    f"basis holds {len(self.vectors)} vectors, expected n={self.n}; "
                    "an incomplete basis cannot change basis"
                )
            k, a, b = np.array(self.labels(), dtype=np.intp).reshape(-1, 3).T
            flat = (k * self.eta.eta1 + a) * self.eta.eta2 + b
            self._labels = (k, flat, self.scales())
        return self._labels

    def dense_matrix(self) -> np.ndarray:
        """Selected vectors stacked as rows, in label order."""
        if self._matrix is None:
            self._matrix = np.stack([rec.dense for rec in self.vectors])
        return self._matrix

    def gram_matrix(self) -> np.ndarray:
        """All pairwise inner products <v_i, v_j> of the unit vectors."""
        if self._gram is None:
            mat = self.dense_matrix()
            self._gram = mat @ mat.conj().T
        return self._gram


def _ill_conditioned(units: np.ndarray) -> bool:
    """Does the 2-norm condition number of the rows exceed CONDITION_BOUND?"""
    sv = np.linalg.svd(units, compute_uv=False)
    return bool(sv[0] > CONDITION_BOUND * sv[-1])


def _pivot_rows(units: np.ndarray, count: int, tol: TolerancePolicy) -> list[int]:
    """Businger-Golub max-residual pivoting: positions of up to `count` rows.

    Each step takes the row with the largest residual against the rows
    taken so far, the lowest position among residuals within _TIE_MARGIN of
    the maximum, and projects its direction out of every row.  Stops early
    when no residual exceeds residual_tol.  Returned in ascending order.
    """
    resid = units.copy()
    flat = resid.view(np.float64)  # real and imaginary parts, for the norms
    chosen: list[int] = []
    for _ in range(count):
        norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        top = float(norms.max())
        if top <= tol.residual_tol:
            break
        pos = int(np.argmax(norms >= top * (1.0 - _TIE_MARGIN)))
        q = resid[pos] / norms[pos]
        resid -= np.outer(resid @ q.conj(), q)
        chosen.append(pos)
    return sorted(chosen)


def build_basis(n: int, tol: TolerancePolicy = DEFAULT_TOL) -> EigenBasis:
    """Deterministic selection of n independent projected trains.

    Per class, densifies all n candidates as one array in scan order,
    counts the ones whose projection vanished as zero candidates, and
    normalizes the rest.  First fit keeps each unit row that extends the
    rank of its class and stops at the class's known multiplicity.  First
    fit guarantees exact independence but no margin: at prime n its rows
    can be numerically singular.  So a class whose unit rows have a 2-norm
    condition number above CONDITION_BOUND is re-selected from all its
    nonzero candidates by max-residual pivoting, ties going to the earliest
    candidate.  Records stay in scan order.  Raises if any class falls
    short, which would indicate a bug rather than bad input.
    """
    eta = eta_pair(n)
    dims = multiplicities(n).dims
    vectors: list[BasisVectorRecord] = []
    zeros = 0
    for k in range(4):
        units = _class_rows(n, k)  # row a*eta2 + b holds label (k, a, b)
        scale = np.linalg.norm(units, axis=1)
        nonzero = scale > tol.residual_tol
        live = np.flatnonzero(nonzero)
        zeros += n - live.size
        units /= np.where(nonzero, scale, 1.0)[:, None]
        state = EliminationState(n)
        kept: list[int] = []
        for i in live:
            if len(kept) >= dims[k]:
                break
            if try_extend_rank(state, units[i], tol)[0]:
                kept.append(int(i))
        if kept and _ill_conditioned(units[kept]):
            kept = live[_pivot_rows(units[live], dims[k], tol)].tolist()
        if len(kept) != dims[k]:
            raise RuntimeError(
                f"n={n}: eigenvalue class {k} reached rank {len(kept)} of "
                f"{dims[k]}; the projected trains failed to span the class, "
                "which indicates an implementation bug"
            )
        for i in kept:
            a, b = divmod(i, eta.eta2)
            unit = units[i].copy()  # a view would pin the whole class array
            vectors.append(
                BasisVectorRecord(
                    k=k, a=a, b=b, dense=unit,
                    support=int(np.count_nonzero(np.abs(unit) > tol.zero_tol)),
                    scale=float(scale[i]),
                )
            )
    return EigenBasis(
        n=n, eta=eta, vectors=vectors, per_class_counts=dims, zero_candidates=zeros
    )


@dataclass(frozen=True)
class SparsityAudit:
    """Certified support statistics of a basis.

    `ratio` compares the largest support against the proven lower bound
    (eta1+eta2)/2, the literal content of the factor-four guarantee.
    """

    n: int
    max_support: int
    min_support: int
    lower_bound: float
    upper_bound: int
    ratio: float


def audit_sparsity(basis: EigenBasis, tol: TolerancePolicy = DEFAULT_TOL) -> SparsityAudit:
    """Exact nonzero counts checked against the divisor bounds.

    Raises VerificationError naming the offending vector if any support
    leaves [(eta1+eta2)/2, 2*(eta1+eta2)] or the max/lower ratio exceeds 4.
    """
    lower = (basis.eta.eta1 + basis.eta.eta2) / 2
    upper = 2 * (basis.eta.eta1 + basis.eta.eta2)
    for rec in basis.vectors:
        if rec.support < lower - tol.zero_tol or rec.support > upper:
            raise VerificationError(
                f"vector (k={rec.k}, a={rec.a}, b={rec.b}) has support "
                f"{rec.support}, outside [{lower}, {upper}]"
            )
    supports = [rec.support for rec in basis.vectors]
    audit = SparsityAudit(
        n=basis.n,
        max_support=max(supports),
        min_support=min(supports),
        lower_bound=lower,
        upper_bound=upper,
        ratio=max(supports) / lower,
    )
    if audit.ratio > 4.0 + tol.zero_tol:
        raise VerificationError(
            f"n={basis.n}: max support {audit.max_support} exceeds four times "
            f"the lower bound {lower}"
        )
    return audit


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def _uncertainty_ok(n: int, s: int, sp: int) -> bool:
    """Integer form of the support-size constraints.

    s * sp >= n always, and whenever consecutive divisors d1 < d2 of n
    bracket s, additionally sp * d1 * d2 >= n * (d1 + d2 - s).
    """
    if s * sp < n:
        return False
    divs = _divisors(n)
    for d1, d2 in zip(divs, divs[1:]):
        if d1 <= s <= d2 and sp * d1 * d2 < n * (d1 + d2 - s):
            return False
    return True


def check_uncertainty(v, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Do v and its spectrum satisfy the support-size constraints?

    Counts supports at zero_tol on the unit-normalized vector and its
    reference transform, then applies the product bound and the
    consecutive-divisor bound.
    """
    arr = as_vector(v)
    norm = float(np.linalg.norm(arr))
    if norm <= tol.zero_tol:
        raise ValueError("zero vector has no support bound")
    unit = arr / norm
    s = int(np.count_nonzero(np.abs(unit) > tol.zero_tol))
    sp = int(np.count_nonzero(np.abs(naive_dft(unit)) > tol.zero_tol))
    return _uncertainty_ok(arr.size, s, sp)


@dataclass(frozen=True)
class GramReport:
    """Orthogonality certificate for one basis.

    When the basis is not orthogonal, `witness` names a pair of selected
    vectors that is neither orthogonal nor collinear, with its inner
    product.
    """

    n: int
    is_orthogonal: bool
    max_offdiag: float
    witness: Optional[tuple[tuple[int, int, int], tuple[int, int, int], complex]]


def gram_report(basis: EigenBasis, tol: TolerancePolicy = DEFAULT_TOL) -> GramReport:
    """Compute all pairwise inner products and classify the basis."""
    key = (tol.zero_tol, tol.residual_tol)
    cached = basis._reports.get(key)
    if cached is not None:
        return cached
    gram = basis.gram_matrix()
    size = len(gram)  # basis.n unless a file lacked records
    off = np.abs(gram - np.eye(size))
    max_off = float(off.max())
    if max_off <= tol.residual_tol:
        report = GramReport(
            n=basis.n, is_orthogonal=True, max_offdiag=max_off, witness=None
        )
    else:
        iu, ju = np.triu_indices(size, k=1)
        vals = np.abs(gram[iu, ju])
        usable = (vals > tol.residual_tol) & (vals < 1.0 - tol.residual_tol)
        witness = None
        if np.any(usable):
            pos = int(np.argmax(np.where(usable, vals, -1.0)))
            i, j = int(iu[pos]), int(ju[pos])
            labels = basis.labels()
            witness = (labels[i], labels[j], complex(gram[i, j]))
        report = GramReport(
            n=basis.n, is_orthogonal=False, max_offdiag=max_off, witness=witness
        )
    basis._reports[key] = report
    return report


def orthogonality_survey(
    max_n: int, tol: TolerancePolicy = DEFAULT_TOL
) -> list[tuple[int, bool]]:
    """Build and Gram-classify every dimension from 2 through max_n."""
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    results = []
    for n in range(2, max_n + 1):
        report = gram_report(build_basis(n, tol), tol)
        results.append((n, report.is_orthogonal))
    return results
