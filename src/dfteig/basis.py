"""Greedy construction of the sparse eigenvector basis, plus its audits.

The 4n projected trains P_k g_{eta1}(a, b) contain n linearly independent
eigenvectors.  D**2 reverses a train, so the candidate with label
(-a, -b) is a unit multiple of the one with (a, b); only the earlier of
each such mirror pair enters the class's pool.  Scanning the pool in a
fixed order (offset, then modulation) and keeping every candidate that
extends the rank of its class (first fit) yields a deterministic basis
whose supports sit between (eta1+eta2)/2 and 2*(eta1+eta2).  First fit is
exactly independent but can be numerically singular (prime n), so each
class whose condition number exceeds CONDITION_BOUND is re-selected from
its pool by max-residual pivoting, run as pivoted Cholesky on the pool's
Gram; the support bounds hold for every candidate, so they are unaffected.

Each class is decided once, by that one rule.  Where c = gcd(eta1, eta2)
exceeds 1 the orbit blocks decide the classes they can: the candidates
are written in the orthonormal stride-eta1 train basis, where each class
splits into mutually orthogonal orbit blocks of at most 4n/c**2
coordinates, first fit runs, batched, on all blocks of one orbit size at
once, and the gate reads the class's condition number off the union of
its blocks' singular values.  Every other class, all four at c = 1 and
each one whose gate fired in the blocks, is densified once as an (n, n)
array from the closed-form projection recipe.  At c = 1 first fit runs
on that array (_first_fit) and either keeps its rows or returns None: a
shifted Cholesky of the Gram of the class's first m pool rows, m its
multiplicity, can prove them what first fit keeps and the gate passes
(see _sigma_min_bound); otherwise it scans as block CGS2 and checks the
gate at 64, 128, 256 and m kept rows, since dropping rows cannot raise a
condition number, and each gate is itself a shifted Cholesky first, only
rows it cannot certify taking the SVD.  A class first fit returns None
for, or whose gate fired in the blocks, is pivoted.  Neither the pool,
the blocking nor the orbit blocks change a label: a later mirror never
extends the rank and always loses the pivoting tie to its partner, and a
candidate extends the rank of its class exactly when it extends the rank
of its block.  The audits certify the support bounds, the eigenvalue
multiplicities, the support/spectrum uncertainty constraints, and the
orthogonality classification.

A basis is a set of arrays in vector order: each vector's class,
position a*eta2 + b and scale, and one (n, n) array of unit rows, its
dense_matrix(), plus the one tol it is read at.  _unit_rows turns labels
into unit rows and norms, each row divided by its norm wherever that is
above 0, for class arrays, kept rows and import alike; a pool takes only
rows whose norm is above tol.  The divisor pair is derived from n, and
supports, records, class Gram blocks, their inverses and the Gram report
from the arrays and tol, each on first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    VerificationError,
    as_vector,
    check_tol,
    naive_dft,
)
from .projection import (
    _BLOCK,
    _CHARACTERS,
    DivisorPair,
    ModulatedDeltaTrain,
    TrainSum,
    _class_rows,
    _power_coordinates,
    _power_gathers,
    eta_pair,
    project,
)

# Largest 2-norm condition number allowed for one class's unit rows before
# that class is re-selected by pivoting.  First-fit bases of prime n reach
# 1e17; with the gate, whole bases stay below 5.9e5 for every n up to 300.
CONDITION_BOUND = 1e6
# Pivot residuals within this relative margin of the largest count as tied,
# so rounding in the last bits cannot decide which label is taken.
_TIE_MARGIN = 1e-9
# Kept-row counts at which first fit on a dense class checks the gate early.
_GATE_AT = (64, 128, 256)

__all__ = [
    "CONDITION_BOUND",
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


def multiplicities(n: int) -> tuple[int, int, int, int]:
    """Eigenspace dimensions of the n-dimensional DFT, indexed by class k.

    Entry k is the dimension of the eigenspace with eigenvalue i**(-k); the
    four entries sum to n and depend only on n mod 4, in closed form.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m, r = divmod(n, 4)
    return {
        0: (m + 1, m, m, m - 1),
        1: (m + 1, m, m, m),
        2: (m + 1, m, m + 1, m),
        3: (m + 1, m + 1, m + 1, m),
    }[r]


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


@dataclass(frozen=True, eq=False)
class BasisVectorRecord:
    """One selected eigenvector, the projected train P_k g_{eta1}(a, b).

    The label (k, a, b) fixes the vector.  A record is a read-only view
    built on request from its basis's arrays (EigenBasis.vectors): `dense`
    is a read-only view of its row of dense_matrix(), so editing a record
    cannot change the basis.  `scale` is the norm of the raw projected train,
    so scale * dense reproduces densify_sum(project(k, g_{eta1}(a, b))).
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


@dataclass(eq=False)
class EigenBasis:
    """n selected eigenvectors as arrays in vector order, read at one tol; all else derived.

    Vector i is the unit projected train of class classes[i] and position
    a*eta2 + b = positions[i], with raw norm scale[i]; `rows` holds the unit
    rows and is the dense_matrix().  n fixes the divisor pair, so `eta` is
    derived from it, as eta_pair(n).  `tol` is the threshold the basis was
    built at, and everything read at a threshold is read at it: the
    supports, gram_report's classification and to_coefficients' stopping
    rule.  Construction checks tol and makes the arrays read-only, since the
    caches derived on first read (supports, records, flat labels, Gram
    blocks, their inverses and the report) would not see a later write: an
    edited basis, or one read at another tol, is a new one, made with
    dataclasses.replace.
    """

    n: int
    classes: np.ndarray  # intp
    positions: np.ndarray  # intp
    scale: np.ndarray
    rows: np.ndarray
    zero_candidates: int = 0  # vanishing projections among all 4n candidates
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        check_tol(self.tol)
        for array in (self.classes, self.positions, self.scale, self.rows):
            array.flags.writeable = False

    @functools.cached_property
    def eta(self) -> DivisorPair:
        """The divisor pair of n, whose strides the labels index."""
        return eta_pair(self.n)

    @functools.cached_property
    def support(self) -> np.ndarray:
        """Each unit row's nonzeros, its entries above tol, counted on first read; read-only."""
        support = np.count_nonzero(np.abs(self.rows) > self.tol, axis=1)
        support.flags.writeable = False
        return support

    @functools.cached_property
    def vectors(self) -> list[BasisVectorRecord]:
        """The records, built on first read; each `dense` is a read-only view of its row."""
        return [
            BasisVectorRecord(k=k, a=a, b=b, dense=row, support=s, scale=scale)
            for (k, a, b), row, s, scale in zip(
                self.labels(), self.rows, self.support.tolist(), self.scale.tolist()
            )
        ]

    @property
    def per_class_counts(self) -> tuple[int, int, int, int]:
        return tuple(np.bincount(self.classes, minlength=4).tolist())

    def labels(self) -> list[tuple[int, int, int]]:
        a, b = np.divmod(self.positions, self.eta.eta2)
        return list(zip(self.classes.tolist(), a.tolist(), b.tolist()))

    def dense_matrix(self) -> np.ndarray:
        """The unit rows in vector order: record i's `dense` is row i."""
        return self.rows

    def gram_matrix(self) -> np.ndarray:
        """All pairwise inner products <v_i, v_j> of the unit vectors, not cached."""
        return _gram(self.rows)

    @functools.cached_property
    def _flat(self) -> np.ndarray:
        """Flat index k*n + a*eta2 + b of each vector in the (4, eta1, eta2) correlations.

        Refuses a basis that does not hold n vectors, such as a file missing
        a record: it cannot span the space, so no coefficients reconstruct it.
        """
        if self.classes.size != self.n:
            raise ValueError(
                f"basis holds {self.classes.size} vectors, expected n={self.n}; "
                "an incomplete basis cannot change basis"
            )
        return self.classes * self.n + self.positions

    @functools.cached_property
    def _class_grams(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Positions and Gram block of each class, each from its class's rows alone.

        Distinct classes are orthogonal, so these blocks are all of the Gram
        that is read: a quarter of its flops and of its memory.  verify's rank
        certificate, gram_report and the solve all read them from this cache.
        """
        return [(pos, _gram(self.rows[pos]))
                for pos in (np.flatnonzero(self.classes == k) for k in range(4))]

    @functools.cached_property
    def _class_solvers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Positions and inverse Gram block of each class: the Gram system, solved."""
        solvers = []
        for k, (pos, gram) in enumerate(self._class_grams):
            # system matrix A[m, l] = <u_l, u_m> = gram[l, m]
            try:
                solvers.append((pos, np.linalg.inv(gram.T)))
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(
                    f"n={self.n}: singular Gram system in class {k}; "
                    "the basis is corrupted"
                ) from exc
        return solvers

    @functools.cached_property
    def _report(self) -> GramReport:
        """gram_report's classification at tol, from the pairs i < j within each class."""
        pairs = []
        for pos, g in self._class_grams:
            iu, ju = np.triu_indices(len(pos), k=1)
            pairs.append((pos[iu], pos[ju], g[iu, ju]))
        i, j, vals = (np.concatenate(part) for part in zip(*pairs))
        mods = np.abs(vals)
        max_off = float(mods.max(initial=0.0))
        usable = (mods > self.tol) & (mods < 1.0 - self.tol)
        witness = None
        if np.any(usable):
            mods = np.where(usable, mods, -1.0)
            tied = np.flatnonzero(mods >= mods.max() * (1.0 - _TIE_MARGIN))
            first = tied[np.lexsort((j[tied], i[tied]))[0]]  # the first tied pair wins
            labels = self.labels()
            witness = (labels[i[first]], labels[j[first]], complex(vals[first]))
        return GramReport(self.n, max_off <= self.tol, max_off, witness)


def _gram(rows: np.ndarray) -> np.ndarray:
    """The Gram matrix U U^H of the rows: entry (i, j) is <u_i, u_j>."""
    return rows @ rows.conj().T


def _cholesky_shift(gram: np.ndarray, width: int, target: float) -> float:
    """The shift s of _sigma_min_bound: target plus every rounding error it must cover.

    `gram` is the computed Gram H = fl(U U^H) of m rows U of `width`
    entries, G = U U^H is its exact value, and a Cholesky of H - s*I runs
    to completion.  With u = eps/2, gamma_k = k*u / (1 - k*u) and d the
    largest diagonal entry of H, three errors separate that from
    lambda_min(G) >= s:

    - forming H: a complex inner product of length `width` errs by at most
      gamma_{width+2} |x|^T |y| (Higham, Accuracy and Stability of Numerical
      Algorithms, 3.6), so |H - G| <= gamma_{width+2} |U| |U|^T entrywise
      and ||H - G||_2 <= gamma_{width+2} ||U||_F**2 <= m*d*gamma_{width+2}
      to first order;
    - subtracting s from the diagonal: at most u*d;
    - the Cholesky itself: once it completes, R^H R = H - s*I + dA with
      |dA| <= gamma_{m+1} |R^H| |R| (Demmel 1989; Higham, Theorem 10.3),
      and complex products add 2 to the count, so
      ||dA||_2 <= gamma_{m+3} ||R||_F**2 <= m*d*gamma_{m+3} to first order.

    R^H R is positive semidefinite, so lambda_min(G) >= s minus the three.
    Hence s = target + 2*(m*d*(gamma_{width+2} + gamma_{m+3}) + u*d) leaves
    lambda_min(G) >= target; the factor 2 covers the second-order terms and
    the rounding of s itself.  Conversely, if lambda_min(G) >= 2*s, then
    H - s*I has its smallest eigenvalue above m*d*gamma_{m+3}, so the
    Cholesky completes (Demmel 1989; Higham, Theorem 10.7).
    """
    m = len(gram)
    d = float(gram.diagonal().real.max(initial=0.0))
    u = np.finfo(float).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    return target + 2 * (m * d * (gamma(width + 2) + gamma(m + 3)) + u * d)


def _sigma_min_bound(gram: np.ndarray, width: int, target: float) -> Optional[float]:
    """sqrt(target), proven a lower bound on the rows' smallest singular value, or None.

    `gram` is the computed Gram fl(U U^H) of m > 0 rows U of `width`
    entries; only its lower triangle and the real part of its diagonal are
    read.  This is Rump's floating-point test of positive definiteness
    ("Verification of positive definiteness", BIT 46 (2006)): a Cholesky of
    gram - s*I, with s from _cholesky_shift, that runs to completion proves
    lambda_min(U U^H) >= target.  So the rows' Gram is never certified when
    it is singular (a repeated row) or has an eigenvalue below target, and
    always when its eigenvalues are all at least 2*s.  A Gram holding a NaN
    or an infinity is not certified either.
    """
    shift = _cholesky_shift(gram, width, target)
    if not math.isfinite(shift):
        return None
    try:
        factor = np.linalg.cholesky(gram - shift * np.eye(len(gram)))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(factor.diagonal())):  # LAPACK lets a NaN through
        return None
    return math.sqrt(target)


def _ill_conditioned(units: np.ndarray) -> bool:
    """Does the 2-norm condition number of the unit rows exceed CONDITION_BOUND?

    m unit rows have sigma_max**2 <= m, so a shifted Cholesky of their Gram
    that proves sigma_min**2 >= m / CONDITION_BOUND**2 (see _sigma_min_bound)
    answers no; only rows it cannot certify take the SVD.
    """
    m, width = units.shape
    if _sigma_min_bound(_gram(units), width, m / CONDITION_BOUND**2) is not None:
        return False
    sv = np.linalg.svd(units, compute_uv=False)
    return bool(sv[0] > CONDITION_BOUND * sv[-1])


def _first_fit(
    units: np.ndarray, pool: np.ndarray, count: int, tol: float
) -> Optional[list[int]]:
    """Indices into `pool` of its first `count` rows that extend the rank, or None.

    None when those rows fail the condition gate, their 2-norm condition
    number above CONDITION_BOUND (see _ill_conditioned), or when the pool
    runs out short of `count`: either way the class is to be pivoted.

    Certified prefix: the first `count` pool rows are returned outright when
    a shifted Cholesky of their Gram (see _sigma_min_bound) proves
    sigma_min**2 >= max(count / CONDITION_BOUND**2, 4*tol**2).  Every
    successive residual then exceeds 2*tol, so the scan would keep exactly
    them, and count unit rows have sigma_max**2 <= count, so the gate would
    pass.  The first min(count, 2*_BLOCK) rows are certified first: a
    leading block of G - s*I that is not positive definite means G - s*I is
    not either, so a prefix that fails there takes no Gram of all `count`
    rows, and a failed screen only sends the class to the scan.  At the
    primes 2039 and 3001 every class's 128 leading rows fail, while 64 still
    pass in 3 and 4 classes of 4.

    Otherwise the scan, as block CGS2: each block of _BLOCK pool rows has
    the pivots accepted before it projected out twice, as two matrix
    products per pass.  Each row of the block is then measured against the
    pivots accepted inside the block, again twice, and is accepted iff its
    residual norm exceeds tol times its own norm; its normalized residual
    becomes a pivot.  The gate is checked on the rows kept so far when it
    has kept _GATE_AT rows, and at `count`.  First fit keeps rows in scan
    order, so the early ones are a subset of its result, and dropping rows
    cannot raise a condition number (Cauchy interlacing on the Gram): when
    the gate fires early, it would fire on the whole result too.
    """
    if not count:
        return []
    target = max(count / CONDITION_BOUND**2, 4 * tol * tol)
    if pool.size >= count and all(
        _sigma_min_bound(_gram(units[pool[:m]]), units.shape[1], target) is not None
        for m in sorted({min(count, 2 * _BLOCK), count})
    ):
        return list(range(count))
    kept: list[int] = []
    pivots = np.empty((count, units.shape[1]), dtype=np.complex128)
    conj = np.empty_like(pivots)  # conjugated pivots, so coefficients are plain products
    for start in range(0, pool.size, _BLOCK):
        block = units[pool[start:start + _BLOCK]]  # a copy: the block's residuals
        limits = tol * np.linalg.norm(block, axis=1)
        before = len(kept)
        if before:
            q, qc = pivots[:before], conj[:before].T
            for _ in range(2):  # second pass mops up cancellation error
                block -= (block @ qc) @ q
        q = None  # the pivots accepted inside this block
        for i, r in enumerate(block):  # r is a view: projected in place
            if q is not None:
                r -= (qc @ r) @ q
                r -= (qc @ r) @ q
            norm = math.sqrt(np.vdot(r, r).real)
            if norm > limits[i]:
                rank = len(kept)
                np.divide(r, norm, out=pivots[rank])
                np.conjugate(pivots[rank], out=conj[rank])
                kept.append(start + i)
                if len(kept) in (*_GATE_AT, count) and _ill_conditioned(units[pool[kept]]):
                    return None
                if len(kept) == count:
                    return kept
                q, qc = pivots[before:rank + 1], conj[before:rank + 1]
    return None


def _pivot_rows(units: np.ndarray, count: int, tol: float) -> list[int]:
    """Businger-Golub max-residual pivoting: positions of up to `count` rows.

    Each step takes the row with the largest residual against the rows
    taken so far, the lowest position among residuals within _TIE_MARGIN of
    the maximum.  The residuals are those of pivoted Cholesky on the rows'
    Gram G = U U^H (Higham 1990): a step writes one column of the factor from
    one column of G and downdates the squared residual norms, the Schur
    complement's diagonal, by its squared moduli.  Those carry rounding of
    up to about len(units)*eps times the largest squared norm, so pivoting
    stops once no residual exceeds tol or the square root of that
    bound (LAPACK's xPSTRF default): a row already taken, or a copy of one,
    is never taken again.  Returned in ascending order.
    """
    gram = np.empty((len(units), len(units)), dtype=np.complex128)  # gram[p]: column p of U U^H
    for start in range(0, len(units), _BLOCK):  # in blocks: no conjugated copy of all rows
        np.matmul(units[start:start + _BLOCK].conj(), units.T, out=gram[start:start + _BLOCK])
    sq = gram.diagonal().real.copy()
    rounding = len(units) * np.finfo(float).eps * sq.max(initial=0.0)
    floor = max(tol, math.sqrt(rounding))
    factor = np.empty((count, len(units)), dtype=np.complex128)
    chosen: list[int] = []
    for step in range(count):
        norms = np.sqrt(np.maximum(sq, 0.0))
        top = float(norms.max())
        if top <= floor:
            break
        pos = int(np.argmax(norms >= top * (1.0 - _TIE_MARGIN)))
        column = factor[step]
        np.divide(gram[pos] - factor[:step, pos].conj() @ factor[:step], norms[pos], out=column)
        sq -= column.real ** 2 + column.imag ** 2
        chosen.append(pos)
    return sorted(chosen)


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each complex row, over the last axis."""
    flat = rows.view(np.float64)  # real and imaginary parts
    return np.einsum("...j,...j->...", flat, flat)


def _orbit_blocks(eta: DivisorPair) -> list[np.ndarray]:
    """Positions x*eta2 + y grouped by orbit block: one (blocks, width) array per orbit size.

    With c = gcd(eta1, eta2), the block of position x*eta2 + y is the orbit
    of its residues (x mod c, y mod c) under (alpha, beta) -> (beta, -alpha),
    which is what one DFT power does to the residues of a train's label.
    An orbit of size s holds s*n/c**2 positions; each row lists one block's
    positions in ascending order, so a candidate's row index within its block
    is its place in scan order.
    """
    c = math.gcd(eta.eta1, eta.eta2)
    position = np.arange(eta.n)
    alpha, beta = np.divmod(position, eta.eta2)
    alpha, beta = alpha % c, beta % c
    turns = [(alpha, beta), (beta, -alpha % c), (-alpha % c, -beta % c), (-beta % c, alpha)]
    codes = np.array([x * c + y for x, y in turns])
    orbit = codes.min(axis=0)  # the smallest residue code stands for the orbit
    size = 4 - 2 * (codes[2] == codes[0]) - (codes[1] == codes[0])
    groups = []
    for s in (1, 2, 4):
        members = position[size == s]
        if members.size:
            members = members[np.argsort(orbit[members], kind="stable")]
            groups.append(members.reshape(-1, s * eta.n // c**2))
    return groups


def _stacked_first_fit(stack: np.ndarray, counts: np.ndarray, tol: float) -> np.ndarray:
    """Which rows of each stacked pool extend the rank of their pool: a (pools, slots) mask.

    _first_fit's rule for the orbit-block path, where the pools are the
    blocks.  `stack` is (pools, slots, width), each pool's rows in scan
    order and zero rows as padding, which are never accepted; pool p stops
    once it holds counts[p] rows.  Block CGS2, batched over the pools: each
    block of _BLOCK slots has the pivots of the earlier slots projected out
    twice, as batched matrix products, and then each slot is measured
    against the earlier slots of its block, again twice.  A rejected slot's
    pivot is a zero row, so it projects out nothing.  A row is accepted iff
    its residual norm exceeds tol times its own norm, and its
    normalized residual becomes its slot's pivot.  The slots stop once
    every pool is full.  The stack is overwritten with the pivots.

    Called with a whole class as its one pool it keeps the same rows, but
    slower: on the 119 c = 1 classes up to n = 128 that no certified prefix
    settles, it took 0.050-0.051 s against 0.026-0.027 s for _first_fit's
    scan (one BLAS thread), about 4% of a 0.57 s certify pass (build then
    verify, n = 2..128, in one process).  Merged, it would also have to
    branch on the early gate, which only the dense path takes; so the dense
    path keeps _first_fit.
    """
    limits = tol * np.sqrt(_squared_norms(stack))
    accepted = np.zeros(limits.shape, dtype=bool)
    rank = np.zeros(len(stack), dtype=np.intp)
    for start in range(0, stack.shape[1], _BLOCK):
        block = stack[:, start:start + _BLOCK]  # a view: projected in place
        if start:
            q = stack[:, :start]
            for _ in range(2):  # coefficients as conj(conj(block) @ q^T): no conjugated copy of q
                block -= (block.conj() @ q.transpose(0, 2, 1)).conj() @ q
        conj = np.zeros_like(block)  # conjugated pivots of this block
        for i in range(block.shape[1]):
            r = block[:, i, None]  # (pools, 1, width)
            if i:
                q, qc = block[:, :i], conj[:, :i].transpose(0, 2, 1)
                r -= (r @ qc) @ q  # second pass mops up cancellation error
                r -= (r @ qc) @ q
            norm = np.sqrt(_squared_norms(r[:, 0]))
            ok = accepted[:, start + i]
            np.logical_and(norm > limits[:, start + i], rank < counts, out=ok)
            inverse = np.zeros_like(norm)
            np.divide(1.0, norm, out=inverse, where=ok)
            r *= inverse[:, None, None]
            np.conjugate(r[:, 0], out=conj[:, i])
            rank += ok
            if np.array_equal(rank, counts):
                return accepted
    return accepted


def _select_in_blocks(eta: DivisorPair, first: np.ndarray, tol: float):
    """First fit in stride-eta1 train coordinates, block by block.

    Each class's candidates are written in the orthonormal stride-eta1 train
    basis from projection._power_coordinates.  A candidate's coordinates lie
    in its orbit block, and the blocks are mutually orthogonal, so first fit
    over each block's pool in scan order keeps exactly the rows first fit
    over the whole class keeps, and the class's singular values are the
    union of its blocks'.  Block b's rows in class k are the coordinates of
    P_k restricted to the block, so their trace is the block's rank, and
    first fit stops each block there, as it stops the whole class at its
    multiplicity.  All blocks of one orbit size run as one stack (see
    _stacked_first_fit), in all four classes at once unless their rows would
    outnumber one (n, n) class array's entries (at c = 3 they hold 1.6
    times as many), and then in passes of fewer classes.  `first` marks the
    positions that may enter a pool, the earlier of each mirror pair.  The
    kept unit rows take one batched SVD per pass, and the gate reads each
    class's condition number off the union of its blocks' singular values.
    Returns per class the kept positions in scan order, or None where the
    gate fires, and the number of vanishing candidates.
    """
    n = eta.n
    coordinates = _power_coordinates(n)
    kept: list[list[np.ndarray]] = [[] for _ in range(4)]
    top, bottom = np.zeros(4), np.full(4, np.inf)
    zeros = 0
    for members in _orbit_blocks(eta):
        blocks, width = members.shape
        local = np.empty(n, dtype=np.intp)
        local[members] = np.arange(width)
        cell = (np.arange(blocks)[:, None, None], np.arange(width)[:, None])
        # classes per pass: one pass's rows hold no more entries than one (n, n) class
        passes = -(-4 * blocks * width * width // (n * n))
        for ks in np.array_split(np.arange(4), passes):
            units = np.zeros((ks.size, blocks, width, width), dtype=np.complex128)
            for j, (position, value) in enumerate(coordinates):
                # a row's coordinates within one power are distinct, so buffered += is exact
                units[(slice(None), *cell, local[position[members]])] += (
                    _CHARACTERS[ks, j, None, None, None] * value[members]
                )
            counts = np.rint(np.trace(units, axis1=2, axis2=3).real).astype(np.intp)
            scale = np.sqrt(_squared_norms(units))
            nonzero = scale > tol
            zeros += int(nonzero.size - np.count_nonzero(nonzero))
            units /= np.where(nonzero, scale, 1.0)[..., None]
            pool = nonzero & first[members]
            # each block's pool rows first, in scan order, then zero padding
            slots = np.argsort(~pool, axis=-1, kind="stable")[..., : pool.sum(-1).max()]
            stack = np.take_along_axis(units, slots[..., None], 2)
            stack *= np.take_along_axis(pool, slots, -1)[..., None]
            stack = stack.reshape(-1, slots.shape[-1], width)
            accepted = _stacked_first_fit(stack, counts.ravel(), tol).reshape(slots.shape)
            del stack  # its pivots are not read again
            rank = accepted.sum(-1)
            # each block's kept rows first, then zero rows, which only add zero
            # singular values after the block's rank-th
            order = np.argsort(~accepted, axis=-1, kind="stable")[..., : rank.max()]
            rows = np.take_along_axis(slots, order, -1)
            held = np.take_along_axis(accepted, order, -1)
            sv = np.linalg.svd(
                np.take_along_axis(units, rows[..., None], 2) * held[..., None], compute_uv=False
            )
            del units  # freed before the next pass fills its own
            used = rank > 0
            top[ks] = np.maximum(top[ks], np.where(used, sv[..., 0], 0.0).max(axis=1))
            low = np.take_along_axis(sv, np.maximum(rank - 1, 0)[..., None], -1)[..., 0]
            bottom[ks] = np.minimum(bottom[ks], np.where(used, low, np.inf).min(axis=1))
            for k, k_held, k_rows in zip(ks, held, rows):
                kept[k].append(members[np.nonzero(k_held)[0], k_rows[k_held]])
    gated = top / bottom > CONDITION_BOUND
    return [None if gate else np.sort(np.concatenate(part))
            for gate, part in zip(gated, kept)], zeros


def _unit_rows(n: int, k, select=None, *, gathers=None):
    """_class_rows(n, k, select) divided by their norms where above 0, and the norms.

    The one label-to-row path: build_basis makes its class arrays and kept
    rows here, and import makes a basis's rows here.  The norms are
    np.linalg.norm's, taken _BLOCK rows at a time so that no temporary the
    size of the rows is made.
    """
    rows = _class_rows(n, k, select, gathers=gathers)
    norms = np.empty(len(rows))
    for start in range(0, len(rows), _BLOCK):
        norms[start:start + _BLOCK] = np.linalg.norm(rows[start:start + _BLOCK], axis=1)
    rows /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return rows, norms


def build_basis(n: int, tol: float = DEFAULT_TOL) -> EigenBasis:
    """Deterministic selection of n independent projected trains.

    D**2 reverses a train, so P_k g(-a, -b) is a unit multiple of
    P_k g(a, b): of each such mirror pair only the earlier candidate enters
    its class's pool.  First fit would reject the later one, and pivoting
    would find the two tied and take the earlier.  Each class is decided
    once, by one rule: first fit keeps each pool row, in scan order, that
    extends the rank of its class, up to the class's known multiplicity m.
    It guarantees exact independence but no margin: at prime n its rows can
    be numerically singular.  So a class whose unit rows have a 2-norm
    condition number above CONDITION_BOUND is re-selected from its pool by
    max-residual pivoting, run as pivoted Cholesky on the pool's Gram (see
    _pivot_rows), ties going to the earliest candidate.

    When c = gcd(eta1, eta2) > 1 the orbit blocks decide the classes they
    can: each candidate is written in stride-eta1 train coordinates, where
    the class splits into mutually orthogonal orbit blocks of at most
    4n/c**2 coordinates, first fit runs over all blocks of one orbit size at
    once, and the gate reads the condition number off the union of the
    blocks' singular values (see _select_in_blocks).  Every other class, all
    four at c = 1 and those whose gate fired at c > 1, is densified once as
    an (n, n) array, the DFT powers' supports and roots gathered once for
    all of them.  At c = 1 first fit runs on it (see _first_fit): it proves
    its first m pool rows well conditioned by a shifted Cholesky, or scans
    the pool as block CGS2 and checks the gate at 64, 128, 256 and m kept
    rows, and returns the rows only if they pass.  A class it returns None
    for, and a class whose gate fired in the blocks, is pivoted.  Then,
    once the class arrays are freed, _unit_rows densifies the kept labels,
    all four classes in one call, in vector order (class, then scan order),
    as it densifies each class array, so a kept row is bitwise its row
    there.  The basis carries tol, which its supports, gram_report and
    to_coefficients read.  Raises if any class misses its multiplicity,
    which would indicate a bug rather than bad input.
    """
    check_tol(tol)
    eta = eta_pair(n)
    dims = multiplicities(n)
    position = np.arange(n)  # position a*eta2 + b holds label (k, a, b)
    a, b = np.divmod(position, eta.eta2)
    mirror = (-a % eta.eta1) * eta.eta2 + (-b % eta.eta2)
    first = mirror >= position  # the earlier candidate of each mirror pair
    blocked = math.gcd(eta.eta1, eta.eta2) > 1
    kept, zeros = _select_in_blocks(eta, first, tol) if blocked else ([None] * 4, 0)
    dense = [k for k, fit in enumerate(kept) if fit is None]
    gathers = _power_gathers(n) if dense else None
    for k in dense:
        units, norms = _unit_rows(n, k, gathers=gathers)
        nonzero = norms > tol
        pool = np.flatnonzero(nonzero & first)
        fit = None  # at c > 1 the blocks ran first fit, and the gate fired
        if not blocked:
            zeros += n - int(np.count_nonzero(nonzero))
            fit = _first_fit(units, pool, dims[k], tol)
        kept[k] = pool[_pivot_rows(units[pool], dims[k], tol) if fit is None else fit]
        del units  # freed before the next class is densified
    del gathers  # freed before the kept rows are densified
    for k, fit in enumerate(kept):
        if fit.size != dims[k]:
            raise RuntimeError(
                f"n={n}: eigenvalue class {k} reached rank {fit.size} of "
                f"{dims[k]}; the projected trains failed to span the class, "
                "which indicates an implementation bug"
            )
    classes = np.repeat(np.arange(4), dims)
    positions = np.concatenate(kept)
    rows, scales = _unit_rows(n, classes, positions)
    return EigenBasis(
        n=n, classes=classes, positions=positions, scale=scales, rows=rows,
        zero_candidates=zeros, tol=tol,
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


def audit_sparsity(basis: EigenBasis) -> SparsityAudit:
    """Exact nonzero counts checked against the divisor bounds.

    Raises VerificationError naming the offending vector if any support
    leaves [(eta1+eta2)/2, 2*(eta1+eta2)].  The upper bound is exactly four
    times the lower, so once every support is within it the max/lower ratio
    is at most 4 and needs no check of its own.
    """
    lower = (basis.eta.eta1 + basis.eta.eta2) / 2
    upper = 2 * (basis.eta.eta1 + basis.eta.eta2)
    support = basis.support
    outside = np.flatnonzero((support < lower) | (support > upper))
    if outside.size:
        i = outside[0]
        k, a, b = basis.labels()[i]
        raise VerificationError(
            f"vector (k={k}, a={a}, b={b}) has support "
            f"{support[i]}, outside [{lower}, {upper}]"
        )
    top = int(support.max())
    return SparsityAudit(
        n=basis.n,
        max_support=top,
        min_support=int(support.min()),
        lower_bound=lower,
        upper_bound=upper,
        ratio=top / lower,
    )


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def _uncertainty_ok(n: int, s, sp):
    """Integer form of the support-size constraints, elementwise over s and sp.

    s * sp >= n always, and whenever consecutive divisors d1 < d2 of n
    bracket s, additionally sp * d1 * d2 >= n * (d1 + d2 - s), taken at lo,
    the largest divisor <= s, and hi, the smallest >= s.  When s is itself
    a divisor, lo = hi = s and the bound reduces to the first, so the two
    pairs that bracket s need no case of their own.  sp*lo*hi <= n**3 fits
    in int64 for n up to 2 million, past any n whose rows fit in memory.
    """
    s, sp = np.asarray(s, dtype=np.int64), np.asarray(sp, dtype=np.int64)
    divs = np.array(_divisors(n), dtype=np.int64)
    lo = divs[np.searchsorted(divs, s, side="right") - 1]
    hi = divs[np.searchsorted(divs, s)]
    return (s * sp >= n) & (sp * lo * hi >= n * (lo + hi - s))


def check_uncertainty(v, tol: float = DEFAULT_TOL) -> bool:
    """Do v and its spectrum satisfy the support-size constraints?

    Counts supports at tol on the unit-normalized vector and its
    reference transform, then applies the product bound and the
    consecutive-divisor bound.
    """
    check_tol(tol)
    arr = as_vector(v)
    norm = float(np.linalg.norm(arr))
    if norm <= tol:
        raise ValueError("zero vector has no support bound")
    unit = arr / norm
    s = int(np.count_nonzero(np.abs(unit) > tol))
    sp = int(np.count_nonzero(np.abs(naive_dft(unit)) > tol))
    return bool(_uncertainty_ok(arr.size, s, sp))


@dataclass(frozen=True)
class GramReport:
    """Orthogonality certificate for one basis, read off its class Gram blocks.

    `max_offdiag` is the largest |<v_i, v_j>| within a class (verify
    certifies distinct classes orthogonal).  When the basis is not
    orthogonal, `witness` names a pair of selected vectors that is neither
    orthogonal nor collinear, with its inner product: the first such pair,
    in upper-triangle order, whose inner product's modulus is within
    _TIE_MARGIN of the largest.
    """

    n: int
    is_orthogonal: bool
    max_offdiag: float
    witness: Optional[tuple[tuple[int, int, int], tuple[int, int, int], complex]]


def gram_report(basis: EigenBasis) -> GramReport:
    """Classify the basis at basis.tol from the pairs i < j within each class.

    The report is derived once per basis and cached; to read it at another
    tol, classify dataclasses.replace(basis, tol=...).
    """
    return basis._report


def orthogonality_survey(max_n: int, tol: float = DEFAULT_TOL) -> list[tuple[int, bool]]:
    """Build every dimension from 2 through max_n at tol and Gram-classify it."""
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    return [(n, gram_report(build_basis(n, tol)).is_orthogonal) for n in range(2, max_n + 1)]
