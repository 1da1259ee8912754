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

Selection takes one of two paths, chosen by c = gcd(eta1, eta2).  For
c = 1 each class's n candidates are densified as one (n, n) array from
the closed-form projection recipe, the four classes sharing one gather of
the DFT powers, and first fit runs on it as block CGS2.  For c > 1 the
candidates are written in the orthonormal stride-eta1 train basis instead,
where each class splits into mutually orthogonal orbit blocks of at most
4n/c**2 coordinates: first fit runs, batched, on all blocks of one orbit
size at once, the gate reads the class's condition number off the union
of its blocks' singular values, and only a class the gate fails is
densified for pivoting.  Neither the pool, the blocking nor the orbit
blocks change a label: a later mirror never extends the rank and always
loses the pivoting tie to its partner, and a candidate extends the rank
of its class exactly when it extends the rank of its block.  The audits
certify the support bounds, the eigenvalue multiplicities, the
support/spectrum uncertainty constraints, and the orthogonality
classification.

A basis is a set of arrays in vector order: each vector's class,
position a*eta2 + b, scale and support, and one (n, n) array of unit rows,
its dense_matrix().  _unit_rows turns labels into unit rows and norms,
each row divided by its norm wherever that is above 0, for class arrays,
kept rows and import alike; a pool takes only rows whose norm is above
tol.  _assemble then counts the supports.  Records, class Gram blocks and
their inverses are derived from the arrays on first read.
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
    _CHARACTERS,
    TrainSum,
    _class_rows,
    _power_coordinates,
    _power_gathers,
    project,
)
from .trains import DivisorPair, ModulatedDeltaTrain, eta_pair

# Largest 2-norm condition number allowed for one class's unit rows before
# that class is re-selected by pivoting.  First-fit bases of prime n reach
# 1e17; with the gate, whole bases stay below 5.9e5 for every n up to 300.
CONDITION_BOUND = 1e6
# Pivot residuals within this relative margin of the largest count as tied,
# so rounding in the last bits cannot decide which label is taken.
_TIE_MARGIN = 1e-9
# Pool rows per block of first fit and of the pivoting Gram.
_BLOCK = 64

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
    """n selected eigenvectors as arrays in vector order; all else derived on first read.

    Vector i is the unit projected train of class classes[i] and position
    a*eta2 + b = positions[i], with raw norm scale[i] and support[i]
    nonzeros; `rows` holds the unit rows and is the dense_matrix().  The
    records, the class Gram blocks, their inverses and the flat labels are
    cached properties, so the arrays of an assembled basis are read-only.
    """

    n: int
    eta: DivisorPair
    classes: np.ndarray  # intp
    positions: np.ndarray  # intp
    scale: np.ndarray
    support: np.ndarray  # intp
    rows: np.ndarray
    zero_candidates: int = 0  # vanishing projections among all 4n candidates

    @functools.cached_property
    def vectors(self) -> list[BasisVectorRecord]:
        """The records, built on first read; each `dense` is a read-only view of its row."""
        view = self.rows.view()
        view.flags.writeable = False
        return [
            BasisVectorRecord(k=k, a=a, b=b, dense=row, support=s, scale=scale)
            for (k, a, b), row, s, scale in zip(
                self.labels(), view, self.support.tolist(), self.scale.tolist()
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
        return self.rows @ self.rows.conj().T

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
        that is read: a quarter of its flops and of its memory.
        """
        grams = []
        for pos in (np.flatnonzero(self.classes == k) for k in range(4)):
            rows = self.rows[pos]
            grams.append((pos, rows @ rows.conj().T))
        return grams

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
    def _reports(self) -> dict:  # gram_report's, by tolerance
        return {}


def _ill_conditioned(units: np.ndarray) -> bool:
    """Does the 2-norm condition number of the rows exceed CONDITION_BOUND?"""
    sv = np.linalg.svd(units, compute_uv=False)
    return bool(sv[0] > CONDITION_BOUND * sv[-1])


def _first_fit(units: np.ndarray, pool: np.ndarray, count: int, tol: float) -> list[int]:
    """Indices into `pool` of its first `count` rows that extend the rank.

    Block CGS2: each block of _BLOCK pool rows has the pivots accepted
    before it projected out twice, as two matrix products per pass.  Each
    row of the block is then measured against the pivots accepted inside
    the block, again twice, and is accepted iff its residual norm exceeds
    tol times its own norm; its normalized residual becomes a pivot.
    """
    kept: list[int] = []
    if not count:
        return kept
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
                if rank + 1 == count:
                    return kept
                q, qc = pivots[before:rank + 1], conj[before:rank + 1]
    return kept


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
    its batched steps cost about twice _first_fit's per row below n = 250,
    which made the certify workload (n = 2..128, 99 of them c = 1) 8%
    slower; so the dense path keeps _first_fit.
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


def _select_in_blocks(eta: DivisorPair, mirror: np.ndarray, tol: float):
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
    times as many), and then in passes of fewer classes.  Their kept
    unit rows take one batched SVD per pass.  Returns per class the kept
    positions in scan order and the condition number of its kept rows, and
    the number of vanishing candidates.
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
            pool = nonzero & (mirror[members] >= members)
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
            first = np.argsort(~accepted, axis=-1, kind="stable")[..., : rank.max()]
            rows = np.take_along_axis(slots, first, -1)
            held = np.take_along_axis(accepted, first, -1)
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
    return [np.sort(np.concatenate(part)) for part in kept], top / bottom, zeros


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
    would find the two tied and take the earlier.  First fit keeps each pool
    row, in scan order, that extends the rank of its class, up to the
    class's known multiplicity.  It guarantees exact independence but no
    margin: at prime n its rows can be numerically singular.  So a class
    whose unit rows have a 2-norm condition number above CONDITION_BOUND is
    re-selected from its pool by max-residual pivoting, run as pivoted
    Cholesky on the pool's Gram (see _pivot_rows), ties going to the earliest
    candidate.

    The path follows c = gcd(eta1, eta2).  For c = 1 each class is
    densified as one (n, n) array (the DFT powers' supports and roots are
    gathered once for all four classes), first fit runs on it as block
    CGS2 (see _first_fit), and the gate takes the SVD of the kept rows.
    For c > 1 no class is densified: each candidate is written in
    stride-eta1 train coordinates, where the class splits into mutually
    orthogonal orbit blocks of at most 4n/c**2 coordinates (see
    _select_in_blocks).  First fit runs over all blocks of one orbit size
    at once (see _stacked_first_fit), and the gate reads the condition
    number off the union of the blocks' singular values.  A class that
    fails the gate there is densified and pivoted as on the other path.
    Either path yields only the kept positions of each class; once its
    arrays are freed, _unit_rows densifies the kept labels, all four
    classes in one call, in vector order (class, then scan order), as it
    densifies each class array, so a kept row is bitwise its row there.
    Raises if any class misses its multiplicity, which would indicate a bug
    rather than bad input.
    """
    check_tol(tol)
    eta = eta_pair(n)
    dims = multiplicities(n)
    position = np.arange(n)  # position a*eta2 + b holds label (k, a, b)
    a, b = np.divmod(position, eta.eta2)
    mirror = (-a % eta.eta1) * eta.eta2 + (-b % eta.eta2)
    first = mirror >= position  # the earlier candidate of each mirror pair
    if math.gcd(eta.eta1, eta.eta2) > 1:
        kept, condition, zeros = _select_in_blocks(eta, mirror, tol)
        gated = np.flatnonzero(condition > CONDITION_BOUND).tolist()
        gathers = _power_gathers(n) if gated else None
        for k in gated:
            units, norms = _unit_rows(n, k, gathers=gathers)
            pool = np.flatnonzero((norms > tol) & first)
            kept[k] = pool[_pivot_rows(units[pool], dims[k], tol)]
            del units  # freed before the next class is densified
    else:
        kept, zeros = [], 0
        gathers = _power_gathers(n)
        for k in range(4):
            units, norms = _unit_rows(n, k, gathers=gathers)
            nonzero = norms > tol
            zeros += n - int(np.count_nonzero(nonzero))
            pool = np.flatnonzero(nonzero & first)
            fit = pool[_first_fit(units, pool, dims[k], tol)]
            if fit.size and _ill_conditioned(units[fit]):
                fit = pool[_pivot_rows(units[pool], dims[k], tol)]
            kept.append(fit)
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
    return _assemble(eta, classes, positions, scales, rows, tol, zeros)


def _assemble(
    eta: DivisorPair, classes, positions, scales, rows, tol: float, zero_candidates
) -> EigenBasis:
    """The basis of the given per-vector arrays and unit rows, all in vector order.

    The one assembly shared by build_basis and import: supports are counted
    at tol in one pass, and `rows` is the basis's dense_matrix().  The
    arrays are made read-only, since the caches derived from them (records,
    flat labels, Gram blocks and their inverses, reports) would not see a
    later write: an edited basis is a new one, assembled from edited copies.
    """
    support = np.count_nonzero(np.abs(rows) > tol, axis=1)
    for array in (classes, positions, scales, support, rows):
        array.flags.writeable = False
    return EigenBasis(
        n=eta.n, eta=eta, classes=classes, positions=positions, scale=scales,
        support=support, rows=rows, zero_candidates=zero_candidates,
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


def gram_report(basis: EigenBasis, tol: float = DEFAULT_TOL) -> GramReport:
    """Classify the basis from the pairs i < j within each class."""
    check_tol(tol)
    if tol not in basis._reports:
        pairs = []
        for pos, g in basis._class_grams:
            iu, ju = np.triu_indices(len(pos), k=1)
            pairs.append((pos[iu], pos[ju], g[iu, ju]))
        i, j, vals = (np.concatenate(part) for part in zip(*pairs))
        mods = np.abs(vals)
        max_off = float(mods.max(initial=0.0))
        usable = (mods > tol) & (mods < 1.0 - tol)
        witness = None
        if np.any(usable):
            mods = np.where(usable, mods, -1.0)
            tied = np.flatnonzero(mods >= mods.max() * (1.0 - _TIE_MARGIN))
            first = tied[np.lexsort((j[tied], i[tied]))[0]]  # the first tied pair wins
            labels = basis.labels()
            witness = (labels[i[first]], labels[j[first]], complex(vals[first]))
        orthogonal = max_off <= tol
        basis._reports[tol] = GramReport(basis.n, orthogonal, max_off, witness)
    return basis._reports[tol]


def _survey(max_n: int, tol: float) -> Iterator[tuple[EigenBasis, GramReport]]:
    """Build and Gram-classify every dimension from 2 through max_n, in order."""
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    for n in range(2, max_n + 1):
        basis = build_basis(n, tol)
        yield basis, gram_report(basis, tol)


def orthogonality_survey(max_n: int, tol: float = DEFAULT_TOL) -> list[tuple[int, bool]]:
    """Build and Gram-classify every dimension from 2 through max_n."""
    return [(basis.n, report.is_orthogonal) for basis, report in _survey(max_n, tol)]
