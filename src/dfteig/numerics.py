"""Complex vector arithmetic, the quadratic reference DFT, and rank tracking.

The reference transform is the unitary matrix with entries w**(j*k)/sqrt(n),
w = exp(-2*pi*i/n).  It is built straight from that definition and shares no
code with the fast transform path: everything else in the package is checked
against it.

Inner products are conjugate-linear in the SECOND argument throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VerificationError",
    "TolerancePolicy",
    "DEFAULT_TOL",
    "as_vector",
    "omega_power",
    "dft_matrix",
    "naive_dft",
    "EliminationState",
    "try_extend_rank",
]


class VerificationError(Exception):
    """A certified numeric claim failed its check."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds applied to unit-scale quantities.

    zero_tol decides when a magnitude counts as zero (support counting,
    phase checks); residual_tol bounds eigenvector and orthogonality
    residuals.  Both must be positive and at most 1e-6; the defaults sit
    far above double-precision transform error at desk scale.
    """

    zero_tol: float = 1e-9
    residual_tol: float = 1e-9

    def __post_init__(self):
        for name in ("zero_tol", "residual_tol"):
            value = getattr(self, name)
            if not 0.0 < value <= 1e-6:
                raise ValueError(f"{name} must be in (0, 1e-6], got {value!r}")


DEFAULT_TOL = TolerancePolicy()


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-d complex128 vector; rejects empty or non-finite input."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("vector must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def omega_power(n: int, exponent):
    """w**exponent for w = exp(-2*pi*i/n), integer exponents reduced mod n.

    Reducing before exponentiating keeps phase bookkeeping bit-reproducible
    no matter how the exponent was accumulated.  Accepts scalars or integer
    arrays.
    """
    return np.exp((-2j * np.pi / n) * np.mod(exponent, n))


# One matrix is 16*n**2 bytes (256 MiB at n = 4096), and every caller works at
# one n at a time, so only the last one is kept.
@functools.lru_cache(maxsize=1)
def dft_matrix(n: int) -> np.ndarray:
    """The n-by-n unitary DFT matrix, entry (j, k) = w**(j*k) / sqrt(n)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    j = np.arange(n)
    mat = np.exp((-2j * np.pi / n) * (np.outer(j, j) % n)) / np.sqrt(n)
    mat.setflags(write=False)
    return mat


def naive_dft(v) -> np.ndarray:
    """Reference transform: w_j = (1/sqrt(n)) sum_k w**(j*k) v_k.

    Quadratic on purpose.  This is the oracle; do not route it through the
    fast transform.
    """
    arr = as_vector(v)
    return dft_matrix(arr.size) @ arr


class EliminationState:
    """Tracks the span of the vectors accepted so far.

    Keeps an orthonormal pivot set as the rows of one array and measures a
    vector against it by classical Gram-Schmidt run twice (CGS2), as
    accurate as modified Gram-Schmidt but run as matrix-vector products.
    Acceptance decisions are projection residuals rather than determinants.
    Single-owner mutable: may be handed between execution contexts, but
    must not be mutated concurrently.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = int(dim)
        self._rank = 0
        self._pivots = np.empty((0, self.dim), dtype=np.complex128)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def pivot_rows(self) -> list[np.ndarray]:
        return list(self._pivots[: self._rank].copy())

    def residual(self, v: np.ndarray) -> np.ndarray:
        """Component of v orthogonal to the accepted span (two CGS passes)."""
        r = np.array(v, dtype=np.complex128, copy=True)
        q = self._pivots[: self._rank]
        for _ in range(2):  # second pass mops up cancellation error
            r -= np.conj(q @ np.conj(r)) @ q
        return r

    def _push(self, unit: np.ndarray) -> None:
        if self._rank == len(self._pivots):  # double the capacity
            spare = np.empty((self._rank + 1, self.dim), dtype=np.complex128)
            self._pivots = np.concatenate([self._pivots, spare])
        self._pivots[self._rank] = unit
        self._rank += 1


def try_extend_rank(state: EliminationState, v, tol: TolerancePolicy = DEFAULT_TOL):
    """Accept v iff its residual against the pivots exceeds residual_tol * ||v||.

    Returns (accepted, state); the state is updated in place on acceptance
    and the rank grows by exactly one.
    """
    arr = as_vector(v)
    if arr.size != state.dim:
        raise ValueError(f"dimension mismatch: vector {arr.size} vs state {state.dim}")
    r = state.residual(arr)
    norm_r = float(np.linalg.norm(r))
    if norm_r > tol.residual_tol * float(np.linalg.norm(arr)) and norm_r > 0.0:
        state._push(r / norm_r)
        return True, state
    return False, state
