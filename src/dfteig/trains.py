"""Modulated delta trains: sparse vectors on an arithmetic progression.

A train with stride d1, offset a, and modulation b (n = d1*d2) densifies to

    entry j = phase * w**(-b*j) / sqrt(d2)   when j = a (mod d1), else 0,

with w = exp(-2*pi*i/n).  For a fixed stride the d1*d2 = n trains form an
orthonormal basis, and the unitary DFT maps every train to another train
times a unit phase, so all the eigenvector machinery downstream can run on
the (d1, a, b, phase) labels instead of dense vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, omega_power

__all__ = [
    "DivisorPair",
    "eta_pair",
    "ModulatedDeltaTrain",
    "densify",
    "dft_train",
]


@dataclass(frozen=True)
class DivisorPair:
    """The divisors of n closest to sqrt(n): eta1 <= sqrt(n) <= eta2, eta1*eta2 = n."""

    n: int
    eta1: int
    eta2: int


def eta_pair(n: int) -> DivisorPair:
    """Greatest divisor of n at most sqrt(n), paired with its cofactor.

    The cofactor n/eta1 is automatically the least divisor at least
    sqrt(n), so no divisor lies strictly between either one and sqrt(n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    eta1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return DivisorPair(n=n, eta1=eta1, eta2=n // eta1)


@dataclass(frozen=True)
class ModulatedDeltaTrain:
    """Label form of a modulated delta train; densified only on request.

    Offsets and modulation indices are reduced to [0, d1) and [0, d2) on
    construction.  Shifting the modulation index by a multiple of d2
    multiplies the dense vector by w**(-(shift)*a), so that factor is folded
    into `phase` and the dense vector is preserved exactly.  Shifting the
    offset changes nothing (the entry formula references j directly).
    """

    n: int
    d1: int
    a: int = 0
    b: int = 0
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.d1 < 1 or self.n % self.d1 != 0:
            raise ValueError(f"stride {self.d1} must divide n={self.n}")
        d2 = self.n // self.d1
        a = self.a % self.d1
        b = self.b % d2
        phase = complex(self.phase)
        if b != self.b:  # an in-range b needs no shift factor
            phase *= complex(omega_power(self.n, -(self.b - b) * a))
        if abs(abs(phase) - 1.0) > DEFAULT_TOL.zero_tol:
            raise ValueError(f"phase must have unit magnitude, got |{phase!r}|")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "phase", phase)

    @property
    def d2(self) -> int:
        """Co-stride: support size of the dense vector."""
        return self.n // self.d1


def densify(g: ModulatedDeltaTrain) -> np.ndarray:
    """Expand the label form to its dense length-n vector (exactly d2 nonzeros)."""
    out = np.zeros(g.n, dtype=np.complex128)
    idx = g.a + g.d1 * np.arange(g.d2)
    out[idx] = (g.phase / math.sqrt(g.d2)) * omega_power(g.n, -g.b * idx)
    return out


def dft_train(g: ModulatedDeltaTrain) -> ModulatedDeltaTrain:
    """Image of a train under the unitary DFT, still in label form.

    The transform swaps stride and co-stride and picks up one unit factor:
    (d1, a, b) maps to (d2, b, -a) with the phase multiplied by w**(-a*b).
    The constructor then reduces -a into canonical range, which keeps
    densify(dft_train(g)) equal to the dense transform exactly.
    """
    phase = g.phase * complex(omega_power(g.n, -g.a * g.b))
    return ModulatedDeltaTrain(n=g.n, d1=g.d2, a=g.b, b=-g.a, phase=phase)
