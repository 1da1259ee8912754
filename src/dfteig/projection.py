"""Projections of delta trains onto the four DFT eigenvalue classes.

The unitary DFT D satisfies D**4 = I, so its eigenvalues are fourth roots
of unity and averaging its powers against the characters i**(j*k) gives
projectors onto the eigenspaces:

    P_k = (1/4) * sum_{j=0..3} i**(j*k) * D**j,   eigenvalue i**(-k).

Each power of D applied to a delta train is again a train in label form,
so the projection of a train is a four-term symbolic sum.  `project` and
`densify_sum` apply that law one candidate at a time; the projection recipe
runs it in closed form on whole label arrays for the basis builder, which
either densifies each class as one array or writes every candidate in the
coordinates of the stride-eta1 trains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, as_vector, check_tol, naive_dft, omega_power
from .trains import DivisorPair, ModulatedDeltaTrain, densify, dft_train, eta_pair

__all__ = [
    "EIGENVALUES",
    "eigenvalue_of",
    "TrainSum",
    "project",
    "densify_sum",
    "verify_eigenvector",
]

# i**(-k) for k = 0..3
EIGENVALUES = (1 + 0j, -1j, -1 + 0j, 1j)

# _CHARACTERS[k, j] = i**(j*k) / 4, so that P_k = sum_j _CHARACTERS[k, j] * D**j
_CHARACTERS = 0.25 * np.array([[1j ** (j * k % 4) for j in range(4)] for k in range(4)])
_CHARACTERS.setflags(write=False)


def eigenvalue_of(k: int) -> complex:
    """The eigenvalue i**(-k) attached to class k."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"eigenvalue class must be in 0..3, got {k!r}")
    return EIGENVALUES[k]


@dataclass(frozen=True)
class TrainSum:
    """Weighted sum of at most four delta trains (the symbolic projector image)."""

    n: int
    terms: tuple[tuple[complex, ModulatedDeltaTrain], ...]

    def __post_init__(self):
        if len(self.terms) > 4:
            raise ValueError("a train sum carries at most four terms")
        for _, train in self.terms:
            if train.n != self.n:
                raise ValueError("all terms must share the ambient dimension")
        object.__setattr__(
            self, "terms", tuple((complex(c), t) for c, t in self.terms)
        )


def project(k: int, g: ModulatedDeltaTrain) -> TrainSum:
    """Symbolic image of g under the class-k projector: four labelled terms."""
    eigenvalue_of(k)
    terms = []
    t = g
    for j in range(4):
        terms.append((0.25 * 1j ** (j * k), t))
        t = dft_train(t)
    return TrainSum(n=g.n, terms=tuple(terms))


def densify_sum(s: TrainSum) -> np.ndarray:
    """Entrywise sum of coefficient times densified train."""
    out = np.zeros(s.n, dtype=np.complex128)
    for coeff, train in s.terms:
        out += coeff * densify(train)
    return out


def verify_eigenvector(v, k: int, tol: float = DEFAULT_TOL) -> float:
    """Relative residual ||D v - i**(-k) v|| / ||v|| under the reference DFT."""
    check_tol(tol)
    arr = as_vector(v)
    norm = float(np.linalg.norm(arr))
    if norm <= tol:
        raise ValueError("cannot classify a numerically zero vector")
    lam = eigenvalue_of(k)
    return float(np.linalg.norm(naive_dft(arr) - lam * arr)) / norm


def _stride(eta: DivisorPair, j: int) -> int:
    """Stride of the trains in DFT power j of a stride-eta1 train."""
    return eta.eta2 if j % 2 else eta.eta1


@functools.lru_cache(maxsize=8)
def _projection_recipe(n: int):
    """Where the four DFT powers of each stride-eta1 train land, and with what phase.

    D**j g_{eta1}(a, b) = phases[j, a, b] * g(x, y), a unit train of stride
    s = eta1 for even j and s = eta2 for odd j, stored as its position
    index[j, a, b] = x * (n/s) + y in the flattened (s, n/s) correlation
    grid.  One step of `dft_train` sends a reduced label (s, x, y) to
    (n/s, y, -x mod s) and multiplies the phase by w**((-x mod s)*y).  So
    with a_ = -a mod eta1 and b_ = -b mod eta2, the four powers land at
    (x, y) = (a, b), (b, a_), (a_, b_) and (b_, a), with phase exponents 0,
    a_*b, a_*(b + b_) and a_*(b + b_) + a*b_, reduced mod n and
    exponentiated once over whole label arrays.
    """
    eta = eta_pair(n)
    a, b = np.meshgrid(np.arange(eta.eta1), np.arange(eta.eta2), indexing="ij")
    a_, b_ = -a % eta.eta1, -b % eta.eta2
    index = np.stack([
        a * eta.eta2 + b, b * eta.eta1 + a_, a_ * eta.eta2 + b_, b_ * eta.eta1 + a,
    ])
    half_turn = a_ * (b + b_)
    exponents = np.stack([np.zeros_like(a), a_ * b, half_turn, half_turn + a * b_]) % n
    phases = omega_power(n, exponents)
    index.setflags(write=False)
    phases.setflags(write=False)
    return eta, index, phases


def _power_coordinates(n: int) -> list:
    """Per DFT power j, every train's coordinates in the stride-eta1 train basis.

    The stride-eta1 trains g(x', y') are orthonormal, and coordinate
    x'*eta2 + y' of a vector v is <v, g(x', y')>.  Power j of train
    a*eta2 + b is its recipe phase times a unit train.  An even power is a
    stride-eta1 train: one coordinate, at its recipe position.  An odd power
    is a stride-eta2 train g_{eta2}(x, y), which meets g(x', y') only when
    x' = x and y' = y (mod c), c = gcd(eta1, eta2): n/c**2 coordinates, each
    (c/sqrt(n)) * w**((y' - y)*t), where t < n/c solves t = x (mod eta2) and
    t = x' (mod eta1), so that the two supports meet on t + (n/c)*Z.  For
    each j this returns the coordinate positions and values of all n
    trains, one row per train in scan order, phases included; the four
    classes share them.
    """
    eta, index, phases = _projection_recipe(n)
    c = math.gcd(eta.eta1, eta.eta2)
    p, q = eta.eta1 // c, eta.eta2 // c
    inverse = pow(q, -1, p)  # of eta2/c mod eta1/c, which are coprime
    coordinates = []
    for j in range(4):
        position, phase = index[j].reshape(n, 1), phases[j].reshape(n, 1)
        if j % 2 == 0:
            coordinates.append((position, phase))
            continue
        x, y = np.divmod(position, eta.eta1)  # the label of g_{eta2}(x, y)
        x1 = x % c + c * np.arange(p)  # (n, p): every x' = x (mod c)
        y1 = y % c + c * np.arange(q)  # (n, q): every y' = y (mod c)
        t = x + eta.eta2 * ((x1 - x) // c * inverse % p)
        exponent = (y1[:, None, :] - y[:, :, None]) * t[:, :, None]
        values = (c / math.sqrt(n)) * phase[:, :, None] * omega_power(n, exponent)
        position = x1[:, :, None] * eta.eta2 + y1[:, None, :]
        coordinates.append((position.reshape(n, -1), values.reshape(n, -1)))
    return coordinates


def _power_gathers(n: int, select=None) -> list:
    """Per DFT power j, where the selected trains land: shared by all four classes.

    Power j of every train is the unit train of stride s at its recipe
    position x*(n/s) + y, with entries w**(-y*t)/sqrt(n/s) on t = x (mod s).
    For each j this returns the d = n/s support positions t of each selected
    row, their roots w**(-y*t), the row's recipe phase and d.  At stride 1
    every row's support is 0..n-1, so t is one read-only range broadcast
    over the rows.  `select` lists rows a*eta2 + b; None selects all n, in
    scan order.
    """
    eta, index, phases = _projection_recipe(n)
    roots = omega_power(n, -np.arange(n))  # roots[e] = w**(-e)
    rows = slice(None) if select is None else np.asarray(select, dtype=np.intp)
    gathers = []
    for j in range(4):
        s = _stride(eta, j)
        d = n // s
        x, y = np.divmod(index[j].reshape(n, 1)[rows], d)
        if s == 1:  # x is 0, so no (rows, n) copy of the one range is needed
            t = np.broadcast_to(np.arange(n), (len(x), n))
        else:
            t = x + s * np.arange(d)  # the d support positions of each row
        gathers.append((t, roots[y * t % n], phases[j].reshape(n, 1)[rows], d))
    return gathers


def _class_rows(n: int, k, select=None, *, gathers=None) -> np.ndarray:
    """The raw class-k candidates as the rows of one array, n of them by default.

    Row a*eta2 + b is densify_sum(project(k, g_{eta1}(a, b))), so the rows
    run in scan order; `select` keeps only the listed rows, in its order.
    `k` is one class for every row, or an array of one class per selected
    row, so that rows of all four classes come out of one call.  Each DFT
    power is weighted by its character and scattered into all rows at
    once.  `gathers`, the _power_gathers(n, select) of the same selection,
    lets the four classes share one gather.
    """
    if gathers is None:
        gathers = _power_gathers(n, select)
    size = len(gathers[0][0])
    characters = np.reshape(_CHARACTERS[k], (-1, 4))  # one row, or one per selected row
    rows = np.zeros((size, n), dtype=np.complex128)
    labels = np.arange(size)[:, None]
    for j, (t, root, phase, d) in enumerate(gathers):
        weight = (characters[:, j, None] / math.sqrt(d)) * phase
        if d == n:  # stride 1, as at prime n: every row's support is 0..n-1
            for start in range(0, size, 64):  # in row blocks: no (n, n) temporary
                rows[start:start + 64] += weight[start:start + 64] * root[start:start + 64]
        else:  # positions within one row are distinct, so buffered += is exact
            rows[labels, t] += weight * root
    return rows
