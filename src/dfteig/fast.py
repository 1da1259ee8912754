"""Fast change of basis: two strided DFT passes, grid reflections, a 4-point butterfly.

Correlating a vector against every train of one stride is the same as
running short DFTs over the strided subsequences - the front part of a full
FFT, stopped before the final recombination stages.  Each stride is one
batched numpy FFT along axis 0 of a reshape of the vector, which costs
O(n log n) at every length, primes included (pocketfft falls back on
Bluestein's chirp-z method there).  With eta1 * eta2 = n, a bar for
negation (a-bar = -a mod eta1, b-bar = -b mod eta2) and w = exp(-2*pi*i/n),
the correlations Pj[a, b] = <v, D**j g_{eta1}(a, b)> of v with the four DFT
powers of every stride-eta1 train are, in closed form,

    P0[a, b] = S1[a, b] * w**(a*b)       P1[a, b] = S2[a-bar, b]
    P2[a, b] = P0[a-bar, b-bar] * q_a    P3[a, b] = S2[a, b-bar] * q_a

where S1[a, y] is the unitary DFT over t of v[a + t*eta1], S2[y, x] the
one over t of v[x + t*eta2], both laid out (eta1, eta2), and the twist
q_a = w**(a*eta2) applies off column b = 0 only.  So every power is a
reflection of one of two grids, read through slices, and the four classes
P_k = (1/4) sum_j i**(j*k) D**j come out of one in-place 4-point butterfly
over the powers: `analyze` costs O(n log n) and gathers nothing.  At a
square n the two grids coincide (S2 is S1 transposed) and one pass serves
both.

`synthesize` is the exact adjoint of `analyze` restricted to the basis
labels: the same steps, conjugate-transposed and run backwards.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis, gram_report
from .numerics import as_vector, omega_power
from .projection import DivisorPair, eta_pair

__all__ = [
    "train_correlations",
    "CorrelationTensor",
    "analyze",
    "to_coefficients",
    "synthesize",
]


@functools.lru_cache(maxsize=16)
def _modulation(n: int, d1: int) -> np.ndarray:
    """w**(a*b) for a < d1 and b < n/d1: the phase of each strided DFT output."""
    table = omega_power(n, np.outer(np.arange(d1), np.arange(n // d1)))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _demodulation(n: int, d1: int) -> np.ndarray:
    """The conjugate of _modulation(n, d1), which synthesize takes back off."""
    table = _modulation(n, d1).conj()
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _twists(n: int):
    """The divisor pair of n, the twist q_a = w**(a*eta2) for a < eta1, and its conjugate.

    Both twists are columns, so that they scale the rows of an (eta1, eta2) grid.
    """
    eta = eta_pair(n)
    twist = omega_power(n, np.arange(eta.eta1)[:, None] * eta.eta2)
    conjugate = twist.conj()
    twist.setflags(write=False)
    conjugate.setflags(write=False)
    return eta, twist, conjugate


def _dft_columns(grid: np.ndarray, transform) -> np.ndarray:
    """The unitary transform (np.fft.fft or np.fft.ifft) down every column of a grid.

    Column x of v.reshape(-1, s) is the strided subsequence v[x + t*s].  A
    DFT of length 1 is the identity, as down the stride-n grid at prime n,
    so that grid is returned as it is.
    """
    if len(grid) == 1:
        return grid
    return transform(grid, axis=0, norm="ortho")


def train_correlations(v, d1: int) -> np.ndarray:
    """<v, g_{d1}(a, b)> for all a < d1 and b < n/d1, as a (d1, n/d1) array.

    For each offset a, the d2 = n/d1 correlations over b are one short
    unitary DFT of the subsequence v[a::d1] times the phase w**(a*b), so
    the whole map costs O(n log d2) instead of the quadratic loop.
    """
    arr = as_vector(v)
    n = arr.size
    if d1 < 1 or n % d1 != 0:
        raise ValueError(f"stride {d1} does not divide n={n}")
    return _dft_columns(arr.reshape(-1, d1), np.fft.fft).T * _modulation(n, d1)


@dataclass(eq=False)
class CorrelationTensor:
    """Correlations of one vector against every projected train.

    values[k, a, b] = <v, P_k g_{eta1}(a, b)> for the raw (unnormalized)
    projections.  The (4, eta1, eta2) shape fixes n and its divisor pair,
    so both are read off it.
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[1] * self.values.shape[2]

    @property
    def eta(self) -> DivisorPair:
        return DivisorPair(self.n, *self.values.shape[1:])


def _butterfly(z: np.ndarray, rotation: complex) -> None:
    """z[k] <- sum_j rotation**(j*k) * z[j] over the first axis of length 4, in place.

    The radix-4 butterfly: rotation -1j correlates the four DFT powers with
    the class characters (scaled by 4), and 1j is its adjoint.
    """
    z0, z1, z2, z3 = z
    diff = z0 - z2
    z0 += z2
    total = z1 + z3
    z1 -= z3
    z1 *= rotation
    np.subtract(z0, total, out=z2)
    z0 += total
    np.subtract(diff, z1, out=z3)
    np.add(diff, z1, out=z1)


def analyze(v) -> CorrelationTensor:
    """Correlations against all 4n projected trains in O(n log n).

    Runs the stride-eta1 and stride-eta2 DFT passes (one pass at a square
    n), writes the four DFT powers of every train into the output as
    reflections of their grids (see the module docstring), and combines
    them with the class characters in one in-place butterfly.  The 1/4 of
    the characters scales the input, so it costs one pass of n entries.
    """
    arr = as_vector(v)
    n = arr.size
    eta, twist, _ = _twists(n)
    quarter = arr * 0.25
    first = _dft_columns(quarter.reshape(eta.eta2, eta.eta1), np.fft.fft)  # S1, transposed
    if eta.eta1 == eta.eta2:
        s2 = first
    else:
        s2 = _dft_columns(quarter.reshape(eta.eta1, eta.eta2), np.fft.fft)
    values = np.empty((4, eta.eta1, eta.eta2), dtype=np.complex128)
    p0, p1, p2, p3 = values
    np.multiply(first.T, _modulation(n, eta.eta1), out=p0)
    # [:0:-1] reads index -x mod m at every x >= 1; index 0 is its own reflection
    np.multiply(p0[:0:-1, :0:-1], twist[1:], out=p2[1:, 1:])
    p2[1:, 0] = p0[:0:-1, 0]
    p2[0, 1:] = p0[0, :0:-1]
    p2[0, 0] = p0[0, 0]
    p1[0] = s2[0]
    p1[1:] = s2[:0:-1]
    np.multiply(s2[:, :0:-1], twist, out=p3[:, 1:])
    p3[:, 0] = s2[:, 0]
    _butterfly(values, -1j)
    return CorrelationTensor(values)


def _selected_correlations(tensor: CorrelationTensor, basis: EigenBasis) -> np.ndarray:
    """<v, u_m> for the unit basis vectors, read off the correlation tensor."""
    return tensor.values.reshape(-1)[basis._flat] / basis.scale


def _solve(solvers, rhs: np.ndarray) -> np.ndarray:
    out = np.empty_like(rhs)
    for pos, inverse in solvers:
        out[pos] = inverse @ rhs[pos]
    return out


def _unit_exponent(arr: np.ndarray) -> int:
    """e such that arr * 2**-e has a norm safe from over- and underflow.

    0 when the norm already lies in [1e-150, 1e150], or arr is zero;
    otherwise the binary exponent of its largest real or imaginary part.
    """
    squared = np.vdot(arr, arr).real  # reads inf or nan on overflow, 0 on underflow
    if 1e-300 <= squared <= 1e300:
        return 0
    return int(np.frexp(max(np.abs(arr.real).max(), np.abs(arr.imag).max()))[1])


def _ldexp(z: np.ndarray, e: int) -> np.ndarray:
    """z * 2**e, exact wherever the result stays a normal float."""
    out = np.empty(z.shape, dtype=np.complex128)
    with np.errstate(over="ignore"):  # to_coefficients refuses an inf
        out.real, out.imag = np.ldexp(z.real, e), np.ldexp(z.imag, e)
    return out


def to_coefficients(v, basis: EigenBasis) -> np.ndarray:
    """Expansion coefficients of v in the basis, in label order.

    For an orthogonal basis the coefficients are the selected correlation
    entries.  Otherwise the Gram system is solved class by class: the Gram
    is block-diagonal by class, so only each class's block, about n/4
    square, is formed from that class's rows and inverted, once per basis,
    and no n x n Gram is built.  The solution is then sharpened by residual
    correction through the fast synthesis path until the reconstruction
    meets basis.tol, the tol the basis carries, which also classifies it
    (see gram_report).  Every step is linear, so a vector whose norm would
    over- or underflow is solved at unit scale, by an exact power of two,
    and the coefficients scaled back; one synthesis at unit scale then
    checks that they still reconstruct v to tol, which coefficients
    that land among the subnormal floats may not.  Raises ValueError for a
    basis that does not hold n vectors, and for coefficients that overflow
    the float range or underflow it that far.
    """
    tol = basis.tol
    arr = as_vector(v)
    if arr.size != basis.n:
        raise ValueError(f"dimension mismatch: vector {arr.size} vs basis {basis.n}")
    e = _unit_exponent(arr)
    if e:
        unit = _ldexp(arr, -e)
        coeff = _ldexp(to_coefficients(unit, basis), e)
        if not np.all(np.isfinite(coeff)):
            raise ValueError("the coefficients overflow the float range")
        back = synthesize(_ldexp(coeff, -e), basis)  # subnormal coefficients lose low bits
        miss = float(np.linalg.norm(back - unit) / np.linalg.norm(unit))
        if not miss <= tol:
            raise ValueError(f"the coefficients underflow the float range (miss {miss:.2e})")
        return coeff
    coeff = _selected_correlations(analyze(arr), basis)
    if gram_report(basis).is_orthogonal:
        return coeff
    solvers = basis._class_solvers
    coeff = _solve(solvers, coeff)
    norm = float(np.linalg.norm(arr))
    for _ in range(60):
        residual = arr - synthesize(coeff, basis)
        if float(np.linalg.norm(residual)) <= tol * norm:
            return coeff
        coeff = coeff + _solve(solvers, _selected_correlations(analyze(residual), basis))
    raise RuntimeError(
        f"n={basis.n}: coefficient solve failed to converge; "
        "the basis appears corrupted or numerically singular"
    )


def synthesize(coefficients, basis: EigenBasis) -> np.ndarray:
    """Sum of coefficient times basis vector: the adjoint of `analyze`.

    Runs the steps of `analyze` backwards, each one conjugate-transposed:
    scatter the weights onto the labels (a repeated label sums), run the
    butterfly with the opposite rotation, reflect the powers back onto the
    two grids with conjugated twists (the reflection of P2 is its own
    adjoint), and undo each strided pass with an inverse FFT, one pass at a
    square n.  O(n log n), like `analyze`.
    """
    coeffs = np.asarray(coefficients, dtype=np.complex128)
    n = basis.n
    if coeffs.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {coeffs.shape}")
    eta, _, conjugate = _twists(n)
    weights = np.zeros((4, eta.eta1, eta.eta2), dtype=np.complex128)
    # the 1/4 of the characters scales the weights; repeated labels sum
    np.add.at(weights.reshape(-1), basis._flat, coeffs / (4 * basis.scale))
    _butterfly(weights, 1j)
    g0, g1, g2, g3 = weights
    # the stride-eta1 grid takes power 0, and power 2 reflected back: entry
    # (-a, -b) of power 2 carries the twist q_a = conj(q_(-a)) off column 0,
    # so column 0 is added before the twist scales the whole grid
    g0[0, 0] += g2[0, 0]
    g0[0, 1:] += g2[0, :0:-1]
    g0[1:, 0] += g2[:0:-1, 0]
    g2 *= conjugate
    g0[1:, 1:] += g2[:0:-1, :0:-1]
    g0 *= _demodulation(n, eta.eta1)
    # the stride-eta2 grid, in the spent storage of power 2, takes power 1 and
    # power 3 reflected back
    g2[0] = g1[0]
    g2[1:] = g1[:0:-1]
    g2[:, 0] += g3[:, 0]
    g3 *= conjugate
    g2[:, 1:] += g3[:, :0:-1]
    if eta.eta1 == eta.eta2:  # one grid: the inverse pass runs once
        g2 += g0.T
        return _dft_columns(g2, np.fft.ifft).reshape(n)
    out = _dft_columns(g0.T, np.fft.ifft).reshape(n)
    out += _dft_columns(g2, np.fft.ifft).reshape(n)
    return out
