"""Fast change of basis: strided short DFTs, a closed-form recipe, a 4x4 combine.

Correlating a vector against every train of one stride is the same as
running short DFTs over the strided subsequences - the front part of a full
FFT, stopped before the final recombination stages.  Each stride is one
batched numpy FFT over the rows of the (stride, co-stride) reshape, which
costs O(n log n) at every length, primes included (pocketfft falls back on
Bluestein's chirp-z method there).  Where the four DFT powers of every
stride-eta1 train land is read off the closed-form projection recipe in
`projection.py`, shared with the basis builder, and the class combination
is one product against the 4x4 character matrix, so `analyze` costs
O(n log n) overall.

`synthesize` is the exact adjoint of `analyze` restricted to the basis
labels: the same steps, conjugate-transposed and run backwards.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis, gram_report
from .numerics import DEFAULT_TOL, TolerancePolicy, as_vector, omega_power
from .projection import _CHARACTERS, _projection_recipe, _stride
from .trains import DivisorPair

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
    rows = arr.reshape(n // d1, d1).T  # rows[a, t] = v[a + t*d1]
    spectrum = np.fft.fft(rows, axis=-1, norm="ortho")
    spectrum *= _modulation(n, d1)
    return spectrum


@dataclass(eq=False)
class CorrelationTensor:
    """Correlations of one vector against every projected train.

    values[k, a, b] = <v, P_k g_{eta1}(a, b)> for the raw (unnormalized)
    projections.
    """

    n: int
    eta: DivisorPair
    values: np.ndarray


def analyze(v) -> CorrelationTensor:
    """Correlations against all 4n projected trains in O(n log n).

    Runs one strided-correlation pass per distinct stride in the divisor
    pair, gathers the four transform powers of every train from them, and
    combines those with the class characters in one 4x4 product.
    """
    arr = as_vector(v)
    n = arr.size
    eta, index, phases = _projection_recipe(n)
    corr = {s: train_correlations(arr, s).reshape(n) for s in {eta.eta1, eta.eta2}}
    picked = np.empty(phases.shape, dtype=np.complex128)
    for j in range(4):
        np.take(corr[_stride(eta, j)], index[j], out=picked[j])
    # inner products are conjugate-linear in the candidate slot
    picked *= np.conj(phases)
    values = np.conj(_CHARACTERS) @ picked.reshape(4, n)
    return CorrelationTensor(n=n, eta=eta, values=values.reshape(phases.shape))


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


def to_coefficients(
    v, basis: EigenBasis, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """Expansion coefficients of v in the basis, in label order.

    For an orthogonal basis the coefficients are the selected correlation
    entries.  Otherwise the Gram system is solved class by class: the Gram
    is block-diagonal by class, so only each class's block, about n/4
    square, is formed from that class's rows and inverted, once per basis,
    and no n x n Gram is built.  The solution is then sharpened by residual
    correction through the fast synthesis path until the reconstruction
    meets residual_tol.  Every step is linear, so a vector whose norm would
    over- or underflow is solved at unit scale, by an exact power of two,
    and the coefficients scaled back; one synthesis at unit scale then
    checks that they still reconstruct v to residual_tol, which coefficients
    that land among the subnormal floats may not.  Raises ValueError for a
    basis that does not hold n vectors, and for coefficients that overflow
    the float range or underflow it that far.
    """
    arr = as_vector(v)
    if arr.size != basis.n:
        raise ValueError(f"dimension mismatch: vector {arr.size} vs basis {basis.n}")
    e = _unit_exponent(arr)
    if e:
        unit = _ldexp(arr, -e)
        coeff = _ldexp(to_coefficients(unit, basis, tol), e)
        if not np.all(np.isfinite(coeff)):
            raise ValueError("the coefficients overflow the float range")
        back = synthesize(_ldexp(coeff, -e), basis)  # subnormal coefficients lose low bits
        miss = float(np.linalg.norm(back - unit) / np.linalg.norm(unit))
        if not miss <= tol.residual_tol:
            raise ValueError(f"the coefficients underflow the float range (miss {miss:.2e})")
        return coeff
    coeff = _selected_correlations(analyze(arr), basis)
    if gram_report(basis, tol).is_orthogonal:
        return coeff
    solvers = basis._class_solvers
    coeff = _solve(solvers, coeff)
    norm = float(np.linalg.norm(arr))
    for _ in range(60):
        residual = arr - synthesize(coeff, basis)
        if float(np.linalg.norm(residual)) <= tol.residual_tol * norm:
            return coeff
        coeff = coeff + _solve(solvers, _selected_correlations(analyze(residual), basis))
    raise RuntimeError(
        f"n={basis.n}: coefficient solve failed to converge; "
        "the basis appears corrupted or numerically singular"
    )


def synthesize(coefficients, basis: EigenBasis) -> np.ndarray:
    """Sum of coefficient times basis vector: the adjoint of `analyze`.

    Runs the steps of `analyze` backwards on the same recipe, each one
    conjugate-transposed: scatter the weights onto the labels, apply the
    characters and phases, scatter into the two stride grids, and undo
    each strided pass with an inverse FFT.  O(n log n), like `analyze`.
    """
    coeffs = np.asarray(coefficients, dtype=np.complex128)
    n = basis.n
    if coeffs.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {coeffs.shape}")
    eta, index, phases = _projection_recipe(n)
    weights = np.zeros(4 * n, dtype=np.complex128)
    np.add.at(weights, basis._flat, coeffs / basis.scale)  # repeated labels sum
    terms = (_CHARACTERS.T @ weights.reshape(4, n)).reshape(phases.shape) * phases
    grids = {s: np.zeros(n, dtype=np.complex128) for s in {eta.eta1, eta.eta2}}
    for j in range(4):  # each power maps the labels onto its grid bijectively
        grids[_stride(eta, j)][index[j]] += terms[j]
    out = np.zeros(n, dtype=np.complex128)
    for s, grid in grids.items():
        spectrum = grid.reshape(s, n // s) * np.conj(_modulation(n, s))
        # row a, column t of the inverse pass lands at out[a + t*s]
        out += np.fft.ifft(spectrum, axis=-1, norm="ortho").T.reshape(n)
    return out
