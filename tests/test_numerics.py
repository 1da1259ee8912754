import dataclasses

import numpy as np
import pytest

from dfteig import (
    DEFAULT_TOL,
    EliminationState,
    build_basis,
    check_uncertainty,
    dft_matrix,
    gram_report,
    naive_dft,
    orthogonality_survey,
    to_coefficients,
    try_extend_rank,
    verify_eigenvector,
)
from dfteig.numerics import as_vector, check_tol


def scalar_dft(v):
    """Independent oracle: the defining double loop, no vectorization."""
    n = len(v)
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        acc = 0j
        for k in range(n):
            acc += np.exp(-2j * np.pi * j * k / n) * v[k]
        out[j] = acc / np.sqrt(n)
    return out


def test_naive_dft_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    for n in [1, 2, 3, 4, 5, 8, 12, 17]:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(naive_dft(v), scalar_dft(v), atol=1e-12)


def test_naive_dft_first_column():
    # column 0 of the 4-point matrix: constant 1/2
    out = naive_dft([1, 0, 0, 0])
    assert np.allclose(out, [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_naive_dft_one_point_identity():
    c = 0.3 - 1.7j
    assert np.allclose(naive_dft([c]), [c], atol=1e-15)


def test_naive_dft_comb_fixed_point():
    # frozen from the scalar oracle: (1/sqrt2, 0, 1/sqrt2, 0) maps to itself
    v = np.array([1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0], dtype=complex)
    assert np.allclose(naive_dft(v), v, atol=1e-12)
    assert np.allclose(scalar_dft(v), v, atol=1e-12)


def test_dft_matrix_cache_holds_one_matrix():
    # a dense matrix is 16*n**2 bytes, so the cache keeps only the last size asked for
    naive_dft(np.ones(5))
    naive_dft(np.ones(7))
    assert dft_matrix.cache_info().currsize == 1
    assert dft_matrix(7) is dft_matrix(7)


@pytest.mark.parametrize("n", range(1, 129))
def test_unitarity_and_periodicity(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = naive_dft(v)
    assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-9
    four = v
    for _ in range(4):
        four = naive_dft(four)
    assert np.linalg.norm(four - v) <= 1e-9 * np.linalg.norm(v)


def test_parseval():
    rng = np.random.default_rng(5)
    for n in [2, 3, 7, 16, 24]:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert abs(np.vdot(naive_dft(y), naive_dft(x)) - np.vdot(y, x)) <= 1e-9


def test_as_vector_rejections():
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([np.nan, 1.0])
    with pytest.raises(ValueError):
        as_vector([np.inf * 1j, 1.0])


def test_check_tol():
    assert check_tol(1e-12) == 1e-12
    assert check_tol(1e-6) == 1e-6
    for tol in (0.0, -1e-9, 1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be in"):
            check_tol(tol)


@pytest.mark.parametrize("tol", [0.0, 1e-3, np.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: build_basis(4, tol),
        lambda tol: dataclasses.replace(build_basis(4), tol=tol),
        lambda tol: verify_eigenvector(np.ones(4), 0, tol),
        lambda tol: check_uncertainty(np.ones(4), tol),
        lambda tol: try_extend_rank(EliminationState(4), np.ones(4), tol),
        lambda tol: orthogonality_survey(4, tol),
    ],
    ids=["build_basis", "EigenBasis", "verify_eigenvector",
         "check_uncertainty", "try_extend_rank", "orthogonality_survey"],
)
def test_public_functions_refuse_a_bad_tol(call, tol):
    with pytest.raises(ValueError, match="tol must be in"):
        call(tol)


def test_derived_operations_read_the_basis_tol():
    # the classification and the solve take no tol of their own
    basis = build_basis(4)
    with pytest.raises(TypeError):
        gram_report(basis, DEFAULT_TOL)
    with pytest.raises(TypeError):
        to_coefficients(np.ones(4), basis, DEFAULT_TOL)


def test_try_extend_rank_basic():
    state = EliminationState(3)
    e0 = np.array([1, 0, 0], dtype=complex)
    accepted, state = try_extend_rank(state, e0)
    assert accepted and state.rank == 1

    accepted, state = try_extend_rank(state, 2 * e0)
    assert not accepted and state.rank == 1

    accepted, state = try_extend_rank(state, np.array([1, 1, 0], dtype=complex))
    assert accepted and state.rank == 2
    # residual of e0+e1 against e0 is e1
    assert np.allclose(state.pivot_rows[1], [0, 1, 0], atol=1e-12)


def test_try_extend_rank_spanning_set_reaches_dim():
    rng = np.random.default_rng(3)
    dim = 7
    state = EliminationState(dim)
    # a spanning set with redundancy
    vectors = list(np.eye(dim, dtype=complex)) + [
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(5)
    ]
    for v in vectors:
        try_extend_rank(state, v)
        assert state.rank <= dim
    assert state.rank == dim


def test_elimination_state_decisions_at_high_rank():
    rng = np.random.default_rng(11)
    dim = 160
    state = EliminationState(dim)
    rows = rng.standard_normal((120, dim)) + 1j * rng.standard_normal((120, dim))
    for row in rows:
        assert try_extend_rank(state, row)[0]
    assert state.rank == 120
    weights = rng.standard_normal(120) + 1j * rng.standard_normal(120)
    combination = weights @ rows
    assert not try_extend_rank(state, combination)[0]
    assert state.rank == 120
    # a new direction at 1e-6 of the vector's norm is still accepted
    fresh = state.residual(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    fresh *= 1e-6 * np.linalg.norm(combination) / np.linalg.norm(fresh)
    assert try_extend_rank(state, combination + fresh)[0]
    assert state.rank == 121
    pivots = np.stack(state.pivot_rows)
    assert np.abs(pivots @ pivots.conj().T - np.eye(121)).max() <= 1e-12


def test_try_extend_rank_dimension_mismatch():
    with pytest.raises(ValueError):
        try_extend_rank(EliminationState(3), np.ones(4))


def test_default_tolerances():
    assert DEFAULT_TOL == 1e-9
