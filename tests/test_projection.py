import importlib.util
import math

import numpy as np
import pytest

import dfteig
import dfteig.numerics
import dfteig.projection
from dfteig import (
    ModulatedDeltaTrain,
    TrainSum,
    densify_sum,
    dft_matrix,
    eta_pair,
    naive_dft,
    project,
    verify_eigenvector,
)
from dfteig.numerics import omega_power
from dfteig.projection import (
    _class_rows,
    _power_coordinates,
    _power_gathers,
    densify,
    dft_train,
    eigenvalue_of,
)


def test_helpers_live_in_their_modules_not_the_package():
    # the label algebra is one module, and the package exports 35 names
    assert importlib.util.find_spec("dfteig.trains") is None
    assert len(dfteig.__all__) == len(set(dfteig.__all__)) == 35
    assert all(hasattr(dfteig, name) for name in dfteig.__all__)
    helpers = {
        dfteig.numerics: ("as_vector", "omega_power"),
        dfteig.projection: ("densify", "dft_train", "eigenvalue_of"),
    }
    for module, names in helpers.items():
        for name in names:
            assert name not in dfteig.__all__ and not hasattr(dfteig, name)
            assert callable(getattr(module, name)) and name in module.__all__


def oracle_projection(k, dense):
    """Independent projector: average reference-transform powers directly."""
    d = dft_matrix(dense.size)
    return sum(
        0.25 * 1j ** (j * k) * (np.linalg.matrix_power(d, j) @ dense) for j in range(4)
    )


def test_eigenvalues():
    assert eigenvalue_of(0) == 1
    assert eigenvalue_of(1) == -1j
    assert eigenvalue_of(2) == -1
    assert eigenvalue_of(3) == 1j
    with pytest.raises(ValueError):
        eigenvalue_of(4)


def test_project_fixed_point_class_zero():
    # g2(0,0) in dimension 4 is a fixed point of the transform, so the
    # class-0 projector acts as the identity on it
    g = ModulatedDeltaTrain(n=4, d1=2)
    out = densify_sum(project(0, g))
    assert np.allclose(out, densify(g), atol=1e-12)


def test_project_annihilates_other_class():
    g = ModulatedDeltaTrain(n=4, d1=2)
    out = densify_sum(project(2, g))
    assert np.linalg.norm(out) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12, 16, 20])
def test_projections_sum_to_identity(n):
    eta = eta_pair(n)
    for a in range(eta.eta1):
        for b in range(eta.eta2):
            g = ModulatedDeltaTrain(n=n, d1=eta.eta1, a=a, b=b)
            total = sum(densify_sum(project(k, g)) for k in range(4))
            assert np.allclose(total, densify(g), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 16])
def test_project_matches_oracle(n):
    eta = eta_pair(n)
    for k in range(4):
        for a in range(eta.eta1):
            for b in range(eta.eta2):
                g = ModulatedDeltaTrain(n=n, d1=eta.eta1, a=a, b=b)
                got = densify_sum(project(k, g))
                want = oracle_projection(k, densify(g))
                assert np.allclose(got, want, atol=1e-9), (n, k, a, b)


@pytest.mark.parametrize("n", [2, 4, 6, 9, 12, 16, 25, 32, 48, 64])
def test_projector_idempotent_and_disjoint(n):
    # P_k P_k' = delta_{kk'} P_k, exercised through densified vectors
    eta = eta_pair(n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = rng.integers(eta.eta1)
        b = rng.integers(eta.eta2)
        g = ModulatedDeltaTrain(n=n, d1=eta.eta1, a=int(a), b=int(b))
        for k in range(4):
            pk = densify_sum(project(k, g))
            for kp in range(4):
                double = oracle_projection(kp, pk)
                expected = pk if kp == k else np.zeros(n)
                assert np.allclose(double, expected, atol=1e-9)


@pytest.mark.parametrize("n", list(range(1, 49)) + [64])
def test_projections_are_eigenvectors_or_zero(n):
    eta = eta_pair(n)
    for k in range(4):
        for a in range(eta.eta1):
            for b in range(eta.eta2):
                g = ModulatedDeltaTrain(n=n, d1=eta.eta1, a=a, b=b)
                dense = densify_sum(project(k, g))
                if np.linalg.norm(dense) <= 1e-9:
                    continue
                assert verify_eigenvector(dense, k) <= 1e-9


def test_densify_sum_empty_and_single():
    assert np.array_equal(densify_sum(TrainSum(n=3, terms=())), np.zeros(3))
    g = ModulatedDeltaTrain(n=4, d1=2)
    s = TrainSum(n=4, terms=((1 + 0j, g),))
    assert np.allclose(densify_sum(s), densify(g), atol=1e-15)


def test_train_sum_validation():
    g = ModulatedDeltaTrain(n=4, d1=2)
    with pytest.raises(ValueError):
        TrainSum(n=4, terms=((1 + 0j, g),) * 5)
    with pytest.raises(ValueError):
        TrainSum(n=6, terms=((1 + 0j, g),))


@pytest.mark.parametrize("n", range(2, 25))
def test_support_bound_dominates_true_support(n):
    eta = eta_pair(n)
    for k in range(4):
        for a in range(eta.eta1):
            for b in range(eta.eta2):
                s = project(k, ModulatedDeltaTrain(n=n, d1=eta.eta1, a=a, b=b))
                dense = densify_sum(s)
                true_support = int(np.count_nonzero(np.abs(dense) > 1e-9))
                # the sum of the term supports, 2*(eta1 + eta2)
                bound = sum(train.d2 for _, train in s.terms)
                assert bound == 2 * (eta.eta1 + eta.eta2)
                assert true_support <= bound


def test_symbolic_zero_precheck():
    # dimension-2 class-1 projections cancel label by label
    g = ModulatedDeltaTrain(n=2, d1=1, a=0, b=1)
    assert np.linalg.norm(densify_sum(project(1, g))) <= 1e-12


@pytest.mark.parametrize("n", list(range(1, 65)) + [103, 240, 276])
def test_class_rows_match_per_label_chain(n):
    # the per-label chain project -> densify_sum is the reference
    eta = eta_pair(n)
    for k in range(4):
        rows = _class_rows(n, k)
        assert rows.shape == (n, n)
        for a in range(eta.eta1):
            for b in range(eta.eta2):
                g = ModulatedDeltaTrain(n=n, d1=eta.eta1, a=a, b=b)
                expected = densify_sum(project(k, g))
                assert np.abs(rows[a * eta.eta2 + b] - expected).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 7, 61, 103])
@pytest.mark.parametrize("select", [None, [1, 0, 1]])
def test_stride_one_supports_hold_no_square_buffer(n, select):
    # at prime n the even powers have stride 1: every row's support is 0..n-1,
    # so the positions are one range broadcast over the rows
    rows = n if select is None else len(select)
    for j in (0, 2):
        t, root, _, d = _power_gathers(n, select)[j]
        assert d == n and t.shape == (rows, n) and t.strides[0] == 0
        assert np.array_equal(t, np.broadcast_to(np.arange(n), (rows, n)))
        assert root.shape == (rows, n)


@pytest.mark.parametrize("n", [9, 16, 27, 54, 96, 108, 128, 225])
def test_power_coordinates_match_train_inner(n):
    # every label and DFT power, against the oracle in every coordinate
    eta = eta_pair(n)
    c = math.gcd(eta.eta1, eta.eta2)
    trains = [
        ModulatedDeltaTrain(n=n, d1=eta.eta1, a=x, b=y)
        for x in range(eta.eta1) for y in range(eta.eta2)
    ]
    dense = np.array([densify(e) for e in trains])
    coordinates = _power_coordinates(n)
    assert [position.shape[1] for position, _ in coordinates] == [1, n // c**2] * 2
    for i, g in enumerate(trains):
        power = g
        for j, (position, value) in enumerate(coordinates):
            row = np.zeros(n, dtype=np.complex128)
            row[position[i]] = value[i]
            oracle = dense.conj() @ densify(power)  # np.vdot(densify(e), densify(power)) per e
            assert np.abs(row - oracle).max() <= 1e-13, (i, j)
            power = dft_train(power)


def test_verify_eigenvector_fixed_point():
    v = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    assert verify_eigenvector(v, 0) <= 1e-12


def test_verify_eigenvector_class_two():
    # frozen from the reference transform: D(1,-1,-1,-1) = -(1,-1,-1,-1)
    v = np.array([1, -1, -1, -1], dtype=complex) / 2
    assert np.allclose(naive_dft(v), -v, atol=1e-12)
    assert verify_eigenvector(v, 2) <= 1e-12


def test_verify_eigenvector_wrong_class_residual():
    # adjacent eigenvalue classes of a unitary map sit sqrt(2) apart
    v = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    assert abs(verify_eigenvector(v, 1) - np.sqrt(2)) <= 1e-9
    assert abs(verify_eigenvector(v, 2) - 2) <= 1e-9


def test_verify_eigenvector_rejects_zero():
    with pytest.raises(ValueError):
        verify_eigenvector(np.zeros(4), 0)


def _shift_always_chain(n, a, b):
    """The four powers of g_{eta1}(a, b) as (d1, a, b, phase), by the label law
    with the reduction factor w**(-(b - b mod d2)*a) applied at every step,
    including the steps where it is w**0."""

    def reduced(d1, a, b, phase):
        a_red, b_red = a % d1, b % (n // d1)
        return d1, a_red, b_red, phase * complex(omega_power(n, -(b - b_red) * a_red))

    train = reduced(eta_pair(n).eta1, a, b, 1 + 0j)
    chain = []
    for _ in range(4):
        chain.append(train)
        d1, a, b, phase = train
        train = reduced(n // d1, b, -a, phase * complex(omega_power(n, -a * b)))
    return chain


@pytest.mark.parametrize("n", range(1, 129))
def test_project_phases_equal_shift_always_chain(n):
    eta = eta_pair(n)
    for a in range(eta.eta1):
        for b in range(eta.eta2):
            g = ModulatedDeltaTrain(n=n, d1=eta.eta1, a=a, b=b)
            got = [(t.d1, t.a, t.b, t.phase) for _, t in project(0, g).terms]
            assert got == _shift_always_chain(n, a, b)  # == ignores a zero's sign
