import math

import numpy as np
import pytest

from dfteig import ModulatedDeltaTrain, eta_pair, naive_dft
from dfteig.projection import densify, dft_train


def all_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def all_trains(n):
    for d1 in all_divisors(n):
        for a in range(d1):
            for b in range(n // d1):
                yield ModulatedDeltaTrain(n=n, d1=d1, a=a, b=b)


# ---------------------------------------------------------------------------
# eta_pair


@pytest.mark.parametrize(
    "n,expected", [(16, (4, 4)), (12, (3, 4)), (7, (1, 7)), (1, (1, 1)), (30, (5, 6))]
)
def test_eta_pair_examples(n, expected):
    pair = eta_pair(n)
    assert (pair.eta1, pair.eta2) == expected


@pytest.mark.parametrize("n", range(1, 201))
def test_eta_pair_invariants(n):
    pair = eta_pair(n)
    assert pair.eta1 * pair.eta2 == n
    assert pair.eta1 <= math.sqrt(n) <= pair.eta2
    for d in all_divisors(n):
        assert not (pair.eta1 < d < math.sqrt(n))
        assert not (math.sqrt(n) < d < pair.eta2)


def test_eta_pair_rejects_nonpositive():
    with pytest.raises(ValueError):
        eta_pair(0)


# ---------------------------------------------------------------------------
# construction and densify


def test_densify_plain_comb():
    g = ModulatedDeltaTrain(n=4, d1=2)
    s = 1 / np.sqrt(2)
    assert np.allclose(densify(g), [s, 0, s, 0], atol=1e-15)


def test_densify_modulated():
    # entries from the defining formula with w = exp(-2*pi*i/4) = -i:
    # j=1: w**-1 = i, j=3: w**-3 = -i
    g = ModulatedDeltaTrain(n=4, d1=2, a=1, b=1)
    s = 1 / np.sqrt(2)
    assert np.allclose(densify(g), [0, 1j * s, 0, -1j * s], atol=1e-15)


def test_densify_full_support_exponential():
    g = ModulatedDeltaTrain(n=6, d1=1, a=0, b=2)
    expected = np.exp(-2j * np.pi * (-2) * np.arange(6) / 6) / np.sqrt(6)
    assert np.allclose(densify(g), expected, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 41))
def test_unit_norm_and_support(n):
    for g in all_trains(n):
        dense = densify(g)
        assert np.count_nonzero(np.abs(dense) > 1e-12) == g.d2 == n // g.d1
        assert abs(np.linalg.norm(dense) - 1) <= 1e-12


def raw_formula_densify(n, d1, a, b):
    """The defining formula evaluated with unreduced integer labels."""
    d2 = n // d1
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        if j % d1 == a % d1:
            out[j] = np.exp(-2j * np.pi * (-b * j) / n) / np.sqrt(d2)
    return out


def test_residue_normalization_preserves_raw_semantics():
    # reducing the labels must reproduce the defining formula exactly,
    # including the unit phase a modulation wrap picks up
    for n, d1 in [(12, 3), (9, 3), (8, 2), (10, 5)]:
        d2 = n // d1
        for a in range(d1):
            for b in range(d2):
                for da, db in [(0, 0), (2, -3), (-1, 1), (5, 7)]:
                    raw_a, raw_b = a + da * d1, b + db * d2
                    train = ModulatedDeltaTrain(n=n, d1=d1, a=raw_a, b=raw_b)
                    assert (train.a, train.b) == (a, b)
                    assert np.allclose(
                        densify(train), raw_formula_densify(n, d1, raw_a, raw_b),
                        atol=1e-12,
                    )


def test_invalid_trains_rejected():
    with pytest.raises(ValueError):
        ModulatedDeltaTrain(n=6, d1=4)
    with pytest.raises(ValueError):
        ModulatedDeltaTrain(n=0, d1=1)
    with pytest.raises(ValueError):
        ModulatedDeltaTrain(n=4, d1=2, phase=0.5)


# ---------------------------------------------------------------------------
# transform law


def test_dft_train_comb_fixed_point():
    g = ModulatedDeltaTrain(n=4, d1=2)
    t = dft_train(g)
    assert (t.d1, t.a, t.b) == (2, 0, 0)
    assert abs(t.phase - 1) <= 1e-12


def test_dft_train_wrap_phase_n4():
    # frozen from the reference transform: the canonical image of g2(1,1)
    # carries phase w**1 = -i (the raw w**-1 times the wrap factor w**2)
    t = dft_train(ModulatedDeltaTrain(n=4, d1=2, a=1, b=1))
    assert (t.d1, t.a, t.b) == (2, 1, 1)
    assert abs(t.phase - (-1j)) <= 1e-12


def test_dft_train_wrap_phase_n9():
    # frozen from the reference transform: phase w**1, not the raw w**-2
    t = dft_train(ModulatedDeltaTrain(n=9, d1=3, a=2, b=1))
    assert (t.d1, t.a, t.b) == (3, 1, 1)
    assert abs(t.phase - np.exp(-2j * np.pi / 9)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 33))
def test_transform_law_against_oracle(n):
    for g in all_trains(n):
        assert np.allclose(
            densify(dft_train(g)), naive_dft(densify(g)), atol=1e-9
        ), (n, g.d1, g.a, g.b)


@pytest.mark.parametrize("n", range(1, 33))
def test_four_step_cycle(n):
    for g in all_trains(n):
        t = g
        for _ in range(4):
            t = dft_train(t)
        assert (t.d1, t.a, t.b) == (g.d1, g.a, g.b)
        assert abs(t.phase - 1) <= 1e-9


@pytest.mark.parametrize("n", [4, 9, 12, 18, 30])
def test_two_step_negates_labels(n):
    # applying the transform twice lands on the train built from (-a, -b)
    for g in all_trains(n):
        t = dft_train(dft_train(g))
        ref = ModulatedDeltaTrain(n=n, d1=g.d1, a=-g.a, b=-g.b)
        assert (t.d1, t.a, t.b) == (ref.d1, ref.a, ref.b)
        assert abs(t.phase - ref.phase) <= 1e-9


@pytest.mark.parametrize("n", [4, 6, 9, 12, 16, 20])
def test_fixed_stride_family_is_orthonormal_basis(n):
    for d1 in all_divisors(n):
        family = [
            ModulatedDeltaTrain(n=n, d1=d1, a=a, b=b)
            for a in range(d1)
            for b in range(n // d1)
        ]
        assert len(family) == n
        dense = np.array([densify(g) for g in family])
        gram = dense @ dense.conj().T
        assert np.allclose(gram, np.eye(n), atol=1e-12)
