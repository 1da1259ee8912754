import json

import numpy as np
import pytest

from dfteig import (
    DEFAULT_TOL,
    EigenBasis,
    ModulatedDeltaTrain,
    analyze,
    build_basis,
    densify,
    densify_sum,
    dft_train,
    enumerate_candidates,
    eta_pair,
    export_basis,
    gram_report,
    import_basis,
    naive_dft,
    synthesize,
    to_coefficients,
    train_correlations,
)
import dfteig.projection
from dfteig.fast import _selected_correlations, _solve
from dfteig.projection import _CHARACTERS, _projection_recipe


def random_vector(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def full_dft(v):
    """The stride-1 correlation pass is the whole unitary DFT."""
    return train_correlations(v, 1)[0]


# ---------------------------------------------------------------------------
# fft: the stride-1 pass against the quadratic oracle


def test_fft_four_point():
    assert np.allclose(full_dft([1, 0, 0, 0]), [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_fft_one_point():
    assert np.allclose(full_dft([2 - 3j]), [2 - 3j], atol=1e-15)


@pytest.mark.parametrize("n", list(range(1, 129)) + [360])
def test_fft_matches_reference(n):
    v = random_vector(n, seed=n)
    assert np.linalg.norm(full_dft(v) - naive_dft(v)) <= 1e-9


# ---------------------------------------------------------------------------
# train correlations


def test_train_correlations_indicator():
    # correlating against the family recovers a one-hot map on any member
    for n, d1, a0, b0 in [(12, 3, 1, 2), (16, 4, 0, 3), (9, 3, 2, 2), (30, 5, 4, 1)]:
        g = ModulatedDeltaTrain(n=n, d1=d1, a=a0, b=b0)
        corr = train_correlations(densify(g), d1)
        expected = np.zeros((d1, n // d1), dtype=complex)
        expected[a0, b0] = 1
        assert np.allclose(corr, expected, atol=1e-9)


def test_train_correlations_delta_input():
    corr = train_correlations(np.array([1, 0, 0, 0], dtype=complex), 2)
    s = 1 / np.sqrt(2)
    assert np.allclose(corr[0], [s, s], atol=1e-12)
    assert np.allclose(corr[1], [0, 0], atol=1e-12)


@pytest.mark.parametrize("n,d1", [(12, 3), (12, 4), (16, 2), (30, 5), (7, 1), (7, 7)])
def test_train_correlations_matches_inner_products(n, d1):
    v = random_vector(n, seed=n * 10 + d1)
    corr = train_correlations(v, d1)
    for a in range(d1):
        for b in range(n // d1):
            g = ModulatedDeltaTrain(n=n, d1=d1, a=a, b=b)
            assert abs(corr[a, b] - np.vdot(densify(g), v)) <= 1e-9


@pytest.mark.parametrize("d1", [1, 1009])
def test_train_correlations_prime_length(d1):
    # prime n: the only strides are 1 (one length-n DFT) and n (deltas)
    n = 1009
    v = random_vector(n, seed=d1)
    corr = train_correlations(v, d1)
    expected = np.array(
        [
            [
                np.vdot(densify(ModulatedDeltaTrain(n=n, d1=d1, a=a, b=b)), v)
                for b in range(n // d1)
            ]
            for a in range(d1)
        ]
    )
    assert np.abs(corr - expected).max() <= 1e-9


def test_train_correlations_bad_stride():
    with pytest.raises(ValueError):
        train_correlations(np.ones(6), 4)


# ---------------------------------------------------------------------------
# projection recipe


def dft_train_chain(n):
    """The recipe tables built one train at a time by iterating dft_train."""
    eta = eta_pair(n)
    shape = (4, eta.eta1, eta.eta2)
    offs = np.empty(shape, dtype=int)
    mods = np.empty(shape, dtype=int)
    phases = np.empty(shape, dtype=complex)
    for a in range(eta.eta1):
        for b in range(eta.eta2):
            t = ModulatedDeltaTrain(n=n, d1=eta.eta1, a=a, b=b)
            for j in range(4):
                assert t.d1 == (eta.eta1, eta.eta2)[j % 2]
                offs[j, a, b], mods[j, a, b], phases[j, a, b] = t.a, t.b, t.phase
                t = dft_train(t)
    return offs, mods, phases


@pytest.mark.parametrize("n", list(range(1, 129)) + [240, 512, 576])
def test_projection_recipe_matches_dft_train_chain(n):
    eta, index, phases = _projection_recipe(n)
    assert eta == eta_pair(n)
    ref_offs, ref_mods, ref_phases = dft_train_chain(n)
    # power j has stride eta1 (even j) or eta2 (odd j), so n/stride modulations
    co_strides = np.array([eta.eta2, eta.eta1, eta.eta2, eta.eta1])[:, None, None]
    offs, mods = np.divmod(index, co_strides)
    assert np.array_equal(offs, ref_offs)
    assert np.array_equal(mods, ref_mods)
    assert np.abs(phases - ref_phases).max() <= 1e-12


# ---------------------------------------------------------------------------
# analyze


def gather_analyze(v):
    """analyze as four gathers through the projection recipe and a 4x4 product.

    The recipe's index picks power j of every train out of the stride-eta1
    or stride-eta2 correlation grid, its phase is divided out, and the class
    characters combine the four powers.
    """
    arr = np.asarray(v, dtype=np.complex128)
    n = arr.size
    eta, index, phases = _projection_recipe(n)
    grids = [train_correlations(arr, s).reshape(n) for s in (eta.eta1, eta.eta2)]
    picked = np.stack([grids[j % 2][index[j]] for j in range(4)]) * np.conj(phases)
    return np.tensordot(np.conj(_CHARACTERS), picked, axes=1)


@pytest.mark.parametrize("n", list(range(1, 301)) + [4096, 4099, 49152, 65536])
def test_analyze_matches_gather_reference(n):
    # squares (one strided pass), primes (eta1 = 1), c = gcd(eta1, eta2) > 1 and c = 1
    v = random_vector(n, seed=n)
    expected = gather_analyze(v)
    values = analyze(v).values
    assert values.shape == expected.shape
    assert np.linalg.norm(values - expected) <= 1e-13 * np.linalg.norm(expected)


def random_label_basis(n, seed):
    """n labels drawn from all 4n, the last a repeat of the first, and random scales.

    The rows are left zero: only the labels and the scales enter the fast
    maps, and drawing from every label reaches tensor entries that no built
    basis selects.
    """
    rng = np.random.default_rng(seed)
    classes, positions = rng.integers(4, size=n), rng.integers(n, size=n)
    classes[-1], positions[-1] = classes[0], positions[0]
    return EigenBasis(
        n=n, eta=eta_pair(n), classes=classes, positions=positions,
        scale=rng.uniform(0.5, 2.0, n), support=np.zeros(n, dtype=np.intp),
        rows=np.zeros((n, n), dtype=np.complex128),
    )


@pytest.mark.parametrize("n", range(1, 301))
def test_synthesize_is_adjoint_of_analyze_on_drawn_labels(n):
    # <analyze(v) | c> = <v | synthesize(c)> over the selected entries, with
    # a repeated label summing on both sides
    basis = random_label_basis(n, seed=n)
    v, c = random_vector(n, seed=2 * n), random_vector(n, seed=2 * n + 1)
    lhs = np.vdot(c, _selected_correlations(analyze(v), basis))
    rhs = np.vdot(synthesize(c, basis), v)
    bound = 1e-13 * np.linalg.norm(v) * np.linalg.norm(c) / basis.scale.min()
    assert abs(lhs - rhs) <= bound


def test_analyze_and_synthesize_read_no_recipe(monkeypatch):
    # the fast maps are closed-form slices of the two strided grids
    sizes = (1, 12, 61, 240, 576, 4099)
    bases = {n: build_basis(n) for n in sizes if n < 1000}
    expected = {n: gather_analyze(random_vector(n, seed=n)) for n in sizes}

    def refuse(n):
        raise AssertionError("the projection recipe was read")

    monkeypatch.setattr(dfteig.projection, "_projection_recipe", refuse)
    for n in sizes:
        v = random_vector(n, seed=n)
        values = analyze(v).values
        assert np.linalg.norm(values - expected[n]) <= 1e-13 * np.linalg.norm(expected[n])
        if n in bases:
            coeff = to_coefficients(v, bases[n])
            back = synthesize(coeff, bases[n])
            assert np.linalg.norm(back - v) <= DEFAULT_TOL * np.linalg.norm(v)


@pytest.mark.parametrize("n", [4, 9, 12, 16, 30, 36, 240, 257])
def test_analyze_matches_candidate_inner_products(n):
    v = random_vector(n, seed=n)
    tensor = analyze(v)
    for k, a, b, cand in enumerate_candidates(n):
        expected = np.vdot(densify_sum(cand), v)
        assert abs(tensor.values[k, a, b] - expected) <= 1e-9, (n, k, a, b)


def test_analyze_zero_vector():
    assert np.allclose(analyze(np.zeros(12)).values, 0)


def test_analyze_peaks_on_own_label():
    # orthogonal (perfect square) case: a basis vector correlates with its
    # own generator and with no other selected candidate
    basis = build_basis(9)
    labels = basis.labels()
    rec = basis.vectors[0]
    tensor = analyze(rec.dense)
    own = abs(tensor.values[rec.k, rec.a, rec.b])
    assert own == pytest.approx(rec.scale, abs=1e-9)
    for k, a, b in labels:
        if (k, a, b) != rec.label:
            assert abs(tensor.values[k, a, b]) <= 1e-9
    flat = np.abs(tensor.values).max()
    assert flat == pytest.approx(own, abs=1e-9)


# ---------------------------------------------------------------------------
# coefficients and synthesis


def test_to_coefficients_orthogonal_scaling():
    basis = build_basis(9)
    v = 3.0 * basis.vectors[4].dense
    coeff = to_coefficients(v, basis)
    assert abs(coeff[4] - 3.0) <= 1e-9
    others = np.delete(coeff, 4)
    assert np.abs(others).max() <= 1e-9


@pytest.mark.parametrize("n", [4, 9, 12, 16, 25, 30, 32])
def test_sum_of_basis_vectors_gives_unit_coefficients(n):
    basis = build_basis(n)
    v = basis.dense_matrix().sum(axis=0)
    coeff = to_coefficients(v, basis)
    assert np.abs(coeff - 1).max() <= 1e-9


@pytest.mark.parametrize("n", range(1, 301))
def test_round_trip(n):
    basis = build_basis(n)
    v = random_vector(n, seed=3 * n)
    coeff = to_coefficients(v, basis)
    limit = DEFAULT_TOL * np.linalg.norm(v)
    assert np.linalg.norm(synthesize(coeff, basis) - v) <= limit
    assert np.linalg.norm(coeff @ basis.dense_matrix() - v) <= limit


@pytest.mark.parametrize("n", [12, 61, 103, 240, 276, 512])
def test_coefficients_match_dense_solve(n):
    basis = build_basis(n)
    v = random_vector(n, seed=5 * n)
    gram = basis.gram_matrix()
    corr = basis.dense_matrix().conj() @ v  # <v, u_m>, without analyze
    expected = np.linalg.solve(gram.T, corr)
    # The Gram is block-diagonal by class, so its condition number kappa is
    # the ratio of the extreme eigenvalues over the class blocks.  With unit
    # rows U and U.T c = v exactly, a reconstruction residual r bounds the
    # relative coefficient error by (|r| / |v|) * sqrt(kappa) <=
    # tol * sqrt(kappa); the dense LU solve adds up to n*eps*kappa.
    classes = np.array([rec.k for rec in basis.vectors])
    eigs = np.concatenate([
        np.linalg.eigvalsh(gram[np.ix_(classes == k, classes == k)])
        for k in range(4) if np.any(classes == k)
    ])
    kappa = eigs.max() / eigs.min()
    bound = DEFAULT_TOL * np.sqrt(kappa) + n * np.finfo(float).eps * kappa
    coeff = to_coefficients(v, basis)
    assert np.linalg.norm(coeff - expected) <= bound * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_empty_classes_report_and_solve(n):
    # dims (1, 0, 0, 0), (1, 0, 1, 0) and (1, 1, 1, 0): an empty class has an
    # empty Gram block and an empty inverse
    basis = build_basis(n)
    assert gram_report(basis).is_orthogonal
    solvers = basis._class_solvers
    assert [len(pos) for pos, _ in solvers] == list(basis.per_class_counts)
    v = random_vector(n, seed=n)
    coeff = to_coefficients(v, basis)
    assert np.allclose(_solve(solvers, coeff), coeff, rtol=0, atol=1e-15)
    assert np.linalg.norm(synthesize(coeff, basis) - v) <= 1e-9 * np.linalg.norm(v)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**600], ids=["1e200", "1e-200", "2**600"])
@pytest.mark.parametrize("n", [136, 240])
def test_to_coefficients_at_extreme_magnitudes(n, scale):
    # ||v|| over- or underflows at these scales unless the solve rescales v
    basis = build_basis(n)
    v = random_vector(n, seed=n)
    w = v * scale
    coeff = to_coefficients(w, basis)
    if scale == 2.0**600:  # a power of two scales every step exactly
        assert np.array_equal(coeff, to_coefficients(v, basis) * scale)
    unit = 2.0 ** -round(np.log2(scale))  # exact, and brings w to unit scale
    residual = synthesize(coeff * unit, basis) - w * unit
    assert np.linalg.norm(residual) <= DEFAULT_TOL * np.linalg.norm(w * unit)


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-310, 1e-318, 5e-324])
@pytest.mark.parametrize("n", [3, 61, 136, 240, 576])
def test_to_coefficients_refuses_coefficients_lost_below_normal_range(n, scale):
    # scaled back by 1e-318 or less, the coefficients keep too few bits
    basis = build_basis(n)
    w = random_vector(n, seed=n) * scale
    if scale < 1e-310:
        with pytest.raises(ValueError, match="underflow the float range"):
            to_coefficients(w, basis)
        return
    coeff = to_coefficients(w, basis)
    e = -round(np.log2(scale))  # times 2**e, w is at unit scale; 2**1030 alone overflows
    coeff, w = (np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e) for z in (coeff, w))
    residual = synthesize(coeff, basis) - w
    assert np.linalg.norm(residual) <= DEFAULT_TOL * np.linalg.norm(w)


def _reexported(basis, tmp_path, edit):
    """The basis written to a file, its record list edited, and read back."""
    path = tmp_path / "basis.json"
    export_basis(basis, path)
    payload = json.loads(path.read_text())
    payload["vectors"] = edit(payload["vectors"])
    path.write_text(json.dumps(payload))
    return import_basis(path)


@pytest.mark.parametrize("n", [12, 16])
def test_incomplete_basis_refused(n, tmp_path):
    # the file still imports (n is within four times its record count)
    basis = _reexported(build_basis(n), tmp_path, lambda vectors: vectors[:-1])
    assert len(basis.vectors) == n - 1
    with pytest.raises(ValueError, match="incomplete basis"):
        to_coefficients(random_vector(n), basis)
    with pytest.raises(ValueError, match="incomplete basis"):
        synthesize(np.ones(n), basis)


@pytest.mark.parametrize("n", [12, 16, 61, 240])
def test_round_trip_with_records_shuffled_across_classes(n, tmp_path):
    order = np.random.default_rng(n).permutation(n)
    basis = _reexported(build_basis(n), tmp_path, lambda vectors: [vectors[i] for i in order])
    classes = [rec.k for rec in basis.vectors]
    assert classes != sorted(classes)
    v = random_vector(n, seed=7 * n)
    coeff = to_coefficients(v, basis)
    limit = DEFAULT_TOL * np.linalg.norm(v)
    assert np.linalg.norm(synthesize(coeff, basis) - v) <= limit
    assert np.linalg.norm(coeff @ basis.dense_matrix() - v) <= limit


def test_synthesize_sums_repeated_labels(tmp_path):
    def repeat(vectors):
        vectors[4] = dict(vectors[3])
        return vectors

    basis = _reexported(build_basis(12), tmp_path, repeat)
    assert basis.vectors[3].label == basis.vectors[4].label
    coeff = random_vector(12, seed=4)
    dense = coeff @ basis.dense_matrix()
    assert np.linalg.norm(synthesize(coeff, basis) - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("n", [4, 9, 16, 25, 36])
def test_parseval_for_orthogonal_bases(n):
    basis = build_basis(n)
    assert gram_report(basis).is_orthogonal
    v = random_vector(n, seed=n + 1)
    coeff = to_coefficients(v, basis)
    assert abs(np.sum(np.abs(coeff) ** 2) - np.linalg.norm(v) ** 2) <= 1e-9


def test_synthesize_unit_coefficient_reproduces_vector():
    basis = build_basis(12)
    for j in [0, 5, 11]:
        e = np.zeros(12, dtype=complex)
        e[j] = 1
        assert np.allclose(synthesize(e, basis), basis.vectors[j].dense, atol=1e-12)


def test_synthesize_zero():
    basis = build_basis(6)
    assert np.array_equal(synthesize(np.zeros(6), basis), np.zeros(6))


def test_synthesize_matches_dense_combination():
    basis = build_basis(18)
    rng = np.random.default_rng(18)
    coeff = rng.standard_normal(18) + 1j * rng.standard_normal(18)
    dense = coeff @ basis.dense_matrix()
    assert np.allclose(synthesize(coeff, basis), dense, atol=1e-10)


@pytest.mark.parametrize("n", [36, 48, 240, 61])
def test_synthesize_is_adjoint_of_analyze(n):
    # <synthesize(c), v> = sum_m c_m conj(<v, u_m>), with <v, u_m> taken
    # from the dense vectors rather than from analyze
    basis = build_basis(n)
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lhs = np.vdot(v, synthesize(c, basis))
    rhs = sum(cm * np.vdot(v, rec.dense) for cm, rec in zip(c, basis.vectors))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(c) * np.linalg.norm(v)


def test_dimension_mismatches_raise():
    basis = build_basis(6)
    with pytest.raises(ValueError):
        to_coefficients(np.ones(7), basis)
    with pytest.raises(ValueError):
        synthesize(np.ones(7), basis)
