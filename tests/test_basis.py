import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dfteig import (
    EigenBasis,
    EliminationState,
    VerificationError,
    audit_sparsity,
    build_basis,
    check_uncertainty,
    densify_sum,
    enumerate_candidates,
    eta_pair,
    export_basis,
    gram_report,
    import_basis,
    multiplicities,
    orthogonality_survey,
    try_extend_rank,
    verify_eigenvector,
)
import dfteig.basis
from dfteig.basis import (
    _GATE_AT,
    _TIE_MARGIN,
    CONDITION_BOUND,
    _cholesky_shift,
    _divisors,
    _first_fit,
    _gram,
    _ill_conditioned,
    _orbit_blocks,
    _pivot_rows,
    _select_in_blocks,
    _sigma_min_bound,
    _uncertainty_ok,
    _unit_rows,
)
from dfteig.numerics import DEFAULT_TOL
from dfteig.projection import _class_rows, _power_coordinates


# ---------------------------------------------------------------------------
# multiplicity table


def test_multiplicities_table_rows():
    # dims indexed by class k (eigenvalue i**-k, so k: 1, -i, -1, i)
    assert multiplicities(4) == (2, 1, 1, 0)
    assert multiplicities(5) == (2, 1, 1, 1)
    assert multiplicities(6) == (2, 1, 2, 1)
    assert multiplicities(7) == (2, 2, 2, 1)
    assert multiplicities(1) == (1, 0, 0, 0)
    assert multiplicities(2) == (1, 0, 1, 0)
    assert multiplicities(3) == (1, 1, 1, 0)


@pytest.mark.parametrize("n", range(1, 129))
def test_multiplicities_sum_to_n(n):
    dims = multiplicities(n)
    assert sum(dims) == n
    assert all(d >= 0 for d in dims)


# ---------------------------------------------------------------------------
# candidate enumeration


def test_enumerate_candidates_ordering():
    cands = list(enumerate_candidates(4))
    assert len(cands) == 16
    assert cands[0][:3] == (0, 0, 0)
    labels = [(k, a, b) for k, a, b, _ in cands]
    assert labels == sorted(labels)


def test_enumerate_candidates_counts():
    assert len(list(enumerate_candidates(2))) == 8
    assert len(list(enumerate_candidates(9))) == 36
    k, a, b, s = next(iter(enumerate_candidates(9)))
    assert s.terms[0][1].d1 == 3  # generated at stride eta1


# ---------------------------------------------------------------------------
# basis construction


def test_build_basis_n1():
    basis = build_basis(1)
    assert len(basis.vectors) == 1
    assert basis.vectors[0].k == 0
    assert np.allclose(basis.vectors[0].dense, [1], atol=1e-12)


def test_build_basis_n4_counts():
    basis = build_basis(4)
    assert basis.per_class_counts == (2, 1, 1, 0)
    assert len(basis.vectors) == 4
    # the class the table empties is skipped entirely
    assert all(rec.k != 3 for rec in basis.vectors)


def test_build_basis_n9():
    basis = build_basis(9)
    assert basis.per_class_counts == (3, 2, 2, 2)
    assert all(rec.support <= 12 for rec in basis.vectors)


@pytest.mark.parametrize("n", list(range(2, 33)) + [36, 48, 49])
def test_build_basis_certifies(n):
    basis = build_basis(n)
    assert len(basis.vectors) == n
    assert basis.per_class_counts == multiplicities(n)
    lower = (basis.eta.eta1 + basis.eta.eta2) / 2
    upper = 2 * (basis.eta.eta1 + basis.eta.eta2)
    state = EliminationState(n)
    for rec in basis.vectors:
        assert verify_eigenvector(rec.dense, rec.k) <= 1e-9
        assert abs(np.linalg.norm(rec.dense) - 1) <= 1e-9
        assert lower - 1e-9 <= rec.support <= upper
        accepted, _ = try_extend_rank(state, rec.dense)
        assert accepted
    assert state.rank == n


@pytest.mark.parametrize("n", [36, 103])
def test_build_basis_deterministic(n):
    # 103 takes the pivoted path in every class, 36 none
    first = build_basis(n)
    second = build_basis(n)
    assert first.labels() == second.labels()
    for x, y in zip(first.vectors, second.vectors):
        assert np.array_equal(x.dense, y.dense)
        assert x.scale == y.scale


@pytest.mark.parametrize("n", [31, 41, 61, 103, 127, 136, 276])
def test_build_basis_condition_bounded(n):
    # first fit alone leaves these bases numerically singular (up to 1e17)
    assert np.linalg.cond(build_basis(n).dense_matrix()) <= CONDITION_BOUND


def test_pivoted_class_ties_go_to_scan_order():
    # every unit row ties for the first pivot; the earliest nonzero one wins
    basis = build_basis(103)
    for k in range(4):
        first = next(
            (a, b) for kk, a, b, cand in enumerate_candidates(103)
            if kk == k and np.linalg.norm(densify_sum(cand)) > 1e-9
        )
        assert next(rec for rec in basis.vectors if rec.k == k).label == (k, *first)


def test_build_basis_zero_candidates_diagnostic():
    # dimension 4 annihilates the whole class-3 family and a few others
    basis = build_basis(4)
    assert basis.zero_candidates >= 1


@pytest.mark.parametrize("n", [4, 12, 103])
def test_zero_candidates_count_every_vanishing_candidate(n):
    # a property of n: every one of the 4n candidates is counted, scanned or not
    vanishing = sum(
        np.linalg.norm(densify_sum(cand)) <= 1e-9
        for _, _, _, cand in enumerate_candidates(n)
    )
    assert build_basis(n).zero_candidates == vanishing
    if n == 4:
        assert vanishing >= 4  # class 3 vanishes entirely


def test_build_basis_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_basis(0)


# ---------------------------------------------------------------------------
# selection parity with the sequential references


def _reference_first_fit(units, live, count, tol):
    """One try_extend_rank per live row, in scan order, up to count rows."""
    state = EliminationState(units.shape[1])
    kept = []
    for i in live:
        if len(kept) >= count:
            break
        if try_extend_rank(state, units[i], tol)[0]:
            kept.append(int(i))
    return kept


def _reference_pivot_rows(units, count, tol):
    """Businger-Golub pivoting, three passes per step: norms, projection, update."""
    resid = units.copy()
    flat = resid.view(np.float64)
    chosen = []
    for _ in range(count):
        norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        top = float(norms.max())
        if top <= tol:
            break
        pos = int(np.argmax(norms >= top * (1.0 - _TIE_MARGIN)))
        q = resid[pos] / norms[pos]
        resid -= np.outer(resid @ q.conj(), q)
        chosen.append(pos)
    return sorted(chosen)


def _normalized(array):
    return array / np.linalg.norm(array, axis=1)[:, None]


def _earlier_of_mirrors(n):
    """The build's pool mask before norms: the earlier position of each mirror pair."""
    eta = eta_pair(n)
    a, b = np.divmod(np.arange(n), eta.eta2)
    return (-a % eta.eta1) * eta.eta2 + (-b % eta.eta2) >= np.arange(n)


def test_pivot_rows_breaks_exact_ties_by_scan_order():
    # orthonormal rows: every residual stays tied with every other, so each
    # step takes the lowest position left
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    tol = DEFAULT_TOL
    for units in (np.eye(12, dtype=complex), q):
        assert _pivot_rows(units, 5, tol) == _reference_pivot_rows(units, 5, tol) == list(range(5))


def test_pivot_rows_stops_at_the_rank_of_a_deficient_pool():
    # three distinct unit rows, each twice: a twin pair's residuals tie, so
    # the earlier is taken, and then the later one's residual vanishes (in
    # Gram space it reads about 1e-8, below the rounding floor); the stop
    # rule returns 3 rows, not the 5 asked for
    rng = np.random.default_rng(1)
    distinct = _normalized(rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
    units = distinct[[0, 1, 0, 2, 1, 2]]
    tol = DEFAULT_TOL
    assert _pivot_rows(units, 5, tol) == _reference_pivot_rows(units, 5, tol) == [0, 1, 3]


def test_pivot_rows_matches_the_reference_on_an_ill_conditioned_pool():
    # 30 unit rows in 20 dimensions with singular values from 1 down to 1e-8;
    # pivoting 10 of them keeps residuals far above the Gram's rounding
    rng = np.random.default_rng(2)
    left, _ = np.linalg.qr(rng.standard_normal((30, 20)) + 1j * rng.standard_normal((30, 20)))
    right, _ = np.linalg.qr(rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)))
    units = _normalized((left * np.logspace(0, -8, 20)) @ right)
    sv = np.linalg.svd(units, compute_uv=False)
    assert 1e7 < sv[0] / sv[-1] < 1e9
    tol = DEFAULT_TOL
    assert _pivot_rows(units, 10, tol) == _reference_pivot_rows(units, 10, tol)


def test_pivot_rows_matches_the_reference_on_a_gated_class():
    # class 2 at the prime 1009: first fit fails the gate, and one pivot
    # step's runner-up sits 1.2e-9 relative below the tie band
    n, k, tol = 1009, 2, DEFAULT_TOL
    units, norms = _unit_rows(n, k)
    pool = np.flatnonzero((norms > tol) & _earlier_of_mirrors(n))
    count = multiplicities(n)[k]
    assert _first_fit(units, pool, count, tol) is None
    chosen = _pivot_rows(units[pool], count, tol)
    assert len(chosen) == count
    assert chosen == _reference_pivot_rows(units[pool], count, tol)
    basis = build_basis(n, tol)
    assert np.array_equal(pool[chosen], basis.positions[basis.classes == k])


def _reference_labels(n, tol):
    """The selection over every nonzero candidate, mirrors included, under the current gate."""
    dims = multiplicities(n)
    labels = []
    for k in range(4):
        units = _class_rows(n, k)
        scale = np.linalg.norm(units, axis=1)
        nonzero = scale > tol
        live = np.flatnonzero(nonzero)
        units /= np.where(nonzero, scale, 1.0)[:, None]
        kept = _reference_first_fit(units, live, dims[k], tol)
        if kept:
            sv = np.linalg.svd(units[kept], compute_uv=False)
            if sv[0] > dfteig.basis.CONDITION_BOUND * sv[-1]:
                kept = live[_reference_pivot_rows(units[live], dims[k], tol)].tolist()
        labels.append((k, kept))
    return labels


PARITY_TOLS = [1e-6, 1e-9, 1e-10]


def _expected_labels(n, tol):
    eta2 = eta_pair(n).eta2
    return [(k, *divmod(i, eta2)) for k, kept in _reference_labels(n, tol) for i in kept]


# past 128, 144, 224 (c = 2), 225, 256 and 576 take the orbit-block path (c > 1)
@pytest.mark.parametrize("n", list(range(1, 129)) + [144, 224, 225, 256, 257, 509, 576, 601])
def test_build_basis_keeps_the_reference_rows(n):
    # mirror pruning, block first fit, orbit blocks and Gram-space pivoting change no label
    for tol in PARITY_TOLS:
        assert build_basis(n, tol).labels() == _expected_labels(n, tol), tol


@pytest.mark.parametrize("n, bound", [(108, 5.0), (180, 7.0), (120, 12.0)])
def test_gated_block_classes_fall_back_to_dense_pivoting(monkeypatch, n, bound):
    # c = 3 at 108 and 180, c = 2 at 120.  First fit leaves condition 10.3
    # in every class at 108, 5.0, 7.8, 10.4, 5.0 at 180, and 10.3, 14.5,
    # 10.3, 13.7 at 120, so the lowered gate fires in all classes at 108,
    # in classes 1 and 2 at 180, and in classes 1 and 3 at 120.
    tol = DEFAULT_TOL
    unpatched = build_basis(n, tol).labels()
    monkeypatch.setattr(dfteig.basis, "CONDITION_BOUND", bound)
    kept, _ = _select_in_blocks(eta_pair(n), _earlier_of_mirrors(n), tol)
    gated = {108: [0, 1, 2, 3], 180: [1, 2], 120: [1, 3]}[n]
    assert [k for k, fit in enumerate(kept) if fit is None] == gated
    labels = build_basis(n, tol).labels()
    assert labels == _expected_labels(n, tol)
    assert labels != unpatched


# ---------------------------------------------------------------------------
# the shifted-Cholesky certificate


def _rows_with_spectrum(rng, lams, width):
    """Rows U = Q diag(sqrt(lams)) W, so U U^H = Q diag(lams) Q^H; also its exact lambda_min.

    lambda_min is that of the rows as stored, from their singular values,
    which the SVD returns to within a few eps times the largest.
    """
    m = len(lams)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    w, _ = np.linalg.qr(rng.standard_normal((width, m)) + 1j * rng.standard_normal((width, m)))
    rows = (q * np.sqrt(lams)) @ w.conj().T
    return rows, float(np.linalg.svd(rows, compute_uv=False)[-1]) ** 2


CERTIFY_CASES = [(m, width, target) for m, width in [(1, 1), (2, 7), (9, 9), (30, 64), (80, 200)]
                 for target in (4 * DEFAULT_TOL**2, m / CONDITION_BOUND**2, 1e-6)]


@pytest.mark.parametrize("m, width, target", CERTIFY_CASES)
def test_sigma_min_bound_is_sound_on_perturbed_grams(m, width, target):
    # lambda_min placed around the target and the shift, and the Gram then
    # perturbed by Hermitian noise around the shift: whatever the outcome, a
    # returned bound never exceeds the exact smallest singular value
    rng = np.random.default_rng(m * 1000 + width)
    shift = _cholesky_shift(np.eye(m), width, target)  # the largest any of these Grams takes
    certified = 0
    for trial in range(40):
        lams = np.logspace(0, -3, m)
        lams[-1] = shift * rng.choice([0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0])
        lams[-1] = max(lams[-1], target * rng.choice([0.5, 0.99, 1.01]))
        rows, lam_min = _rows_with_spectrum(rng, np.sort(lams)[::-1], width)
        gram = _gram(rows)
        noise = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        noise = (noise + noise.conj().T) * (shift * rng.choice([0.0, 0.1, 1.0]) / (2 * m))
        bound = _sigma_min_bound(gram, width, target)
        if bound is not None:
            certified += 1
            assert bound == math.sqrt(target)
            assert lam_min >= bound**2
        perturbed = gram + noise
        bound = _sigma_min_bound(perturbed, width, target)
        if bound is not None:
            assert np.linalg.eigvalsh(perturbed)[0] >= bound**2
    assert certified  # the cases are not all refusals


@pytest.mark.parametrize("m, width, target", CERTIFY_CASES)
def test_sigma_min_bound_succeeds_from_twice_the_shift(m, width, target):
    # a Gram's largest diagonal entry is at most its largest eigenvalue, 1
    # here, so the shift of the identity is at least any of theirs
    rng = np.random.default_rng(m + width)
    for factor in (2.2, 3.0, 100.0):
        lams = np.logspace(0, -3, m)
        lams[-1] = factor * _cholesky_shift(np.eye(m), width, target)
        rows, lam_min = _rows_with_spectrum(rng, np.sort(lams)[::-1], width)
        gram = _gram(rows)
        assert lam_min >= 2 * _cholesky_shift(gram, width, target)
        assert _sigma_min_bound(gram, width, target) == math.sqrt(target)


@pytest.mark.parametrize("m, width, target", CERTIFY_CASES)
def test_sigma_min_bound_refuses_below_the_target(m, width, target):
    rng = np.random.default_rng(m * width)
    for factor in (0.0, 0.5, 0.99):
        lams = np.logspace(0, -3, m)
        lams[-1] = factor * target
        rows, lam_min = _rows_with_spectrum(rng, np.sort(lams)[::-1], width)
        assert lam_min < target
        assert _sigma_min_bound(_gram(rows), width, target) is None


@pytest.mark.parametrize("m, width", [(2, 2), (5, 40), (64, 64), (200, 257)])
def test_sigma_min_bound_refuses_a_repeated_row(m, width):
    rng = np.random.default_rng(m)
    rows = _normalized(rng.standard_normal((m, width)) + 1j * rng.standard_normal((m, width)))
    rows[m // 2] = rows[m // 3]
    for target in (4 * DEFAULT_TOL**2, m / CONDITION_BOUND**2):
        assert _sigma_min_bound(_gram(rows), width, target) is None


def test_sigma_min_bound_refuses_non_finite_grams():
    gram = np.eye(3, dtype=complex)
    for value in (np.nan, np.inf):
        for where in ((0, 0), (2, 1)):
            bad = gram.copy()
            bad[where] = value
            assert _sigma_min_bound(bad, 3, 4 * DEFAULT_TOL**2) is None


def _no_certificate(gram, width, target):
    return None


def _dense_classes(n, tol):
    """Each class of a c = 1 size as the build densifies it: unit rows, pool, multiplicity."""
    eta = eta_pair(n)
    if math.gcd(eta.eta1, eta.eta2) > 1:
        return
    first = _earlier_of_mirrors(n)
    for k, m in enumerate(multiplicities(n)):
        units, norms = _unit_rows(n, k)
        yield units, np.flatnonzero((norms > tol) & first), m


@pytest.mark.parametrize("n", range(2, 129))
def test_certified_prefix_is_what_first_fit_keeps(monkeypatch, n):
    # wherever the prefix certificate holds, first fit returns exactly the
    # prefix and the gate passes; with no certificate at all, first fit
    # scans and gates by SVD alone, and returns the same
    tol = DEFAULT_TOL
    for units, pool, m in _dense_classes(n, tol):
        kept = _first_fit(units, pool, m, tol)
        with monkeypatch.context() as patch:
            patch.setattr(dfteig.basis, "_sigma_min_bound", _no_certificate)
            assert _first_fit(units, pool, m, tol) == kept
        target = max(m / CONDITION_BOUND**2, 4 * tol * tol)
        prefix = pool[:m]
        if m and prefix.size == m and _sigma_min_bound(_gram(units[prefix]), n, target) is not None:
            assert kept == list(range(m))
            sv = np.linalg.svd(units[prefix], compute_uv=False)
            assert sv[0] <= CONDITION_BOUND * sv[-1]


@pytest.mark.parametrize("n", [*range(2, 301), 1009])
def test_first_fit_is_the_reference_rows_or_none(n):
    # first fit returns None exactly when the sequential reference comes up
    # short of the multiplicity or its rows fail the SVD gate, and otherwise
    # the reference's rows
    tol = DEFAULT_TOL
    for units, pool, m in _dense_classes(n, tol):
        reference = _reference_first_fit(units, pool, m, tol)
        sv = np.linalg.svd(units[reference], compute_uv=False) if reference else None
        fails = len(reference) < m or (m > 0 and sv[0] > CONDITION_BOUND * sv[-1])
        kept = _first_fit(units, pool, m, tol)
        assert (kept is None) == fails
        if kept is not None:
            assert pool[kept].tolist() == reference


def test_first_fit_stops_at_the_early_gate(monkeypatch):
    # class 2 at the prime 1009 (252 rows): first fit gives up once the rows
    # it has kept fail the gate, short of the multiplicity
    n, k, tol = 1009, 2, DEFAULT_TOL
    units, norms = _unit_rows(n, k)
    pool = np.flatnonzero(norms > tol)
    count = multiplicities(n)[k]
    calls = []

    def recording(rows):
        calls.append((len(rows), _ill_conditioned(rows)))
        return calls[-1][1]

    monkeypatch.setattr(dfteig.basis, "_ill_conditioned", recording)
    assert _first_fit(units, pool, count, tol) is None
    rows, fired = calls[-1]
    assert fired and rows in _GATE_AT and rows < count
    assert not any(fired for _, fired in calls[:-1])


def test_prefix_screen_spares_the_whole_prefix_gram(monkeypatch):
    # class 2 at the prime 1009: the prefix's leading 128 rows fail the
    # certificate, so no Gram of all 252 prefix rows is formed; the scan's
    # early gate then fires before it holds 252 rows
    n, k, tol = 1009, 2, DEFAULT_TOL
    units, norms = _unit_rows(n, k)
    pool = np.flatnonzero((norms > tol) & _earlier_of_mirrors(n))
    count = multiplicities(n)[k]
    sizes = []

    def recording(gram, width, target):
        sizes.append(len(gram))
        return _sigma_min_bound(gram, width, target)

    monkeypatch.setattr(dfteig.basis, "_sigma_min_bound", recording)
    assert _first_fit(units, pool, count, tol) is None
    assert sizes[0] == 128 < count
    assert count not in sizes


def test_first_fit_gives_up_when_the_pool_runs_out():
    # three distinct unit rows, each twice: the scan keeps rows 0, 1 and 3,
    # which is all three asked for, but short of five
    rng = np.random.default_rng(1)
    distinct = _normalized(rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
    units = distinct[[0, 1, 0, 2, 1, 2]]
    pool = np.arange(6)
    assert _first_fit(units, pool, 3, DEFAULT_TOL) == [0, 1, 3]
    assert _first_fit(units, pool, 5, DEFAULT_TOL) is None


@pytest.mark.parametrize("n", [*range(1, 129), 240, 257])
def test_build_without_certificates_is_the_same(monkeypatch, n):
    # every class a certificate settles, as a prefix or at the gate, first fit
    # and the SVD gate settle alike
    basis = build_basis(n)
    monkeypatch.setattr(dfteig.basis, "_sigma_min_bound", _no_certificate)
    fallback = build_basis(n)
    assert fallback.labels() == basis.labels()
    assert np.array_equal(fallback.scale, basis.scale)


@pytest.mark.parametrize("n", [9, 16, 27, 54, 96, 108, 128, 225])
def test_candidates_lie_in_their_orbit_blocks(n):
    eta = eta_pair(n)
    c = math.gcd(eta.eta1, eta.eta2)
    groups = _orbit_blocks(eta)
    members = np.concatenate([group.ravel() for group in groups])
    assert np.array_equal(np.sort(members), np.arange(n))  # each position in one block
    block = np.empty(n, dtype=np.intp)
    start = 0
    for group in groups:
        assert group.shape[1] <= 4 * n // c**2
        assert np.all(np.diff(group, axis=1) > 0)  # scan order within a block
        block[group] = start + np.arange(len(group))[:, None]
        start += len(group)
    # every nonzero coordinate of every DFT power, hence of every class's candidate
    for position, _ in _power_coordinates(n):
        assert np.all(block[position] == block[:, None])


@pytest.mark.parametrize("n", range(1, 301))
def test_pruned_rows_are_unit_multiples_of_their_mirrors(n):
    eta = eta_pair(n)
    a, b = np.divmod(np.arange(n), eta.eta2)
    mirror = (-a % eta.eta1) * eta.eta2 + (-b % eta.eta2)
    assert np.array_equal(mirror[mirror], np.arange(n))  # an involution
    for k in range(4):
        rows = _class_rows(n, k)
        norms = np.linalg.norm(rows, axis=1)
        for i in np.flatnonzero((mirror < np.arange(n)) & (norms > 1e-9)):
            u, v = rows[i] / norms[i], rows[mirror[i]] / norms[mirror[i]]
            phase = np.vdot(v, u)  # u = phase * v for a unit multiple
            assert abs(abs(phase) - 1.0) <= 1e-12
            assert np.abs(u - phase * v).max() <= 1e-12, (k, i)


@pytest.mark.parametrize("n", [1, 2, 12, 31, 36, 97, 128, 240])
def test_class_rows_selection_is_bitwise_the_selected_rows(n):
    rng = np.random.default_rng(n)
    # a subset out of order, repeated rows, one row
    selections = [rng.permutation(n)[: max(1, n // 3)], rng.integers(0, n, n + 2), [n - 1]]
    full = [_class_rows(n, k) for k in range(4)]
    for select in selections:
        for k in range(4):
            part = _class_rows(n, k, select)
            assert part.tobytes() == full[k][np.asarray(select)].tobytes()
        # one class per selected row, mixing all four in one call
        ks = rng.integers(0, 4, len(select))
        part = _class_rows(n, ks, select)
        expected = np.array([full[k][i] for k, i in zip(ks, select)])
        assert part.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 12, 30, 61, 257, 960])
def test_class_arrays_hold_the_kept_rows_bitwise(monkeypatch, n):
    # one label-to-row path: every class array the build densifies (all four
    # at c = 1, the gated class 0 at 960, where c = 2) holds, at the kept
    # positions, bitwise the basis's unit rows of that class
    arrays = {}

    def spy(n, k, select=None, *, gathers=None):
        rows, norms = _unit_rows(n, k, select, gathers=gathers)
        if select is None:
            arrays[k] = rows.copy()
        return rows, norms

    monkeypatch.setattr(dfteig.basis, "_unit_rows", spy)
    basis = build_basis(n)
    gcd = math.gcd(basis.eta.eta1, basis.eta.eta2)
    assert sorted(arrays) == ([0, 1, 2, 3] if gcd == 1 else [0])
    for k, units in arrays.items():
        mine = basis.classes == k
        assert units[basis.positions[mine]].tobytes() == basis.rows[mine].tobytes()


def test_unit_rows_makes_no_row_sized_temporary():
    # the norms are taken in row blocks and the rows divided in place: a
    # whole-array norm would peak at twice the rows' bytes
    n = 1024
    tracemalloc.start()
    try:
        rows, norms = _unit_rows(n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rows.nbytes
    # the norms are np.linalg.norm's, bit for bit
    raw = _class_rows(n, 0)
    assert norms.tobytes() == np.linalg.norm(raw, axis=1).tobytes()
    nonzero = norms > 0.0
    assert rows[nonzero].tobytes() == (raw[nonzero] / norms[nonzero, None]).tobytes()


@pytest.mark.parametrize("n", [16, 36, 103])
def test_record_dense_is_a_row_of_the_basis_matrix(tmp_path, n):
    # records are read-only views of the basis's arrays: they pin its one
    # (n, n) array of unit rows, and no candidate array
    built = build_basis(n)
    path = tmp_path / "basis.json"
    export_basis(built, path)
    for basis in (built, import_basis(path)):
        matrix = basis.dense_matrix()
        assert matrix.shape == (n, n) and matrix.base is None
        labels, scales = basis.labels(), basis.scale
        for i, rec in enumerate(basis.vectors):
            assert rec.label == labels[i]
            assert rec.scale == scales[i] and rec.support == basis.support[i]
            assert rec.dense.base is matrix and np.shares_memory(rec.dense, matrix[i])
            assert rec.dense.ctypes.data == matrix[i].ctypes.data
            assert rec.dense.shape == (n,) and not rec.dense.flags.writeable


# ---------------------------------------------------------------------------
# sparsity audit


def test_audit_sparsity_n16():
    audit = audit_sparsity(build_basis(16))
    assert audit.lower_bound == 4
    assert audit.upper_bound == 16
    assert 4 <= audit.min_support <= audit.max_support <= 16
    assert audit.ratio <= 4


def test_audit_sparsity_n4():
    audit = audit_sparsity(build_basis(4))
    assert audit.lower_bound == 2
    assert audit.upper_bound == 8
    assert audit.ratio <= 4


def test_audit_sparsity_n2_integer_supports():
    audit = audit_sparsity(build_basis(2))
    assert audit.lower_bound == 1.5
    assert audit.min_support >= 2


@pytest.mark.parametrize("n", range(2, 49))
def test_audit_sparsity_ratio_both_ways(n):
    audit = audit_sparsity(build_basis(n))
    assert audit.ratio <= 4
    assert audit.max_support / audit.min_support <= 4


# ---------------------------------------------------------------------------
# uncertainty bounds


def test_divisors_helper():
    assert _divisors(12) == [1, 2, 3, 4, 6, 12]
    assert _divisors(7) == [1, 7]
    assert _divisors(1) == [1]


def _reference_uncertainty_ok(n, s, sp):
    """The support-size constraints as a loop over consecutive divisor pairs."""
    if s * sp < n:
        return False
    divs = _divisors(n)
    for d1, d2 in zip(divs, divs[1:]):
        if d1 <= s <= d2 and sp * d1 * d2 < n * (d1 + d2 - s):
            return False
    return True


def test_uncertainty_ok_matches_the_divisor_loop():
    # every s in 1..n and sp in 0..n, for every n up to 120
    for n in range(1, 121):
        s, sp = np.meshgrid(np.arange(1, n + 1), np.arange(n + 1), indexing="ij")
        expected = [[_reference_uncertainty_ok(n, i, j) for j in range(n + 1)] for i in range(1, n + 1)]
        assert np.array_equal(_uncertainty_ok(n, s, sp), expected), n


def test_uncertainty_ok_frozen_cases():
    # product bound alone
    assert not _uncertainty_ok(4, 1, 2)
    assert _uncertainty_ok(4, 1, 4)
    # consecutive-divisor bound: n=14, s=3 sits between divisors 2 and 7,
    # needing sp >= (14/14)*(2+7-3) = 6 even though 3*5 >= 14
    assert not _uncertainty_ok(14, 3, 5)
    assert _uncertainty_ok(14, 3, 6)


def test_check_uncertainty_examples():
    assert check_uncertainty(np.array([1, 0, 0, 0], dtype=complex))
    assert check_uncertainty(np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        check_uncertainty(np.zeros(4))


@pytest.mark.parametrize("n", range(2, 33))
def test_basis_vectors_pass_uncertainty(n):
    for rec in build_basis(n).vectors:
        assert check_uncertainty(rec.dense), rec.label


# ---------------------------------------------------------------------------
# orthogonality


def test_gram_report_perfect_square():
    report = gram_report(build_basis(9))
    assert report.is_orthogonal
    assert report.max_offdiag <= 1e-9
    assert report.witness is None


def test_gram_report_sporadic_n8():
    assert gram_report(build_basis(8)).is_orthogonal


def test_gram_report_n12_witness():
    report = gram_report(build_basis(12))
    assert not report.is_orthogonal
    assert report.witness is not None
    label1, label2, value = report.witness
    assert label1 != label2
    assert 1e-9 < abs(value) < 1 - 1e-9
    # witnesses live inside one class: distinct classes are orthogonal
    assert label1[0] == label2[0]


@pytest.mark.parametrize("n", range(2, 129))
def test_gram_witness_is_the_first_pair_tied_at_the_largest(n):
    # tied pairs differ in the last bits only, so the earliest is named
    basis = build_basis(n)
    report = gram_report(basis)
    if report.is_orthogonal:
        assert report.witness is None
        return
    rows, labels, tol = basis.dense_matrix(), basis.labels(), 1e-9
    ks = np.array([label[0] for label in labels])
    gram = np.zeros((n, n), dtype=complex)  # distinct classes are orthogonal
    for k in range(4):  # each class block is the product of that class's rows
        pos = np.flatnonzero(ks == k)
        gram[np.ix_(pos, pos)] = rows[pos] @ rows[pos].conj().T
    pairs = [
        (abs(gram[i, j]), i, j) for i in range(n) for j in range(i + 1, n)
        if tol < abs(gram[i, j]) < 1 - tol
    ]
    top = max(value for value, _, _ in pairs)
    _, i, j = next(pair for pair in pairs if pair[0] >= top * (1 - _TIE_MARGIN))
    assert report.witness == (labels[i], labels[j], complex(gram[i, j]))


@pytest.mark.parametrize("n", range(2, 25))
def test_cross_class_always_orthogonal(n):
    basis = build_basis(n)
    gram = basis.gram_matrix()
    ks = np.array([rec.k for rec in basis.vectors])
    mask = ks[:, None] != ks[None, :]
    if mask.any():
        assert float(np.abs(gram[mask]).max()) <= 1e-9


def test_orthogonality_survey_small():
    assert orthogonality_survey(3) == [(2, True), (3, True)]
    survey = dict(orthogonality_survey(10))
    assert {n for n, o in survey.items() if o} == {2, 3, 4, 8, 9}


def test_orthogonality_survey_to_40():
    survey = orthogonality_survey(40)
    got = {n for n, orthogonal in survey if orthogonal}
    expected = {n for n in range(2, 41) if math.isqrt(n) ** 2 == n} | {2, 3, 8}
    assert got == expected


def test_orthogonality_survey_rejects_small_max():
    with pytest.raises(ValueError):
        orthogonality_survey(1)


def test_sparsity_audit_failure_reports_label():
    basis = build_basis(6)
    support = basis.support.copy()
    support[1] = 10 ** 6  # corrupt one vector
    basis.support = support  # supports are derived: the count is overwritten
    with pytest.raises(VerificationError) as err:
        audit_sparsity(basis)
    k, a, b = basis.labels()[1]
    assert f"vector (k={k}, a={a}, b={b}) has support 1000000" in str(err.value)


@pytest.mark.parametrize("name", ["rows", "scale", "support", "classes", "positions"])
def test_basis_arrays_are_read_only(name, tmp_path):
    # the cached records, flat labels, Gram blocks and reports are derived
    # from these arrays and would not see a write
    built = build_basis(12)
    path = tmp_path / "basis.json"
    export_basis(built, path)
    for basis in (built, import_basis(path)):
        array = getattr(basis, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


def test_edited_copy_is_a_new_basis_with_fresh_caches():
    basis = build_basis(12)
    before = gram_report(basis)
    assert before.max_offdiag < 0.8
    rows = basis.dense_matrix().copy()
    rows[0] = rows[1]  # vectors 0 and 1 share a class
    edited = dataclasses.replace(basis, rows=rows)
    assert gram_report(edited).max_offdiag == pytest.approx(1.0, abs=1e-12)
    assert gram_report(basis) is before


def test_replaced_tol_derives_its_own_supports_and_report():
    built = build_basis(12)
    before = gram_report(built)
    basis = dataclasses.replace(built, tol=1e-6)
    assert (built.tol, basis.tol) == (DEFAULT_TOL, 1e-6)
    support = np.count_nonzero(np.abs(basis.dense_matrix()) > 1e-6, axis=1)
    assert np.array_equal(basis.support, support)
    assert not basis.support.flags.writeable
    report = gram_report(basis)
    assert report is not before and gram_report(basis) is report
    assert report.is_orthogonal == (report.max_offdiag <= 1e-6)
    assert gram_report(built) is before
    with pytest.raises(ValueError, match="tol must be in"):
        dataclasses.replace(built, tol=0.5)
    # a square's vector 0 tilted by 1e-7 toward vector 1 of its class: both
    # its new entries and the inner product lie between 1e-9 and 1e-6
    built = build_basis(16)
    rows = built.dense_matrix().copy()
    rows[0] += 1e-7 * rows[1]
    rows[0] /= np.linalg.norm(rows[0])
    strict = dataclasses.replace(built, rows=rows)
    loose = dataclasses.replace(strict, tol=1e-6)
    assert strict.support[0] == 12 and loose.support[0] == built.support[0] == 4
    assert np.array_equal(strict.support[1:], loose.support[1:])
    inner = gram_report(strict).max_offdiag
    assert inner == gram_report(loose).max_offdiag == pytest.approx(1e-7, rel=1e-6)
    assert not gram_report(strict).is_orthogonal
    assert gram_report(strict).witness[:2] == ((0, 0, 0), (0, 0, 1))
    assert gram_report(loose).is_orthogonal and gram_report(loose).witness is None


@pytest.mark.parametrize("n", [1, 12, 61, 240])
def test_divisor_pair_is_derived_from_n(tmp_path, n):
    # n fixes (eta1, eta2), so a basis stores no pair that could disagree with it
    assert [f.name for f in dataclasses.fields(EigenBasis)] == [
        "n", "classes", "positions", "scale", "rows", "zero_candidates", "tol",
    ]
    basis = build_basis(n)
    path = tmp_path / "b.json"
    export_basis(basis, path)
    for derived in (basis, dataclasses.replace(basis, tol=1e-6), import_basis(path)):
        assert derived.eta == eta_pair(n)


def test_supports_are_counted_on_first_read(monkeypatch):
    counted = []
    real = np.count_nonzero

    def recording(*args, **kwargs):
        counted.append(kwargs.get("axis"))
        return real(*args, **kwargs)

    basis = build_basis(12)
    monkeypatch.setattr(np, "count_nonzero", recording)
    first = basis.support
    assert counted == [1] and basis.support is first
    assert counted == [1]
