"""Acceptance suite: one test per certified claim, at full stated ranges.

Each test prints an explicit pass line (visible with -s or on failure) in
addition to the pytest verdict.
"""

import math

import numpy as np
import pytest

from dfteig import (
    EliminationState,
    ModulatedDeltaTrain,
    analyze,
    build_basis,
    check_uncertainty,
    densify_sum,
    enumerate_candidates,
    export_basis,
    gram_report,
    multiplicities,
    naive_dft,
    synthesize,
    to_coefficients,
    try_extend_rank,
    verify_eigenvector,
)
from dfteig.projection import densify, dft_train

TOL = 1e-9


def test_criterion_1_eigenbasis_correctness():
    worst = 0.0
    for n in range(2, 129):
        basis = build_basis(n)
        assert len(basis.vectors) == n
        for rec in basis.vectors:
            worst = max(worst, verify_eigenvector(rec.dense, rec.k))
    assert worst <= TOL
    print(f"PASS criterion 1: n=2..128 bases complete, max residual {worst:.2e}")


def test_criterion_2_multiplicity_table():
    residues_seen = set()
    for n in range(2, 129):
        residues_seen.add(n % 4)
        assert build_basis(n).per_class_counts == multiplicities(n), n
    assert residues_seen == {0, 1, 2, 3}
    print("PASS criterion 2: per-class counts match the mod-4 table for n=2..128")


def test_criterion_3_sparsity_bounds():
    worst_ratio = 0.0
    for n in range(2, 129):
        basis = build_basis(n)
        lower = (basis.eta.eta1 + basis.eta.eta2) / 2
        upper = 2 * (basis.eta.eta1 + basis.eta.eta2)
        for rec in basis.vectors:
            assert lower - TOL <= rec.support <= upper, (n, rec.label, rec.support)
        worst_ratio = max(worst_ratio, max(r.support for r in basis.vectors) / lower)
    assert worst_ratio <= 4.0
    print(f"PASS criterion 3: supports within bounds, worst ratio {worst_ratio:.3f} <= 4")


def test_criterion_4_transform_law():
    worst = 0.0
    for n in range(1, 65):
        for d1 in (d for d in range(1, n + 1) if n % d == 0):
            for a in range(d1):
                for b in range(n // d1):
                    g = ModulatedDeltaTrain(n=n, d1=d1, a=a, b=b)
                    err = np.linalg.norm(
                        densify(dft_train(g)) - naive_dft(densify(g))
                    )
                    worst = max(worst, float(err))
                    t = g
                    for _ in range(4):
                        t = dft_train(t)
                    assert (t.d1, t.a, t.b) == (d1, a, b)
                    assert abs(t.phase - 1) <= TOL
    assert worst <= TOL
    print(f"PASS criterion 4: transform law exact for n<=64, max error {worst:.2e}")


def test_criterion_5_uncertainty_bounds():
    for n in range(2, 65):
        for rec in build_basis(n).vectors:
            assert check_uncertainty(rec.dense), (n, rec.label)
    print("PASS criterion 5: all basis vectors satisfy both support bounds, n<=64")


def test_criterion_6_orthogonality_classification():
    expected = {n for n in range(2, 257) if math.isqrt(n) ** 2 == n} | {2, 3, 8}
    got = set()
    for n in range(2, 257):
        report = gram_report(build_basis(n))
        if report.is_orthogonal:
            assert report.max_offdiag <= TOL, n
            got.add(n)
        else:
            assert report.witness is not None, n
            _, _, value = report.witness
            assert TOL < abs(value) < 1 - TOL, (n, value)
    assert got == expected
    print(f"PASS criterion 6: orthogonal exactly on squares and {{2,3,8}} up to 256")


def test_criterion_7_fast_transform():
    rng = np.random.default_rng(7)
    for n in [4, 9, 12, 16, 30, 36, 64]:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tensor = analyze(v)
        for k, a, b, cand in enumerate_candidates(n):
            assert abs(tensor.values[k, a, b] - np.vdot(densify_sum(cand), v)) <= TOL
        basis = build_basis(n)
        coeff = to_coefficients(v, basis)
        assert np.linalg.norm(synthesize(coeff, basis) - v) <= TOL * np.linalg.norm(v)
        if math.isqrt(n) ** 2 == n:
            assert abs(np.sum(np.abs(coeff) ** 2) - np.linalg.norm(v) ** 2) <= TOL
    print("PASS criterion 7: analyze matches inner-product loops; round-trip and Parseval hold")


def test_criterion_8_determinism(tmp_path):
    paths = []
    for name in ("run1.json", "run2.json"):
        path = tmp_path / name
        export_basis(build_basis(36), path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("PASS criterion 8: independent build+export runs at n=36 are identical")


def test_whole_basis_rank_and_cross_class():
    # supporting invariants at the acceptance tolerance, n=2..128
    for n in range(2, 129):
        basis = build_basis(n)
        state = EliminationState(n)
        for rec in basis.vectors:
            accepted, _ = try_extend_rank(state, rec.dense)
            assert accepted, (n, rec.label)
        assert state.rank == n
        gram = basis.gram_matrix()
        ks = np.array([rec.k for rec in basis.vectors])
        mask = ks[:, None] != ks[None, :]
        if mask.any():
            assert float(np.abs(gram[mask]).max()) <= TOL, n
    print("PASS: whole-basis rank n and cross-class orthogonality, n=2..128")
