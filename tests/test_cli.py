import dataclasses
import json
import math
import sys
import time

import numpy as np
import pytest

from dfteig import (
    DEFAULT_TOL,
    BasisVectorRecord,
    EigenBasis,
    EliminationState,
    build_basis,
    check_uncertainty,
    gram_report,
    import_basis,
    read_vector,
    synthesize,
    to_coefficients,
    try_extend_rank,
    verify_eigenvector,
    write_vector,
)
from dfteig.basis import _sigma_min_bound
from dfteig.cli import _oracle_pass, _verify_checks, entrypoint, main
from dfteig.projection import EIGENVALUES


def test_build_json(tmp_path, capsys):
    out = tmp_path / "b9.json"
    assert main(["build", "--n", "9", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["format_version"], payload["n"]) == (2, 9)
    assert len(payload["vectors"]) == 9
    assert all(set(vec) == {"k", "a", "b", "scale"} for vec in payload["vectors"])
    assert "wrote" in capsys.readouterr().out


def test_build_rejects_n_zero(tmp_path, capsys):
    assert main(["build", "--n", "0", "--out", str(tmp_path / "x.json")]) == 2
    assert "positive" in capsys.readouterr().err


def test_build_csv_sections(tmp_path):
    out = tmp_path / "b16.csv"
    assert main(["build", "--n", "16", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "meta,2,16,4,4"
    assert len(lines) == 17 and all(line.startswith("vector,") for line in lines[1:])
    basis = import_basis(out)
    assert basis.n == 16


def test_build_usage_error_without_out():
    assert main(["build", "--n", "4"]) == 2


# n = 1, 2, 3 leave classes empty: dims (1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0)
@pytest.mark.parametrize(
    "n,expect_orthogonal",
    [(1, True), (2, True), (3, True), (25, True), (8, True), (12, False), (103, False)],
)
def test_verify_classification(n, expect_orthogonal, capsys):
    assert main(["verify", "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    if expect_orthogonal:
        assert "non-orthogonal" not in out
    else:
        assert "non-orthogonal" in out and "witness" in out


def test_verify_imported_file(tmp_path, capsys):
    out = tmp_path / "b6.json"
    assert main(["build", "--n", "6", "--out", str(out)]) == 0
    assert main(["verify", "--input", str(out)]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_verify_refuses_n_that_mismatches_the_file(tmp_path, capsys):
    path = tmp_path / "b12.json"
    assert main(["build", "--n", "12", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--n", "16", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert "--n 16" in captured.err and "n=12" in captured.err
    assert "verifying" not in captured.out
    assert main(["verify", "--n", "12", "--input", str(path)]) == 0  # a matching --n is accepted
    assert "all checks passed" in capsys.readouterr().out


def test_verify_corrupted_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json\n")
    assert main(["verify", "--input", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_rejects_negative_label(tmp_path, capsys):
    path = tmp_path / "b12.json"
    assert main(["build", "--n", "12", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["vectors"][3]["a"] = -1
    path.write_text(json.dumps(payload))
    assert main(["verify", "--input", str(path)]) == 2
    assert "out of range" in capsys.readouterr().err


def _built(tmp_path, fmt, *flags):
    path = tmp_path / f"b16.{fmt}"
    argv = ["build", "--n", "16", "--format", fmt, "--out", str(path), *flags]
    assert main(argv) == 0
    return path


def _first_record(payload, key, value):
    return next(vec for vec in payload["vectors"] if vec[key] == value)


JSON_EDITS = {
    "version 99": lambda p: p.update(format_version=99),
    "version 3": lambda p: p.update(format_version=3),
    "no version": lambda p: p.pop("format_version"),
    "no k": lambda p: p["vectors"][3].pop("k"),
    "no scale": lambda p: p["vectors"][3].pop("scale"),
    "vectors not a list": lambda p: p.update(vectors={"k": 0}),
    "vector not a record": lambda p: p["vectors"].__setitem__(0, 7),
    "doubled scale": lambda p: p["vectors"][3].update(scale=2 * p["vectors"][3]["scale"]),
    "NaN scale": lambda p: p["vectors"][3].update(scale=float("nan")),
    "scale as a string": lambda p: p["vectors"][3].update(scale="1.0"),
    "scale a boolean": lambda p: p["vectors"][0].update(scale=True),  # 1.0
    "scale off by 1e-7": lambda p: p["vectors"][3].update(scale=(1 + 1e-7) * p["vectors"][3]["scale"]),
    "b out of range": lambda p: p["vectors"][3].update(b=4),
    # P_3 g_4(0, 0) = 0 at n=16
    "vanishing label": lambda p: _first_record(p, "k", 3).update(a=0, b=0),
    "n not an integer": lambda p: p.update(n=16.5),
    "a not an integer": lambda p: _first_record(p, "a", 1).update(a=1.5),
    "k as a string": lambda p: _first_record(p, "k", 1).update(k="1"),
}


@pytest.mark.parametrize("edit", sorted(JSON_EDITS))
def test_verify_refuses_bad_json_record(tmp_path, capsys, edit):
    path = _built(tmp_path, "json")
    payload = json.loads(path.read_text())
    JSON_EDITS[edit](payload)
    path.write_text(json.dumps(payload))
    assert main(["verify", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "b16.json" in err
    if edit.startswith("version "):  # names version 2 alone, not the retired 1
        assert "1 or" not in err and "2 is the only version" in err


# row kind, which row of that kind, column, new value (None drops the column)
CSV_EDITS = {
    "version 99": ("meta", 0, 1, lambda v: "99"),
    "version 3": ("meta", 0, 1, lambda v: "3"),
    "no scale": ("vector", 3, 4, None),
    "doubled scale": ("vector", 3, 4, lambda v: repr(2 * float(v))),
    "scale off by 1e-7": ("vector", 3, 4, lambda v: repr(float(v) * (1 + 1e-7))),
}


@pytest.mark.parametrize("edit", sorted(CSV_EDITS))
def test_verify_refuses_bad_csv_record(tmp_path, capsys, edit):
    path = _built(tmp_path, "csv")
    rows = [line.split(",") for line in path.read_text().splitlines()]
    kind, occurrence, column, change = CSV_EDITS[edit]
    row = [row for row in rows if row[0] == kind][occurrence]
    if change is None:
        del row[column]
    else:
        row[column] = change(row[column])
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert main(["verify", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "b16.csv" in err
    if edit.startswith("version "):
        assert "1 or" not in err and "2 is the only version" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
# flags2 keeps its name from when flags1 was the retired --no-normalize case.
@pytest.mark.parametrize("flags", [(), ("--tol", "1e-10"), ("--tol", "1e-6")])
def test_verify_accepts_valid_exports(tmp_path, capsys, fmt, flags):
    path = _built(tmp_path, fmt, *flags)
    assert main(["verify", "--input", str(path), *flags]) == 0
    assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("flags,tol", [((), DEFAULT_TOL), (("--tol", "1e-10"), 1e-10)])
def test_verify_input_reads_the_file_at_the_tol_flag(tmp_path, monkeypatch, capsys, flags, tol):
    path = _built(tmp_path, "json")
    seen = []

    def recording(basis):
        seen.append(basis.tol)
        return _verify_checks(basis)

    monkeypatch.setattr("dfteig.cli._verify_checks", recording)
    assert main(["verify", "--input", str(path), *flags]) == 0
    assert seen == [tol]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_build_and_export_count_no_supports(tmp_path, monkeypatch, capsys, fmt):
    def no_count(self):
        raise AssertionError("supports were counted")

    monkeypatch.setattr(EigenBasis, "support", property(no_count))
    path = tmp_path / f"b.{fmt}"
    assert main(["build", "--n", "61", "--format", fmt, "--out", str(path)]) == 0
    assert import_basis(path).n == 61  # import counts none either


def test_verify_refuses_huge_n_at_once(tmp_path, capsys):
    path = _built(tmp_path, "json")
    payload = json.loads(path.read_text())
    payload["n"] = 10**30
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    assert main(["verify", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "four times" in capsys.readouterr().err


# the header of a version-1 export, then a record with its first term and entry
V1_TEXT = {
    "json": json.dumps({
        "format_version": 1, "n": 16, "eta1": 4, "eta2": 4, "vectors": [{
            "k": 0, "a": 0, "b": 0, "scale": 1.0,
            "terms": [{"n": 16, "d1": 4, "a": 0, "b": 0, "coeff_re": 0.25,
                       "coeff_im": 0.0, "phase_re": 1.0, "phase_im": 0.0}],
            "entries": [[0, 0.5, 0.0]],
        }],
    }),
    "csv": "meta,1,16,4,4\nvector,0,0,0,1.0\nterm,16,4,0,0,0.25,0.0,1.0,0.0\nentry,0,0.5,0.0\n",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_refuses_version_1_at_once(tmp_path, capsys, fmt):
    path = tmp_path / f"b16.{fmt}"
    path.write_text(V1_TEXT[fmt])
    start = time.perf_counter()
    assert main(["verify", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "b16." + fmt + ": format_version 1 is no longer read" in err
    assert "rebuild the basis with `dfteig build --n 16`" in err


def _shuffled_across_classes(path, fmt, seed):
    """The file at path with its records merged across classes at random.

    Each class keeps its own record order, so the pairs within a class, where
    the gram witness is found, keep their order too.
    """
    lines = path.read_text().splitlines()
    if fmt == "json":
        payload = json.loads(lines[0])
        records, ks = payload["vectors"], [vec["k"] for vec in payload["vectors"]]
    else:
        records, ks = lines[1:], [int(line.split(",")[1]) for line in lines[1:]]
    slots = np.random.default_rng(seed).permutation(ks)  # the class of each new slot
    queues = {k: iter([rec for rec, rk in zip(records, ks) if rk == k]) for k in set(ks)}
    merged = [next(queues[k]) for k in slots.tolist()]
    if fmt == "json":
        payload["vectors"] = merged
        return json.dumps(payload) + "\n"
    return "\n".join([lines[0], *merged]) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [12, 61, 240])
def test_records_shuffled_across_classes_import_and_verify_alike(tmp_path, capsys, fmt, n):
    path, shuffled = tmp_path / f"b.{fmt}", tmp_path / f"s.{fmt}"
    assert main(["build", "--n", str(n), "--format", fmt, "--out", str(path)]) == 0
    shuffled.write_text(_shuffled_across_classes(path, fmt, seed=n))
    built = {rec.label: rec for rec in build_basis(n).vectors}
    basis = import_basis(shuffled)
    assert [rec.k for rec in basis.vectors] != sorted(rec.k for rec in basis.vectors)
    for rec in basis.vectors:
        twin = built[rec.label]
        assert rec.dense.tobytes() == twin.dense.tobytes()
        assert (rec.scale, rec.support) == (twin.scale, twin.support)
    capsys.readouterr()  # drop the build's output
    assert main(["verify", "--input", str(path)]) == 0
    expected = capsys.readouterr().out
    assert main(["verify", "--input", str(shuffled)]) == 0
    assert capsys.readouterr().out == expected


def _rank_check(basis):
    """The independent-rank verdict and detail; the later checks do not run."""
    return next((ok, d) for name, ok, d in _verify_checks(basis) if name == "independent-rank")


def _certified_root(gram, width, tol=DEFAULT_TOL):
    """The root of the first of verify's rank targets a class Gram is certified at, or None.

    The targets are the powers 1e-2, 1e-4, ... above 4*tol**2, then 4*tol**2.
    """
    floor = 4 * tol * tol
    powers = [float(f"1e-{e}") for e in range(2, 40, 2)]
    for target in (*[t for t in powers if t > floor], floor):
        if _sigma_min_bound(gram, width, target) is not None:
            return math.sqrt(target)
    return None


def _cgs2_rank(basis, tol=DEFAULT_TOL):
    state = EliminationState(basis.n)
    for rec in basis.vectors:
        try_extend_rank(state, rec.dense, tol)
    return state.rank


def test_verify_reports_missing_record(tmp_path, capsys):
    path = _built(tmp_path, "json")
    payload = json.loads(path.read_text())
    del payload["vectors"][3]
    path.write_text(json.dumps(payload))
    capsys.readouterr()  # drop the build's output
    assert main(["verify", "--input", str(path)]) == 1
    out = capsys.readouterr().out
    verdicts = dict(line.split()[:2] for line in out.splitlines()[1:-1])
    assert len(verdicts) == 7  # the whole table is printed
    failing = {name for name, verdict in verdicts.items() if verdict == "FAIL"}
    assert failing == {"multiplicity-counts", "independent-rank"}
    assert "rank 15 of 16, " in out and _cgs2_rank(import_basis(path)) == 15
    assert "CLAIM VIOLATION" in out


def test_verify_fails_repeated_label(tmp_path, capsys):
    path = _built(tmp_path, "json")
    payload = json.loads(path.read_text())
    payload["vectors"][4] = dict(payload["vectors"][3])
    path.write_text(json.dumps(payload))
    capsys.readouterr()  # drop the build's output
    assert main(["verify", "--input", str(path)]) == 1
    out = capsys.readouterr().out
    verdicts = dict(line.split()[:2] for line in out.splitlines()[1:-1])
    assert verdicts["independent-rank"] == "FAIL"
    assert "rank 15 of 16, " in out and _cgs2_rank(import_basis(path)) == 15
    assert "CLAIM VIOLATION" in out


def _swapped(value, rng):
    """The value replaced by one of another JSON type (or by 7 or 0.5)."""
    options = [str(value), [value], None, True, {"v": value}, 7, 0.5]
    if type(value) in (int, float):
        options.append(float(value) if type(value) is int else int(value))
    return options[rng.integers(len(options))]


def _fuzz_edit(payload, rng):
    """Swap a value's type, drop a field, or duplicate a record; True if duplicated."""
    vectors = payload["vectors"]
    vec = vectors[rng.integers(len(vectors))]
    kind = rng.integers(3)
    if kind == 0:
        vectors.insert(rng.integers(len(vectors) + 1), dict(vec))
        return True
    fields = [(payload, key) for key in payload] + [(vec, key) for key in vec]
    target, key = fields[rng.integers(len(fields))]
    if kind == 1:
        del target[key]
    else:
        target[key] = _swapped(target[key], rng)
    return False


@pytest.mark.parametrize("n", [9, 16, 61])
def test_verify_survives_record_edits(tmp_path, capsys, n):
    path = tmp_path / "b.json"
    assert main(["build", "--n", str(n), "--out", str(path)]) == 0
    text = path.read_text()
    rng = np.random.default_rng(n)
    codes = []  # the exit codes of the edits that duplicate no record
    for i in range(150):
        payload = json.loads(text)
        duplicated = _fuzz_edit(payload, rng)
        path.write_text(json.dumps(payload))
        try:
            code = main(["verify", "--input", str(path)])
        except Exception as exc:  # main must refuse, never raise
            pytest.fail(f"edit {i} at n={n} raised {exc!r}")
        if duplicated:
            assert code == 1, f"edit {i} at n={n} duplicated a record"
        else:
            codes.append(code)
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    assert codes.count(2) > 0.9 * len(codes)  # nearly every other edit breaks the file


@pytest.mark.parametrize(
    "n,tol", [*((n, 1e-9) for n in [*range(1, 129), 240, 257, 276]), (41, 1e-6), (41, 1e-10)]
)
def test_rank_check_matches_cgs2(n, tol):
    basis = build_basis(n, tol)
    rank = _cgs2_rank(basis, tol)
    ok, detail = _rank_check(basis)
    assert ok == (rank == n)
    assert detail.startswith(f"rank {rank} of {n}, smallest singular value ")


def _no_certificate(gram, width, target):
    return None


def _verdicts(basis):
    return [(name, ok) for name, ok, _ in _verify_checks(basis)]


@pytest.mark.parametrize("n", [*range(1, 129), 240, 257])
def test_verify_without_certificates_gives_the_same_verdicts(monkeypatch, n):
    basis = build_basis(n)
    certified = _verdicts(basis)
    monkeypatch.setattr("dfteig.cli._sigma_min_bound", _no_certificate)
    assert _verdicts(dataclasses.replace(basis)) == certified  # a fresh cache


@pytest.mark.parametrize("edit", ["missing", "repeated"])
def test_verify_files_without_certificates_give_the_same_output(tmp_path, monkeypatch, capsys, edit):
    path = _built(tmp_path, "json")
    payload = json.loads(path.read_text())
    if edit == "missing":
        del payload["vectors"][3]
    else:
        payload["vectors"][4] = dict(payload["vectors"][3])
    path.write_text(json.dumps(payload))
    capsys.readouterr()  # drop the build's output
    assert main(["verify", "--input", str(path)]) == 1
    certified = capsys.readouterr().out.splitlines()
    monkeypatch.setattr("dfteig.cli._sigma_min_bound", _no_certificate)
    assert main(["verify", "--input", str(path)]) == 1
    fallback = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in fallback] == [line.split()[:2] for line in certified]
    assert "(SVD in classes 0, 1, 2, 3)" in "\n".join(fallback)


@pytest.mark.parametrize("n", [*range(2, 129, 7), 240, 257, 276])
def test_rank_detail_bound_is_below_the_smallest_singular_value(n):
    basis = build_basis(n)
    ok, detail = _rank_check(basis)
    assert ok and "SVD" not in detail
    bound = float(detail.split("at least ")[1])
    rows = basis.dense_matrix()
    smallest = min(
        np.linalg.svd(rows[basis.classes == k], compute_uv=False).min()
        for k in set(basis.classes.tolist())
    )
    # the smallest over the classes of the first target's root each is certified at
    roots = [_certified_root(gram, n) for pos, gram in basis._class_grams if pos.size]
    assert bound == pytest.approx(min(roots), rel=1e-3) and bound <= smallest


@pytest.mark.parametrize("n", [16, 64, 144])
def test_rank_detail_shows_the_margin_at_a_square(capsys, n):
    # an orthogonal basis: every class Gram is the identity, certified at 1e-2
    ok, detail = _rank_check(build_basis(n))
    assert ok and detail == f"rank {n} of {n}, smallest singular value at least 1.000e-01"
    assert main(["verify", "--n", str(n)]) == 0
    assert f"  independent-rank            PASS  {detail}\n" in capsys.readouterr().out


@pytest.mark.parametrize("n, bound", [(240, "1.000e-05"), (29, "1.000e-06"), (41, "1.000e-06")])
def test_rank_detail_shows_the_margin_below_1e_8(capsys, n, bound):
    # a class's sigma_min**2 lies below 1e-8 and far above 4*tol**2: the bound shows it
    assert main(["verify", "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert f"rank {n} of {n}, smallest singular value at least {bound}\n" in out


def test_rank_detail_names_the_class_that_fell_back(monkeypatch):
    basis = build_basis(61)
    refused = basis._class_grams[1][1]
    calls = []

    def class_1_refused(gram, width, target):
        calls.append(gram is refused)
        return None if gram is refused else _sigma_min_bound(gram, width, target)

    monkeypatch.setattr("dfteig.cli._sigma_min_bound", class_1_refused)
    ok, detail = _rank_check(basis)
    assert ok and calls.count(True) == 9  # class 1 is tried at every target, 1e-2..4e-18
    sv = np.linalg.svd(basis.dense_matrix()[basis.classes == 1], compute_uv=False)
    roots = [_certified_root(gram, 61) for k, (_, gram) in enumerate(basis._class_grams) if k != 1]
    assert detail == (
        f"rank 61 of 61, smallest singular value at least {min(*roots, sv.min()):.3e} "
        "(SVD in class 1)"
    )


@pytest.mark.parametrize("n", [*range(1, 129), 240, 257])
def test_oracle_pass_matches_per_vector_oracle(n):
    basis = build_basis(n)
    residuals, verdicts = _oracle_pass(basis)
    for rec, residual, verdict in zip(basis.vectors, residuals, verdicts):
        assert abs(residual - verify_eigenvector(rec.dense, rec.k)) <= 1e-14
        assert verdict == check_uncertainty(rec.dense)


def test_commands_never_form_the_whole_gram(tmp_path, monkeypatch, capsys):
    # the solve, the report, verify and survey read the class blocks only
    def whole_gram(self):
        raise AssertionError("the (n, n) Gram was formed")

    monkeypatch.setattr(EigenBasis, "gram_matrix", whole_gram)
    basis = build_basis(61)
    v = np.random.default_rng(61).standard_normal(61) + 0j
    assert not gram_report(basis).is_orthogonal
    coeff = to_coefficients(v, basis)
    assert np.linalg.norm(basis.dense_matrix().T @ coeff - v) <= 1e-9 * np.linalg.norm(v)
    path = tmp_path / "b12.json"
    assert main(["build", "--n", "12", "--out", str(path)]) == 0
    assert main(["verify", "--input", str(path)]) == 0
    assert main(["verify", "--n", "25"]) == 0
    assert main(["survey", "--max-n", "12"]) == 0


@pytest.mark.parametrize("n", [61, 120, 576])
def test_certify_and_solve_make_no_records(tmp_path, monkeypatch, capsys, n):
    # build -> verify --input and a solve read the basis's arrays alone
    def no_record(self, *args, **kwargs):
        raise AssertionError("a BasisVectorRecord was made")

    monkeypatch.setattr(BasisVectorRecord, "__init__", no_record)
    path = tmp_path / "basis.json"
    assert main(["build", "--n", str(n), "--out", str(path)]) == 0
    assert main(["verify", "--input", str(path)]) == 0
    basis = build_basis(n)
    v = np.random.default_rng(n).standard_normal(n) + 0j
    back = synthesize(to_coefficients(v, basis), basis)
    assert np.linalg.norm(back - v) <= 1e-9 * np.linalg.norm(v)


def test_perturbed_row_fails_cross_class_bound():
    built = build_basis(12)
    rows = built.dense_matrix().copy()  # the basis's own arrays are read-only
    rng = np.random.default_rng(12)
    rows[0] += 1e-6 * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
    rows[0] /= np.linalg.norm(rows[0])
    basis = dataclasses.replace(built, rows=rows)
    residuals, _ = _oracle_pass(basis)
    ks = np.array([rec.k for rec in basis.vectors])
    eps = [residuals[ks == k].max() for k in range(4)]
    bound = max(
        (eps[k] + eps[l] + eps[k] * eps[l]) / abs(EIGENVALUES[k] - EIGENVALUES[l])
        for k in range(4) for l in range(k + 1, 4)
    )
    checks = {name: (ok, detail) for name, ok, detail in _verify_checks(basis)}
    assert checks["cross-class-orthogonality"] == (
        False, f"bound {bound:.3e} from the eigenvector residuals"
    )
    # the bound holds for every inner product across two classes
    gram = rows @ rows.conj().T
    assert np.abs(gram[ks[:, None] != ks[None, :]]).max() <= bound


def test_verify_requires_target(capsys):
    assert main(["verify"]) == 2


def test_analyze_basis_vector(tmp_path, capsys):
    basis = build_basis(9)
    vec_path = tmp_path / "v.txt"
    out_path = tmp_path / "c.txt"
    write_vector(vec_path, basis.vectors[0].dense)
    code = main(
        ["analyze", "--n", "9", "--input", str(vec_path), "--out", str(out_path)]
    )
    assert code == 0
    coeff = read_vector(out_path)
    assert abs(coeff[0] - 1) <= 1e-9
    assert np.abs(coeff[1:]).max() <= 1e-9
    assert "residual" in capsys.readouterr().out


def test_analyze_random_vector(tmp_path, capsys):
    rng = np.random.default_rng(16)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    vec_path = tmp_path / "v.txt"
    write_vector(vec_path, v)
    code = main(
        ["analyze", "--n", "16", "--input", str(vec_path), "--out", str(tmp_path / "c.txt")]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "residual" in printed


def test_analyze_takes_n_from_the_vector(tmp_path, capsys):
    vec_path = tmp_path / "v.txt"
    write_vector(vec_path, np.random.default_rng(61).standard_normal(61) + 0j)
    outputs = []
    for given in ([], ["--n", "61"]):
        out_path = tmp_path / f"c{len(given)}.txt"
        assert main(["analyze", *given, "--input", str(vec_path), "--out", str(out_path)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert "61 coefficients" in capsys.readouterr().out


def test_analyze_wrong_length(tmp_path, capsys):
    vec_path = tmp_path / "v.txt"
    write_vector(vec_path, np.ones(5))
    code = main(
        ["analyze", "--n", "9", "--input", str(vec_path), "--out", str(tmp_path / "c.txt")]
    )
    assert code == 2
    assert "expected n=9" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_analyze_residual_at_extreme_magnitudes(tmp_path, capsys, scale):
    vec_path, out_path = tmp_path / "v.txt", tmp_path / "c.txt"
    write_vector(vec_path, scale * np.array([1.0, -0.5, 0.25j]))
    assert main(["analyze", "--n", "3", "--input", str(vec_path), "--out", str(out_path)]) == 0
    assert np.all(np.isfinite(read_vector(out_path)))
    residual = float(capsys.readouterr().out.split()[-1])  # "... round-trip residual R"
    assert residual <= DEFAULT_TOL


def test_analyze_refuses_coefficients_beyond_float_range(tmp_path, capsys):
    vec_path, out_path = tmp_path / "v.txt", tmp_path / "c.txt"
    write_vector(vec_path, np.full(3, 1.7e308))
    assert main(["analyze", "--n", "3", "--input", str(vec_path), "--out", str(out_path)]) == 2
    assert "overflow" in capsys.readouterr().err
    assert not out_path.exists()


def test_analyze_refuses_coefficients_below_normal_range(tmp_path, capsys):
    vec_path, out_path = tmp_path / "v.txt", tmp_path / "c.txt"
    rng = np.random.default_rng(61)
    write_vector(vec_path, 1e-318 * (rng.standard_normal(61) + 1j * rng.standard_normal(61)))
    argv = ["analyze", "--n", "61", "--input", str(vec_path), "--out", str(out_path)]
    assert main(argv) == 2
    assert "underflow" in capsys.readouterr().err
    assert not out_path.exists()


def test_analyze_unparseable_vector(tmp_path):
    vec_path = tmp_path / "v.txt"
    vec_path.write_text("0,zap,0\n")
    code = main(
        ["analyze", "--n", "4", "--input", str(vec_path), "--out", str(tmp_path / "c.txt")]
    )
    assert code == 2


def test_survey_30(tmp_path, capsys):
    out = tmp_path / "survey.csv"
    assert main(["survey", "--max-n", "30", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "orthogonal n: 2 3 4 8 9 16 25" in printed
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 29  # header plus one row per n


def test_survey_single_row(tmp_path):
    out = tmp_path / "tiny.csv"
    assert main(["survey", "--max-n", "2", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_survey_rejects_max_n_below_two(capsys):
    assert main(["survey", "--max-n", "1"]) == 2


@pytest.mark.parametrize("argv, flag, why", [
    (["verify", "--n", "0"], "--n", "must be a positive integer, got '0'"),
    (["build", "--n", "-1", "--out", "b.json"], "--n", "must be a positive integer, got '-1'"),
    (["analyze", "--n", "0", "--input", "v.txt", "--out", "c.txt"], "--n", "must be a positive"),
    (["survey", "--max-n", "1"], "--max-n", "must be an integer of at least 2, got '1'"),
    (["verify", "--n", "2.5"], "--n", "must be a positive integer, got '2.5'"),
], ids=["verify-n-0", "build-n-minus-1", "analyze-n-0", "survey-max-n-1", "verify-n-2.5"])
def test_integer_flags_are_checked_by_the_parser(tmp_path, monkeypatch, capsys, argv, flag, why):
    # a usage error that names the flag and says why, before any file is read or written
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {why}" in err and "provide --n" not in err
    assert not list(tmp_path.iterdir())


def test_bench_rejects_tiny_n(capsys):
    # `bench` is not a command: argparse refuses it as a usage error
    assert main(["bench", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "bench" in err


def test_determinism_of_build_export(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["build", "--n", "36", "--out", str(first)]) == 0
    assert main(["build", "--n", "36", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_tol_flag_validation(tmp_path, capsys):
    # a tolerance outside (0, 1e-6] is a usage error that names the flag
    path = str(tmp_path / "x")
    for argv in (["build", "--n", "4", "--out", path], ["verify", "--n", "4"],
                 ["analyze", "--n", "4", "--input", path, "--out", path], ["survey", "--max-n", "4"]):
        for value in ("0.5", "0", "nan", "-1e-9", "tiny"):
            assert main([*argv, "--tol", value]) == 2
            assert "--tol" in capsys.readouterr().err
    assert main(["verify", "--n", "4", "--tol", "1e-10"]) == 0


@pytest.mark.parametrize("message", ["", "Unable to allocate 596. GiB for an array"])
def test_out_of_memory_is_an_error_not_a_failed_claim(monkeypatch, capsys, message):
    # exit 2 with one `error:` line, not a traceback with the claim-failed code 1
    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr("dfteig.cli.build_basis", no_memory)
    assert main(["verify", "--n", "200000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert message in err


def test_entrypoint_exits_with_main_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "b61.json"
    for argv, code in ((["build", "--n", "61", "--out", str(path)], 0),
                       (["verify", "--input", str(path)], 0),
                       (["verify"], 2)):
        monkeypatch.setattr(sys, "argv", ["dfteig", *argv])
        with pytest.raises(SystemExit) as exit_info:
            entrypoint()
        assert exit_info.value.code == code
    assert "all checks passed" in capsys.readouterr().out
