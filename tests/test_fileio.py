import json

import numpy as np
import pytest

from dfteig import (
    build_basis,
    export_basis,
    gram_report,
    import_basis,
    read_vector,
    to_coefficients,
    synthesize,
    verify_eigenvector,
    write_vector,
)


def test_vector_round_trip(tmp_path):
    path = tmp_path / "v.txt"
    rng = np.random.default_rng(0)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    write_vector(path, v)
    back = read_vector(path)
    assert np.array_equal(back, v)  # repr round-trips floats exactly


def test_vector_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0,1.0,0.0\n2,0.5,0.0\n")
    with pytest.raises(ValueError) as err:
        read_vector(path)
    assert ":2:" in str(err.value)

    path.write_text("0,1.0\n")
    with pytest.raises(ValueError) as err:
        read_vector(path)
    assert ":1:" in str(err.value)

    path.write_text("0,not-a-number,0.0\n")
    with pytest.raises(ValueError) as err:
        read_vector(path)
    assert ":1:" in str(err.value)

    path.write_text("")
    with pytest.raises(ValueError):
        read_vector(path)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", range(2, 65))
def test_basis_export_import_round_trip(tmp_path, fmt, n):
    basis = build_basis(n)
    path = tmp_path / f"basis.{fmt}"
    export_basis(basis, path, fmt=fmt)
    back = import_basis(path)
    assert back.n == n
    assert back.labels() == basis.labels()
    assert back.per_class_counts == basis.per_class_counts
    for original, imported in zip(basis.vectors, back.vectors):
        # import rebuilds the rows from the same recipe the build used
        assert np.array_equal(imported.dense, original.dense)
        assert imported.scale == original.scale
        assert imported.support == original.support


def test_reexport_is_bit_identical(tmp_path):
    basis = build_basis(12)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    export_basis(basis, first)
    export_basis(import_basis(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_imported_basis_is_usable(tmp_path):
    basis = build_basis(12)
    path = tmp_path / "basis.json"
    export_basis(basis, path)
    back = import_basis(path)
    for rec in back.vectors:
        assert verify_eigenvector(rec.dense, rec.k) <= 1e-9
    assert not gram_report(back).is_orthogonal
    rng = np.random.default_rng(4)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    coeff = to_coefficients(v, back)
    assert np.linalg.norm(synthesize(coeff, back) - v) <= 1e-9 * np.linalg.norm(v)


def test_corrupted_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "format_version": 2,\n "n": oops\n}\n')
    with pytest.raises(ValueError) as err:
        import_basis(path)
    assert ":3:" in str(err.value)


def test_corrupted_csv_reports_line(tmp_path):
    basis = build_basis(4)
    path = tmp_path / "basis.csv"
    export_basis(basis, path, fmt="csv")
    lines = path.read_text().splitlines()
    lines[2] = "vector,0,x,0,bad"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        import_basis(path)
    assert ":3:" in str(err.value)


def _edited_export(tmp_path, edit):
    """An n=12 export (eta = (3, 4)), edited as basis.json."""
    path = tmp_path / "basis.json"
    export_basis(build_basis(12), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize(
    "key,value",
    [("a", -1), ("a", 3), ("b", -1), ("b", 4), ("k", -1), ("k", 4)],
)
def test_out_of_range_labels_rejected(tmp_path, key, value):
    def edit(payload):
        payload["vectors"][5][key] = value

    with pytest.raises(ValueError) as err:
        import_basis(_edited_export(tmp_path, edit))
    assert "basis.json" in str(err.value)


def test_non_canonical_divisor_pair_rejected(tmp_path):
    def edit(payload):
        payload["eta1"], payload["eta2"] = 2, 6

    with pytest.raises(ValueError, match="divisor pair"):
        import_basis(_edited_export(tmp_path, edit))


def test_missing_meta_rejected(tmp_path):
    path = tmp_path / "no_meta.csv"
    path.write_text("vector,0,0,0,1.0\n")
    with pytest.raises(ValueError):
        import_basis(path)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        export_basis(build_basis(2), tmp_path / "x", fmt="xml")


@pytest.mark.parametrize("n", [12, 16, 61])
def test_indented_file_imports_like_compact(tmp_path, n):
    compact = tmp_path / "compact.json"
    export_basis(build_basis(n), compact)
    text = compact.read_text()
    assert text == json.dumps(json.loads(text)) + "\n"  # one line, default separators
    indented = tmp_path / "indented.json"
    with open(indented, "w", encoding="utf-8") as fh:  # the layout of older exports
        json.dump(json.loads(compact.read_text()), fh, indent=1)
    first, second = import_basis(compact), import_basis(indented)
    assert first.labels() == second.labels()
    for rec, other in zip(first.vectors, second.vectors):
        assert np.array_equal(rec.dense, other.dense)
        assert (rec.scale, rec.support) == (other.scale, other.support)


@pytest.mark.parametrize(
    "fmt, lead", [("json", "\n"), ("json", " \t\r\n"), ("csv", "\n")]
)
def test_leading_whitespace_keeps_the_format(tmp_path, fmt, lead):
    # JSON is sniffed past its leading whitespace; CSV skips a blank line
    basis = build_basis(12)
    path = tmp_path / f"basis.{fmt}"
    export_basis(basis, path, fmt=fmt)
    path.write_text(lead + path.read_text())
    back = import_basis(path)
    assert back.labels() == basis.labels()
    assert np.array_equal(back.scale, basis.scale)


def test_bad_records_in_two_classes_name_the_first_in_file_order(tmp_path):
    def edit(payload):
        vectors = payload["vectors"]
        vectors.insert(0, vectors.pop())  # the last class-3 record goes first
        for pos in (0, 2):  # a class-3 and a class-0 record
            vectors[pos]["scale"] *= 2

    path = _edited_export(tmp_path, edit)
    with pytest.raises(ValueError, match=r"basis.json: vector 0: scale of label \(3, "):
        import_basis(path)
