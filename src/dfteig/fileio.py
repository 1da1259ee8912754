"""Text formats: dense vectors, basis exports (JSON and CSV), report tables.

Complex values are always written as separate decimal re/im fields, never
as "a+bj" strings.  Floats are serialized with repr(), which round-trips
exactly, so re-exporting an imported basis reproduces the file bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Optional

import numpy as np

from .basis import BasisVectorRecord, EigenBasis
from .numerics import DEFAULT_TOL, TolerancePolicy
from .projection import TrainSum, _class_rows, densify_sum
from .trains import DivisorPair, ModulatedDeltaTrain, eta_pair

__all__ = [
    "FORMAT_VERSION",
    "write_vector",
    "read_vector",
    "export_basis",
    "import_basis",
    "write_survey_csv",
    "write_bench_csv",
]

FORMAT_VERSION = 1

# Import refuses a record whose scale or term sum differs from its label's
# projected train by more than this, relative to the train's norm, or whose
# unit entries differ by more than this anywhere.  Exports drop entries below
# their zero_tol (at most 1e-6), and renormalizing a raw export divides that
# by the scale, so the limit leaves a factor of ten above 1e-6.
_LABEL_TOL = 1e-5


# ---------------------------------------------------------------------------
# dense vectors: one `index,re,im` line per entry, indices 0..n-1 in order


def write_vector(path, v) -> None:
    arr = np.asarray(v, dtype=np.complex128)
    with open(path, "w", encoding="utf-8") as fh:
        for idx, z in enumerate(arr):
            fh.write(f"{idx},{float(z.real)!r},{float(z.imag)!r}\n")


def read_vector(path) -> np.ndarray:
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected `index,re,im`, got {line!r}"
                )
            try:
                idx = int(parts[0])
                re_part = float(parts[1])
                im_part = float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if idx != len(entries):
                raise ValueError(
                    f"{path}:{lineno}: index {idx} out of order "
                    f"(expected {len(entries)})"
                )
            if not (math.isfinite(re_part) and math.isfinite(im_part)):
                raise ValueError(f"{path}:{lineno}: non-finite entry")
            entries.append(complex(re_part, im_part))
    if not entries:
        raise ValueError(f"{path}: empty vector file")
    return np.array(entries, dtype=np.complex128)


# ---------------------------------------------------------------------------
# basis exports


def _vector_payload(rec: BasisVectorRecord, normalized: bool, zero_tol: float):
    dense = rec.dense if normalized else rec.scale * rec.dense
    entries = [
        [int(idx), float(dense[idx].real), float(dense[idx].imag)]
        for idx in np.flatnonzero(np.abs(dense) > zero_tol)
    ]
    terms = [
        {
            "n": train.n,
            "d1": train.d1,
            "a": train.a,
            "b": train.b,
            "coeff_re": float(coeff.real),
            "coeff_im": float(coeff.imag),
            "phase_re": float(train.phase.real),
            "phase_im": float(train.phase.imag),
        }
        for coeff, train in rec.sum.terms
    ]
    return {
        "k": rec.k,
        "a": rec.a,
        "b": rec.b,
        "scale": float(rec.scale),
        "terms": terms,
        "entries": entries,
    }


def export_basis(
    basis: EigenBasis,
    path,
    fmt: str = "json",
    normalized: bool = True,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> None:
    """Write a basis with its labels, symbolic terms, and sparse entries.

    `normalized=False` stores the raw (scale times unit) dense entries
    instead; the importer renormalizes either way.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "n": basis.n,
        "eta1": basis.eta.eta1,
        "eta2": basis.eta.eta2,
        "vectors": [
            _vector_payload(rec, normalized, tol.zero_tol) for rec in basis.vectors
        ],
    }
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            eta = basis.eta
            writer.writerow(["meta", FORMAT_VERSION, basis.n, eta.eta1, eta.eta2])
            for vec in payload["vectors"]:  # floats are written with repr
                writer.writerow(["vector", vec["k"], vec["a"], vec["b"], vec["scale"]])
                writer.writerows(["term", *t.values()] for t in vec["terms"])
                writer.writerows(["entry", *entry] for entry in vec["entries"])
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'json' or 'csv')")


def _record_from_payload(vec, eta: DivisorPair) -> BasisVectorRecord:
    n = eta.n
    # labels index the change-of-basis tables, where a negative one would wrap
    k, a, b = int(vec["k"]), int(vec["a"]), int(vec["b"])
    if not (0 <= k <= 3 and 0 <= a < eta.eta1 and 0 <= b < eta.eta2):
        raise ValueError(
            f"label ({k}, {a}, {b}) out of range for "
            f"k < 4, a < {eta.eta1}, b < {eta.eta2}"
        )
    if any(int(t["n"]) != n for t in vec["terms"]):
        raise ValueError(f"a term of label ({k}, {a}, {b}) is not of dimension n={n}")
    terms = tuple(
        (
            complex(t["coeff_re"], t["coeff_im"]),
            ModulatedDeltaTrain(
                n=int(t["n"]),
                d1=int(t["d1"]),
                a=int(t["a"]),
                b=int(t["b"]),
                phase=complex(t["phase_re"], t["phase_im"]),
            ),
        )
        for t in vec["terms"]
    )
    dense = np.zeros(n, dtype=np.complex128)
    for idx, re_part, im_part in vec["entries"]:
        if not 0 <= int(idx) < n:
            raise ValueError(f"entry index {idx} out of range")
        dense[int(idx)] = complex(re_part, im_part)
    norm = float(np.linalg.norm(dense))
    if norm <= 0.0:
        raise ValueError(f"label ({k}, {a}, {b}) has empty entries")
    if abs(norm - 1.0) > 1e-6:  # raw export: undo the stored scale
        dense = dense / norm
    return BasisVectorRecord(
        k=k,
        a=a,
        b=b,
        sum=TrainSum(n=n, terms=terms),
        dense=dense,
        support=int(np.count_nonzero(np.abs(dense) > DEFAULT_TOL.zero_tol)),
        scale=float(vec["scale"]),
    )


def _check_against_label(rec: BasisVectorRecord, ref: np.ndarray) -> None:
    """Refuse a record whose scale, terms or entries are not its label's train `ref`."""
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm <= DEFAULT_TOL.residual_tol:
        raise ValueError(f"the projection of label {rec.label} vanishes")
    errors = {
        "scale": abs(rec.scale - ref_norm) / ref_norm,
        "terms": float(np.abs(densify_sum(rec.sum) - ref).max()) / ref_norm,
        "entries": float(np.abs(rec.dense - ref / ref_norm).max()),
    }
    for name, error in errors.items():
        if not error <= _LABEL_TOL:  # also refuses NaN
            raise ValueError(
                f"{name} of label {rec.label} differ from its projected train "
                f"by {error:.2e} (limit {_LABEL_TOL:g})"
            )


def _records_from_payload(payload, path) -> EigenBasis:
    try:
        version = payload["format_version"]
        n = int(payload["n"])
        eta = DivisorPair(n=n, eta1=int(payload["eta1"]), eta2=int(payload["eta2"]))
        raw_vectors = payload["vectors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: format_version {version!r} is not {FORMAT_VERSION}")
    if n < 1 or eta != eta_pair(n):
        raise ValueError(
            f"{path}: ({eta.eta1}, {eta.eta2}) is not the divisor pair of n={n}"
        )
    if not isinstance(raw_vectors, list):
        raise ValueError(f"{path}: 'vectors' must be a list")
    records = []
    rows_k, rows = None, None
    for pos, vec in enumerate(raw_vectors):
        try:
            rec = _record_from_payload(vec, eta)
            if rec.k != rows_k:  # exports list the records class by class
                rows_k, rows = rec.k, _class_rows(n, rec.k)
            _check_against_label(rec, rows[rec.a * eta.eta2 + rec.b])
        except KeyError as exc:
            raise ValueError(f"{path}: vector {pos} lacks field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: vector {pos}: {exc}") from None
        records.append(rec)
    counts = tuple(sum(rec.k == k for rec in records) for k in range(4))
    return EigenBasis(n=n, eta=eta, vectors=records, per_class_counts=counts)


# the typed columns after the row kind, in CSV order
_CSV_FIELDS = {
    "meta": (("format_version", int), ("n", int), ("eta1", int), ("eta2", int)),
    "vector": (("k", int), ("a", int), ("b", int), ("scale", float)),
    "term": (("n", int), ("d1", int), ("a", int), ("b", int), ("coeff_re", float),
             ("coeff_im", float), ("phase_re", float), ("phase_im", float)),
    "entry": (("index", int), ("re", float), ("im", float)),
}


def _import_basis_csv(path) -> EigenBasis:
    payload = {"vectors": []}
    current = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                fields = _CSV_FIELDS.get(row[0])
                if fields is None:
                    raise ValueError(f"unknown row type {row[0]!r}")
                if len(row) != len(fields) + 1:
                    raise ValueError(f"{row[0]} row needs {len(fields)} fields")
                typed = {name: cast(v) for (name, cast), v in zip(fields, row[1:])}
                if row[0] == "meta":
                    payload.update(typed)
                elif row[0] == "vector":
                    current = {**typed, "terms": [], "entries": []}
                    payload["vectors"].append(current)
                elif row[0] == "term":
                    current["terms"].append(typed)
                else:
                    current["entries"].append(list(typed.values()))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if "n" not in payload:
        raise ValueError(f"{path}: missing meta row")
    return _records_from_payload(payload, path)


def import_basis(path) -> EigenBasis:
    """Read a basis export back; the format is sniffed from the content."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
    if head == "{":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{exc.lineno}: invalid JSON: {exc.msg}"
                ) from None
        return _records_from_payload(payload, path)
    return _import_basis_csv(path)


# ---------------------------------------------------------------------------
# report tables


def _format_label(label: Optional[tuple]) -> str:
    if label is None:
        return ""
    k, a, b = label
    return f"{k}:{a}:{b}"


def write_survey_csv(path, rows) -> None:
    """Rows of (n, eta, audit, report) from an orthogonality survey."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "n",
                "eta1",
                "eta2",
                "max_support",
                "lower_bound",
                "is_orthogonal",
                "witness_1",
                "witness_2",
                "witness_re",
                "witness_im",
            ]
        )
        for n, eta, audit, report in rows:
            witness = report.witness
            writer.writerow(
                [
                    n,
                    eta.eta1,
                    eta.eta2,
                    audit.max_support,
                    repr(audit.lower_bound),
                    int(report.is_orthogonal),
                    _format_label(witness[0] if witness else None),
                    _format_label(witness[1] if witness else None),
                    repr(witness[2].real) if witness else "",
                    repr(witness[2].imag) if witness else "",
                ]
            )


def write_bench_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "n",
                "candidates",
                "analyze_s",
                "naive_loop_s",
                "dense_matvec_s",
                "dense_setup_s",
                "max_disagreement",
            ]
        )
        for row in rows:
            writer.writerow(row)
