"""Text formats: dense vectors, basis exports (JSON and CSV), report tables.

Complex values are always written as separate decimal re/im fields, never
as "a+bj" strings.  Floats are serialized with repr(), which round-trips
exactly, so re-exporting an imported basis reproduces the file bit for bit.

Basis exports are format_version 2: the header (n, eta1, eta2) and, per
record, its label (k, a, b) and scale.  n fixes (eta1, eta2), so import
refuses a header whose pair is not eta_pair(n).  A record is the
projected train P_k g_{eta1}(a, b), so a label fixes it and the scale,
its norm, is the only number stored.  Export reads the basis's label and scale arrays.
Import types and range-checks every label, refusing integer fields given
as floats, strings or booleans, makes the unit rows of all labels in file
order with basis._unit_rows, the one label-to-row path, which also makes
build_basis's class arrays and kept rows, and refuses a record
whose projection vanishes or whose scale misses its row's norm by more
than _LABEL_TOL, relative.  The basis keeps the file's scales and carries
DEFAULT_TOL, the tol the file's checks ran at; a caller that reads it at
another tol replaces it (dfteig verify --tol does).  Any other
format_version is refused.  Version-1
files, which also stored each record's symbolic terms and sparse entries,
are refused with the command that rebuilds them.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Optional

import numpy as np

from .basis import EigenBasis, _unit_rows
from .numerics import DEFAULT_TOL
from .projection import DivisorPair, eta_pair

__all__ = [
    "FORMAT_VERSION",
    "write_vector",
    "read_vector",
    "export_basis",
    "import_basis",
    "write_survey_csv",
]

FORMAT_VERSION = 2

# Import refuses a record whose scale differs from its label's projected
# train's norm by more than this, relative.  A scale off by d makes the
# orthogonal solve, which has no residual check, miss its input by 2d, so the
# limit keeps that miss (2e-12) below the smallest --tol the tests use
# (1e-10).  An export's scales are the norms import rebuilds, bit for bit.
_LABEL_TOL = 1e-12


# ---------------------------------------------------------------------------
# dense vectors: one `index,re,im` line per entry, indices 0..n-1 in order


def write_vector(path, v) -> None:
    arr = np.asarray(v, dtype=np.complex128)
    with open(path, "w", encoding="utf-8") as fh:
        for idx, z in enumerate(arr):
            fh.write(f"{idx},{float(z.real)!r},{float(z.imag)!r}\n")


def read_vector(path) -> np.ndarray:
    entries = []
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def export_basis(basis: EigenBasis, path, fmt: str = "json") -> None:
    """Write a basis as format_version 2: its header and one label per record.

    Each record is written as its label (k, a, b) and its `scale`, the norm
    of the raw projected train P_k g_{eta1}(a, b); import rebuilds the unit
    rows from the labels.  JSON is the text of one json.dumps call; CSV is
    a `meta` row and one `vector` row per record.
    """
    header = {
        "format_version": FORMAT_VERSION,
        "n": basis.n,
        "eta1": basis.eta.eta1,
        "eta2": basis.eta.eta2,
    }
    vectors = [
        {"k": k, "a": a, "b": b, "scale": scale}
        for (k, a, b), scale in zip(basis.labels(), basis.scale.tolist())
    ]
    if fmt == "json":
        text = json.dumps({**header, "vectors": vectors})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)  # floats are written with repr
            writer.writerow(["meta", *header.values()])
            writer.writerows(["vector", *vec.values()] for vec in vectors)
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'json' or 'csv')")


def _integer(value, name: str) -> int:
    """An integer field, refused when it is a float, a string or a boolean."""
    if type(value) is not int:  # int() would truncate 3.5 and accept "1"
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _label(vec, eta: DivisorPair) -> tuple[int, int, int]:
    # labels index the change-of-basis tables, where a negative one would wrap
    k, a, b = (_integer(vec[key], key) for key in ("k", "a", "b"))
    if not (0 <= k <= 3 and 0 <= a < eta.eta1 and 0 <= b < eta.eta2):
        raise ValueError(
            f"label ({k}, {a}, {b}) out of range for "
            f"k < 4, a < {eta.eta1}, b < {eta.eta2}"
        )
    return k, a, b


def _number(value, name: str) -> float:
    """A real field, refused when it is a string or a boolean."""
    if type(value) not in (int, float):  # float() would accept "1.0" and True
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_version(version, n: int, path) -> None:
    """Refuse every format_version but 2; version 1 with how to rebuild it."""
    if type(version) is int and version == 1:
        raise ValueError(
            f"{path}: format_version 1 is no longer read; "
            f"rebuild the basis with `dfteig build --n {n}`"
        )
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: format_version {version!r} is not read; "
            f"{FORMAT_VERSION} is the only version this program reads"
        )


def _records_from_payload(payload, path) -> EigenBasis:
    try:
        version = payload["format_version"]
        n, eta1, eta2 = (_integer(payload[key], key) for key in ("n", "eta1", "eta2"))
        raw_vectors = payload["vectors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    _check_version(version, n, path)
    if not isinstance(raw_vectors, list):
        raise ValueError(f"{path}: 'vectors' must be a list")
    # Bounds n before eta_pair scans its divisors up to sqrt(n).  Every class
    # holds at most n/4 + 1 vectors, so a file short by a whole class passes
    # and verify reports it.
    if not 1 <= n <= 4 * len(raw_vectors):
        raise ValueError(
            f"{path}: n={n} is not in [1, {4 * len(raw_vectors)}], four times "
            f"its {len(raw_vectors)} records"
        )
    eta = eta_pair(n)
    if (eta1, eta2) != (eta.eta1, eta.eta2):
        raise ValueError(f"{path}: ({eta1}, {eta2}) is not the divisor pair of n={n}")
    labels, scales = [], []
    for pos, vec in enumerate(raw_vectors):
        if not isinstance(vec, dict):
            raise ValueError(f"{path}: vector {pos} must be an object, got {type(vec).__name__}")
        try:
            label = _label(vec, eta)
            scale = _number(vec["scale"], f"scale of label {label}")
        except KeyError as exc:
            raise ValueError(f"{path}: vector {pos} lacks field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # float() overflows on a huge int
            raise ValueError(f"{path}: vector {pos}: {exc}") from None
        labels.append(label)
        scales.append(scale)
    classes, a, b = np.array(labels, dtype=np.intp).T
    positions = a * eta.eta2 + b
    rows, norms = _unit_rows(n, classes, positions)
    # each check runs over every record, in file order, and names the first it refuses
    vanishing = np.flatnonzero(~(norms > DEFAULT_TOL))
    if vanishing.size:
        i = vanishing[0]
        raise ValueError(f"{path}: vector {i}: the projection of label {labels[i]} vanishes")
    scales = np.array(scales, dtype=np.float64)
    error = np.abs(scales - norms) / norms
    bad = np.flatnonzero(~(error <= _LABEL_TOL))  # also refuses NaN
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"{path}: vector {i}: scale of label {labels[i]} differs "
            f"from its projected train by {error[i]:.2e} (limit {_LABEL_TOL:g})"
        )
    return EigenBasis(n=n, classes=classes, positions=positions, scale=scales, rows=rows)


# the typed columns after the row kind, in CSV order
_CSV_FIELDS = {
    "meta": (("format_version", int), ("n", int), ("eta1", int), ("eta2", int)),
    "vector": (("k", int), ("a", int), ("b", int), ("scale", float)),
}


def _import_basis_csv(path) -> EigenBasis:
    payload = {"vectors": []}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not any(field.strip() for field in row):  # a blank or whitespace-only line
                continue
            try:
                fields = _CSV_FIELDS.get(row[0])
                if fields is None:
                    raise ValueError(f"unknown row type {row[0]!r}")
                if len(row) != len(fields) + 1:
                    raise ValueError(f"{row[0]} row needs {len(fields)} fields")
                typed = {name: cast(v) for (name, cast), v in zip(fields, row[1:])}
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if row[0] == "meta":  # before any later row, which may be of an older version
                _check_version(typed["format_version"], typed["n"], path)
                payload.update(typed)
            else:
                payload["vectors"].append(typed)
    if "n" not in payload:
        raise ValueError(f"{path}: missing meta row")
    return _records_from_payload(payload, path)


def import_basis(path) -> EigenBasis:
    """Read a basis export back; the format is sniffed from the content.

    JSON is a file whose first character after a UTF-8 byte-order mark and
    JSON's own leading whitespace is `{`; anything else is read as CSV.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    if not text.lstrip(" \t\n\r").startswith("{"):
        return _import_basis_csv(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    return _records_from_payload(payload, path)


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
