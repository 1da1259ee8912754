"""Command-line interface: build, verify, analyze, survey.

Exit codes: 0 every requested check passed, 1 a certified claim failed,
2 usage or I/O error, or too little memory for the requested n.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import sys

import numpy as np

from .basis import (
    _sigma_min_bound,
    _uncertainty_ok,
    audit_sparsity,
    build_basis,
    gram_report,
    multiplicities,
)
from .fast import _ldexp, _unit_exponent, synthesize, to_coefficients
from .fileio import export_basis, import_basis, read_vector, write_survey_csv, write_vector
from .numerics import DEFAULT_TOL, VerificationError, check_tol, dft_matrix
from .projection import EIGENVALUES

SPORADIC_ORTHOGONAL = {2, 3, 8}


def _tol(text: str) -> float:
    """argparse type of --tol: a float in check_tol's range, else a usage error."""
    try:
        return check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer_flag(low: int, rule: str):
    """argparse type of an integer flag that must be at least `low`, as `rule` words it."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1  # refused below, quoting the text as given
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


_positive = _integer_flag(1, "a positive integer")


def _rank_targets(tol: float) -> list:
    """Lower bounds on sigma_min**2 that verify tries each class Gram at, largest first.

    Every power 1e-2, 1e-4, ... above 4*tol**2, then 4*tol**2 itself; the
    first one a class is proven at is its margin.
    """
    floor = 4 * tol * tol
    powers = (10.0**-e for e in itertools.count(2, 2))
    return [*itertools.takewhile(lambda t: t > floor, powers), floor]


def _expected_orthogonal(n: int) -> bool:
    return math.isqrt(n) ** 2 == n or n in SPORADIC_ORTHOGONAL


def cmd_build(args) -> int:
    basis = build_basis(args.n, args.tol)
    export_basis(basis, args.out, fmt=args.format)
    print(
        f"wrote {args.out}: n={basis.n} eta=({basis.eta.eta1},{basis.eta.eta2}) "
        f"vectors={basis.classes.size} per-class={basis.per_class_counts}"
    )
    return 0


def _oracle_pass(basis):
    """Eigenvector residuals and uncertainty verdicts of every vector at once.

    One product of the stacked rows with the reference matrix dft_matrix(n),
    which is symmetric, gives every row's transform, whose supports are
    counted at basis.tol; the supports of the rows themselves are the
    basis's own.  The results match verify_eigenvector and check_uncertainty
    row by row.
    """
    mat = basis.dense_matrix()
    norms = np.linalg.norm(mat, axis=1)
    if not np.all(norms > basis.tol):
        raise ValueError("cannot classify a numerically zero vector")
    spectra = mat @ dft_matrix(basis.n)
    spectral = np.count_nonzero(np.abs(spectra) > basis.tol * norms[:, None], axis=1)
    verdicts = _uncertainty_ok(basis.n, basis.support, spectral)
    lams = np.array(EIGENVALUES)[basis.classes]
    spectra -= lams[:, None] * mat
    return np.linalg.norm(spectra, axis=1) / norms, verdicts


def _verify_checks(basis):
    """Yield (name, passed, detail) for every certified claim, each at basis.tol.

    The eigenvector residuals and the uncertainty bounds both come from
    one product of the stacked unit rows with the reference DFT matrix
    (see _oracle_pass); they also bound every inner product across two
    classes.  The rank is summed over the classes, which
    cross-class-orthogonality certifies to be orthogonal.  Each class's
    Gram block (the one gram_report reads) is tried with the
    shifted-Cholesky certificate (see basis._sigma_min_bound) at each of
    _rank_targets(tol), stopping at the first it passes: its singular
    values are then all at least that target's root, at least 2*tol, so its
    rank is its row count.  A class certified at none counts
    the singular values above tol of its stacked unit rows.  The detail
    gives the smallest singular value's lower bound, the smallest root
    certified or the smallest singular value of a class that fell back,
    which is the check's margin, and names each class that fell back to the
    SVD.
    """
    n = basis.n
    dims = multiplicities(n)
    yield (
        "multiplicity-counts",
        basis.per_class_counts == dims,
        f"{basis.per_class_counts} vs table {dims}",
    )

    tol = basis.tol
    residuals, verdicts = _oracle_pass(basis)
    worst = float(residuals.max())
    yield (
        "eigenvector-residuals",
        worst <= tol,
        f"max {worst:.3e}",
    )

    rank, smallest, fallback = 0, math.inf, []
    targets = _rank_targets(tol)
    for k, (pos, gram) in enumerate(basis._class_grams):
        if not pos.size:
            continue
        bound = next(filter(None, (_sigma_min_bound(gram, n, t) for t in targets)), None)
        if bound is None:  # not certified: count the singular values above tol
            sv = np.linalg.svd(basis.rows[pos], compute_uv=False)
            rank += int(np.count_nonzero(sv > tol))
            bound = float(sv.min())
            fallback.append(str(k))
        else:
            rank += pos.size
        smallest = min(smallest, bound)
    detail = f"rank {rank} of {n}, smallest singular value at least {smallest:.3e}"
    if fallback:
        detail += f" (SVD in class{'es' if len(fallback) > 1 else ''} {', '.join(fallback)})"
    yield "independent-rank", rank == n, detail

    try:
        audit = audit_sparsity(basis)
        yield (
            "sparsity-bounds",
            True,
            f"supports in [{audit.min_support}, {audit.max_support}] within "
            f"[{audit.lower_bound:g}, {audit.upper_bound}], ratio {audit.ratio:.2f}",
        )
    except VerificationError as exc:
        yield "sparsity-bounds", False, str(exc)

    failing = [label for label, ok in zip(basis.labels(), verdicts) if not ok]
    yield (
        "uncertainty-bounds",
        not failing,
        "all vectors" if not failing else f"violated at {failing[:3]}",
    )

    # D is unitary: for unit u, v with D u = lam u + r_u, D v = mu v + r_v and
    # lam != mu, |<u, v>| <= (|r_u| + |r_v| + |r_u| |r_v|) / |lam - mu|
    ks = basis.classes
    eps = {k: float(residuals[ks == k].max()) for k in set(ks.tolist())}
    bound = max(
        [(eps[k] + eps[l] + eps[k] * eps[l]) / abs(EIGENVALUES[k] - EIGENVALUES[l])
         for k in eps for l in eps if k < l],
        default=0.0,
    )
    detail = f"bound {bound:.3e} from the eigenvector residuals"
    yield "cross-class-orthogonality", bound <= tol, detail

    report = gram_report(basis)
    expected = _expected_orthogonal(n)
    if report.is_orthogonal:
        ok, detail = expected, f"orthogonal (max offdiag {report.max_offdiag:.3e})"
    elif report.witness:
        w1, w2, val = report.witness
        ok = not expected
        detail = f"non-orthogonal, witness <{w1}, {w2}> = {val.real:.6f}{val.imag:+.6f}i"
    else:
        ok, detail = False, "non-orthogonal but no witness found"
    yield "gram-classification", ok, detail


def cmd_verify(args) -> int:
    if args.input:
        basis = dataclasses.replace(import_basis(args.input), tol=args.tol)
        if args.n is not None and args.n != basis.n:
            print(
                f"verify: --n {args.n} given, but {args.input} holds n={basis.n}",
                file=sys.stderr,
            )
            return 2
    else:
        if args.n is None:
            print("verify: provide --n N or --input FILE", file=sys.stderr)
            return 2
        basis = build_basis(args.n, args.tol)
    print(f"verifying n={basis.n} (eta1={basis.eta.eta1}, eta2={basis.eta.eta2})")
    all_ok = True
    for name, ok, detail in _verify_checks(basis):
        all_ok &= ok
        print(f"  {name:<28}{'PASS' if ok else 'FAIL'}  {detail}")
    print("result: " + ("all checks passed" if all_ok else "CLAIM VIOLATION"))
    return 0 if all_ok else 1


def cmd_analyze(args) -> int:
    v = read_vector(args.input)
    if args.n is not None and v.size != args.n:
        print(
            f"analyze: vector has {v.size} entries, expected n={args.n}",
            file=sys.stderr,
        )
        return 2
    basis = build_basis(v.size, args.tol)
    coeff = to_coefficients(v, basis)
    write_vector(args.out, coeff)
    e = _unit_exponent(v)  # measure at the scale the solve ran at
    v, coeff = _ldexp(v, -e), _ldexp(coeff, -e)
    norm = float(np.linalg.norm(v))
    residual = float(np.linalg.norm(synthesize(coeff, basis) - v))
    relative = residual / norm if norm > 0 else residual
    print(f"wrote {args.out}: {basis.n} coefficients, round-trip residual {relative:.3e}")
    return 0 if relative <= basis.tol else 1


def cmd_survey(args) -> int:
    rows = []
    orthogonal = []
    for n in range(2, args.max_n + 1):
        basis = build_basis(n, args.tol)
        report = gram_report(basis)
        rows.append((n, basis.eta, audit_sparsity(basis), report))
        if report.is_orthogonal:
            orthogonal.append(n)
        if not report.is_orthogonal and report.witness is None:
            print(f"survey: n={n} non-orthogonal without witness", file=sys.stderr)
            return 1
    if args.out:
        write_survey_csv(args.out, rows)
        print(f"wrote {args.out} ({len(rows)} rows)")
    print("orthogonal n:", " ".join(str(n) for n in orthogonal))
    return 0


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfteig",
        description=(
            "Sparse eigenvector bases of the discrete Fourier transform: "
            "build, certify, and change basis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a basis and export it")
    p.add_argument("--n", type=_positive, required=True, help="ambient dimension")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run every certified check on a basis")
    p.add_argument("--n", type=_positive, default=None)
    p.add_argument("--input", default=None, help="verify an exported basis file")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="expand a vector in the basis")
    p.add_argument("--n", type=_positive, default=None, help="defaults to the vector's length")
    p.add_argument("--input", required=True, help="vector file (index,re,im lines)")
    p.add_argument("--out", required=True, help="coefficient output path")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("survey", help="orthogonality classification over 2..max-n")
    p.add_argument("--max-n", type=_integer_flag(2, "an integer of at least 2"), required=True)
    p.add_argument("--out", default=None, help="CSV report path")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"claim violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
