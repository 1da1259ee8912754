"""Command-line interface: build, verify, analyze, survey.

Exit codes: 0 every requested check passed, 1 a certified claim failed,
2 usage or I/O error, or too little memory for the requested n.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .basis import (
    _survey,
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


def _expected_orthogonal(n: int) -> bool:
    return math.isqrt(n) ** 2 == n or n in SPORADIC_ORTHOGONAL


def cmd_build(args) -> int:
    if args.n < 1:
        print("build: --n must be a positive integer", file=sys.stderr)
        return 2
    basis = build_basis(args.n, args.tol)
    export_basis(basis, args.out, fmt=args.format)
    print(
        f"wrote {args.out}: n={basis.n} eta=({basis.eta.eta1},{basis.eta.eta2}) "
        f"vectors={basis.classes.size} per-class={basis.per_class_counts}"
    )
    return 0


def _oracle_pass(basis, tol):
    """Eigenvector residuals and uncertainty verdicts of every vector at once.

    One product of the stacked rows with the reference matrix dft_matrix(n),
    which is symmetric, gives every row's transform; the results match
    verify_eigenvector and check_uncertainty row by row.
    """
    mat = basis.dense_matrix()
    norms = np.linalg.norm(mat, axis=1)
    if not np.all(norms > tol):
        raise ValueError("cannot classify a numerically zero vector")
    spectra = mat @ dft_matrix(basis.n)
    # supports of the unit rows and of their transforms
    limits = tol * norms[:, None]
    supports = np.count_nonzero(np.abs(mat) > limits, axis=1)
    spectral = np.count_nonzero(np.abs(spectra) > limits, axis=1)
    verdicts = _uncertainty_ok(basis.n, supports, spectral)
    lams = np.array(EIGENVALUES)[basis.classes]
    spectra -= lams[:, None] * mat
    return np.linalg.norm(spectra, axis=1) / norms, verdicts


def _verify_checks(basis, tol):
    """Yield (name, passed, detail) for every certified claim.

    The eigenvector residuals and the uncertainty bounds both come from
    one product of the stacked unit rows with the reference DFT matrix
    (see _oracle_pass); they also bound every inner product across two
    classes.  The rank is the count of singular values above tol of each
    class's stacked unit rows, summed over the classes, which
    cross-class-orthogonality certifies to be orthogonal; its detail gives
    the smallest singular value, the check's margin.
    """
    n = basis.n
    dims = multiplicities(n)
    yield (
        "multiplicity-counts",
        basis.per_class_counts == dims,
        f"{basis.per_class_counts} vs table {dims}",
    )

    residuals, verdicts = _oracle_pass(basis, tol)
    worst = float(residuals.max())
    yield (
        "eigenvector-residuals",
        worst <= tol,
        f"max {worst:.3e}",
    )

    rows, ks = basis.dense_matrix(), basis.classes
    blocks = [rows[ks == k] for k in range(4) if k in ks]
    sv = np.concatenate([np.linalg.svd(block, compute_uv=False) for block in blocks])
    rank = int(np.count_nonzero(sv > tol))
    detail = f"rank {rank} of {n}, smallest singular value {sv.min():.3e}"
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
    eps = {k: float(residuals[ks == k].max()) for k in set(ks.tolist())}
    bound = max(
        [(eps[k] + eps[l] + eps[k] * eps[l]) / abs(EIGENVALUES[k] - EIGENVALUES[l])
         for k in eps for l in eps if k < l],
        default=0.0,
    )
    detail = f"bound {bound:.3e} from the eigenvector residuals"
    yield "cross-class-orthogonality", bound <= tol, detail

    report = gram_report(basis, tol)
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
        basis = import_basis(args.input)
        if args.n is not None and args.n != basis.n:
            print(
                f"verify: --n {args.n} given, but {args.input} holds n={basis.n}",
                file=sys.stderr,
            )
            return 2
    else:
        if args.n is None or args.n < 1:
            print("verify: provide --n N or --input FILE", file=sys.stderr)
            return 2
        basis = build_basis(args.n, args.tol)
    print(f"verifying n={basis.n} (eta1={basis.eta.eta1}, eta2={basis.eta.eta2})")
    all_ok = True
    for name, ok, detail in _verify_checks(basis, args.tol):
        all_ok &= ok
        print(f"  {name:<28}{'PASS' if ok else 'FAIL'}  {detail}")
    print("result: " + ("all checks passed" if all_ok else "CLAIM VIOLATION"))
    return 0 if all_ok else 1


def cmd_analyze(args) -> int:
    v = read_vector(args.input)
    if v.size != args.n:
        print(
            f"analyze: vector has {v.size} entries, expected n={args.n}",
            file=sys.stderr,
        )
        return 2
    basis = build_basis(args.n, args.tol)
    coeff = to_coefficients(v, basis, args.tol)
    write_vector(args.out, coeff)
    e = _unit_exponent(v)  # measure at the scale the solve ran at
    v, coeff = _ldexp(v, -e), _ldexp(coeff, -e)
    norm = float(np.linalg.norm(v))
    residual = float(np.linalg.norm(synthesize(coeff, basis) - v))
    relative = residual / norm if norm > 0 else residual
    print(f"wrote {args.out}: {basis.n} coefficients, round-trip residual {relative:.3e}")
    return 0 if relative <= args.tol else 1


def cmd_survey(args) -> int:
    if args.max_n < 2:
        print("survey: --max-n must be at least 2", file=sys.stderr)
        return 2
    rows = []
    orthogonal = []
    for basis, report in _survey(args.max_n, args.tol):
        rows.append((basis.n, basis.eta, audit_sparsity(basis), report))
        if report.is_orthogonal:
            orthogonal.append(basis.n)
        if not report.is_orthogonal and report.witness is None:
            print(f"survey: n={basis.n} non-orthogonal without witness", file=sys.stderr)
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
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run every certified check on a basis")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--input", default=None, help="verify an exported basis file")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="expand a vector in the basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True, help="vector file (index,re,im lines)")
    p.add_argument("--out", required=True, help="coefficient output path")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("survey", help="orthogonality classification over 2..max-n")
    p.add_argument("--max-n", type=int, required=True)
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
