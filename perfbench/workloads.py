"""The benchmark's three workloads, each driving dfteig's public API.

Every workload has the same shape: `setup` makes the state its operations
need, `round_order` gives the dimensions of one round, `prepare` draws one
operation's input outside the timed region, `op`
is the timed call, `check` judges the output outside the timed region, and
`replay` (traced runs only) repeats the operation's layers one call at a
time under spans.  `layer_metrics` turns those spans into the per-layer
numbers of BENCHMARK.json.

  certify        `dfteig build` then `dfteig verify` through cli.main for
                 every n in 2..128: label algebra, basis selection, the
                 quadratic oracle, the rank check and file I/O.
  roundtrip      to_coefficients then synthesize on prebuilt bases for a
                 square, a power of two, a coprime composite and a prime:
                 the orthogonal path, the Gram solve and the prime-n solve
                 failure.
  analyze_large  analyze alone at 2**16, 192*256 and a prime: the
                 O(n log n) strided transform, no basis at all.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time

import numpy as np

import dfteig
from dfteig import cli

FULL_SIZES = {
    "certify": tuple(range(2, 129)),
    "roundtrip": (576, 512, 240, 61),
    "analyze_large": (65536, 49152, 4099),
}
SMOKE_SIZES = {
    "certify": tuple(range(2, 13)),
    "roundtrip": (16, 32, 12, 7),
    "analyze_large": (256, 192, 17),
}

# Relative error allowed in every numeric check; equals dfteig's default
# residual tolerance, so a result the program accepts must also pass here.
RESIDUAL_TOL = 1e-9
# Tensor entries checked against the direct inner product per analyze op.
SAMPLES_PER_OP = 3

MIB = float(1 << 20)


def complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def maybe_span(tracer, name: str, op: int, n: int):
    return tracer.span(name, op, n) if tracer is not None else contextlib.nullcontext()


def held_mib(obj, _seen=None) -> float:
    """MiB of numpy arrays reachable from obj through attributes and containers."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen:
        return 0.0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes / MIB
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return 0.0
    return sum(held_mib(child, seen) for child in children)


class Certify:
    """Each op: `dfteig build --n N --out F` then `dfteig verify --input F`."""

    name = "certify"

    def __init__(self, sizes, seed: int, workdir):
        self.sizes = sizes
        self.workdir = workdir
        self.order_rng = np.random.default_rng([seed, 3])
        self.largest_basis_mib = 0.0

    def setup(self, tracer) -> None:
        """Nothing beyond importing the package: the CLI builds everything per op."""

    def round_order(self):
        """Every n once, in a seeded order.

        Op cost grows steeply with n, so in ascending order the ops near the
        median cost would all run in one short stretch of the pass and the
        median would sample a single moment of the machine's load.
        """
        return [self.sizes[i] for i in self.order_rng.permutation(len(self.sizes))]

    def prepare(self, n: int):
        return os.path.join(self.workdir, "basis.json")

    def op(self, n: int, path, tracer, op_id: int):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            built = cli.main(["build", "--n", str(n), "--out", path])
            verified = cli.main(["verify", "--input", path]) if built == 0 else None
        return built, verified, sink.getvalue()

    def check(self, n: int, path, out, err):
        if err is not None:
            return "refused", f"{type(err).__name__}: {err}"
        built, verified, text = out
        if built != 0:
            return "refused", f"build exit {built}"
        failing = [line.split()[0] for line in text.splitlines() if " FAIL " in line]
        if verified != 0:
            return "refused", f"verify exit {verified} ({', '.join(failing)})"
        if failing or "all checks passed" not in text:
            return "wrong", "verify exit 0 without a full pass"
        return "ok", ""

    def replay(self, n: int, path, out, tracer, op_id: int) -> None:
        """The layers the build and verify commands call, one span each."""
        with tracer.span("projection.candidates", op_id, n):
            candidates = list(dfteig.enumerate_candidates(n))
        tracer.count("projection.candidates", len(candidates))
        with tracer.span("basis.build", op_id, n):
            basis = dfteig.build_basis(n)
        tracer.count("basis.zero_candidates", basis.zero_candidates)
        with tracer.span("fileio.export", op_id, n):
            dfteig.export_basis(basis, path)
        tracer.count("fileio.bytes", os.path.getsize(path))
        with tracer.span("fileio.import", op_id, n):
            loaded = dfteig.import_basis(path)
        with tracer.span("numerics.oracle", op_id, n):
            for rec in loaded.vectors:
                dfteig.verify_eigenvector(rec.dense, rec.k)
                dfteig.check_uncertainty(rec.dense)
        tracer.count("numerics.oracle_calls", 2 * len(loaded.vectors))
        with tracer.span("numerics.rank", op_id, n):
            state = dfteig.EliminationState(n)
            accepted = sum(
                dfteig.try_extend_rank(state, rec.dense)[0] for rec in loaded.vectors
            )
        tracer.count("numerics.rank_attempts", len(loaded.vectors))
        tracer.count("numerics.rank_accepts", accepted)
        with tracer.span("basis.audit", op_id, n):
            try:
                dfteig.audit_sparsity(loaded)
            except dfteig.VerificationError:
                pass  # the op itself already judged the claim
        with tracer.span("basis.gram", op_id, n):
            loaded.gram_matrix()
            dfteig.gram_report(loaded)
        self.largest_basis_mib = max(self.largest_basis_mib, held_mib(loaded))

    # layers inside the op; everything else in it is cli.other_s
    OP_LAYERS = (
        "basis.build",
        "fileio.export",
        "fileio.import",
        "numerics.oracle",
        "numerics.rank",
        "basis.audit",
        "basis.gram",
    )

    def layer_metrics(self, tracer, passes: int) -> dict:
        per_pass = {
            name: tracer.total(name) / passes
            for name in ("projection.candidates",) + self.OP_LAYERS
        }
        counts = {name: value / passes for name, value in tracer.counts.items()}
        attempts = counts.get("numerics.rank_attempts", 0)
        return {
            "projection.candidates_s": per_pass["projection.candidates"],
            "projection.candidates": counts.get("projection.candidates", 0),
            "basis.build_s": per_pass["basis.build"],
            "basis.zero_candidates": counts.get("basis.zero_candidates", 0),
            "basis.gram_s": per_pass["basis.gram"],
            "basis.audit_s": per_pass["basis.audit"],
            "basis.dense_mb": self.largest_basis_mib,
            "fileio.export_s": per_pass["fileio.export"],
            "fileio.import_s": per_pass["fileio.import"],
            "fileio.bytes": counts.get("fileio.bytes", 0),
            "numerics.oracle_s": per_pass["numerics.oracle"],
            "numerics.oracle_calls": counts.get("numerics.oracle_calls", 0),
            "numerics.rank_s": per_pass["numerics.rank"],
            "numerics.rank_accept_ratio": (
                counts.get("numerics.rank_accepts", 0) / attempts if attempts else 0.0
            ),
            "cli.other_s": tracer.total("op") / passes
            - sum(per_pass[name] for name in self.OP_LAYERS),
        }


class Roundtrip:
    """Each op: to_coefficients(v) then synthesize(coeff) on a prebuilt basis."""

    name = "roundtrip"

    def __init__(self, sizes, seed: int, workdir):
        self.sizes = sizes
        self.seed = seed
        self.rng = np.random.default_rng([seed, 0])
        self.bases = {}
        self.first_solve_s = {}

    def setup(self, tracer) -> None:
        """Build every basis and make the first (cold) solve for each n."""
        warm = np.random.default_rng([self.seed, 1])
        for n in self.sizes:
            with maybe_span(tracer, "basis.build", 0, n):
                self.bases[n] = dfteig.build_basis(n)
            v = complex_gaussian(warm, n)
            start = time.perf_counter()
            try:
                dfteig.to_coefficients(v, self.bases[n])
            except RuntimeError:
                pass  # prime n >= 41 fails to converge; the ops count it
            self.first_solve_s[n] = time.perf_counter() - start

    def round_order(self):
        return self.sizes

    def prepare(self, n: int):
        return complex_gaussian(self.rng, n)

    def op(self, n: int, v, tracer, op_id: int):
        basis = self.bases[n]
        with maybe_span(tracer, "fast.to_coefficients", op_id, n):
            coeff = dfteig.to_coefficients(v, basis)
        with maybe_span(tracer, "fast.synthesize", op_id, n):
            back = dfteig.synthesize(coeff, basis)
        return coeff, back

    def check(self, n: int, v, out, err):
        if err is not None:
            return "refused", f"{type(err).__name__}: {err}"
        coeff, back = out
        limit = RESIDUAL_TOL * float(np.linalg.norm(v))
        residual = float(np.linalg.norm(back - v))
        if not residual <= limit:
            return "wrong", f"synthesize residual {residual:.3e} > {limit:.3e}"
        dense = self.bases[n].dense_matrix()
        residual = float(np.linalg.norm(dense.T @ coeff - v))
        if not residual <= limit:
            return "wrong", f"dense reconstruction residual {residual:.3e} > {limit:.3e}"
        return "ok", ""

    def replay(self, n: int, v, out, tracer, op_id: int) -> None:
        with tracer.span("fast.analyze", op_id, n):
            dfteig.analyze(v)

    def layer_metrics(self, tracer, passes: int) -> dict:
        metrics = {
            "basis.build_s": tracer.total("basis.build"),
            "basis.zero_candidates": sum(b.zero_candidates for b in self.bases.values()),
            "basis.dense_mb": held_mib(list(self.bases.values())),
            "fast.solve_setup_s": sum(
                self.first_solve_s[n] - tracer.median("fast.to_coefficients", n)
                for n in self.sizes
            ),
        }
        for n in self.sizes:
            solves = [s for s in tracer.spans if s["name"] == "fast.to_coefficients" and s["n"] == n]
            failed = sum(1 for s in solves if s.get("failed"))
            metrics[f"fast.to_coefficients_s.n{n}"] = tracer.median("fast.to_coefficients", n)
            metrics[f"fast.synthesize_s.n{n}"] = tracer.median("fast.synthesize", n)
            metrics[f"fast.solve_fail_ratio.n{n}"] = failed / len(solves) if solves else 0.0
            metrics[f"fast.analyze_s.n{n}"] = tracer.median("fast.analyze", n)
        return metrics


class AnalyzeLarge:
    """Each op: analyze(v), the correlations against all 4n projected trains."""

    name = "analyze_large"

    def __init__(self, sizes, seed: int, workdir):
        self.sizes = sizes
        self.seed = seed
        self.rng = np.random.default_rng([seed, 0])
        self.sample_rng = np.random.default_rng([seed, 2])
        self.first_call_s = {}

    def setup(self, tracer) -> None:
        """The first analyze call per n fills the projection recipe caches."""
        warm = np.random.default_rng([self.seed, 1])
        for n in self.sizes:
            v = complex_gaussian(warm, n)
            start = time.perf_counter()
            dfteig.analyze(v)
            self.first_call_s[n] = time.perf_counter() - start

    def round_order(self):
        return self.sizes

    def prepare(self, n: int):
        return complex_gaussian(self.rng, n)

    def op(self, n: int, v, tracer, op_id: int):
        return dfteig.analyze(v)

    def check(self, n: int, v, out, err):
        if err is not None:
            return "refused", f"{type(err).__name__}: {err}"
        eta = dfteig.eta_pair(n)
        values = out.values
        if values.shape != (4, eta.eta1, eta.eta2) or not np.all(np.isfinite(values)):
            return "wrong", f"tensor shape {values.shape} or non-finite entries"
        limit = RESIDUAL_TOL * float(np.linalg.norm(v))
        for _ in range(SAMPLES_PER_OP):
            k = int(self.sample_rng.integers(4))
            a = int(self.sample_rng.integers(eta.eta1))
            b = int(self.sample_rng.integers(eta.eta2))
            train = dfteig.ModulatedDeltaTrain(n=n, d1=eta.eta1, a=a, b=b)
            direct = np.vdot(dfteig.densify_sum(dfteig.project(k, train)), v)
            error = abs(values[k, a, b] - direct)
            if not error <= limit:
                return "wrong", f"entry ({k}, {a}, {b}) off by {error:.3e}"
        return "ok", ""

    def replay(self, n: int, v, out, tracer, op_id: int) -> None:
        eta = dfteig.eta_pair(n)
        with tracer.span("fast.correlations", op_id, n):
            for stride in sorted({eta.eta1, eta.eta2}):
                dfteig.train_correlations(v, stride)
        with tracer.span("fast.npfft", op_id, n):
            np.fft.fft(v, norm="ortho")

    def layer_metrics(self, tracer, passes: int) -> dict:
        metrics = {}
        for n in self.sizes:
            eta = dfteig.eta_pair(n)
            op_s = tracer.median("op", n)
            corr_s = tracer.median("fast.correlations", n)
            flops = len({eta.eta1, eta.eta2}) * 5 * n * math.log2(n)
            metrics[f"fast.recipe_cold_s.n{n}"] = self.first_call_s[n] - op_s
            metrics[f"fast.correlations_s.n{n}"] = corr_s
            metrics[f"fast.combine_s.n{n}"] = op_s - corr_s
            metrics[f"fast.correlations_gflops.n{n}"] = flops / corr_s / 1e9 if corr_s else 0.0
            npfft_s = tracer.median("fast.npfft", n)
            metrics[f"fast.npfft_ratio.n{n}"] = corr_s / npfft_s if npfft_s else 0.0
        return metrics


WORKLOADS = {cls.name: cls for cls in (Certify, Roundtrip, AnalyzeLarge)}


LAYER_STEMS = (
    ("projection.candidates_s", "s", "lower"),
    ("projection.candidates", "count", "lower"),
    ("basis.build_s", "s", "lower"),
    ("basis.zero_candidates", "count", "lower"),
    ("basis.gram_s", "s", "lower"),
    ("basis.audit_s", "s", "lower"),
    ("basis.dense_mb", "MiB", "lower"),
    ("fileio.export_s", "s", "lower"),
    ("fileio.import_s", "s", "lower"),
    ("fileio.bytes", "bytes", "lower"),
    ("numerics.oracle_s", "s", "lower"),
    ("numerics.oracle_calls", "count", "lower"),
    ("numerics.rank_s", "s", "lower"),
    ("numerics.rank_accept_ratio", "ratio", "higher"),
    ("cli.other_s", "s", "lower"),
    ("fast.solve_setup_s", "s", "lower"),
)
ROUNDTRIP_STEMS = (
    ("fast.to_coefficients_s", "s", "lower"),
    ("fast.synthesize_s", "s", "lower"),
    ("fast.solve_fail_ratio", "ratio", "lower"),
    ("fast.analyze_s", "s", "lower"),
)
ANALYZE_STEMS = (
    ("fast.recipe_cold_s", "s", "lower"),
    ("fast.correlations_s", "s", "lower"),
    ("fast.combine_s", "s", "lower"),
    ("fast.correlations_gflops", "GFLOP/s", "higher"),
    ("fast.npfft_ratio", "ratio", "lower"),
)
TRACE_STEMS = (
    ("trace.op_p50_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metric_specs(sizes: dict) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    specs = list(LAYER_STEMS)
    for n in sizes["roundtrip"]:
        specs += [(f"{stem}.n{n}", unit, better) for stem, unit, better in ROUNDTRIP_STEMS]
    for n in sizes["analyze_large"]:
        specs += [(f"{stem}.n{n}", unit, better) for stem, unit, better in ANALYZE_STEMS]
    return specs + list(TRACE_STEMS)
