"""dfteig benchmark: one closed-loop client driving the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each run sets its workload up several times (each set-up but the last in a
fresh child process, so import-time and cache-filling work is paid every
time), then runs whole rounds over the workload's dimensions, one operation
at a time, until the operations add up to --seconds.  Times are scaled by a
calibration loop run before each operation, which cancels the shared host's
changing load (see Calibrator).  Every output is checked outside the timed
region.  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics from
spans around the benchmark's own calls, which are also written to
.perfbench/trace-<workload>-seed<seed>.json.  `--workload all` runs every
workload in its own process and prints all of their metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("certify", "roundtrip", "analyze_large")
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
# Calibrator kind per workload: the one whose work resembles the workload's.
CALIBRATION = {"certify": "interpreter", "roundtrip": "interpreter", "analyze_large": "transform"}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed child)."""


def _import_package():
    """Import dfteig from this checkout's src/, never from an installed copy."""
    if not (SRC / "dfteig" / "__init__.py").is_file():
        raise BenchError(f"no dfteig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dfteig
    import workloads

    if Path(dfteig.__file__).resolve().parent != SRC / "dfteig":
        raise BenchError(f"imported dfteig from {dfteig.__file__}, not {SRC}")
    return workloads


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values):
    """(value, percentile, samples beyond) at the highest percentile with 10 beyond.

    That is the 11th-largest sample; with 10 or fewer samples it is the
    largest, and fewer than 10 lie beyond it.
    """
    m = len(sorted_values)
    rank = m - 10 if m > 10 else m
    return sorted_values[rank - 1], 100.0 * rank / m, m - rank


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _git_commit(),
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Calibrator:
    """Times a fixed numpy loop that never touches dfteig: a reading of host speed.

    The shared host changes how fast everything here runs, by up to about
    2x for seconds at a time.  A loop doing the same kind of work as the
    workload slows down with it, so scaling op times by
    REFERENCE_S[kind] / reading cancels most of the host's load.
    "interpreter" is many numpy calls on tiny arrays, like the label
    algebra, the CLI and the solve loops; "transform" is an FFT and a random
    gather over 1 MiB, like analyze at large n.
    """

    # Readings at the reference speed: about their medians on a shared
    # 2-CPU x86-64 virtual machine with numpy 2.4 and one BLAS thread.
    REFERENCE_S = {"interpreter": 0.003, "transform": 0.006}

    def __init__(self, kind: str):
        import numpy as np

        self._np = np
        self.kind = kind
        self.reference_s = self.REFERENCE_S[kind]
        if kind == "interpreter":
            self._small = np.arange(64.0)
        else:
            rng = np.random.default_rng(0)
            self._big = rng.standard_normal(1 << 16) + 0j
            self._perm = rng.permutation(1 << 16)

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        if self.kind == "interpreter":
            for i in range(300):
                np.exp(1j * self._small * i).real.sum()
        else:
            for _ in range(3):
                np.fft.fft(self._big)
                self._big[self._perm].sum()
        return time.perf_counter() - start

    def median(self) -> float:
        return statistics.median(self() for _ in range(5))


def _cold_setup(args, workdir, tracer):
    """Import dfteig and set the workload up: (workloads, wl, raw s, scaled s).

    numpy is already loaded (by the calibrator); the clock starts at
    `import dfteig`.
    """
    calibrator = Calibrator(CALIBRATION[args.workload])
    before = calibrator.median()
    start = time.perf_counter()
    workloads = _import_package()
    wl = _make_workload(workloads, args, workdir)
    wl.setup(tracer)
    raw = time.perf_counter() - start
    speed = calibrator.reference_s / ((before + calibrator.median()) / 2)
    return workloads, wl, raw, raw * speed


def _child_setup(args) -> tuple[float, float]:
    """(raw s, scaled s) of one cold set-up in a fresh interpreter."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["raw_s"], out["setup_s"]


def _make_workload(workloads, args, workdir):
    sizes = (workloads.SMOKE_SIZES if args.smoke else workloads.FULL_SIZES)[args.workload]
    return workloads.WORKLOADS[args.workload](sizes, args.seed, workdir)


def measure(wl, seconds: float, tracer, calibrator):
    """Closed loop over whole rounds until the scaled op time reaches seconds.

    A calibrator reading is taken just before each op and once after the
    last.  Each op is scaled by the median of the two readings before it
    and the two after it, so the scale follows the host's load through it.
    Counting scaled time makes the amount of work per run the same whatever
    that load.  Returns records (n, wall s, scaled s, status, detail), the
    number of rounds and the time spent in traced replays.
    """
    raw = []
    readings = []
    scaled_total = 0.0
    replay_total = 0.0
    rounds = 0
    op_id = 0
    while rounds == 0 or scaled_total < seconds:
        for n in wl.round_order():
            op_id += 1
            inputs = wl.prepare(n)
            readings.append(calibrator())
            with tracer.span("op", op_id, n) if tracer else nullcontext():
                start = time.perf_counter()
                try:
                    out, err = wl.op(n, inputs, tracer, op_id), None
                except Exception as exc:  # a raised op is a counted failure
                    out, err = None, exc
                elapsed = time.perf_counter() - start
            try:
                status, detail = wl.check(n, inputs, out, err)
            except Exception as exc:  # an output the check cannot read is wrong
                status, detail = "wrong", f"check raised {type(exc).__name__}: {exc}"
            raw.append((n, elapsed, status, detail))
            scaled_total += elapsed * calibrator.reference_s / statistics.median(readings[-3:])
            if tracer is not None:
                start = time.perf_counter()
                try:
                    wl.replay(n, inputs, out, tracer, op_id)
                except Exception:  # the op's own record already counts any failure
                    tracer.count("replay_errors")
                replay_total += time.perf_counter() - start
        rounds += 1
    readings.append(calibrator())
    records = []
    for i, (n, elapsed, status, detail) in enumerate(raw):
        speed = calibrator.reference_s / statistics.median(readings[max(0, i - 1) : i + 3])
        records.append((n, elapsed, elapsed * speed, status, detail))
    return records, rounds, replay_total


def end_to_end(records, setup_samples) -> tuple[dict, dict]:
    """The six end-to-end metrics from scaled times, plus details that qualify them."""
    ok = sorted(scaled for _, _, scaled, status, _ in records if status == "ok")
    attempted = len(records)
    failed = attempted - len(ok)
    p50 = percentile(ok, 50) if ok else 0.0
    tail_s, tail_p, beyond = tail(ok) if ok else (0.0, 0.0, 0)
    wall_ok = sorted(wall for _, wall, _, status, _ in records if status == "ok")
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "ops_per_s": (len(ok) / sum(r[2] for r in records), "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    details = {
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "successful_samples": len(ok),
        "tail_percentile": round(tail_p, 2),
        "tail_samples_beyond": beyond,
        "wall": {
            "setup_s": statistics.median(raw for raw, _ in setup_samples),
            "ops_per_s": len(ok) / sum(r[1] for r in records),
            "op_p50_ms": 1e3 * percentile(wall_ok, 50) if ok else 0.0,
            "op_tail_ms": 1e3 * tail(wall_ok)[0] if ok else 0.0,
        },
        "speed": sum(r[2] for r in records) / sum(r[1] for r in records),
        "p50_ms_by_n": {
            n: 1e3 * statistics.median(r[2] for r in records if r[0] == n and r[3] == "ok")
            for n in sorted({r[0] for r in records if r[3] == "ok"})
        },
        "setup_samples_s": setup_samples,
    }
    return metrics, details


def run_workload(args) -> int:
    setup_samples = [_child_setup(args) for _ in range(SETUP_REPEATS - 1)]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as workdir:
        workloads, wl, raw, scaled = _cold_setup(args, workdir, tracer)
        setup_samples.append((raw, scaled))
        calibrator = Calibrator(CALIBRATION[args.workload])
        records, rounds, replay_total = measure(wl, args.seconds, tracer, calibrator)
        metrics, details = end_to_end(records, setup_samples)
        if tracer is not None:
            sizes = workloads.SMOKE_SIZES if args.smoke else workloads.FULL_SIZES
            layer_units = {
                name: unit for name, unit, _ in workloads.layer_metric_specs(sizes)
            }
            layers = dict.fromkeys(layer_units, 0.0)
            layers.update(wl.layer_metrics(tracer, rounds))
            layers["trace.op_p50_ms"] = metrics["op_p50_ms"][0]
            layers["trace.overhead_ratio"] = replay_total / sum(r[1] for r in records)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            details["trace_file"] = str(trace_path.relative_to(ROOT))
            details["replay_errors"] = tracer.counts.get("replay_errors", 0)

    failures = {}
    for n, _, _, status, detail in records:
        if status != "ok":
            failures.setdefault(f"n={n}", f"{status}: {detail}"[:300])
    wrong = sum(1 for r in records if r[3] == "wrong")
    details.update(rounds=rounds, failing=failures, wrong=wrong)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}  rounds {rounds}")
    env = environment(args.seed)
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':<14} {details['fail_ratio']:14.6g} ratio"
          f"  ({details['failed']} of {details['attempted']} ops)")
    print(f"  wall-clock, unscaled: {json.dumps(details['wall'])}; "
          f"the host ran at {details['speed']:.3f}x the reference speed")
    print(f"  op_tail_ms is p{details['tail_percentile']} of "
          f"{details['successful_samples']} successful ops, "
          f"{details['tail_samples_beyond']} beyond it")
    for key, detail in failures.items():
        print(f"  failing {key}: {detail}")
    if tracer is not None:
        for name, value in layers.items():
            print(f"  layer {name:<34} {value:.6g}")

    if tracer is not None:
        emitted = {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()}
    else:
        emitted = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "details": details,
        "metrics": emitted,
    }
    print("result " + json.dumps(result))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; their metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = []
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} failed: {proc.stderr.strip()[-2000:]}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
        result_line = next(line for line in lines if line.startswith("result "))
        results.append(json.loads(result_line[len("result "):]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    print(json.dumps(combined))
    return 0


def setup_only(args) -> int:
    _, _, raw, scaled = _cold_setup(args, None, None)
    print(json.dumps({"raw_s": raw, "setup_s": scaled}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny n, for the benchmark's own tests")
    parser.add_argument("--out", help="with --workload all: write every result document here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Single-threaded BLAS: one client on a shared machine measures steadier,
    # and the environment block reports the thread count actually in force.
    # Set before numpy is first imported; child processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Write no bytecode into the checkout, so every run compiles alike.
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    try:
        if args.setup_only:
            return setup_only(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
