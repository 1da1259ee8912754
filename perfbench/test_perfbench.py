"""The benchmark's own tests, on the smoke sizes.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run._import_package()
import dfteig  # noqa: E402
from dfteig import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int, root=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_declared_layer_metrics_match_the_full_sizes():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == workloads.layer_metric_specs(workloads.FULL_SIZES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_named_metric(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    if trace:
        expected = {
            (name, unit)
            for name, unit, _ in workloads.layer_metric_specs(workloads.SMOKE_SIZES)
        }
    else:
        expected = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert {(k, v["unit"]) for k, v in last["metrics"].items()} == expected
    for value in last["metrics"].values():
        assert isinstance(value["value"], (int, float))
        assert np.isfinite(value["value"])


def _run_smoke_in_process(name: str, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.SMOKE_SIZES[name], 5, str(tmp_path))
    wl.setup(None)
    records, rounds, _ = run.measure(wl, 0.0, None, run.Calibrator(run.CALIBRATION[name]))
    assert rounds == 1
    return records


def test_perturbed_coefficient_is_a_wrong_result(tmp_path, monkeypatch):
    real = dfteig.to_coefficients

    def perturbed(v, basis, *args):
        coeff = real(v, basis, *args).copy()
        coeff[0] += 1e-6 * np.linalg.norm(coeff)
        return coeff

    monkeypatch.setattr(dfteig, "to_coefficients", perturbed)
    records = _run_smoke_in_process("roundtrip", tmp_path)
    assert [r[3] for r in records] == ["wrong"] * len(records)


def test_raised_solve_is_a_refusal_and_the_run_continues(tmp_path, monkeypatch):
    def refuse(v, basis, *args):
        raise RuntimeError("solve refused")

    monkeypatch.setattr(dfteig, "to_coefficients", refuse)
    records = _run_smoke_in_process("roundtrip", tmp_path)
    assert [r[3] for r in records] == ["refused"] * len(records)
    assert "solve refused" in records[0][4]


def test_perturbed_tensor_entry_is_a_wrong_result(tmp_path, monkeypatch):
    real = dfteig.analyze

    def perturbed(v):
        tensor = real(v)
        tensor.values = tensor.values + 1e-6 * np.linalg.norm(v)
        return tensor

    monkeypatch.setattr(dfteig, "analyze", perturbed)
    records = _run_smoke_in_process("analyze_large", tmp_path)
    assert [r[3] for r in records] == ["wrong"] * len(records)


def test_corrupted_basis_file_fails_verify(tmp_path, monkeypatch):
    real = cli.export_basis

    def corrupting(basis, path, **kwargs):
        real(basis, path, **kwargs)
        payload = json.loads(Path(path).read_text())
        payload["vectors"][0]["entries"][0][1] += 1e-3
        Path(path).write_text(json.dumps(payload))

    monkeypatch.setattr(cli, "export_basis", corrupting)
    records = _run_smoke_in_process("certify", tmp_path)
    assert all(r[3] == "refused" for r in records)
    assert "verify exit 1" in records[0][4]


def test_tail_is_the_eleventh_largest_sample():
    values = sorted(float(x) for x in range(1, 101))
    assert run.tail(values) == (90.0, 90.0, 10)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)
    assert run.percentile(values, 50) == 50.0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _smoke("roundtrip", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
