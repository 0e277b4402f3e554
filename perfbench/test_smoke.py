"""Smoke tests of the benchmark at test scale (``--smoke``).

Run from the root of the repository::

    python -m pytest perfbench/test_smoke.py -q

Every workload runs one round on ``TEST_SHAPES`` fields in both modes and
must print every metric ``BENCHMARK.json`` declares, with its unit, on a
clean run (no failed round trip, repeatable payloads); the traced
``large-fields`` run includes the Spark block pipeline. A second seed runs
clean too, and a directory holding only the benchmark exits non-zero
without a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload: str, trace: int) -> None:
    out = run(ROOT, workload, 1, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
    assert printed == declared
    assert report["seed"] == 1 and report["why"] and report["machine"]["nproc"] >= 1
    assert report["fingerprints"] and not report["fingerprint_mismatches"]
    if trace:
        # the layers account for HPEZ's traced compress and decompress time
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["hpez.trace.compress_covered_pct"] >= 90
        assert metrics["hpez.trace.decompress_covered_pct"] >= 90
        # the Spark block pipeline runs in the traced large-fields run only
        assert (metrics["sparkio.blocks"] > 0) == (workload == "large-fields")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs_clean(workload: str) -> None:
    out = run(ROOT, workload, 2, 0)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, WORKLOADS[0], 1, 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
