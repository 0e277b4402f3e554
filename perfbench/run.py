"""Benchmark of the repro codecs and of the Spark block pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload large-fields --seed 1 --seconds 10 --trace 0

Workloads (each is described in ``BENCHMARK.json``):

* ``large-fields`` — Miranda and JHTDB bench fields stacked to >= 24 MB,
  through ``sz3``, ``qoz`` and ``hpez``; its traced run also takes the
  Miranda field through the Spark block pipeline (``sparkblocks.py``);
* ``small-fields`` — the six floating-point bench fields, untiled,
  through all seven codecs.

Inputs come from ``repro.datasets.generate(..., seed_offset=seed)``. A
run measures whole rounds until ``--seconds`` have passed. With
``--trace 0`` the last line of standard output carries the end-to-end
metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer metrics
of a traced round; the lines before it print each metric with its unit.
The line before the last is a JSON report
with the seed, the reason for the workload, the machine, the failures
and a sha256 per (codec, field) payload. ``--smoke`` runs one round at
test scale (``TEST_SHAPES``) in seconds. The run exits non-zero, without
a result, if ``src/repro`` is missing or a declared metric is not
produced.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one round at test scale")
    return p.parse_args(argv)


def _version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def machine_facts(spark_master: str) -> dict:
    def first(path: str, key: str) -> str:
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "pyspark": _version("pyspark"),
        "pyarrow": _version("pyarrow"),
        "spark_master": spark_master,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
    }


def prepare_environment(work: Path) -> None:
    """Make ``repro`` importable here and in Spark's Python workers, pin
    BLAS to one thread (one caller, per-core speeds as in the paper) and
    keep temporary files inside the checkout."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    for v in BLAS_THREAD_VARS:
        os.environ.setdefault(v, "1")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: run from a checkout holding src/repro and {spec_path.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = WORK / str(os.getpid())
    prepare_environment(work)
    try:
        import workloads

        out = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(declared) - set(out.metrics))
    extra = sorted(set(out.metrics) - set(declared))
    bad = sorted(k for k, v in out.metrics.items() if not math.isfinite(v))
    if missing or extra or bad:
        print(f"perfbench: missing {missing}, undeclared {extra}, non-finite {bad}",
              file=sys.stderr)
        return 3

    ledger = out.ledger
    for name, unit in declared.items():
        print(f"{name:42s} {out.metrics[name]:14.6g} {unit}")
    report = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_facts(f"local[{workloads.spark_cores()}]"),
        "inputs": out.info,
        "rounds": len(ledger.round_s),
        "round_s": ledger.round_s,
        "error_rate": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.failures,
        "fingerprints": ledger.fingerprints,
        "fingerprint_mismatches": ledger.mismatches,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": ledger.failed == 0 and not ledger.mismatches,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": out.metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
