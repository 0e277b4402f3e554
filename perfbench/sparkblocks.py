"""The Spark block pipeline, measured per layer in the traced
``large-fields`` run.

The workload's tiled Miranda field becomes a table of 64^3 blocks on
``local[k]`` Spark and goes, for ``hpez`` and ``qoz`` at the whole-field
absolute bound ``e = 1e-3 * range``, through the public ``repro.sparkio``
pipeline: ``compress_df`` (timed as a persist + count action) →
``write_compressed`` → ``read_compressed`` + ``decompress_df`` (persist +
count) → ``reassemble`` → ``blockwise_error_stats`` →
``global_error_summary``. Each block is one attempted round trip; a block
over the bound, a summary max over the bound, a wrong reassembled array
or an exception counts as failed.

Every ``SAMPLE_STRIDE``-th block is also compressed serially in the
driver: its payload must match the Spark one byte for byte, and its time
estimates ``sparkio.kernel_serial_s``, the serial compress time of the
whole table, in proportion to the sampled bytes.

Spark's wall times vary between runs on a small shared machine far more
than the in-process codecs (10-40 % between five runs, against 5-10 %),
so they are reported per layer and do not gate.
"""
from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import codecs, sparkio
from repro.core import metrics
from repro.datasets import generate
from repro.sparkio.blocks import split_blocks

import blobinfo
from workloads import EPS, SETUP_REPEATS, SLACK, Ledger, spark_cores

BLOCK = (64, 64, 64)
SMOKE_BLOCK = (20, 20, 20)
SAMPLE_STRIDE = 3  # coprime with the 2 x 2 block grid across axes 1, 2
FIELD = "Miranda"
NAMES = ("hpez", "qoz")


def start_session(k: int, work: Path):
    """A ``local[k]`` session whose scratch files stay under ``work``."""
    for sub in ("local", "tmp", "warehouse"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    # Every JVM (the spark-submit launcher too) keeps its temporary and
    # perf-data files out of the system temp directory.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData"
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{k}]",
            "--driver-memory 2g",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(k))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )


def stop_session(spark) -> None:
    """Stop Spark and wait until its JVM (and with it the Python
    workers) has exited."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


STAGES = ("compress_df", "write_compressed", "decompress_df", "reassemble", "verify")


def pipeline(spark, df, arr, nblocks, c, e, work, ledger):
    """One codec through the whole Spark pipeline; returns the blobs in
    block order and the seconds per stage, or ``None`` if it raised."""
    ledger.attempted += nblocks
    path = str(work / f"wire-{c}.parquet")
    cached = []
    try:
        t0 = time.perf_counter()
        comp = sparkio.compress_df(df, c, e, mode="abs").persist()
        cached.append(comp)
        comp.count()
        t1 = time.perf_counter()
        sparkio.write_compressed(comp, path)
        t2 = time.perf_counter()
        deco = sparkio.decompress_df(sparkio.read_compressed(spark, path)).persist()
        cached.append(deco)
        deco.count()
        t3 = time.perf_counter()
        recon = sparkio.reassemble(deco, arr.shape)
        t4 = time.perf_counter()
        stats = sparkio.blockwise_error_stats(df, deco).persist()
        cached.append(stats)
        block_err = [r.max_abs_err for r in stats.select("max_abs_err").collect()]
        summary = sparkio.global_error_summary(stats).collect()[0]
        finite = bool(np.isfinite(recon).all())
        driver_ok = finite and metrics.max_abs_err(arr, recon) <= e * SLACK
        t5 = time.perf_counter()
        rows = comp.select("block_id", "blob").orderBy("block_id").collect()
    except Exception as exc:  # counted, the run goes on
        ledger.fail(f"spark {c}: {exc!r}", nblocks)
        return None
    finally:
        for d in cached:
            d.unpersist()
        shutil.rmtree(path, ignore_errors=True)
    bad = nblocks - sum(err <= e * SLACK for err in block_err)
    if bad:
        ledger.fail(f"spark {c}: {bad} blocks over the bound", bad)
    elif not (summary.max_abs_err <= e * SLACK and driver_ok):
        ledger.fail(f"spark {c}: summary max {summary.max_abs_err} or reassembly wrong")
    blobs = [bytes(r.blob) for r in rows]
    ledger.fingerprint(f"{c}/{FIELD}-blocks", blobinfo.fingerprint(blobs))
    return blobs, dict(zip(STAGES, np.diff([t0, t1, t2, t3, t4, t5]).tolist()))


def spark_layers(arr: np.ndarray, smoke: bool, work: Path, ledger: Ledger) -> dict[str, float]:
    """``sparkio.*`` metrics of ``arr`` through the block pipeline."""
    k = spark_cores()
    block = SMOKE_BLOCK if smoke else BLOCK
    e = EPS * metrics.value_range(arr)
    t0 = time.perf_counter()
    spark = start_session(k, work)
    m = {"sparkio.session_start_s": time.perf_counter() - t0}
    try:
        df, shred = None, []
        for _ in range(SETUP_REPEATS):
            if df is not None:
                df.unpersist(blocking=True)
            t0 = time.perf_counter()
            df = sparkio.to_blocks_df(spark, arr, block).persist()
            nblocks = df.count()
            shred.append(time.perf_counter() - t0)
        m["sparkio.to_blocks_df_s"] = statistics.median(shred)
        # Warm-up: start the Python workers and run every stage once, on
        # the small test-scale field.
        t0 = time.perf_counter()
        small = generate(FIELD, "test")
        wdf = sparkio.to_blocks_df(spark, small, SMOKE_BLOCK).persist()
        pipeline(spark, wdf, small, wdf.count(), "sz3", EPS * metrics.value_range(small),
                 work, Ledger())
        wdf.unpersist()
        m["sparkio.warmup_s"] = time.perf_counter() - t0
        runs = {c: pipeline(spark, df, arr, nblocks, c, e, work, ledger) for c in NAMES}
    finally:
        stop_session(spark)

    tables = {c: r[0] for c, r in runs.items() if r is not None}
    for s in STAGES:
        m[f"sparkio.{s}_s"] = sum(r[1][s] for r in runs.values() if r is not None)
    mb = arr.nbytes / 1e6
    for c in NAMES:
        st = runs[c][1] if runs[c] is not None else None
        comp_bytes = sum(map(len, tables.get(c, [])))
        m[f"sparkio.{c}.compress_mbps"] = mb / st["compress_df"] if st else 0.0
        m[f"sparkio.{c}.decompress_mbps"] = (
            mb / (st["decompress_df"] + st["reassemble"]) if st else 0.0
        )
        m[f"sparkio.{c}.cr"] = arr.nbytes / comp_bytes if comp_bytes else 0.0
    m["sparkio.roundtrip_s"] = sum(m[f"sparkio.{s}_s"] for s in STAGES)
    m["sparkio.blocks"] = float(nblocks)
    m["sparkio.comp_bytes"] = float(sum(sum(map(len, t)) for t in tables.values()))
    m["sparkio.k"] = float(k)

    sample = split_blocks(arr, block)[::SAMPLE_STRIDE]
    serial_s = 0.0
    for c in NAMES:
        for bid, _, vals in sample:
            t0 = time.perf_counter()
            blob = codecs.compress(c, vals, e, mode="abs")
            serial_s += time.perf_counter() - t0
            if c in tables and blob != tables[c][bid]:
                ledger.mismatches.append(f"{c}/{FIELD}-block{bid}: Spark vs serial")
    share = sum(vals.nbytes for _, _, vals in sample) / arr.nbytes
    m["sparkio.kernel_serial_s"] = serial_s / share
    m["sparkio.parallel_efficiency"] = m["sparkio.kernel_serial_s"] / max(
        m["sparkio.compress_df_s"] * k, 1e-9
    )
    return m
