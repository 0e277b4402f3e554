"""The workloads (``large-fields``, ``small-fields``) and their
bookkeeping.

One caller runs a closed loop of *rounds*. A round pushes every field of
the workload through every codec of the workload once: ``codecs.compress``
then ``codecs.decompress`` at eps = 1e-3 of the field's value range, then
the bound check ``max|x - x'| <= e * (1 + 1e-6)``. Rounds repeat until
the run's seconds are used (at least one round); end-to-end figures are
medians over rounds. A failed check or an exception counts as a failed
round trip and the run goes on.

A traced run (``--trace 1``) makes one untraced round, the reference for
the tracing overhead, then one round with :class:`layers.Tracer` active,
which gives the layers. The traced ``large-fields`` run then takes its
Miranda field through the Spark block pipeline (:mod:`sparkblocks`).
"""
from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import codecs
from repro.core import metrics
from repro.datasets import FP_DATASETS, generate

import blobinfo
import layers

EPS = 1e-3
SLACK = 1 + 1e-6  # float64 rounding allowance on the bound check
TILE_BYTES = 24_000_000  # same target as ``repro.tables.speed_data``
SETUP_REPEATS = 3
#: a gated decompress shorter than this is timed ``SHORT_REPEATS`` times
#: and its median kept: on the small fields one call takes ~0.1 s, short
#: enough for a single scheduling hiccup to move the figure by 15 %
SHORT_DECOMPRESS_S = 0.5
SHORT_REPEATS = 3
PREDICTION = ("sz3", "qoz", "hpez")
GATED = ("hpez", "qoz")  # the paper's speed yardstick: HPEZ against QoZ
RIVALS = ("zfp", "sperr", "tthresh", "faz")
MAX_SPARK_CORES = 4
#: per-layer metrics of the Spark path (zero where it does not run)
SPARK_LAYERS = (
    "sparkio.session_start_s",
    "sparkio.warmup_s",
    "sparkio.to_blocks_df_s",
    "sparkio.compress_df_s",
    "sparkio.write_compressed_s",
    "sparkio.decompress_df_s",
    "sparkio.reassemble_s",
    "sparkio.verify_s",
    "sparkio.roundtrip_s",
    "sparkio.hpez.compress_mbps",
    "sparkio.hpez.decompress_mbps",
    "sparkio.hpez.cr",
    "sparkio.qoz.compress_mbps",
    "sparkio.qoz.decompress_mbps",
    "sparkio.qoz.cr",
    "sparkio.blocks",
    "sparkio.comp_bytes",
    "sparkio.k",
    "sparkio.kernel_serial_s",
    "sparkio.parallel_efficiency",
)


def spark_cores() -> int:
    """``k`` of ``local[k]``: one core is left to the JVM and the driver."""
    return max(1, min(MAX_SPARK_CORES, len(os.sched_getaffinity(0)) - 1))


@dataclass
class Call:
    """One timed round trip."""

    round: int
    codec: str
    field: str
    raw_bytes: int
    comp_s: float
    decomp_s: float
    blob_bytes: int


@dataclass
class Ledger:
    """Round trips, failures and payload fingerprints of one run."""

    calls: list[Call] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)

    def fail(self, what: str, n: int = 1) -> None:
        """Count ``n`` failed round trips, described by ``what``."""
        self.failed += n
        self.failures.append(what)

    def fingerprint(self, key: str, sha: str) -> None:
        """Record a payload hash; a repeat with other bytes is flagged."""
        if self.fingerprints.setdefault(key, sha) != sha:
            self.mismatches.append(key)

    def mbps(self, codec: str, direction: str) -> float:
        """Median over rounds of raw MB / seconds for ``codec``."""
        per_round = [
            mbps([c for c in self.calls if c.round == r and c.codec == codec], direction)
            for r in range(len(self.round_s))
        ]
        return statistics.median(per_round) if per_round else 0.0

    def first_round(self) -> list[Call]:
        return [c for c in self.calls if c.round == 0]

    def cr(self, codec: str) -> float:
        cs = [c for c in self.first_round() if c.codec == codec]
        blob = sum(c.blob_bytes for c in cs)
        return sum(c.raw_bytes for c in cs) / blob if blob else 0.0

    def cr_geomean(self) -> float:
        crs = [c.raw_bytes / c.blob_bytes for c in self.first_round()]
        return math.exp(sum(map(math.log, crs)) / len(crs)) if crs else 0.0

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        m = {"setup_s": setup_s}
        for c in GATED:
            m[f"{c}.compress_mbps"] = self.mbps(c, "compress")
            m[f"{c}.decompress_mbps"] = self.mbps(c, "decompress")
        m["hpez.cr"] = self.cr("hpez")
        m["cr_geomean"] = self.cr_geomean()
        m["roundtrip_s"] = statistics.median(self.round_s)
        m["ok_rate"] = 1.0 - self.failed / max(self.attempted, 1)
        m["peak_rss_mb"] = peak_rss_mb()
        return m


def mbps(calls: list[Call], direction: str) -> float:
    """Raw MB / seconds summed over ``calls`` (0 if there are none)."""
    secs = sum(c.comp_s if direction == "compress" else c.decomp_s for c in calls)
    return sum(c.raw_bytes for c in calls) / 1e6 / secs if secs else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bound_ok(data: np.ndarray, recon: np.ndarray, e: float) -> bool:
    if recon.shape != data.shape or not np.isfinite(recon).all():
        return False
    return metrics.max_abs_err(data, recon) <= e * SLACK


def tiled_field(name: str, seed: int) -> np.ndarray:
    """The bench field stacked along axis 0 to at least ``TILE_BYTES``, as
    in ``repro.tables.speed_data``, but from independently seeded tiles
    (tile ``i`` has ``seed_offset = 1000 * seed + i``): every block and
    sample the codecs see is a fresh realization, so figures average over
    several fields instead of repeating one."""
    first = generate(name, "bench", seed_offset=1000 * seed)
    reps = max(1, math.ceil(TILE_BYTES / first.nbytes))
    tiles = [first] + [
        generate(name, "bench", seed_offset=1000 * seed + i) for i in range(1, reps)
    ]
    return np.concatenate(tiles, axis=0)


def make_fields(names: tuple[str, ...], seed: int, tile: bool, smoke: bool) -> dict:
    if smoke:
        return {n: generate(n, "test", seed_offset=seed) for n in names}
    if tile:
        return {n: tiled_field(n, seed) for n in names}
    return {n: generate(n, "bench", seed_offset=seed) for n in names}


def timed_setup(make) -> tuple[object, float]:
    """Run the input set-up ``SETUP_REPEATS`` times; keep the last result
    and report the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def warm_up(names: tuple[str, ...]) -> float:
    """One small round trip per codec, so first-call costs stay out of
    the measured rounds."""
    t0 = time.perf_counter()
    data = generate("Miranda", "test")
    for c in names:
        codecs.decompress(codecs.compress(c, data, EPS))
    return time.perf_counter() - t0


def codec_round(
    fields: dict[str, np.ndarray],
    names: tuple[str, ...],
    ledger: Ledger,
    tracer: layers.Tracer | None = None,
) -> list[tuple[str, str, bytes]]:
    """One round over ``fields`` x ``names``; returns the blobs."""
    r = len(ledger.round_s)
    blobs = []
    repeats_s = 0.0  # kept out of the round's wall time
    t_round = time.perf_counter()
    for fname, data in fields.items():
        e = EPS * metrics.value_range(data)
        for c in names:
            if tracer is not None:
                tracer.codec = c
            ledger.attempted += 1
            try:
                t0 = time.perf_counter()
                blob = codecs.compress(c, data, EPS)
                t1 = time.perf_counter()
                recon = codecs.decompress(blob)
                t2 = time.perf_counter()
                ok = bound_ok(data, recon, e)
                decomp_s = t2 - t1
                if tracer is None and c in GATED and decomp_s < SHORT_DECOMPRESS_S:
                    t3 = time.perf_counter()
                    samples = [decomp_s]
                    for _ in range(SHORT_REPEATS - 1):
                        t4 = time.perf_counter()
                        codecs.decompress(blob)
                        samples.append(time.perf_counter() - t4)
                    decomp_s = statistics.median(samples)
                    repeats_s += time.perf_counter() - t3
            except Exception as exc:  # counted, the run goes on
                ledger.fail(f"{c}/{fname}: {exc!r}")
                continue
            if not ok:
                ledger.fail(f"{c}/{fname}: bound violated")
                continue
            ledger.calls.append(
                Call(r, c, fname, data.nbytes, t1 - t0, decomp_s, len(blob))
            )
            blobs.append((c, fname, blob))
    ledger.round_s.append(time.perf_counter() - t_round - repeats_s)
    for c, fname, blob in blobs:
        ledger.fingerprint(f"{c}/{fname}", blobinfo.fingerprint([blob]))
    return blobs


def blob_metrics(blobs: list[tuple[str, str, bytes]]) -> dict[str, float]:
    """``<c>.bytes.*`` and ``<c>.decision.*`` summed over a round's blobs."""
    m: dict[str, float] = {}
    for c in PREDICTION:
        for s in blobinfo.SECTIONS:
            m[f"{c}.bytes.{s}"] = 0.0
        for d in blobinfo.DECISIONS:
            m[f"{c}.decision.{d}"] = 0.0
    for c, _, blob in blobs:
        if c not in PREDICTION:
            continue
        for s, n in blobinfo.section_bytes(blob).items():
            m[f"{c}.bytes.{s}"] += n
        for d, n in blobinfo.decisions(blob).items():
            m[f"{c}.decision.{d}"] += n
    return m


def ungated_metrics(ledger: Ledger) -> dict[str, float]:
    """Speeds of the codecs outside :data:`GATED` in the first round:
    ``sz3`` MB/s and call-site seconds of the rivals."""
    first = ledger.first_round()
    sz3 = [c for c in first if c.codec == "sz3"]
    rivals = [c for c in first if c.codec in RIVALS]
    m = {
        "sz3.compress_mbps": mbps(sz3, "compress"),
        "sz3.decompress_mbps": mbps(sz3, "decompress"),
        "rivals.compress_mbps": mbps(rivals, "compress"),
        "rivals.decompress_mbps": mbps(rivals, "decompress"),
    }
    for r in RIVALS:
        m[f"{r}.compress_s"] = sum(c.comp_s for c in rivals if c.codec == r)
        m[f"{r}.decompress_s"] = sum(c.decomp_s for c in rivals if c.codec == r)
    return m


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    metrics: dict[str, float]
    ledger: Ledger
    info: dict


WORKLOADS = {
    # name: (fields, codecs, tiled, Spark leg in the traced run)
    "large-fields": (("Miranda", "JHTDB"), PREDICTION, True, True),
    "small-fields": (FP_DATASETS, PREDICTION + RIVALS, False, False),
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, work: Path
) -> Outcome:
    field_names, names, tile, spark = WORKLOADS[name]
    fields, inputs_s = timed_setup(lambda: make_fields(field_names, seed, tile, smoke))
    warmup_s = warm_up(names)
    ledger = Ledger()
    info = {
        "fields": {k: [list(v.shape), v.dtype.str, v.nbytes] for k, v in fields.items()},
        "codecs": list(names),
        "eps": EPS,
    }
    t_start = time.perf_counter()
    blobs = codec_round(fields, names, ledger)
    if not trace:
        while not smoke and time.perf_counter() - t_start < seconds:
            codec_round(fields, names, ledger)
        return Outcome(ledger.end_to_end(inputs_s + warmup_s), ledger, info)

    # Traced run: the untraced round above is the reference for the
    # tracing overhead; a second, traced round gives the layers.
    with layers.Tracer() as tracer:
        codec_round(fields, names, ledger, tracer)
    traced = [c for c in ledger.calls if c.round == 1]
    m = {"setup.inputs_s": inputs_s, "setup.warmup_s": warmup_s}
    for c in PREDICTION:
        m.update(
            layers.codec_layer_metrics(
                tracer,
                c,
                sum(x.comp_s for x in traced if x.codec == c),
                sum(x.decomp_s for x in traced if x.codec == c),
            )
        )
    m.update(blob_metrics(blobs))
    m.update(ungated_metrics(ledger))
    m["trace.overhead_pct"] = 100.0 * (ledger.round_s[1] / ledger.round_s[0] - 1.0)
    if spark:
        import sparkblocks

        m.update(sparkblocks.spark_layers(fields["Miranda"], smoke, work, ledger))
    else:
        m.update(dict.fromkeys(SPARK_LAYERS, 0.0))
    return Outcome(m, ledger, info)
