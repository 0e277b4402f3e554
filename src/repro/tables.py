"""Computation behind every evaluation table (paper §7.2).

Each ``table*`` function returns plain row dicts so the ``jobs/``
entrypoints can print them, tests can assert on them, and benchmarks can
time their pieces. Paper reference numbers live in EXPERIMENTS.md next
to the measured output of these functions.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import codecs
from .datasets import BENCH_SHAPES, FP_DATASETS, TEST_SHAPES, generate
from .transfer import TransferMeasurement, measure_codec, transfer_time

#: total dataset sizes used in paper Table 5 (bytes), after the x2048
#: augmentation described in §7.2.4.
PAPER_TABLE5_SIZES = {
    "CESM-ATM": 41e12,
    "RTM": 14e12,
    "Miranda": 2e12,
    "SCALE": 13e12,
    "JHTDB": 10e12,
    "SegSalt": 8e12,
}

DOMAINS = {
    "RTM": "Seismic Wave",
    "SegSalt": "Geology",
    "Miranda": "Turbulence",
    "SCALE": "Climate",
    "CESM-ATM": "Weather",
    "JHTDB": "Turbulence",
    "NSTX-GPI": "Fusion",
    "APS": "Material",
}


def table1_datasets(scale: str = "bench") -> list[dict]:
    """Table 1: dataset inventory (our synthetic analogues)."""
    shapes = BENCH_SHAPES if scale == "bench" else TEST_SHAPES
    rows = []
    for name, shape in shapes.items():
        arr = generate(name, scale)
        rows.append(
            {
                "dataset": name,
                "dimensions": "x".join(map(str, shape)),
                "size_mb": arr.nbytes / 1e6,
                "domain": DOMAINS[name],
                "type": "Integer" if arr.dtype.kind == "i" else "Floating points",
            }
        )
    return rows


#: minimum bytes for speed measurements — the paper times GB-scale files,
#: where the auto-tuner's constant cost fully amortizes; we tile the bench
#: field along axis 0 until the array is at least this large.
SPEED_BYTES = 24_000_000


def speed_data(name: str, scale: str = "bench") -> np.ndarray:
    """Bench field stacked along axis 0 for speed measurements, from
    independently seeded tiles (tile ``i`` has ``seed_offset = i``; tile 0
    is the bench field). Copies of one tile would let the lossless stage
    match whole tiles in its window: qoz's Miranda ratio at eps = 1e-3
    read 333 on eleven copies against 65 untiled."""
    data = generate(name, scale)
    if scale != "bench":
        return data
    reps = max(1, int(np.ceil(SPEED_BYTES / data.nbytes)))
    if reps == 1:
        return data
    tiles = [data] + [generate(name, scale, seed_offset=i) for i in range(1, reps)]
    return np.concatenate(tiles, axis=0)


#: timed round trips per Table 2 cell; single runs on a shared machine
#: read up to 45 % apart, so a cell reports the median and the range
SPEED_REPEATS = 5


def table2_speeds(
    scale: str = "bench",
    eps: float = 1e-3,
    codec_names: Sequence[str] = codecs.ALL_CODECS,
    datasets: Sequence[str] = FP_DATASETS,
) -> list[dict]:
    """Table 2: compression/decompression speeds (MB/s) at eps=1e-3.

    Each cell is timed :data:`SPEED_REPEATS` times, the codecs
    interleaved (one round trip of every codec per repeat), so a slow
    spell of the machine hits every codec alike. ``comp_mbps`` and
    ``decomp_mbps`` are the medians, ``*_min`` / ``*_max`` the range."""
    rows = []
    for ds in datasets:
        data = speed_data(ds, scale)
        mb = data.nbytes / 1e6
        comp: dict[str, list[float]] = {c: [] for c in codec_names}
        dec: dict[str, list[float]] = {c: [] for c in codec_names}
        size: dict[str, int] = {}
        for _ in range(SPEED_REPEATS):
            for c in codec_names:
                blob, _, t_comp, t_dec = codecs.roundtrip(c, data, eps)
                comp[c].append(mb / t_comp)
                dec[c].append(mb / t_dec)
                size[c] = len(blob)
        for c in codec_names:
            rows.append(
                {
                    "dataset": ds,
                    "codec": c,
                    "comp_mbps": float(np.median(comp[c])),
                    "comp_min": min(comp[c]),
                    "comp_max": max(comp[c]),
                    "decomp_mbps": float(np.median(dec[c])),
                    "decomp_min": min(dec[c]),
                    "decomp_max": max(dec[c]),
                    "cr": data.nbytes / size[c],
                }
            )
    return rows


def _cr_table(
    codec_names: Sequence[str],
    scale: str,
    eps_list: Sequence[float],
    datasets: Sequence[str],
    improve_of: str | None,
) -> list[dict]:
    rows = []
    for ds in datasets:
        data = generate(ds, scale)
        for eps in eps_list:
            crs = {}
            for c in codec_names:
                blob = codecs.roundtrip(c, data, eps)[0]
                crs[c] = data.nbytes / len(blob)
            row = {"dataset": ds, "eps": eps, **crs}
            if improve_of:
                others = [v for k, v in crs.items() if k != improve_of]
                row["improve_pct"] = (
                    (crs[improve_of] / max(others) - 1.0) * 100.0
                )
            rows.append(row)
    return rows


def table3_cr_highperf(
    scale: str = "bench",
    eps_list: Sequence[float] = (1e-2, 1e-3, 1e-4),
    datasets: Sequence[str] = FP_DATASETS,
) -> list[dict]:
    """Table 3: CR of high-performance codecs + HPEZ improvement %."""
    return _cr_table(
        ("sz3", "zfp", "qoz", "hpez"), scale, eps_list, datasets, "hpez"
    )


def table4_cr_highratio(
    scale: str = "bench",
    eps_list: Sequence[float] = (1e-2, 1e-3, 1e-4),
    datasets: Sequence[str] = FP_DATASETS,
) -> list[dict]:
    """Table 4: CR of HPEZ vs high-ratio codecs."""
    return _cr_table(
        ("sperr", "faz", "tthresh", "hpez"), scale, eps_list, datasets, None
    )


def table5_transfer(
    scale: str = "bench",
    p: int = 2048,
    bw: float = 1e8,
    target_psnr: float = 80.0,
    codec_names: Sequence[str] = codecs.ALL_CODECS,
    datasets: Sequence[str] = tuple(PAPER_TABLE5_SIZES),
) -> list[dict]:
    """Table 5: parallel transfer times at PSNR=80 via the paper's
    analytic model (§7.2.4) with our measured speeds and ratios, the
    paper's dataset sizes and p=2048 cores.

    The paper's setup pairs ~100-600 MB/s per-core C++ codecs with a
    1 GB/s Globus link; our NumPy kernels run ~10x slower per core, so
    the default simulated bandwidth is scaled by the same factor
    (0.1 GB/s) to preserve the compute : network balance that determines
    which codec wins — the quantity Table 5 is about."""
    rows = []
    for ds in datasets:
        data = generate(ds, scale)
        timing = speed_data(ds, scale)
        total = PAPER_TABLE5_SIZES[ds]
        times: dict[str, float] = {}
        meas: dict[str, TransferMeasurement] = {}
        for c in codec_names:
            m = measure_codec(c, data, target_psnr, timing_data=timing)
            meas[c] = m
            times[c] = transfer_time(total, p, bw, m)
        others = [v for k, v in times.items() if k != "hpez"]
        improve = (min(others) / times["hpez"] - 1.0) * 100.0
        for c in codec_names:
            m = meas[c]
            rows.append(
                {
                    "dataset": ds,
                    "codec": c,
                    "eps": m.eps,
                    "psnr": m.psnr,
                    "cr": m.cr,
                    "comp_mbps": m.comp_mbps,
                    "decomp_mbps": m.decomp_mbps,
                    "time_s": times[c],
                    "improve_pct": improve if c == "hpez" else None,
                }
            )
    return rows


def table6_fvfi(
    scale: str = "bench",
    eps: float = 1e-3,
    datasets: Sequence[str] = FP_DATASETS,
) -> list[dict]:
    """Table 6: HPEZ speeds with vs without fast-varying-first
    interpolation (§5.4.1)."""
    rows = []
    for ds in datasets:
        # untiled: both variants share the tuner cost, and the FVFI
        # traversal contrast is a per-pass effect best seen at the
        # bench field's own working-set size
        data = generate(ds, scale)
        mb = data.nbytes / 1e6
        for fvfi in (False, True):
            _, _, t_comp, t_dec = codecs.roundtrip(
                "hpez", data, eps, fvfi=fvfi
            )
            rows.append(
                {
                    "dataset": ds,
                    "fvfi": fvfi,
                    "comp_mbps": mb / t_comp,
                    "decomp_mbps": mb / t_dec,
                }
            )
    return rows


def format_rows(rows: list[dict], floatfmt: str = "{:.4g}") -> str:
    """Plain-text table for job output."""
    if not rows:
        return "(empty)"
    cols = list(rows[0].keys())
    widths = {c: len(c) for c in cols}
    rendered = []
    for r in rows:
        rr = {}
        for c in cols:
            v = r.get(c)
            if isinstance(v, float):
                rr[c] = floatfmt.format(v)
            elif v is None:
                rr[c] = ""
            else:
                rr[c] = str(v)
            widths[c] = max(widths[c], len(rr[c]))
        rendered.append(rr)
    head = "  ".join(c.ljust(widths[c]) for c in cols)
    lines = [head, "-" * len(head)]
    for rr in rendered:
        lines.append("  ".join(rr[c].ljust(widths[c]) for c in cols))
    return "\n".join(lines)
