"""Reproduce the paper's evaluation tables (§7.2)::

    python jobs/reproduce.py [N ...] [--scale=test]

runs Tables N (default: 1–6) at bench scale (or test scale). Each table
writes ``results/table<N>_<scale>.json`` and prints its markdown
section, the paper's numbers next to ours; Table 5 also runs the Spark
demo, which writes ``results/table5_spark_demo_<scale>.json``. At bench
scale the job then rewrites EXPERIMENTS.md from EXPERIMENTS.template.md
and the six results files.

Paper reference numbers are inlined here (typed from the paper's tables)
so the generated document always shows paper vs measured side by side.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import tempfile
import time
from pathlib import Path

from repro import codecs, sparkio, tables
from repro.core import metrics
from repro.datasets import generate

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

PAPER_T2 = {  # (dataset -> codec -> (comp MB/s, decomp MB/s)), eps=1e-3
    "CESM-ATM": {"sz3": (219, 661), "zfp": (331, 584), "qoz": (215, 689), "sperr": (49, 92), "faz": (58, 101), "tthresh": (10, 53), "hpez": (140, 513)},
    "RTM": {"sz3": (211, 786), "zfp": (412, 622), "qoz": (191, 626), "sperr": (63, 124), "faz": (30, 64), "tthresh": (18, 108), "hpez": (142, 510)},
    "Miranda": {"sz3": (163, 419), "zfp": (416, 946), "qoz": (157, 351), "sperr": (35, 75), "faz": (29, 60), "tthresh": (28, 111), "hpez": (140, 473)},
    "SCALE": {"sz3": (188, 610), "zfp": (191, 553), "qoz": (182, 567), "sperr": (32, 68), "faz": (61, 140), "tthresh": (17, 53), "hpez": (129, 450)},
    "JHTDB": {"sz3": (140, 376), "zfp": (225, 425), "qoz": (122, 243), "sperr": (33, 70), "faz": (28, 59), "tthresh": (23, 60), "hpez": (105, 330)},
    "SegSalt": {"sz3": (189, 592), "zfp": (645, 1060), "qoz": (201, 629), "sperr": (51, 108), "faz": (36, 65), "tthresh": (13, 97), "hpez": (141, 485)},
}

PAPER_T3 = {  # dataset -> eps -> (sz3, zfp, qoz, hpez, improve%)
    "RTM": {1e-2: (1764, 62.9, 2156, 2701, 25.3), 1e-3: (249, 26.2, 285, 395, 38.6), 1e-4: (55.3, 14.3, 58, 71.1, 22.6)},
    "Miranda": {1e-2: (574.6, 46.6, 977, 1320, 35.1), 1e-3: (168, 25.6, 181, 258, 42.5), 1e-4: (47.3, 14.5, 47.7, 63.6, 33.3)},
    "SegSalt": {1e-2: (856, 59.1, 1005, 1484, 47.7), 1e-3: (140.6, 24.9, 151, 260, 72.2), 1e-4: (38.2, 14.9, 35.9, 61.7, 61.5)},
    "SCALE": {1e-2: (167.3, 14.5, 160, 186, 11.2), 1e-3: (40.4, 7.8, 41.5, 52.9, 27.5), 1e-4: (14.1, 4.6, 13.4, 15.4, 9.2)},
    "JHTDB": {1e-2: (528.2, 22.3, 647, 838, 29.5), 1e-3: (73.2, 9.8, 77.8, 101, 29.8), 1e-4: (15.8, 5, 15.9, 20.6, 29.6)},
    "CESM-ATM": {1e-2: (373, 18.2, 263, 675, 81.0), 1e-3: (64.9, 9.6, 59.4, 153, 135.7), 1e-4: (22.9, 5.8, 21.7, 38.9, 69.9)},
}

PAPER_T4 = {  # dataset -> eps -> (sperr, faz, tthresh, hpez)
    "RTM": {1e-2: (2187, 2695, 782, 2701), 1e-3: (440, 642, 71.4, 395), 1e-4: (84.1, 119, 23.7, 71.1)},
    "Miranda": {1e-2: (971.4, 996.5, 447, 1320), 1e-3: (243.9, 263.5, 142, 258), 1e-4: (74.5, 93.6, 55.1, 63.6)},
    "SegSalt": {1e-2: (1219.4, 1639.6, 291, 1484), 1e-3: (228.9, 388.9, 99.5, 260), 1e-4: (61.3, 117.3, 28.8, 61.7)},
    "SCALE": {1e-2: (103.5, 177.9, 80.0, 186), 1e-3: (35.5, 51.8, 18.9, 52.9), 1e-4: (15, 16.8, 8.4, 15.4)},
    "JHTDB": {1e-2: (639.8, 726, 373, 838), 1e-3: (89.3, 90.7, 65.1, 101), 1e-4: (19.9, 20.2, 17.1, 20.6)},
    "CESM-ATM": {1e-2: (1221, 292, 83.5, 675), 1e-3: (150, 77.4, 20.4, 153), 1e-4: (35, 26.3, 8.7, 38.9)},
}

PAPER_T5 = {  # dataset -> codec -> mean of the two directions' seconds
    "CESM-ATM": {"sz3": 1774, "zfp": 2958, "qoz": 1683, "sperr": 1541, "faz": 1565, "tthresh": 8156, "hpez": 961},
    "RTM": {"sz3": 194, "zfp": 443, "qoz": 170, "sperr": 287, "faz": 484, "tthresh": 544, "hpez": 182},
    "Miranda": {"sz3": 48, "zfp": 101, "qoz": 47, "sperr": 72, "faz": 87, "tthresh": 121, "hpez": 41},
    "SCALE": {"sz3": 809, "zfp": 1268, "qoz": 764, "sperr": 1022, "faz": 726, "tthresh": 2178, "hpez": 676},
    "JHTDB": {"sz3": 527, "zfp": 767, "qoz": 500, "sperr": 647, "faz": 579, "tthresh": 859, "hpez": 392},
    "SegSalt": {"sz3": 165, "zfp": 265, "qoz": 164, "sperr": 217, "faz": 258, "tthresh": 347, "hpez": 135},
}
PAPER_T5_IMPROVE = {"CESM-ATM": 37.7, "RTM": -7.2, "Miranda": 8.9, "SCALE": 6.9, "JHTDB": 21.8, "SegSalt": 15.0}

PAPER_T6 = {  # dataset -> (comp w/o, comp w, dec w/o, dec w)
    "CESM-ATM": (132, 140, 469, 513),
    "RTM": (139, 142, 457, 510),
    "Miranda": (101, 140, 202, 473),
    "SCALE": (124, 129, 420, 450),
    "JHTDB": (87, 105, 184, 330),
    "SegSalt": (134, 141, 390, 485),
}

ORDER = ("RTM", "Miranda", "SegSalt", "SCALE", "JHTDB", "CESM-ATM")
CODECS = ("sz3", "zfp", "qoz", "sperr", "faz", "tthresh", "hpez")


def t1_section(rows: list[dict]) -> str:
    out = ["| dataset | dims (bench) | MB | domain | type |", "|---|---|---|---|---|"]
    for r in rows:
        out.append(
            f"| {r['dataset']} | {r['dimensions']} | {r['size_mb']:.1f} "
            f"| {r['domain']} | {r['type']} |"
        )
    return "\n".join(out)


def t2_section(rows: list[dict]) -> str:
    got = {(r["dataset"], r["codec"]): r for r in rows}
    out = [
        "| dataset | codec | paper comp | ours comp (min–max) | paper dec | ours dec (min–max) |",
        "|---|---|---|---|---|---|",
    ]
    for ds in ORDER:
        for c in CODECS:
            p = PAPER_T2[ds][c]
            g = got[(ds, c)]
            out.append(
                f"| {ds} | {c} | {p[0]} | {g['comp_mbps']:.1f} ({g['comp_min']:.1f}–{g['comp_max']:.1f})"
                f" | {p[1]} | {g['decomp_mbps']:.1f} ({g['decomp_min']:.1f}–{g['decomp_max']:.1f}) |"
            )
    out += [
        "",
        "HPEZ's speed as a share of QoZ's (ours: medians):",
        "",
        "| dataset | paper comp | ours comp | paper dec | ours dec |",
        "|---|---|---|---|---|",
    ]
    for ds in ORDER:
        h, q = got[(ds, "hpez")], got[(ds, "qoz")]
        ph, pq = PAPER_T2[ds]["hpez"], PAPER_T2[ds]["qoz"]
        out.append(
            f"| {ds} | {ph[0] / pq[0]:.0%} | {h['comp_mbps'] / q['comp_mbps']:.0%}"
            f" | {ph[1] / pq[1]:.0%} | {h['decomp_mbps'] / q['decomp_mbps']:.0%} |"
        )
    return "\n".join(out)


def t34_section(rows: list[dict], paper: dict, cods: tuple) -> str:
    got = {(r["dataset"], round(-math.log10(r["eps"]))): r for r in rows}
    hdr = " | ".join(f"paper {c} / ours {c}" for c in cods)
    out = [f"| dataset | eps | {hdr} |", "|---|---|" + "---|" * len(cods)]
    for ds in ORDER:
        for k, eps in ((2, 1e-2), (3, 1e-3), (4, 1e-4)):
            p = paper[ds][eps]
            g = got[(ds, k)]
            cells = " | ".join(
                f"{p[i]:g} / {g[c]:.1f}" for i, c in enumerate(cods)
            )
            out.append(f"| {ds} | 1e-{k} | {cells} |")
    return "\n".join(out)


def t5_section(rows: list[dict]) -> str:
    got = {(r["dataset"], r["codec"]): r for r in rows}
    out = [
        "| dataset | codec | paper time (s, mean of directions) | ours time (s, modeled) | ours CR@PSNR80 |",
        "|---|---|---|---|---|",
    ]
    for ds in ORDER:
        for c in CODECS:
            g = got[(ds, c)]
            out.append(
                f"| {ds} | {c} | {PAPER_T5[ds][c]} | {g['time_s']:.0f} | {g['cr']:.1f} |"
            )
    out.append("")
    out.append("| dataset | paper HPEZ improve % | ours HPEZ improve % |")
    out.append("|---|---|---|")
    for ds in ORDER:
        out.append(
            f"| {ds} | {PAPER_T5_IMPROVE[ds]} | {got[(ds, 'hpez')]['improve_pct']:.1f} |"
        )
    return "\n".join(out)


def t6_section(rows: list[dict]) -> str:
    got = {(r["dataset"], r["fvfi"]): r for r in rows}
    out = [
        "| dataset | paper comp w/o→w | ours comp w/o→w (min–max) | paper dec w/o→w | ours dec w/o→w (min–max) |",
        "|---|---|---|---|---|",
    ]

    def cell(r: dict, k: str) -> str:
        return f"{r[k + '_mbps']:.1f} ({r[k + '_min']:.1f}–{r[k + '_max']:.1f})"

    for ds in ORDER:
        p = PAPER_T6[ds]
        a, b = got[(ds, False)], got[(ds, True)]
        out.append(
            f"| {ds} | {p[0]}→{p[1]} | {cell(a, 'comp')}→{cell(b, 'comp')} "
            f"| {p[2]}→{p[3]} | {cell(a, 'decomp')}→{cell(b, 'decomp')} |"
        )
    return "\n".join(out)


#: table number -> (rows at a scale, markdown section of the rows)
TABLES = {
    1: (tables.table1_datasets, t1_section),
    2: (tables.table2_speeds, t2_section),
    3: (
        tables.table3_cr_highperf,
        lambda rows: t34_section(rows, PAPER_T3, ("sz3", "zfp", "qoz", "hpez")),
    ),
    4: (
        tables.table4_cr_highratio,
        lambda rows: t34_section(rows, PAPER_T4, ("sperr", "faz", "tthresh", "hpez")),
    ),
    5: (tables.table5_transfer, t5_section),
    6: (tables.table6_fvfi, t6_section),
}


def spark_distributed_demo(scale: str) -> list[dict]:
    """Actual distributed transfer on local Spark: block-parallel
    compression, Parquet as the wire format, block-parallel decompression
    — with wall-clock and on-the-wire byte accounting. Raises
    ``RuntimeError`` when the reassembled field breaks the bound."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    rows = []
    bw = 1e9  # simulated inter-machine bandwidth, bytes/s
    for ds in ("Miranda", "CESM-ATM"):
        data = generate(ds, scale)
        e_abs = codecs.abs_bound(data, 1e-3)
        df = sparkio.to_blocks_df(spark, data, (64, 64, 64)).cache()
        df.count()
        for codec in ("sz3", "qoz", "sperr", "hpez"):
            t0 = time.perf_counter()
            comp = sparkio.compress_df(df, codec, e_abs, mode="abs").cache()
            agg = comp.selectExpr(
                "sum(orig_bytes) ob", "sum(comp_bytes) cb"
            ).collect()[0]
            t_comp = time.perf_counter() - t0
            with tempfile.TemporaryDirectory() as tmp:
                path = f"{tmp}/wire.parquet"
                sparkio.write_compressed(comp, path)
                t0 = time.perf_counter()
                deco = sparkio.decompress_df(
                    sparkio.read_compressed(spark, path)
                )
                out = sparkio.reassemble(deco, data.shape)
                t_dec = time.perf_counter() - t0
            err = metrics.max_abs_err(data, out)
            if not err <= e_abs * (1 + metrics.BOUND_SLACK):
                raise RuntimeError(
                    f"bound violated: {codec} on {ds} max|x - x'| = {err!r} > e = {e_abs!r}"
                )
            comp.unpersist()
            rows.append(
                {
                    "dataset": ds,
                    "codec": codec,
                    "cr": agg.ob / agg.cb,
                    "wall_comp_s": t_comp,
                    "wire_s_at_1GBps": agg.cb / bw,
                    "wall_decomp_s": t_dec,
                }
            )
    spark.stop()
    return rows


def _write(name: str, rows: list[dict]) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.json").write_text(json.dumps(rows, indent=1))
    print(f"\n[{name}] {len(rows)} rows -> {RESULTS / (name + '.json')}")


def experiments_md() -> str:
    """EXPERIMENTS.template.md with every ``{{TABLEN}}`` replaced by the
    section of ``results/tableN_bench.json``."""
    text = (ROOT / "EXPERIMENTS.template.md").read_text()
    for n, (_, section) in TABLES.items():
        rows = json.loads((RESULTS / f"table{n}_bench.json").read_text())
        text = text.replace(f"{{{{TABLE{n}}}}}", section(rows))
    return text


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("::")[0])
    ap.add_argument("tables", nargs="*", type=int, help="table numbers (default: 1-6)")
    ap.add_argument("--scale", choices=("bench", "test"), default="bench")
    args = ap.parse_args()
    if set(args.tables) - TABLES.keys():
        ap.error(f"tables are numbered {min(TABLES)}-{max(TABLES)}")
    for n in args.tables or sorted(TABLES):
        run, section = TABLES[n]
        rows = run(args.scale)
        _write(f"table{n}_{args.scale}", rows)
        print(f"\n## Table {n}\n\n{section(rows)}")
        if n == 5:
            _write(f"table5_spark_demo_{args.scale}", spark_distributed_demo(args.scale))
    if args.scale == "bench":
        (ROOT / "EXPERIMENTS.md").write_text(experiments_md())
        print("wrote EXPERIMENTS.md")
