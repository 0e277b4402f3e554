"""Reproduce paper Table 5: compression-based parallel data transfer at
PSNR=80 (2048 cores, 1 GB/s inter-machine bandwidth, paper dataset
sizes) via the paper's own analytic model (§7.2.4), plus an end-to-end
distributed run of the compress → Parquet wire → decompress pipeline on
the local Spark cluster."""
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _runner import emit, get_spark, scale_arg  # noqa: E402

from repro import codecs, sparkio  # noqa: E402
from repro.datasets import generate  # noqa: E402
from repro.tables import format_rows, table5_transfer  # noqa: E402


def spark_distributed_demo(scale: str) -> list[dict]:
    """Actual distributed transfer on local Spark: block-parallel
    compression, Parquet as the wire format, block-parallel decompression
    — with wall-clock and on-the-wire byte accounting."""
    spark = get_spark()
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
            assert np.isfinite(out).all()
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


if __name__ == "__main__":
    scale = scale_arg()
    rows = table5_transfer(scale)
    emit(f"table5_{scale}", rows, format_rows(rows))
    demo = spark_distributed_demo(scale)
    emit(f"table5_spark_demo_{scale}", demo, format_rows(demo))
