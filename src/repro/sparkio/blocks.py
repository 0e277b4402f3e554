"""Scientific arrays as Spark block tables (repro hint: per-partition
compression/decompression UDFs over array columns).

An n-d field is shredded into axis-aligned blocks; each block is one row
``(block_id, origin, shape, payload)`` with the raw values in a binary
column (little-endian C order — Arrow-friendly). Compression and
decompression run as ``mapInPandas`` kernels, i.e. the NumPy codec
executes inside the Arrow-backed Python worker per partition, which is
the distributed execution model of the paper's parallel-transfer
experiment (each core compresses its own data independently).
"""
from __future__ import annotations

import json
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .. import codecs

_BLOCK_SCHEMA = T.StructType(
    [
        T.StructField("block_id", T.LongType(), False),
        T.StructField("origin", T.StringType(), False),  # JSON list
        T.StructField("shape", T.StringType(), False),  # JSON list
        T.StructField("dtype", T.StringType(), False),
        T.StructField("payload", T.BinaryType(), False),
    ]
)

_COMP_SCHEMA = T.StructType(
    [
        T.StructField("block_id", T.LongType(), False),
        T.StructField("origin", T.StringType(), False),
        T.StructField("shape", T.StringType(), False),
        T.StructField("dtype", T.StringType(), False),
        T.StructField("codec", T.StringType(), False),
        T.StructField("orig_bytes", T.LongType(), False),
        T.StructField("comp_bytes", T.LongType(), False),
        T.StructField("blob", T.BinaryType(), False),
    ]
)


def split_blocks(
    arr: np.ndarray, block: tuple[int, ...]
) -> list[tuple[int, tuple[int, ...], np.ndarray]]:
    """(block_id, origin, values) triples covering ``arr``."""
    grids = [range(0, n, b) for n, b in zip(arr.shape, block)]
    out = []
    bid = 0
    import itertools

    for origin in itertools.product(*grids):
        sel = tuple(
            slice(o, min(o + b, n))
            for o, b, n in zip(origin, block, arr.shape)
        )
        out.append((bid, origin, np.ascontiguousarray(arr[sel])))
        bid += 1
    return out


def to_blocks_df(
    spark: SparkSession, arr: np.ndarray, block: tuple[int, ...]
) -> DataFrame:
    """Shred ``arr`` into a block DataFrame (one row per block)."""
    rows = [
        (
            bid,
            json.dumps(list(origin)),
            json.dumps(list(vals.shape)),
            vals.dtype.str,
            vals.tobytes(),
        )
        for bid, origin, vals in split_blocks(arr, block)
    ]
    return spark.createDataFrame(rows, schema=_BLOCK_SCHEMA)


def compress_df(
    df: DataFrame, codec: str, eps: float, mode: str = "abs"
) -> DataFrame:
    """Per-partition compression kernel (mapInPandas): raw block rows →
    compressed block rows carrying the codec blob in a binary column.

    ``eps`` is the absolute bound for every block; the whole-field
    value-range bound of §7.1.3 is ``codecs.abs_bound(field, eps)``.
    ``mode="rel"`` would apply ``eps`` to each block's own value range,
    so it is refused before any Spark action."""
    if mode != "abs":
        raise ValueError(
            f"compress_df takes an absolute bound, got mode={mode!r}; "
            "pass codecs.abs_bound(field, eps) with mode='abs'"
        )

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            out = []
            for row in pdf.itertuples(index=False):
                shape = tuple(json.loads(row.shape))
                vals = np.frombuffer(row.payload, dtype=np.dtype(row.dtype))
                vals = vals.reshape(shape)
                blob = codecs.compress(codec, vals, eps, mode="abs")
                out.append(
                    (
                        row.block_id,
                        row.origin,
                        row.shape,
                        row.dtype,
                        codec,
                        len(row.payload),
                        len(blob),
                        blob,
                    )
                )
            yield pd.DataFrame(out, columns=[f.name for f in _COMP_SCHEMA])

    return df.mapInPandas(kernel, schema=_COMP_SCHEMA)


def decompress_df(df: DataFrame) -> DataFrame:
    """Inverse kernel: compressed block rows → raw block rows (float64
    payloads, since error-bounded decompression yields floats)."""

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            out = []
            for row in pdf.itertuples(index=False):
                vals = codecs.decompress(row.blob)
                out.append(
                    (
                        row.block_id,
                        row.origin,
                        row.shape,
                        np.dtype(np.float64).str,
                        vals.astype(np.float64).tobytes(),
                    )
                )
            yield pd.DataFrame(out, columns=[f.name for f in _BLOCK_SCHEMA])

    return df.mapInPandas(kernel, schema=_BLOCK_SCHEMA)


def reassemble(df: DataFrame, shape: tuple[int, ...]) -> np.ndarray:
    """Collect a (raw) block DataFrame back into one float64 array."""
    out = np.full(shape, np.nan, dtype=np.float64)
    for row in df.collect():
        origin = json.loads(row.origin)
        bshape = json.loads(row.shape)
        vals = np.frombuffer(row.payload, dtype=np.dtype(row.dtype)).reshape(
            bshape
        )
        sel = tuple(slice(o, o + s) for o, s in zip(origin, bshape))
        out[sel] = vals
    return out


def blockwise_error_stats(orig: DataFrame, deco: DataFrame) -> DataFrame:
    """Join original and decompressed block tables and compute per-block
    error statistics as a Spark SQL aggregation input: one row per block
    with (n, max_abs_err, sse, vmin, vmax). Cross-checked against DuckDB
    by the oracle tests."""

    joined = orig.alias("o").join(
        deco.alias("d"), on="block_id", how="inner"
    ).select(
        F.col("block_id"),
        F.col("o.payload").alias("orig_payload"),
        F.col("o.dtype").alias("orig_dtype"),
        F.col("d.payload").alias("deco_payload"),
        F.col("d.dtype").alias("deco_dtype"),
    )

    schema = T.StructType(
        [
            T.StructField("block_id", T.LongType(), False),
            T.StructField("n", T.LongType(), False),
            T.StructField("max_abs_err", T.DoubleType(), False),
            T.StructField("sse", T.DoubleType(), False),
            T.StructField("vmin", T.DoubleType(), False),
            T.StructField("vmax", T.DoubleType(), False),
        ]
    )

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            out = []
            for row in pdf.itertuples(index=False):
                o = np.frombuffer(
                    row.orig_payload, dtype=np.dtype(row.orig_dtype)
                ).astype(np.float64)
                d = np.frombuffer(
                    row.deco_payload, dtype=np.dtype(row.deco_dtype)
                ).astype(np.float64)
                err = o - d
                out.append(
                    (
                        row.block_id,
                        o.size,
                        float(np.abs(err).max(initial=0.0)),
                        float((err * err).sum()),
                        float(o.min()),
                        float(o.max()),
                    )
                )
            yield pd.DataFrame(
                out, columns=[f.name for f in schema]
            )

    return joined.mapInPandas(kernel, schema=schema)


def global_error_summary(stats: DataFrame) -> DataFrame:
    """Aggregate per-block stats to (n, max_abs_err, rmse, range) — the
    quantities behind the eps check and PSNR (paper §7.1.3)."""
    return stats.agg(
        F.sum("n").alias("n"),
        F.max("max_abs_err").alias("max_abs_err"),
        F.sqrt(F.sum("sse") / F.sum("n")).alias("rmse"),
        (F.max("vmax") - F.min("vmin")).alias("value_range"),
    )
