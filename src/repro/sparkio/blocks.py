"""Scientific arrays as Spark block tables (repro hint: per-partition
compression/decompression UDFs over array columns).

An n-d field is shredded into axis-aligned blocks; each block is one row
``(block_id, origin, shape, dtype, payload)``: the geometry as typed
``array<int>`` columns and the raw values in a binary column
(little-endian C order — Arrow-friendly). Compression and decompression
run as ``mapInPandas`` kernels, i.e. the NumPy codec executes inside the
Arrow-backed Python worker per partition, which is the distributed
execution model of the paper's parallel-transfer experiment (each core
compresses its own data independently).
"""
from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .. import codecs

#: the columns every block table starts with
_GEOMETRY = [
    T.StructField("block_id", T.LongType(), False),
    T.StructField("origin", T.ArrayType(T.IntegerType(), False), False),
    T.StructField("shape", T.ArrayType(T.IntegerType(), False), False),
    T.StructField("dtype", T.StringType(), False),
]
_KEYS = [f.name for f in _GEOMETRY]

_BLOCK_SCHEMA = T.StructType(_GEOMETRY + [T.StructField("payload", T.BinaryType(), False)])

_COMP_SCHEMA = T.StructType(
    _GEOMETRY
    + [
        T.StructField("codec", T.StringType(), False),
        T.StructField("orig_bytes", T.LongType(), False),
        T.StructField("comp_bytes", T.LongType(), False),
        T.StructField("blob", T.BinaryType(), False),
    ]
)

_STATS_SCHEMA = T.StructType(
    [
        T.StructField("block_id", T.LongType(), False),
        T.StructField("n", T.LongType(), False),
        T.StructField("max_abs_err", T.DoubleType(), False),
        T.StructField("sse", T.DoubleType(), False),
        T.StructField("vmin", T.DoubleType(), False),
        T.StructField("vmax", T.DoubleType(), False),
    ]
)


def split_blocks(
    arr: np.ndarray, block: tuple[int, ...]
) -> list[tuple[int, tuple[int, ...], np.ndarray]]:
    """(block_id, origin, values) triples covering ``arr``."""
    grids = [range(0, n, b) for n, b in zip(arr.shape, block)]
    out = []
    for bid, origin in enumerate(itertools.product(*grids)):
        sel = tuple(slice(o, o + b) for o, b in zip(origin, block))
        out.append((bid, origin, np.ascontiguousarray(arr[sel])))
    return out


def to_blocks_df(
    spark: SparkSession, arr: np.ndarray, block: tuple[int, ...]
) -> DataFrame:
    """Shred ``arr`` into a block DataFrame (one row per block)."""
    rows = [
        (bid, list(origin), list(vals.shape), vals.dtype.str, vals.tobytes())
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
            # pdf.shape is the frame's own (rows, columns); the block
            # geometry is the column pdf["shape"]
            blobs = [
                codecs.compress(codec, np.frombuffer(p, dtype=dt).reshape(s), eps, mode="abs")
                for p, dt, s in zip(pdf["payload"], pdf["dtype"], pdf["shape"])
            ]
            yield pdf[_KEYS].assign(
                codec=codec,
                orig_bytes=pdf["payload"].map(len),
                comp_bytes=[len(b) for b in blobs],
                blob=blobs,
            )

    return df.mapInPandas(kernel, schema=_COMP_SCHEMA)


def decompress_df(df: DataFrame) -> DataFrame:
    """Inverse kernel: compressed block rows → raw block rows.

    Payloads are float64, the dtype the codecs decode to, whatever the
    field's dtype. Casting back to float32 would break the bound: at
    eps 1e-3, sz3, qoz and hpez decodes of the float32 RTM, SegSalt,
    Miranda and SCALE bench fields put up to 16 points per field over
    ``e·(1+1e-6)`` once rounded to float32."""

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            yield pdf[_KEYS].assign(
                dtype=np.dtype(np.float64).str,
                payload=[
                    codecs.decompress(b).astype(np.float64, copy=False).tobytes()
                    for b in pdf["blob"]
                ],
            )

    return df.mapInPandas(kernel, schema=_BLOCK_SCHEMA)


def reassemble(df: DataFrame, shape: tuple[int, ...]) -> np.ndarray:
    """Read a (raw) block DataFrame back into one float64 array, as one
    Arrow table; points no block covers stay NaN."""
    out = np.full(shape, np.nan, dtype=np.float64)
    cols = df.select("origin", "shape", "dtype", "payload").toArrow().to_pydict()
    for origin, bshape, dt, payload in zip(*cols.values()):
        sel = tuple(slice(o, o + s) for o, s in zip(origin, bshape))
        out[sel] = np.frombuffer(payload, dtype=dt).reshape(bshape)
    return out


def _error_stats(o_payload, o_dtype, d_payload, d_dtype) -> tuple:
    """(n, max_abs_err, sse, vmin, vmax) of one block."""
    o = np.frombuffer(o_payload, dtype=o_dtype).astype(np.float64)
    err = o - np.frombuffer(d_payload, dtype=d_dtype).astype(np.float64)
    return (
        o.size,
        float(np.abs(err).max(initial=0.0)),
        float((err * err).sum()),
        float(o.min()),
        float(o.max()),
    )


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
    names = _STATS_SCHEMA.fieldNames()[1:]

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            stats = map(
                _error_stats,
                pdf["orig_payload"],
                pdf["orig_dtype"],
                pdf["deco_payload"],
                pdf["deco_dtype"],
            )
            yield pdf[["block_id"]].join(
                pd.DataFrame(list(stats), columns=names, index=pdf.index)
            )

    return joined.mapInPandas(kernel, schema=_STATS_SCHEMA)


def global_error_summary(stats: DataFrame) -> DataFrame:
    """Aggregate per-block stats to (n, max_abs_err, rmse, range) — the
    quantities behind the eps check and PSNR (paper §7.1.3)."""
    return stats.agg(
        F.sum("n").alias("n"),
        F.max("max_abs_err").alias("max_abs_err"),
        F.sqrt(F.sum("sse") / F.sum("n")).alias("rmse"),
        (F.max("vmax") - F.min("vmin")).alias("value_range"),
    )
