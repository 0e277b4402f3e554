"""Distributed block pipeline tests: Spark mapInPandas kernels, the
Parquet store, and Spark SQL error aggregations cross-checked against
DuckDB via the provided oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro import codecs, sparkio
from repro.core import metrics
from repro.datasets import generate
from repro.oracle import assert_equivalent
from repro.sparkio.blocks import global_error_summary


@pytest.fixture(scope="module")
def field():
    return generate("Miranda", "test")


@pytest.fixture(scope="module")
def block_tables(spark, field):
    e_abs = 1e-3 * metrics.value_range(field)
    orig = sparkio.to_blocks_df(spark, field, (20, 20, 18)).cache()
    comp = sparkio.compress_df(orig, "hpez", e_abs, mode="abs").cache()
    deco = sparkio.decompress_df(comp).cache()
    orig.count(), comp.count(), deco.count()
    return orig, comp, deco, e_abs


def test_block_shred_covers_everything(spark, field):
    df = sparkio.to_blocks_df(spark, field, (16, 24, 20))
    out = sparkio.reassemble(df, field.shape)
    np.testing.assert_array_equal(out, field.astype(np.float64))


def test_distributed_roundtrip_bound(block_tables, field):
    """Decoded blocks stay float64: rounding a decode to the float32
    field's dtype can put points over the bound."""
    orig, comp, deco, e_abs = block_tables
    out = sparkio.reassemble(deco, field.shape)
    assert np.abs(out - field.astype(np.float64)).max() <= e_abs * (1 + 1e-6)
    assert {r.dtype for r in deco.select("dtype").distinct().collect()} == {"<f8"}


def _geometry_types(df):
    return [df.schema[c].dataType for c in ("origin", "shape")]


def test_block_geometry_is_typed(spark, block_tables, tmp_path):
    """``origin`` and ``shape`` are ``array<int>`` in every block table,
    Parquet round trip included."""
    orig, comp, deco, _ = block_tables
    path = str(tmp_path / "typed.parquet")
    sparkio.write_compressed(comp, path)
    back = sparkio.read_compressed(spark, path)
    for df in (orig, comp, deco, back, sparkio.decompress_df(back)):
        for t in _geometry_types(df):
            assert isinstance(t, T.ArrayType)
            assert isinstance(t.elementType, T.IntegerType)
    row = orig.where("block_id = 1").first()
    assert (row.origin, row.shape) == ([0, 0, 18], [20, 20, 18])


def test_reassemble_leaves_missing_blocks_nan(spark, field):
    """Points no row covers stay NaN; the others are the block values."""
    df = sparkio.to_blocks_df(spark, field, (16, 24, 20))
    out = sparkio.reassemble(df.where("block_id != 0"), field.shape)
    assert np.isnan(out[:16, :24, :20]).all()
    hole = np.zeros(field.shape, dtype=bool)
    hole[:16, :24, :20] = True
    np.testing.assert_array_equal(out[~hole], field[~hole].astype(np.float64))


def test_compressed_blocks_smaller(block_tables):
    _, comp, _, _ = block_tables
    row = comp.agg(
        F.sum("orig_bytes").alias("ob"), F.sum("comp_bytes").alias("cb")
    ).collect()[0]
    assert row.cb < row.ob / 3


def test_float64_field_roundtrip(spark, field):
    """The compress kernel hands each block to the codec as a read-only
    ``np.frombuffer`` view; float64 blocks must compress from it and
    decode within the bound. (Blocks this size keep the interpolation
    predictor, which works in place; 20x20x18 ones go to Lorenzo.)"""
    f64 = field.astype(np.float64)
    e_abs = codecs.abs_bound(f64, 1e-3)
    orig = sparkio.to_blocks_df(spark, f64, (20, 40, 36))
    deco = sparkio.decompress_df(sparkio.compress_df(orig, "hpez", e_abs))
    out = sparkio.reassemble(deco, f64.shape)
    assert np.abs(out - f64).max() <= e_abs * (1 + 1e-6)


def test_parquet_store_roundtrip(spark, block_tables, field, tmp_path):
    _, comp, _, e_abs = block_tables
    path = str(tmp_path / "blocks.parquet")
    sparkio.write_compressed(comp, path)
    back = sparkio.read_compressed(spark, path)
    assert back.count() == comp.count()
    out = sparkio.reassemble(sparkio.decompress_df(back), field.shape)
    assert np.abs(out - field.astype(np.float64)).max() <= e_abs * (1 + 1e-6)


def test_error_stats_against_oracle(spark, block_tables):
    """Per-block stats aggregation: Spark SQL result must equal DuckDB
    computing the same aggregate over the same per-block stats table."""
    orig, _, deco, _ = block_tables
    stats = sparkio.blockwise_error_stats(orig, deco).cache()
    stats_pdf = stats.toPandas()
    agg = stats.groupBy().agg(
        F.sum("n").alias("total_n"),
        F.max("max_abs_err").alias("worst_err"),
        F.sum("sse").alias("total_sse"),
    )
    assert_equivalent(
        agg,
        "SELECT sum(n) AS total_n, max(max_abs_err) AS worst_err, "
        "sum(sse) AS total_sse FROM stats",
        stats=stats_pdf,
    )


def test_blockwise_join_against_oracle(spark, block_tables):
    """Join of compressed-size table with per-block error stats — the
    'which blocks are hard' query a scientific DB would run."""
    orig, comp, deco, _ = block_tables
    stats = sparkio.blockwise_error_stats(orig, deco)
    sizes = comp.select("block_id", "orig_bytes", "comp_bytes")
    joined = (
        sizes.join(stats, "block_id")
        .select(
            "block_id",
            (F.col("orig_bytes") / F.col("comp_bytes")).alias("cr"),
            "max_abs_err",
        )
        .orderBy("block_id")
    )
    assert_equivalent(
        joined,
        "SELECT s.block_id AS block_id, "
        "CAST(s.orig_bytes AS DOUBLE)/s.comp_bytes AS cr, t.max_abs_err "
        "FROM sizes s JOIN stats t ON s.block_id = t.block_id "
        "ORDER BY s.block_id",
        sizes=sizes.toPandas(),
        stats=stats.toPandas(),
    )


def test_global_summary_matches_numpy(block_tables, field):
    orig, _, deco, _ = block_tables
    stats = sparkio.blockwise_error_stats(orig, deco)
    row = global_error_summary(stats).collect()[0]
    out = sparkio.reassemble(deco, field.shape)
    err = out - field.astype(np.float64)
    assert row.n == field.size
    assert row.max_abs_err == pytest.approx(np.abs(err).max(), rel=1e-12)
    assert row.rmse == pytest.approx(np.sqrt((err**2).mean()), rel=1e-9)
    assert row.value_range == pytest.approx(metrics.value_range(field), rel=1e-9)


def test_per_codec_cr_summary_oracle(spark, field):
    """GROUP BY codec over a mixed compressed table, oracle-checked."""
    e_abs = 1e-3 * metrics.value_range(field)
    orig = sparkio.to_blocks_df(spark, field, (20, 20, 18))
    frames = [
        sparkio.compress_df(orig, c, e_abs, mode="abs")
        for c in ("sz3", "zfp", "hpez")
    ]
    allc = frames[0].unionByName(frames[1]).unionByName(frames[2])
    summary = (
        allc.groupBy("codec")
        .agg(
            (F.sum("orig_bytes") / F.sum("comp_bytes")).alias("cr"),
            F.count("*").alias("nblocks"),
        )
        .orderBy("codec")
    )
    assert_equivalent(
        summary,
        "SELECT codec, CAST(sum(orig_bytes) AS DOUBLE)/sum(comp_bytes) AS cr, "
        "count(*) AS nblocks FROM blocks GROUP BY codec ORDER BY codec",
        blocks=allc.select(
            "codec", "orig_bytes", "comp_bytes"
        ).toPandas(),
    )


def test_distributed_equals_local_blocks(spark, field):
    """Each distributed block decompression matches the local codec
    bit-for-bit (same kernel, same bytes)."""
    e_abs = 1e-3 * metrics.value_range(field)
    orig = sparkio.to_blocks_df(spark, field, (20, 40, 36))
    deco = sparkio.decompress_df(
        sparkio.compress_df(orig, "sz3", e_abs, mode="abs")
    )
    out = sparkio.reassemble(deco, field.shape)
    local = codecs.decompress(
        codecs.compress("sz3", field[:20], e_abs, mode="abs")
    )
    np.testing.assert_array_equal(out[:20], local)


def test_compress_df_takes_absolute_bound(spark, field):
    """Per-block ``rel`` would bound each block by its own value range,
    not the field's (§7.1.3), so it is refused before any Spark job."""
    orig = sparkio.to_blocks_df(spark, field, (20, 20, 18))
    with pytest.raises(ValueError, match=r"codecs\.abs_bound\(field, eps\)"):
        sparkio.compress_df(orig, "sz3", 1e-3, mode="rel")
    e_abs = codecs.abs_bound(field, 1e-3)
    row = sparkio.compress_df(orig.where("block_id = 0"), "sz3", e_abs).first()
    local = codecs.compress("sz3", field[:20, :20, :18], e_abs, mode="abs")
    assert row.blob == local
