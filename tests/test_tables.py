"""Table-computation tests: structure and headline invariants of each
reproduced evaluation table, at test scale with reduced codec sets so
the suite stays fast (the jobs run the full bench versions)."""
import pytest

from repro import tables


def test_table1_inventory():
    rows = tables.table1_datasets("test")
    assert len(rows) == 8
    names = {r["dataset"] for r in rows}
    assert "CESM-ATM" in names and "APS" in names
    assert sum(r["type"] == "Integer" for r in rows) == 2


def test_table2_speeds_structure():
    rows = tables.table2_speeds(
        "test", codec_names=("zfp", "sz3"), datasets=("Miranda",)
    )
    assert len(rows) == 2
    for r in rows:
        assert r["comp_mbps"] > 0 and r["decomp_mbps"] > 0
        # medians of SPEED_REPEATS timed runs, with their range
        assert r["comp_min"] <= r["comp_mbps"] <= r["comp_max"]
        assert r["decomp_min"] <= r["decomp_mbps"] <= r["decomp_max"]


def test_table2_zfp_fastest_highperf():
    """Paper Table 2 shape: ZFP has the highest compression speed."""
    rows = tables.table2_speeds(
        "test", codec_names=("zfp", "sz3", "qoz", "hpez"), datasets=("Miranda",)
    )
    speeds = {r["codec"]: r["comp_mbps"] for r in rows}
    assert speeds["zfp"] == max(speeds.values())


def test_table3_improvement_on_freeze_dataset():
    """Paper Table 3 shape: HPEZ improves over the best baseline on
    CESM-ATM by a large margin."""
    rows = tables.table3_cr_highperf(
        "test", eps_list=(1e-3,), datasets=("CESM-ATM",)
    )
    assert rows[0]["improve_pct"] > 20.0
    assert rows[0]["hpez"] > rows[0]["zfp"]


def test_table4_structure():
    rows = tables.table4_cr_highratio(
        "test", eps_list=(1e-3,), datasets=("SCALE",)
    )
    r = rows[0]
    for c in ("sperr", "faz", "tthresh", "hpez"):
        assert r[c] > 1.0


def test_table5_model_rows():
    rows = tables.table5_transfer(
        "test",
        codec_names=("zfp", "hpez"),
        datasets=("Miranda",),
    )
    assert len(rows) == 2
    for r in rows:
        assert r["time_s"] > 0
        assert 60 < r["psnr"] < 100


def test_table6_fvfi_speed_order():
    """Paper Table 6 shape: fast-varying-first is never slower."""
    rows = tables.table6_fvfi("test", datasets=("Miranda",))
    by = {r["fvfi"]: r for r in rows}
    assert by[True]["comp_mbps"] > by[False]["comp_mbps"]
    assert by[True]["decomp_mbps"] > by[False]["decomp_mbps"]

