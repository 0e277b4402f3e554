"""Integration tests: every codec x dataset x eps holds the bound and
roundtrips through the self-describing registry (paper §7.1.2/§7.1.3)."""
from dataclasses import replace

import numpy as np
import pytest

from repro import codecs
from repro.core import container, metrics, pipeline
from repro.core.pipeline import PRESETS, PredictionCodec
from repro.datasets import DATASETS, FP_DATASETS, INT_DATASETS, generate

_EPS = (1e-2, 1e-3)

#: slow high-ratio codecs are exercised on a subset to keep CI sane;
#: the bench jobs cover the full matrix.
_FULL_MATRIX = [
    (c, d) for c in codecs.HIGH_PERFORMANCE for d in DATASETS
] + [
    (c, d)
    for c in codecs.HIGH_RATIO
    for d in ("RTM", "Miranda", "SCALE", "JHTDB")
]


@pytest.mark.parametrize("codec,dataset", _FULL_MATRIX)
@pytest.mark.parametrize("eps", _EPS)
def test_bound_and_roundtrip(codec, dataset, eps):
    data = generate(dataset, "test")
    blob = codecs.compress(codec, data, eps)
    recon = codecs.decompress(blob)
    assert recon.shape == data.shape
    e = metrics.value_range(data) * eps
    assert metrics.max_abs_err(data, recon) <= e * (1 + 1e-6), (
        codec,
        dataset,
        eps,
    )
    e_abs = codecs.abs_bound(data, eps)
    assert codecs.compress(codec, data, e_abs, mode="abs") == blob


@pytest.mark.parametrize("codec", codecs.ALL_CODECS)
def test_cr_monotone_in_eps(codec):
    data = generate("Miranda", "test")
    sizes = [
        len(codecs.compress(codec, data, eps)) for eps in (1e-2, 1e-3, 1e-4)
    ]
    assert sizes[0] <= sizes[1] <= sizes[2]


@pytest.mark.parametrize("codec", codecs.ALL_CODECS)
def test_determinism(codec):
    data = generate("SCALE", "test")
    b1 = codecs.compress(codec, data, 1e-3)
    b2 = codecs.compress(codec, data, 1e-3)
    assert b1 == b2


@pytest.mark.parametrize("dataset", INT_DATASETS)
@pytest.mark.parametrize("codec", ("sz3", "qoz", "hpez"))
def test_integer_datasets(codec, dataset):
    """§7.2.6: integer-supportive codecs on the integer datasets."""
    data = generate(dataset, "test")
    blob = codecs.compress(codec, data, 1e-3)
    recon = codecs.decompress(blob)
    e = metrics.value_range(data) * 1e-3
    assert metrics.max_abs_err(data, recon) <= e * (1 + 1e-6)


def test_hpez_beats_or_matches_qoz_on_freeze_data():
    """The paper's headline: HPEZ >= QoZ, by a lot where dimension
    freezing applies (CESM-ATM / SCALE; Table 3, Fig. 17)."""
    for ds in ("CESM-ATM", "SCALE"):
        data = generate(ds, "test")
        hp = len(codecs.compress("hpez", data, 1e-3))
        qz = len(codecs.compress("qoz", data, 1e-3))
        assert hp < qz, ds


def test_hpez_competitive_on_smooth_data():
    """On smooth sets HPEZ stays within a few percent of QoZ even when
    the new features do not fire (never catastrophically worse)."""
    for ds in ("RTM", "Miranda", "SegSalt", "JHTDB"):
        data = generate(ds, "test")
        hp = len(codecs.compress("hpez", data, 1e-3))
        qz = len(codecs.compress("qoz", data, 1e-3))
        assert hp < qz * 1.10, ds


def test_zfp_lowest_ratio_archetype():
    """ZFP's local 4^d transform gives the lowest CR of the high-
    performance group (paper Table 3)."""
    data = generate("Miranda", "test")
    zf = len(codecs.compress("zfp", data, 1e-3))
    for other in ("sz3", "qoz", "hpez"):
        assert zf > len(codecs.compress(other, data, 1e-3))


def test_faz_at_least_best_of_parents():
    """FAZ keeps the smaller of its two pipelines (within framing
    overhead)."""
    data = generate("SCALE", "test")
    fz = len(codecs.compress("faz", data, 1e-3))
    sp = len(codecs.compress("sperr", data, 1e-3))
    assert fz <= sp * 1.01


def test_psnr_target_mode():
    """hpez tuned for the rate-distortion target (§3.1 metric M) writes a
    payload the registered hpez decoder reads within the bound."""
    data = generate("Miranda", "test")
    e = metrics.value_range(data) * 1e-3
    codec = PredictionCodec("hpez", replace(PRESETS["hpez"], target="psnr"))
    recon = pipeline.decompress(codec.compress(data, e))
    assert metrics.max_abs_err(data, recon) <= e * (1 + 1e-6)


@pytest.mark.parametrize("codec", codecs.ALL_CODECS)
@pytest.mark.parametrize("dataset", ["SegSalt", "CESM-ATM"])
@pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
def test_float64_input_kept_and_bounded(codec, dataset, writeable):
    """A C-contiguous float64 input is not the codec's working buffer: it
    is left unchanged, is accepted read-only (as ``compress_df``'s kernel
    hands over each block's bytes), and decodes within the bound of a
    copy taken before compressing."""
    data = generate(dataset, "test").astype(np.float64)
    keep = data.copy()
    data.flags.writeable = writeable
    blob = codecs.compress(codec, data, 1e-3)
    np.testing.assert_array_equal(data, keep)
    e = codecs.abs_bound(keep, 1e-3)
    assert metrics.max_abs_err(keep, codecs.decompress(blob)) <= e * (1 + 1e-6)


def _field24() -> np.ndarray:
    g = np.ogrid[0.0:1.0:24j, 0.0:1.0:24j]
    return (np.sin(6 * g[0]) * np.cos(5 * g[1]) + 10 * g[0] * g[1]).astype(
        np.float32
    )


@pytest.mark.parametrize("codec", codecs.ALL_CODECS)
@pytest.mark.parametrize("mode", ["rel", "abs"])
@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, None], ids=["nan", "+inf", "-inf", "empty"]
)
def test_rejects_unboundable_input(codec, mode, bad):
    """No codec can hold ``max|x - x'| <= e`` on non-finite or empty
    input, so ``codecs.compress`` refuses it instead of returning a
    payload that silently breaks the bound (also with an absolute bound,
    as the Spark kernels pass)."""
    if bad is None:
        data = np.zeros((0, 8), dtype=np.float32)
    else:
        data = _field24()
        data[5, 7] = bad
    with pytest.raises(ValueError):
        codecs.compress(codec, data, 1e-3, mode=mode)


@pytest.mark.parametrize("codec", codecs.ALL_CODECS)
@pytest.mark.parametrize(
    "eps,mode",
    [
        (0.0, "rel"),
        (-1e-3, "rel"),
        (np.nan, "rel"),
        (np.inf, "rel"),
        (1e-3, "relative"),
    ],
    ids=["zero", "negative", "nan", "inf", "mode-typo"],
)
def test_rejects_invalid_bound(codec, eps, mode):
    with pytest.raises(ValueError):
        codecs.compress(codec, _field24(), eps, mode=mode)


def test_abs_bound():
    f = _field24()
    r = metrics.value_range(f)
    assert codecs.abs_bound(f, 1e-3) == 1e-3 * r
    assert codecs.abs_bound(f, 0.5, mode="abs") == 0.5
    assert codecs.abs_bound(np.full((4, 4), 3.0), 1e-3) == 1e-3


def test_roundtrip_checks_the_bound(monkeypatch):
    data = generate("Miranda", "test")
    blob, recon, t_comp, t_dec = codecs.roundtrip("sz3", data, 1e-3)
    assert blob == codecs.compress("sz3", data, 1e-3)
    np.testing.assert_array_equal(recon, codecs.decompress(blob))
    assert t_comp > 0 and t_dec > 0
    e = codecs.abs_bound(data, 1e-3)
    real = codecs.decompress
    monkeypatch.setattr(codecs, "decompress", lambda b: real(b) + 2 * e)
    with pytest.raises(RuntimeError, match="bound violated"):
        codecs.roundtrip("sz3", data, 1e-3)


def test_unknown_codec_raises():
    with pytest.raises(KeyError):
        codecs.compress("nope", np.zeros((4, 4), dtype=np.float32), 1e-3)


def test_registry_is_the_presets():
    """sz3, qoz and hpez are one codec with three option sets, and one
    decoder reads them all (and FAZ's interpolation leg)."""
    for name, opts in PRESETS.items():
        assert codecs._CODECS[name] == PredictionCodec(name, opts)
        assert codecs._CODECS[name].decompress is pipeline.decompress


def _edit(m, edits):
    """``m`` with ``edits`` merged in, nested dicts too; ``None`` values
    drop a key."""
    for k, v in edits.items():
        if v is None:
            m.pop(k, None)
        else:
            m[k] = _edit(m[k], v) if isinstance(v, dict) else v
    return m


def _edit_meta(sections, edits):
    if edits is not None:
        m = _edit(container.from_json(sections["meta"]), edits)
        sections["meta"] = container.json_section(m)


def _damaged(outer=None, meta=None, inner=None):
    """A hand-packed hpez blob: ``outer`` replaces dispatch sections,
    ``meta`` edits the prediction meta and ``inner`` the interpolation
    meta (``None`` values drop a key)."""
    data = generate("Miranda", "test")
    sec = container.unpack(codecs.compress("hpez", data, 1e-2))
    payload = container.unpack(sec["payload"])
    _edit_meta(payload, meta)
    interp_payload = container.unpack(payload["inner"])
    _edit_meta(interp_payload, inner)
    payload["inner"] = container.pack(list(interp_payload.items()))
    sec["payload"] = container.pack(list(payload.items()))
    sec |= outer or {}
    return container.pack([(k, v) for k, v in sec.items() if v is not None])


@pytest.mark.parametrize(
    "outer,meta,inner,match",
    [
        ({"codec": b"nope"}, None, None, "unknown codec tag 'nope'"),
        ({"payload": None}, None, None, "no section 'payload'"),
        ({"codec": None}, None, None, "no section 'codec'"),
        (None, {"kind": None}, None, "unknown predictor kind None"),
        (None, {"kind": "spline"}, None, "unknown predictor kind 'spline'"),
        (None, None, {"shape": None}, "no meta key 'shape'"),
        (None, None, {"cfg": None}, "no meta key 'cfg'"),
        (None, None, {"e": None}, "no meta key 'e'"),
        (None, None, {"cfg": {"alpha": None}}, "no meta key 'alpha'"),
    ],
    ids=[
        "unknown-tag",
        "no-payload",
        "no-codec",
        "no-kind",
        "bad-kind",
        "no-shape",
        "no-cfg",
        "no-e",
        "no-alpha",
    ],
)
def test_damaged_dispatch_raises_value_error(outer, meta, inner, match):
    """A blob whose dispatch data or meta is damaged raises
    ``ValueError``, the error every other damage check raises, not
    ``KeyError``."""
    with pytest.raises(ValueError, match=match):
        codecs.decompress(_damaged(outer, meta, inner))
