"""Integration tests: every codec x dataset x eps holds the bound and
roundtrips through the self-describing registry (paper §7.1.2/§7.1.3)."""
import functools
import math
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
    codec = PredictionCodec(replace(PRESETS["hpez"], target="psnr"))
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
    "bad",
    [np.nan, np.inf, -np.inf, None, ()],
    ids=["nan", "+inf", "-inf", "empty", "0-d"],
)
def test_rejects_unboundable_input(codec, mode, bad):
    """No codec can hold ``max|x - x'| <= e`` on non-finite, empty or
    0-d input, so ``codecs.compress`` refuses it instead of returning a
    payload that silently breaks the bound (also with an absolute bound,
    as the Spark kernels pass)."""
    if bad is None:
        data = np.zeros((0, 8), dtype=np.float32)
    elif bad == ():
        data = np.asarray(3.5)
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


#: id -> (codec, scale of N(0, 1) seed 5, shape, eps, mode)
_EDGE_CASES = {
    # §6.1's per-axis MSE overflows, so Eq. 12's weights are 0/0 = NaN
    "hpez-1e300": ("hpez", 1e300, (24, 24, 24), 1e-3, "rel"),
    "hpez-1e307": ("hpez", 1e307, (24, 24, 24), 1e-3, "rel"),
    "faz-1e300": ("faz", 1e300, (24, 24, 24), 1e-3, "rel"),
    # rint(err / e) of a correction does not fit in int64
    "sperr-e1e-17": ("sperr", 1e3, (16, 16, 16), 1e-17, "abs"),
    "tthresh-e1e-17": ("tthresh", 1e3, (16, 16, 16), 1e-17, "abs"),
    "faz-e1e-17": ("faz", 1e3, (16, 16, 16), 1e-17, "abs"),
    "zfp-e1e-200": ("zfp", 1e3, (16, 16, 16), 1e-200, "abs"),
    # the wavelet overflows to NaN
    "sperr-1e307": ("sperr", 1e307, (24, 24, 24), 1e-3, "rel"),
    # e is ~900 ulps of the data: no Lorenzo lattice point within e
    "sz3-e1e-10": ("sz3", 1e3, (16, 16, 16), 1e-10, "abs"),
    "hpez-e1e-10": ("hpez", 1e3, (16, 16, 16), 1e-10, "abs"),
}


@pytest.mark.parametrize(
    "codec,scale,shape,eps,mode", list(_EDGE_CASES.values()), ids=list(_EDGE_CASES)
)
def test_holds_the_bound_or_raises_value_error(codec, scale, shape, eps, mode):
    """At the edges of float64 a codec either refuses the input with
    ``ValueError`` or decodes it within ``e`` (a NaN fails the check)."""
    data = scale * np.random.default_rng(5).standard_normal(shape)
    e = codecs.abs_bound(data, eps, mode)
    try:
        blob = codecs.compress(codec, data, eps, mode=mode)
    except ValueError:
        return
    err = metrics.max_abs_err(data, codecs.decompress(blob))
    assert err <= e * (1 + metrics.BOUND_SLACK), (codec, err / e)


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
    """sz3, qoz, hpez and the Table 6 ablation are one codec with four
    option sets, and one decoder reads them all (and FAZ's interpolation
    leg)."""
    for name, opts in PRESETS.items():
        assert codecs._CODECS[name] == PredictionCodec(opts)
        assert codecs._CODECS[name].decompress is pipeline.decompress
    assert PRESETS["hpez-nofvfi"] == replace(PRESETS["hpez"], fvfi=False)
    assert "hpez-nofvfi" not in codecs.ALL_CODECS


def _edit(m, edits):
    """``m`` with ``edits`` merged in, nested dicts too; ``None`` values
    drop a key."""
    for k, v in edits.items():
        if v is None:
            m.pop(k, None)
        else:
            m[k] = _edit(m[k], v) if isinstance(v, dict) else v
    return m


def _edit_at(blob, sections, edit):
    """``blob`` with ``edit`` applied to the meta object at ``sections``."""
    sec = container.unpack(blob)
    name, *rest = sections
    if rest:
        sec[name] = _edit_at(sec[name], rest, edit)
    else:
        meta = container.from_json(sec[name])
        edit(meta)
        sec[name] = container.json_section(meta)
    return container.pack(list(sec.items()))


def _damaged(outer=None, meta=None, inner=None):
    """A hand-packed hpez blob: ``outer`` replaces dispatch sections,
    ``meta`` edits the prediction meta and ``inner`` the interpolation
    meta (``None`` values drop a key)."""
    blob = codecs.compress("hpez", generate("Miranda", "test"), 1e-2)
    for sections, edits in (
        (("payload", "meta"), meta),
        (("payload", "inner", "meta"), inner),
    ):
        if edits is not None:
            blob = _edit_at(blob, sections, lambda m: _edit(m, edits))
    sec = container.unpack(blob)
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
        (None, None, {"shape": "ab"}, "meta key 'shape' is not list"),
        (None, None, {"cfg": {"alpha": "x"}}, "meta key 'alpha' is not float"),
        (None, None, {"cfg": {"level_configs": 3}}, "meta key 'level_configs' is not list"),
        (None, None, {"cfg": {"fvfi": "no"}}, "meta key 'fvfi' is not bool"),
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
        "str-shape",
        "str-alpha",
        "int-level-configs",
        "str-fvfi",
    ],
)
def test_damaged_dispatch_raises_value_error(outer, meta, inner, match):
    """A blob whose dispatch data or meta is damaged (a key missing, a
    value of the wrong type) raises ``ValueError``, the error every other
    damage check raises, not ``KeyError`` or ``TypeError``."""
    with pytest.raises(ValueError, match=match):
        codecs.decompress(_damaged(outer, meta, inner))


#: sections that hold a nested container
_NESTED = ("payload", "inner")


def _key_paths(obj, path=()):
    """The path to every key of every JSON object in ``obj``."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield path + (k,)
            yield from _key_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _key_paths(v, path + (i,))


def _meta_keys(blob, sections=()):
    """``(sections, key path)`` of every key of every JSON meta, at every
    container level of ``blob``."""
    for name, data in container.unpack(blob).items():
        if name == "meta":
            for keys in _key_paths(container.from_json(data)):
                yield sections + (name,), keys
        elif name in _NESTED:
            yield from _meta_keys(data, sections + (name,))


def _drop(keys):
    def edit(meta):
        for k in keys[:-1]:
            meta = meta[k]
        del meta[keys[-1]]

    return edit


#: every registered codec on one field, plus the legs Miranda does not
#: reach: Lorenzo (APS) and FAZ's wavelet leg (RTM)
_META_CASES = [(c, "Miranda") for c in codecs.ALL_CODECS + ("hpez-nofvfi",)] + [
    ("hpez", "APS"),
    ("faz", "RTM"),
]


@pytest.mark.parametrize("codec,dataset", _META_CASES)
def test_every_meta_key_is_read(codec, dataset):
    """A payload holds no fact its decoder does not read: deleting any
    key of any JSON meta, at any container level, makes the decode raise
    ``ValueError``."""
    blob = codecs.compress(codec, generate(dataset, "test"), 1e-3)
    keys = list(_meta_keys(blob))
    assert keys
    for sections, key in keys:
        with pytest.raises(ValueError):
            codecs.decompress(_edit_at(blob, sections, _drop(key)))


def _set(keys, value):
    def edit(meta):
        for k in keys[:-1]:
            meta = meta[k]
        meta[keys[-1]] = value

    return edit


_INNER = ("payload", "inner", "meta")
_OUTER = ("payload", "meta")
_WRONG = "holds a wrong value"
_UNFIT = "does not fit shape"


@functools.lru_cache(maxsize=None)
def _blob(codec, dataset):
    return codecs.compress(codec, generate(dataset, "test"), 1e-3)


@pytest.mark.parametrize(
    "codec,dataset,sections,keys,value,match",
    [
        ("hpez", "APS", _INNER, ("order",), 3, _WRONG),
        ("hpez", "APS", _INNER, ("order",), 0, _WRONG),
        ("hpez", "APS", _INNER, ("e",), -1.0, _WRONG),
        ("hpez", "Miranda", _INNER, ("cfg", "level_configs", 0, "paradigm"), "xx", _WRONG),
        ("hpez", "Miranda", _INNER, ("cfg", "level_configs", 0, "spline"), "foo", _WRONG),
        ("hpez", "Miranda", _INNER, ("cfg", "level_configs"), [], _WRONG),
        ("hpez", "Miranda", _INNER, ("cfg", "anchor_stride"), 33, _WRONG),
        ("hpez", "Miranda", _INNER, ("cfg", "anchor_stride"), 1, _WRONG),
        ("hpez", "Miranda", _INNER, ("cfg", "alpha"), 0, _WRONG),
        ("hpez", "Miranda", _INNER, ("cfg", "alpha"), math.inf, _WRONG),
        ("hpez", "Miranda", _INNER, ("cfg", "beta"), -1, _WRONG),
        ("hpez", "Miranda", _INNER, ("e",), -1.0, _WRONG),
        ("hpez", "Miranda", _INNER, ("e",), 0, _WRONG),
        ("hpez", "Miranda", _INNER, ("e",), 10**400, _WRONG),
        ("hpez", "Miranda", _INNER, ("cfg", "level_configs", 0, "dim_order"), [7, 0], _UNFIT),
        ("hpez", "Miranda", _INNER, ("cfg", "frozen_axes"), [0, 0], _UNFIT),
        ("hpez", "Miranda", _INNER, ("cfg", "frozen_axes"), [3], _UNFIT),
        ("hpez", "Miranda", _INNER, ("cfg", "md_sigma2"), [1.0], _UNFIT),
        ("sperr", "Miranda", _OUTER, ("step",), 0, _WRONG),
        ("sperr", "Miranda", _OUTER, ("e",), -1.0, _WRONG),
        ("tthresh", "Miranda", _OUTER, ("step",), 0, _WRONG),
        ("zfp", "Miranda", _OUTER, ("e",), -1.0, _WRONG),
        ("zfp", "Miranda", _OUTER, ("frac_bits",), 40.0, "meta key 'frac_bits' is not int"),
    ],
    ids=[
        "lorenzo-order-3",
        "lorenzo-order-0",
        "lorenzo-e",
        "paradigm",
        "spline",
        "no-level-configs",
        "anchor-stride-33",
        "anchor-stride-1",
        "alpha-0",
        "alpha-inf",
        "beta-negative",
        "e-negative",
        "e-zero",
        "e-huge-int",
        "dim-order",
        "frozen-twice",
        "frozen-no-axis",
        "md-sigma2-length",
        "sperr-step",
        "sperr-e",
        "tthresh-step",
        "zfp-e",
        "zfp-float-frac-bits",
    ],
)
def test_wrong_meta_value_raises_value_error(codec, dataset, sections, keys, value, match):
    """A meta value of the right JSON type that the encoder never writes
    (an order, name, axis, stride or bound out of its range) raises
    ``ValueError`` where it is read, not a wrong decode, ``KeyError``,
    ``IndexError`` or ``ZeroDivisionError``."""
    bad = _edit_at(_blob(codec, dataset), sections, _set(keys, value))
    with pytest.raises(ValueError, match=match):
        codecs.decompress(bad)


def test_zfp_rejects_other_frac_bits():
    blob = codecs.compress("zfp", generate("Miranda", "test"), 1e-3)
    bad = _edit_at(blob, ("payload", "meta"), lambda m: m.update(frac_bits=39))
    with pytest.raises(ValueError, match="frac_bits=39"):
        codecs.decompress(bad)
