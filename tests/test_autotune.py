"""Auto-tuning module tests (paper §6, Fig. 7)."""
from dataclasses import replace

import numpy as np
import pytest

from repro.core import autotune, interp
from repro.core.autotune import TuneOptions
from repro.core.interp import InterpConfig


def _freeze_friendly(shape=(10, 48, 48), seed=0):
    """Nearly independent smooth 2-D slices: axis 0 is non-smooth."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 2 * np.pi, shape[1])
    y = np.linspace(0, 2 * np.pi, shape[2])
    base = np.sin(x)[:, None] * np.cos(y)[None, :]
    f = np.stack(
        [float(rng.normal(0, 5)) + float(rng.normal(1, 2)) * base for _ in range(shape[0])]
    )
    return f.astype(np.float32)


def _smooth(shape=(40, 40, 36), seed=1):
    g = np.ogrid[tuple(slice(0.0, 1.0, complex(0, n)) for n in shape)]
    f = np.ones(shape)
    for gr in g:
        f = f * np.sin(2.5 * np.pi * gr)
    return f.astype(np.float32)


def test_axis_mse_detects_rough_axis():
    f = _freeze_friendly()
    sigma2 = autotune.axis_interp_mse(f)
    assert int(np.argmax(sigma2)) == 0


def test_axis_mse_smooth_data_small():
    f = _smooth()
    sigma2 = autotune.axis_interp_mse(f)
    assert sigma2.max() < 1e-2


def test_dimension_freezing_selected():
    f = _freeze_friendly()
    e = 1e-3 * float(f.max() - f.min())
    res = autotune.tune(f, e, TuneOptions())
    assert res.cfg.frozen_axes == (0,)


def test_freezing_actually_helps_here():
    f = _freeze_friendly()
    e = 1e-3 * float(f.max() - f.min())
    res = autotune.tune(f, e, TuneOptions())
    frozen_cfg = res.cfg
    unfrozen = replace(frozen_cfg, frozen_axes=(), block_cfg=None)
    b_frozen, _ = interp.compress(f, e, frozen_cfg)
    b_unfrozen, _ = interp.compress(f, e, unfrozen)
    assert len(b_frozen) < len(b_unfrozen)


def test_no_freeze_on_isotropic_data():
    """Isotropic turbulence offers no bad axis to freeze (§6.3 tests
    both ways and keeps the better ratio)."""
    from repro.datasets import generate

    f = generate("Miranda", "test")
    e = 1e-3 * float(f.max() - f.min())
    res = autotune.tune(f, e, TuneOptions())
    assert res.cfg.frozen_axes == ()


def test_eb_tuning_within_candidates():
    f = _smooth()
    e = 1e-3 * float(f.max() - f.min())
    res = autotune.tune(f, e, TuneOptions())
    assert (res.cfg.alpha, res.cfg.beta) in autotune.EB_CANDIDATES


def test_sample_blocks_cover_small_data():
    f = _smooth((16, 16, 16))
    blocks = autotune.sample_blocks(f)
    assert len(blocks) == 1
    assert blocks[0].shape == f.shape


def test_sample_blocks_spread():
    f = np.zeros((100, 40, 40), dtype=np.float32)
    blocks = autotune.sample_blocks(f, side=32)
    assert len(blocks) == autotune.N_SAMPLE_BLOCKS
    assert all(b.shape == (32, 32, 32) for b in blocks)


def test_lorenzo_chosen_on_lattice_data():
    """Piecewise-constant integer-lattice data is a Lorenzo showcase."""
    rng = np.random.default_rng(3)
    steps = np.cumsum(rng.integers(-2, 3, 4000))
    f = np.repeat(steps, 4).astype(np.float32).reshape(100, 160)
    e = 0.4
    res = autotune.tune(f, e, TuneOptions())
    assert res.use_lorenzo


def test_disabled_features_stay_disabled():
    f = _freeze_friendly()
    e = 1e-3 * float(f.max() - f.min())
    opts = TuneOptions(
        splines=("linear", "cubic_nak"),
        paradigms=("1d",),
        same_level=False,
        dim_freeze=False,
        lorenzo=False,
        blockwise=False,
    )
    res = autotune.tune(f, e, opts)
    assert not res.use_lorenzo
    assert res.cfg.frozen_axes == ()
    assert res.cfg.block_cfg is None
    for c in res.cfg.level_configs:
        assert c.paradigm == "1d"
        assert c.spline in ("linear", "cubic_nak")
        assert not c.same_level


def test_one_active_axis_offers_no_duplicate_candidates():
    """With one active axis ``md`` walks exactly like ``1d``, so the
    §6.2 candidates are the ``1d`` ones only; two axes offer both
    paradigms and both dimension orders."""
    splines = [("linear", False)] + [
        (sp, sl) for sp in ("cubic_nak", "cubic_nat") for sl in (False, True)
    ]
    assert autotune._candidate_configs(TuneOptions(), (0,)) == [
        InterpConfig("1d", sp, sl, None) for sp, sl in splines
    ]
    assert autotune._candidate_configs(TuneOptions(), (0, 2)) == [
        InterpConfig("1d", sp, sl, o) for sp, sl in splines for o in ((0, 2), (2, 0))
    ] + [InterpConfig("md", sp, sl, None) for sp, sl in splines]


def test_block_map_shape():
    f = _freeze_friendly((8, 80, 70))
    m = autotune.tune_blocks(f, TuneOptions(), (), "cubic_nak", 1e-3)
    if m is not None:
        assert m.shape == (1, 3, 3)


def test_tuned_config_compresses_within_bound():
    for maker in (_smooth, _freeze_friendly):
        f = maker()
        e = 1e-3 * float(f.max() - f.min())
        res = autotune.tune(f, e, TuneOptions())
        if res.use_lorenzo:
            continue
        blob, recon = interp.compress(f, e, res.cfg)
        assert np.abs(recon - f.astype(np.float64)).max() <= e * (1 + 1e-9)


def test_lorenzo_test_stops_once_lost(monkeypatch):
    """§6.5 stops encoding Lorenzo sample blocks once their running size
    already loses; the result is the full evaluation's."""
    from repro.core import lorenzo
    from repro.datasets import generate

    f = generate("CESM-ATM", "test")
    e = 1e-3 * float(f.max() - f.min())
    blocks = autotune.sample_blocks(f, autotune.TEST_TARGET)
    orig = lorenzo.compress
    calls = []

    def counted(b, e):
        calls.append(b.shape)
        return orig(b, e)

    monkeypatch.setattr(lorenzo, "compress", counted)
    res = autotune.tune(f, e, TuneOptions())
    monkeypatch.setattr(lorenzo, "compress", orig)
    assert 0 < len(calls) < len(blocks)

    # full evaluation: every block encoded, against the tuned crop size
    ref = autotune.tune(f, e, TuneOptions(lorenzo=False))
    crop_cfg = replace(ref.cfg, block_cfg=None)
    best_bytes, _ = autotune._crop_test(blocks, e, crop_cfg)
    full = sum(len(orig(b, e)) for b in blocks)
    assert full * autotune.LORENZO_COEF >= best_bytes
    assert not res.use_lorenzo
    assert res.cfg.md_sigma2 == ref.cfg.md_sigma2
    assert res.cfg.to_dict() == ref.cfg.to_dict()
    if ref.cfg.block_cfg is None:
        assert res.cfg.block_cfg is None
    else:
        np.testing.assert_array_equal(res.cfg.block_cfg, ref.cfg.block_cfg)


def _tune_blocks_per_block(data, opts, frozen, global_spline, e):
    """Reference: §6.6 scored one sub-block at a time (the loop the
    batched ``tune_blocks`` replaced); same arithmetic per block."""
    from repro.core.splines import SPLINE_CHOICES, line_predict

    B = interp.BLOCK
    nblocks = tuple((n + B - 1) // B for n in data.shape)
    if int(np.prod(nblocks)) <= 1:
        return None
    cfg_map = np.zeros(nblocks, dtype=np.uint8)
    sub = max(7, int(round(B * 0.04 ** (1.0 / data.ndim))))
    active = [d for d in range(data.ndim) if d not in frozen and data.shape[d] >= 8]
    if not active:
        return None
    for bidx in np.ndindex(*nblocks):
        sel = []
        for d, bi in enumerate(bidx):
            lo, hi = bi * B, min(bi * B + B, data.shape[d])
            w = min(sub, hi - lo)
            s0 = max(lo, min((lo + hi) // 2 - w // 2, hi - w))
            sel.append(slice(s0, s0 + w))
        blk = data[tuple(sel)].astype(np.float64)
        errs = []
        for name in opts.splines:
            nz, total = 0, 0.0
            for d in active:
                if blk.shape[d] < 7:
                    continue
                tpos = range(3, blk.shape[d] - 3)
                if not tpos:
                    continue
                err = np.take(blk, tpos, axis=d) - line_predict(blk, tpos, name, axis=d)
                nz += int(np.count_nonzero(np.rint(err / (2.0 * e))))
                total += float(np.abs(err).sum())
            errs.append((nz, total))
        gi = opts.splines.index(global_spline) if global_spline in opts.splines else 0
        bi = min(range(len(errs)), key=lambda i: errs[i])
        if errs[bi][0] >= 0.6 * errs[gi][0]:
            bi = gi
        cfg_map[bidx] = SPLINE_CHOICES.index(opts.splines[bi])
    return None if np.unique(cfg_map).size == 1 else cfg_map


@pytest.mark.parametrize(
    "shape, frozen",
    [((70, 90), ()), ((40, 75, 66), ()), ((40, 75, 66), (0,)), ((300,), ())],
)
@pytest.mark.parametrize("global_spline", ["cubic_nak", "linear"])
def test_tune_blocks_matches_per_block_loop(shape, frozen, global_spline):
    """Scoring all same-shaped sub-blocks in one stack gives the map the
    per-block loop gives, edge blocks of other shapes included."""
    rng = np.random.default_rng(sum(shape))
    g = np.ogrid[tuple(slice(0.0, 1.0, complex(0, n)) for n in shape)]
    f = sum(np.sin(7.0 * np.pi * x) for x in g)
    f = f + (rng.standard_normal(shape) * (g[-1] > 0.5)).astype(np.float64)
    f = f.astype(np.float32)
    opts = TuneOptions()
    for e in (1e-3, 1e-2, 1e-1):
        got = autotune.tune_blocks(f, opts, frozen, global_spline, e)
        want = _tune_blocks_per_block(f, opts, frozen, global_spline, e)
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)


def test_probe_scores_the_payload_code_stream():
    """A §6.2 probe quantizes as the encoder does: on a one-level walk
    whose residuals saturate the quantizer, it scores exactly the bytes
    of the payload's ``codes`` section."""
    from repro.core import container
    from repro.core.interp import EngineConfig

    f = np.zeros(1025)
    rng = np.random.default_rng(0)
    f[1::8] = 1e6 * rng.choice([-1.0, 1.0], f[1::8].size)
    e = 1.0
    cfg = EngineConfig(
        anchor_stride=2,
        level_configs=(InterpConfig("1d", "cubic_nak", False, None),),
    )
    nbytes, count = autotune._probe_level(f.copy(), e, cfg, 1)
    blob, _ = interp.compress(f, e, cfg)
    assert nbytes == len(container.unpack(blob)["codes"])
    assert count == interp.stream_size(f.shape, cfg)


def test_crop_test_scores_the_crop_in_its_own_dtype():
    """§6.3–6.5 crop tests price the payload the crop gets: a float64
    crop keeps its float64 anchors and literals (no float32 cast)."""
    rng = np.random.default_rng(2)
    crop = _smooth((24, 24, 20)).astype(np.float64) + 1e-6 * rng.standard_normal((24, 24, 20))
    e = 1e-5
    cfg = interp.EngineConfig()
    nbytes, _ = autotune._crop_test([crop], e, cfg)
    assert nbytes == len(interp.compress(crop, e, cfg)[0])
