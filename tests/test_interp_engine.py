"""Interpolation engine tests (paper §5): roundtrip identity, strict
error bound, grid coverage, freezing, block configs, level error bounds."""
import dataclasses

import numpy as np
import pytest

from repro.core import codes, container, interp, lossless, quantizer
from repro.core.interp import EngineConfig, InterpConfig, passes


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    grids = np.ogrid[tuple(slice(0.0, 1.0, complex(0, n)) for n in shape)]
    f = np.zeros(shape)
    for g in grids:
        f = f + np.sin(3.1 * np.pi * g)
    return (f + 0.05 * rng.standard_normal(shape)).astype(np.float32)


def _roundtrip(f, cfg, rel_eps=1e-3):
    e = rel_eps * float(f.max() - f.min())
    blob, recon = interp.compress(f, e, cfg)
    out = interp.decompress(blob)
    return e, recon, out


@pytest.mark.parametrize("paradigm", ["1d", "md"])
@pytest.mark.parametrize("spline", ["linear", "cubic_nak", "cubic_nat"])
@pytest.mark.parametrize("same_level", [False, True])
def test_roundtrip_bound_3d(paradigm, spline, same_level):
    f = _field((33, 20, 18))
    cfg = EngineConfig(
        level_configs=(InterpConfig(paradigm, spline, same_level, None),)
    )
    e, recon, out = _roundtrip(f, cfg)
    np.testing.assert_array_equal(out, recon)
    assert np.abs(out - f.astype(np.float64)).max() <= e


@pytest.mark.parametrize("shape", [(257,), (40, 41), (9, 10, 11), (6, 7, 8, 9)])
def test_roundtrip_all_dims(shape):
    f = _field(shape)
    cfg = EngineConfig()
    e, recon, out = _roundtrip(f, cfg)
    np.testing.assert_array_equal(out, recon)
    assert np.isfinite(out).all()
    assert np.abs(out - f.astype(np.float64)).max() <= e


@pytest.mark.parametrize("fvfi", [False, True])
@pytest.mark.parametrize("paradigm", ["1d", "md"])
def test_fvfi_traversals_equivalent(fvfi, paradigm):
    """fvfi changes traversal (speed), never values (§5.4.1)."""
    f = _field((24, 18, 22), seed=3)
    cfg = EngineConfig(
        level_configs=(InterpConfig(paradigm, "cubic_nak", True, None),),
        fvfi=fvfi,
    )
    e, recon, out = _roundtrip(f, cfg)
    np.testing.assert_array_equal(out, recon)
    assert np.abs(out - f.astype(np.float64)).max() <= e


def test_fvfi_same_reconstruction():
    """Same final reconstruction either way — only the literal stream
    order differs."""
    f = _field((20, 22, 24), seed=4)
    e = 1e-3 * float(f.max() - f.min())
    _, r1 = interp.compress(f, e, EngineConfig(fvfi=True))
    _, r2 = interp.compress(f, e, EngineConfig(fvfi=False))
    np.testing.assert_allclose(r1, r2, atol=0, rtol=0)


@pytest.mark.parametrize("frozen", [(0,), (1,), (2,)])
def test_dimension_freezing(frozen):
    """§6.3: no interpolation along the frozen axis; bound still holds."""
    f = _field((12, 20, 24), seed=5)
    cfg = EngineConfig(frozen_axes=frozen)
    e, recon, out = _roundtrip(f, cfg)
    np.testing.assert_array_equal(out, recon)
    assert np.abs(out - f.astype(np.float64)).max() <= e


def test_frozen_axis_anchor_density():
    """Anchors cover every position of the frozen axis (Fig. 8)."""
    shape = (8, 40, 40)
    cfg = EngineConfig(frozen_axes=(0,))
    sels = [p.sel for p in passes(shape, cfg)]
    covered = np.zeros(shape, dtype=int)
    for sel in sels:
        covered[sel] += 1
    # anchors = positions never targeted by a pass
    anchors = covered == 0
    assert anchors[:, 0, 0].all()  # whole frozen axis at anchor column


@pytest.mark.parametrize(
    "shape", [(31,), (32,), (33,), (17, 23), (16, 16, 16), (33, 20, 18), (5, 64, 3)]
)
@pytest.mark.parametrize("paradigm", ["1d", "md"])
def test_pass_selections_cover_exactly_once(shape, paradigm):
    """Every non-anchor point is targeted by exactly one pass, so the
    code stream serialized in pass order holds every code once."""
    cfg = EngineConfig(
        level_configs=(InterpConfig(paradigm, "cubic_nak", False, None),)
    )
    covered = np.zeros(shape, dtype=int)
    for p in passes(shape, cfg):
        covered[p.sel] += 1
    frozen = ()
    active = tuple(d for d in range(len(shape)) if shape[d] >= 2)
    anchor_sel = tuple(
        slice(0, None, cfg.anchor_stride) if d in active else slice(None)
        for d in range(len(shape))
    )
    expect = np.ones(shape, dtype=int)
    expect[anchor_sel] = 0
    np.testing.assert_array_equal(covered, expect)


@pytest.mark.parametrize("shape", [(33,), (17, 23), (19, 23, 17), (7, 9, 6, 10)])
@pytest.mark.parametrize("paradigm", ["1d", "md"])
@pytest.mark.parametrize("same_level", [False, True])
@pytest.mark.parametrize("fvfi", [True, False])
@pytest.mark.parametrize("slab", [1, interp.SLAB])
def test_pass_steps_cover_targets_and_codes_once(
    monkeypatch, shape, paradigm, same_level, fvfi, slab
):
    """A pass's steps cover its targets and its chunk of the code stream
    exactly once, each step's codes have the shape of its targets, and
    its positions are its targets' indices along the pass's axes."""
    monkeypatch.setattr(interp, "SLAB", slab)
    cfg = EngineConfig(
        level_configs=(InterpConfig(paradigm, "cubic_nat", same_level, None),),
        fvfi=fvfi,
    )
    for p in passes(shape, cfg):
        s = 1 << (p.level - 1)
        targets = np.zeros(shape, dtype=int)
        chunk = np.zeros(p.shape, dtype=int)
        for st in p.steps:
            assert targets[st.sel].shape == chunk[st.out].shape
            targets[st.sel] += 1
            chunk[st.out] += 1
            for d, t in zip(p.axes, st.tpos):
                assert [s * j for j in t] == list(range(shape[d])[st.sel[d]])
        expect = np.zeros(shape, dtype=int)
        expect[p.sel] = 1
        np.testing.assert_array_equal(targets, expect)
        assert (chunk == 1).all()


def test_decompress_no_nan():
    """The decompressor starts from NaN; a NaN in the output would mean
    it read an unwritten point."""
    f = _field((19, 21, 23), seed=6)
    for paradigm in ("1d", "md"):
        for sl in (False, True):
            cfg = EngineConfig(
                level_configs=(InterpConfig(paradigm, "cubic_nat", sl, None),)
            )
            e = 1e-3 * float(f.max() - f.min())
            blob, _ = interp.compress(f, e, cfg)
            assert np.isfinite(interp.decompress(blob)).all()


def test_level_error_bounds_eq15():
    """Higher levels quantize tighter: with alpha=2, beta=4 the observed
    per-level max error respects e/min(2^(l-1), 4)."""
    f = _field((65, 40), seed=7)
    e = 1e-2 * float(f.max() - f.min())
    cfg = EngineConfig(alpha=2.0, beta=4.0)
    blob, recon = interp.compress(f, e, cfg)
    err = np.abs(recon - f.astype(np.float64))
    # stride-2 grid points belong to level >= 2 -> bound e/2
    lvl2 = err[0::2, 0::2]
    assert lvl2.max() <= e / 2 + 1e-12
    assert err.max() <= e + 1e-12


def test_block_cfg_roundtrip():
    """Per-block spline overrides reproduce bit-exactly on both sides."""
    f = _field((40, 40), seed=8)
    cfg = EngineConfig(block_cfg=bytes([0, 1, 2, 1]))
    e, recon, out = _roundtrip(f, cfg)
    np.testing.assert_array_equal(out, recon)
    assert np.abs(out - f.astype(np.float64)).max() <= e


def _order(*axes):
    return (InterpConfig("1d", "cubic_nak", False, axes),)


@pytest.mark.parametrize(
    "cfg",
    [
        EngineConfig(frozen_axes=(0, 0)),
        EngineConfig(frozen_axes=(2,)),
        EngineConfig(md_sigma2=(1.0,)),
        EngineConfig(level_configs=_order(1, 1)),
        EngineConfig(level_configs=_order(0, 1), frozen_axes=(0,)),
        EngineConfig(level_configs=_order(7, 0)),
    ],
    ids=[
        "frozen-twice",
        "frozen-no-axis",
        "md-sigma2-length",
        "order-twice",
        "order-frozen",
        "order-no-axis",
    ],
)
def test_compress_refuses_axes_that_do_not_fit(cfg):
    """A config naming axes the walk over the input does not have is
    refused on compress, as its meta would be on decompress."""
    with pytest.raises(ValueError, match="does not fit shape"):
        interp.compress(_field((20, 21)), 1e-3, cfg)


def test_partial_dim_order_roundtrips():
    """A dim order naming some active axes is completed by the walk, on
    both sides."""
    f = _field((20, 21, 19))
    e, recon, out = _roundtrip(f, EngineConfig(level_configs=_order(2)))
    np.testing.assert_array_equal(out, recon)


def _with_block_map(blob, ids):
    """``blob`` with its block map replaced by the array ``ids``."""
    sec = container.unpack(blob)
    sec["blockcfg"] = lossless.compress(container.array_section(ids))
    return container.pack(list(sec.items()))


@pytest.mark.parametrize(
    "ids",
    [
        np.zeros((4, 4), np.uint8),
        np.zeros((2, 2), np.uint8),
        np.full((3, 3), -1, np.int64),
        np.zeros((3, 3), np.float64),
        np.full((3, 3), 3, np.uint8),
    ],
    ids=["4x4", "2x2", "int64", "float", "id-3"],
)
def test_damaged_block_map_raises_value_error(ids):
    """A stored §6.6 map must be uint8 ids < 3 over ``block_grid(shape)``
    (3x3 for 80x70); any other map raises ``ValueError``."""
    f = _field((80, 70), seed=8)
    cfg = EngineConfig(block_cfg=bytes([0, 1, 2, 1, 0, 1, 2, 1, 0]))
    blob, _ = interp.compress(f, 1e-3, cfg)
    assert interp.block_grid(f.shape) == (3, 3)
    with pytest.raises(ValueError, match="block map does not fit"):
        interp.decompress(_with_block_map(blob, ids))


def test_md_weights_used():
    """Multi-dimensional combination weights follow Eq. 12: an axis with
    huge estimated variance is effectively excluded."""
    shape = (24, 24)
    rng = np.random.default_rng(9)
    # smooth along axis 1, noisy along axis 0
    f = (
        np.sin(np.linspace(0, 4, shape[1]))[None, :]
        + rng.standard_normal((shape[0], 1)) * 0.5
    ).astype(np.float32)
    e = 1e-3 * float(f.max() - f.min())
    big = EngineConfig(
        level_configs=(InterpConfig("md", "cubic_nak", False, None),),
        md_sigma2=(1e6, 1e-6),
    )
    flat = EngineConfig(
        level_configs=(InterpConfig("md", "cubic_nak", False, None),),
        md_sigma2=(1.0, 1.0),
    )
    b_big, _ = interp.compress(f, e, big)
    b_flat, _ = interp.compress(f, e, flat)
    assert len(b_big) < len(b_flat)


def test_integer_input_bound():
    rng = np.random.default_rng(10)
    f = rng.integers(0, 1000, (20, 20)).astype(np.int32)
    e = 5.0
    blob, recon = interp.compress(f, e, EngineConfig())
    out = interp.decompress(blob)
    np.testing.assert_array_equal(out, recon)
    assert np.abs(out - f.astype(np.float64)).max() <= e


def test_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        interp.compress(np.zeros((4, 4), dtype=np.float32), 0.0, EngineConfig())


def test_anchor_values_exact():
    """Anchor points are stored losslessly (§5.1)."""
    f = _field((65, 33), seed=11)
    e = 1e-2 * float(f.max() - f.min())
    blob, _ = interp.compress(f, e, EngineConfig(anchor_stride=32))
    out = interp.decompress(blob)
    np.testing.assert_array_equal(
        out[0::32, 0::32], f.astype(np.float64)[0::32, 0::32]
    )


def test_config_serialization_roundtrip():
    cfg = EngineConfig(
        anchor_stride=16,
        level_configs=(
            InterpConfig("md", "cubic_nat", True, None),
            InterpConfig("1d", "linear", False, (1, 0)),
        ),
        alpha=1.5,
        beta=3.0,
        frozen_axes=(0,),
        md_sigma2=(1.0, 2.0),
        fvfi=False,
    )
    back = EngineConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("key,value", [("radius", 16384), ("block_size", 16)])
def test_config_rejects_other_constants(key, value):
    """The §6.6 block edge and the quantizer radius are module constants
    that the meta still records; a meta naming other values is damaged."""
    d = EngineConfig().to_dict() | {key: value}
    with pytest.raises(ValueError, match="unsupported engine config"):
        EngineConfig.from_dict(d)


def test_config_is_frozen():
    """A tuned plan is a value: variants are built with ``replace``."""
    cfg = EngineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.block_cfg = bytes(4)


def test_short_code_stream_rejected():
    """A code stream shorter than the walk's passes raises the stream
    size error before any code is scattered."""
    f = _field((40, 41))
    blob, _ = interp.compress(f, 1e-2, EngineConfig())
    sec = container.unpack(blob)
    stream = codes.decode(sec["codes"])
    sec["codes"] = codes.encode(stream[:-1], center=quantizer.RADIUS)
    with pytest.raises(ValueError, match="size mismatch"):
        interp.decompress(container.pack(list(sec.items())))


def _tamper_literals(blob, edit):
    sec = container.unpack(blob)
    lits = container.to_array(lossless.decompress(sec["literals"]))
    sec["literals"] = lossless.compress(container.array_section(edit(lits)))
    return container.pack(list(sec.items()))


@pytest.mark.parametrize(
    "edit",
    [lambda l: np.append(l, l[:1]), lambda l: l[:-1]],
    ids=["extra_literal", "missing_literal"],
)
def test_literal_count_checked(edit):
    """The zero codes of the stream and the literals must match in
    number; a surplus or a shortfall raises the documented error."""
    f = _field((40, 40, 40), seed=12)
    f[10, 11, 12] = 1e9
    f[30, 5, 7] = -1e9
    blob, recon = interp.compress(f, 1e-2, EngineConfig())
    sec = container.unpack(blob)
    lits = container.to_array(lossless.decompress(sec["literals"]))
    assert lits.size >= 2  # the spikes and neighbours they throw off
    np.testing.assert_array_equal(interp.decompress(blob), recon)
    with pytest.raises(ValueError, match="literal count mismatch"):
        interp.decompress(_tamper_literals(blob, edit))


class _GridEncoder:
    """The serializer before codes went straight into the stream: codes
    scattered into an int32 grid of the data's shape by selection (the
    same quantizer arithmetic), then gathered back pass by pass."""

    def __init__(self, shape, radius):
        self.radius = radius
        self.codes = np.full(shape, radius, dtype=np.int32)
        self.literals = []

    def quantize(self, pred, truth, eb, sel):
        q = np.rint((truth - pred) / (2.0 * eb))
        recon = pred + 2.0 * eb * q
        bad = (np.abs(q) >= self.radius - 1) | (np.abs(truth - recon) > eb)
        chunk = np.clip(q, -self.radius, self.radius) + self.radius
        chunk = chunk.astype(np.int32)
        if bad.any():
            chunk[bad] = 0
            self.literals.append(truth[bad])
            recon = np.where(bad, truth, recon)
        self.codes[sel] = chunk
        return recon

    def stream(self, cfg):
        sels = [p.sel for p in passes(self.codes.shape, cfg)]
        if not sels:
            return np.empty(0, dtype=np.int32)
        return np.concatenate([self.codes[sl].ravel() for sl in sels])


def _lc(paradigm, spline, same_level, dim_order=None):
    return (InterpConfig(paradigm, spline, same_level, dim_order),)


_REF_CASES = {
    "1d-sl": ((97,), EngineConfig(level_configs=_lc("1d", "cubic_nat", True))),
    "2d-md-sl": ((37, 41), EngineConfig(level_configs=_lc("md", "cubic_nak", True))),
    "3d-1d-nofvfi": (
        (19, 23, 17),
        EngineConfig(level_configs=_lc("1d", "cubic_nat", True, (2, 0, 1)), fvfi=False),
    ),
    "3d-md-nofvfi-frozen": (
        (19, 23, 17),
        EngineConfig(
            level_configs=_lc("md", "cubic_nak", True), fvfi=False, frozen_axes=(0,)
        ),
    ),
    "4d-md": ((7, 9, 6, 10), EngineConfig(level_configs=_lc("md", "linear", False))),
    "2d-blockmap-nofvfi": (
        (40, 40),
        EngineConfig(block_cfg=bytes([0, 1, 2, 1]), fvfi=False),
    ),
}


@pytest.mark.parametrize("case", list(_REF_CASES))
@pytest.mark.parametrize("rel_eps", [1e-3, 1e-6])
def test_stream_equals_scatter_gather_reference(case, rel_eps):
    """Codes written straight into their pass's stream chunk give the
    stream (and literals) the grid scatter→gather serializer gave."""
    shape, cfg = _REF_CASES[case]
    f = _field(shape, seed=len(shape))
    if rel_eps < 1e-3:
        f[(0,) * len(shape)] = 1e6  # the anchor sets the range
        f[tuple(n // 2 + 1 for n in shape)] = -1e6  # a literal
    e = rel_eps * float(f.max() - f.min())
    blob, recon = interp.compress(f, e, cfg)
    a = f.astype(np.float64)
    ref = _GridEncoder(shape, quantizer.RADIUS)

    def qfun(pred, sel, e_l, out):
        return ref.quantize(pred, a[sel], e_l, sel)

    unused = np.empty(interp.stream_size(shape, cfg), np.int32)
    interp._walk(a, e, cfg, qfun, unused)
    sec = container.unpack(blob)
    np.testing.assert_array_equal(codes.decode(sec["codes"]), ref.stream(cfg))
    np.testing.assert_array_equal(a, recon)
    if ref.literals:
        lits = container.to_array(lossless.decompress(sec["literals"]))
        want = np.concatenate(ref.literals).astype(f.dtype)
        np.testing.assert_array_equal(lits, want)
    else:
        assert "literals" not in sec


def test_encode_walk_stream_is_uint16():
    """At radius 32768 every code is in [0, 65536): the walk writes a
    uint16 stream, and the payload's codes decode to uint16 again."""
    f = _field((20, 17, 9))
    cfg = EngineConfig(anchor_stride=8)
    e = 1e-3 * float(f.max() - f.min())
    stream, _ = interp.encode_walk(f.astype(np.float64), e, cfg)
    assert stream.dtype == np.uint16
    blob, _ = interp.compress(f, e, cfg)
    out = codes.decode(container.unpack(blob)["codes"])
    assert out.dtype == np.uint16
    np.testing.assert_array_equal(out, stream)


def test_pass_plans_are_cached(monkeypatch):
    """Equal keys share one plan, equal to a fresh one; the traversal
    order and the slab size are part of the key; the cache is bounded."""
    shape = (17, 9, 12)
    cfg = EngineConfig(
        anchor_stride=8,
        level_configs=(InterpConfig("1d", "cubic_nak", True, (2, 0, 1)),),
        frozen_axes=(1,),
    )
    plan = passes(shape, cfg)
    assert passes(list(shape), EngineConfig(**vars(cfg))) is plan
    fresh = interp._plan.__wrapped__(
        shape, 8, cfg.level_configs, cfg.frozen_axes, True, interp.SLAB, None
    )
    assert plan == fresh
    assert passes(shape, cfg, (2,)) == tuple(p for p in plan if p.level == 2)
    assert passes(shape, dataclasses.replace(cfg, fvfi=False)) != plan
    monkeypatch.setattr(interp, "SLAB", 1)
    assert passes(shape, cfg) != plan
    assert interp._plan.cache_info().maxsize == interp.PLAN_CACHE
