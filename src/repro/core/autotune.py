"""HPEZ auto-tuning module (paper §6, Fig. 7).

Pipeline (each step optional, switched by a preset's :class:`TuneOptions`,
``pipeline.PRESETS``):

1. **Sampling & statistical analysis** (§6.1): per-axis 1-D interpolation
   MSE on ~0.2 % uniformly sampled points → the sigma_i^2 estimates of
   Eq. 12 and the most non-smooth axis for dimension freezing.
2. **Global interpolation tuning** (§6.2): per level, pick the
   (paradigm, spline, same-level, dim-order) whose level codes cost the
   fewest coded bytes per point on sampled blocks spread across the
   input; a challenger must beat the incumbent by a selection margin.
3. **Dynamic dimension freezing** (§6.3): compression tests on the crop
   with/without freezing the most non-smooth axis; keep the better ratio.
4. **Error-bound tuning** (§6.4, Eq. 15): crop compression tests over an
   (alpha, beta) candidate grid, scored by the quality-metric target.
5. **Lorenzo tuning** (§6.5): one Lorenzo crop test; selected when its
   bit-rate estimate (with the multiplicative coefficient of [36]) beats
   the tuned interpolation pipeline.
6. **Block-wise interpolation tuning** (§6.6): per 32^d block, choose the
   spline with the lowest prediction error on the 4 % center sub-block.

The §6.2 probes and the crop tests run the §4 pipeline the payload is
made with: a probe quantizes one level with ``interp.encode_walk`` (the
encoder's ``QuantEncoder``) and scores the bytes ``codes.encode`` writes
for it; a crop test runs ``interp.compress`` whole.

Quality-metric targets: ``"cr"`` maximizes estimated compression ratio;
``"psnr"`` maximizes ``PSNR + 3*log2(CR)`` (rate-distortion proxy; the
paper does not specify QoZ's exact scoring function — see DESIGN.md).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import codes as codes_mod
from . import interp, lorenzo, metrics, quantizer
from .interp import EngineConfig, InterpConfig
from .splines import SPLINE_CHOICES, STENCILS, line_predict

SAMPLE_RATE = 0.002  # §6.1 default
SEED = 17  # §6.1 point sampling
CROP_TARGET = 32  # sample-block side for per-level candidate probing
TEST_TARGET = 48  # sample-block side for cross-family compression tests
                  # (small blocks bias against interpolation: more of the
                  # block sits in the stencil's boundary-fallback region)
N_SAMPLE_BLOCKS = 3  # sample blocks spread along the main diagonal
N_TUNED_LEVELS = 2  # levels probed individually; higher use the reference
LORENZO_COEF = 1.15  # §6.5 bit-rate multiplier (value of [36] unpublished)
EB_CANDIDATES = (  # §6.4 (alpha, beta) grid, QoZ-style
    (1.0, 1.0),
    (1.25, 1.5),
    (1.5, 2.0),
    (2.0, 2.0),
    (2.0, 3.0),
)


@dataclass(frozen=True)
class TuneOptions:
    """Which auto-tuning features a preset enables; the default is HPEZ
    with every feature on."""

    target: str = "cr"  # "cr" | "psnr"
    splines: tuple[str, ...] = SPLINE_CHOICES  # allowed spline functions
    paradigms: tuple[str, ...] = ("1d", "md")  # allowed paradigms
    same_level: bool = True  # §5.4.2 allowed
    tune_eb: bool = True  # §6.4
    dim_freeze: bool = True  # §6.3
    lorenzo: bool = True  # §6.5
    blockwise: bool = True  # §6.6
    anchor_stride: int = 32
    fvfi: bool = True  # §5.4.1


@dataclass(frozen=True)
class TuneResult:
    use_lorenzo: bool
    cfg: EngineConfig


# ---------------------------------------------------------------------------
# §6.1 sampling & statistical analysis
# ---------------------------------------------------------------------------
def axis_interp_mse(data: np.ndarray) -> np.ndarray:
    """Per-axis cubic-interpolation MSE on ~0.2 % sampled points (§6.1)."""
    a = np.asarray(data)
    rng = np.random.default_rng(SEED)
    n_samples = max(256, int(a.size * SAMPLE_RATE))
    out = np.zeros(a.ndim)
    for d in range(a.ndim):
        n = a.shape[d]
        if n < 7:
            # Too short for the +-3 stencil: treat as maximally non-smooth
            # only if it varies at all; a singleton axis is perfectly smooth.
            if n < 2:
                out[d] = 0.0
            else:
                diffs = np.diff(a.astype(np.float64), axis=d)
                out[d] = float(np.mean(diffs**2))
            continue
        idx = [
            rng.integers(0, a.shape[ax], n_samples) if ax != d
            else rng.integers(3, n - 3, n_samples)
            for ax in range(a.ndim)
        ]
        # gather the sampled points, then cast: no float64 copy of ``a``
        center = a[tuple(idx)].astype(np.float64)
        pred = np.zeros(n_samples)
        for off, wi in STENCILS["cubic_nak"]:
            nb = list(idx)
            nb[d] = idx[d] + off
            pred += wi * a[tuple(nb)].astype(np.float64)
        out[d] = float(np.mean((center - pred) ** 2))
    return out


def sample_blocks(
    data: np.ndarray, side: int = CROP_TARGET, k: int = N_SAMPLE_BLOCKS
) -> list[np.ndarray]:
    """Sample blocks spread along the main diagonal (a uniform spatial
    sample standing in for §6.1's 0.2 % point sampling in block form)."""
    blocks: list[np.ndarray] = []
    for i in range(k):
        sel = []
        whole = True
        for n in data.shape:
            w = min(n, side)
            lo = 0 if n == w else round(i * (n - w) / max(k - 1, 1))
            sel.append(slice(lo, lo + w))
            whole = whole and w == n
        blocks.append(np.ascontiguousarray(data[tuple(sel)]))
        if whole:
            break  # data no bigger than one block: one sample suffices
    return blocks


# ---------------------------------------------------------------------------
# §6.2 global interpolation tuning
# ---------------------------------------------------------------------------
def _probe_level(
    a: np.ndarray, e: float, cfg: EngineConfig, level: int
) -> tuple[int, int]:
    """Run level ``level`` of the walk on ``a`` in place, quantized as
    ``interp.compress`` quantizes it; return the coded bytes of its code
    stream and the stream's length. Points of other levels keep what
    ``a`` holds (each level is probed on its own). The bytes are the
    real coder's output: its LZ stage is order and run sensitive, so
    marginal entropy would mis-rank configurations (DESIGN.md §7)."""
    stream, _ = interp.encode_walk(a, e, cfg, (level,))
    if not stream.size:
        return 0, 0
    return len(codes_mod.encode(stream, center=quantizer.RADIUS)), stream.size


def _candidate_configs(opts: TuneOptions, active: tuple[int, ...]) -> list[InterpConfig]:
    out: list[InterpConfig] = []
    orders: list[tuple[int, ...] | None] = [None]
    # with one active axis every paradigm walks alike: offer the first
    paradigms = opts.paradigms[:1]
    if len(active) > 1:
        # Forward and reversed axis orders (the full permutation set grows
        # the tuning cost beyond HPEZ's "high-performance" envelope).
        orders = [tuple(active), tuple(reversed(active))]
        paradigms = opts.paradigms
    for paradigm in paradigms:
        for spline in opts.splines:
            sls = (False, True) if (opts.same_level and spline != "linear") else (False,)
            for sl in sls:
                if paradigm == "1d":
                    for o in orders:
                        out.append(InterpConfig("1d", spline, sl, o))
                else:
                    out.append(InterpConfig("md", spline, sl, None))
    return out


def tune_global_interp(
    blocks: list[np.ndarray], opts: TuneOptions, base: EngineConfig, e: float
) -> tuple[InterpConfig, ...]:
    """Per-level best config by lowest estimated code entropy (§6.2).

    Levels are tuned from the highest stride down, *advancing the
    quantized state* between levels (QoZ's compression-test flow): when
    level ``l`` is scored, the sample blocks already contain the
    reconstruction of all higher levels, so noise amplification by
    wide stencils is priced in honestly.
    """
    cands = _candidate_configs(
        opts, interp._active_axes(blocks[0].shape, base.frozen_axes)
    )
    m = interp._n_levels(base.anchor_stride)
    states = [b.astype(np.float64) for b in blocks]
    # Reference config for pricing the *downstream* effect of a level
    # choice: the reconstruction a candidate leaves behind feeds the next
    # level's predictions, so its entropy there is part of the cost.
    ref = InterpConfig("1d", "cubic_nak", False, None)

    def mk_cfg(c: InterpConfig) -> EngineConfig:
        return replace(base, level_configs=(c,), block_cfg=None, fvfi=True)

    chosen: list[InterpConfig] = []  # levels m..1
    for level in range(m, 0, -1):
        if level > N_TUNED_LEVELS:
            # Levels above the tuned range hold <2 % of the points and a
            # 32^d sample gives only a handful of codes there — scoring is
            # coder-overhead noise and a bad pick cascades down. Use the
            # reference config (SZ3's default interpolation).
            chosen.append(ref)
            for a in states:
                interp.encode_walk(a, e, mk_cfg(ref), (level,))
            continue
        best: tuple[float, InterpConfig, list[np.ndarray]] | None = None
        # Same-level interpolation (§5.4.2) is only offered where the
        # sample is statistically meaningful (the final level holds 50 %+
        # of all points); at higher levels its small-sample score is
        # unreliable and a wrong pick is costly downstream.
        level_cands = (
            cands if level == 1 else [c for c in cands if not c.same_level]
        )
        # Selection margin: a challenger must beat the incumbent's coded
        # size by >1 % — probe noise otherwise flips configs whose real
        # cost is slightly worse (measured; DESIGN.md). The sort puts
        # ``ref`` first when it is a candidate (one active axis); with two
        # or more active axes each 1d candidate carries an explicit dim
        # order and none equals ``ref``: the sort is a no-op and the
        # first candidate, 1d/linear/forward order, is the incumbent.
        level_cands = sorted(
            level_cands, key=lambda c: c != ref
        )
        for c in level_cands:
            nbytes = 0
            count = 0
            trial: list[np.ndarray] = []
            for st in states:
                a = st.copy()
                probes = [_probe_level(a, e, mk_cfg(c), level)]
                trial.append(a)
                if level > 1:
                    probes.append(_probe_level(a.copy(), e, mk_cfg(ref), level - 1))
                for nb, n in probes:
                    nbytes += nb
                    count += n
            score = nbytes / count if count else np.inf
            # Margin grows with level: coarse-level samples are smaller
            # and flips there propagate error into everything below.
            margin = 0.99 if level == 1 else 0.985
            if best is None or score < best[0] * margin:
                best = (score, c, trial)
        assert best is not None
        chosen.append(best[1])
        states = best[2]
    return tuple(reversed(chosen))


# ---------------------------------------------------------------------------
# crop compression tests (§6.3, §6.4, §6.5 share this)
# ---------------------------------------------------------------------------
def _crop_test(
    blocks: list[np.ndarray], e: float, cfg: EngineConfig, target: str
) -> tuple[int, float]:
    """Compressed bytes of the crops ``blocks``, each compressed in its
    own dtype as the payload stores it, and their score under ``target``
    (higher is better): the compression ratio for ``"cr"``, and
    ``PSNR + 3*log2(CR)`` for ``"psnr"`` (the PSNR of the size-weighted
    mean squared error over the largest crop value range)."""
    total = 0
    sse = 0.0
    rng = 0.0
    for crop in blocks:
        payload, recon = interp.compress(crop, e, cfg)
        total += len(payload)
        if target == "psnr":
            sse += metrics.mse(crop, recon) * crop.size
            rng = max(rng, metrics.value_range(crop))
    cr = sum(b.nbytes for b in blocks) / max(total, 1)
    if target != "psnr":
        return total, cr
    if rng == 0 or sse == 0:
        return total, float("inf")
    count = sum(b.size for b in blocks)
    p = float(20.0 * np.log10(rng) - 10.0 * np.log10(sse / count))
    return total, p + 3.0 * np.log2(max(cr, 1e-9))


# ---------------------------------------------------------------------------
# §6.6 block-wise interpolation tuning
# ---------------------------------------------------------------------------
def tune_blocks(
    data: np.ndarray,
    opts: TuneOptions,
    frozen: tuple[int, ...],
    global_spline: str,
    e: float,
) -> np.ndarray | None:
    """Per-block spline id (index into SPLINE_CHOICES) via prediction
    tests on the 4 % center sub-block of each 32^d block (§6.6).

    A block only overrides the globally tuned level-1 spline when its
    best spline beats the global one by >10 % prediction error — the
    stride-1 sub-block test is a proxy, so near-ties go to the global
    choice."""
    B = interp.BLOCK
    shape = data.shape
    nblocks = interp.block_grid(shape)
    if int(np.prod(nblocks)) <= 1:
        return None
    cfg_map = np.zeros(nblocks, dtype=np.uint8)
    # 4 % of the block volume, centered (§6.6): side = B * 0.04^(1/d).
    sub = max(7, int(round(B * 0.04 ** (1.0 / data.ndim))))
    active = [d for d in range(data.ndim) if d not in frozen and shape[d] >= 8]
    if not active:
        return None
    # sub-block selection per block, grouped by shape (edge blocks may be
    # smaller) so each group is scored with one line_predict per spline
    # and axis over the stacked sub-blocks
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple]]] = {}
    for bidx in np.ndindex(*nblocks):
        sel = []
        for d, bi in enumerate(bidx):
            lo = bi * B
            hi = min(lo + B, shape[d])
            w = min(sub, hi - lo)
            c = (lo + hi) // 2
            s0 = max(lo, min(c - w // 2, hi - w))
            sel.append(slice(s0, s0 + w))
        bshape = tuple(sl.stop - sl.start for sl in sel)
        groups.setdefault(bshape, []).append((bidx, tuple(sel)))
    gi = opts.splines.index(global_spline)
    for bshape, members in groups.items():
        stack = np.stack([data[sel] for _, sel in members]).astype(np.float64)
        # Cost proxy per block and spline: codes the quantizer would emit
        # (nonzero bins are what the entropy stage pays for), abs error
        # as tiebreak.
        nz = np.zeros((len(members), len(opts.splines)), dtype=np.int64)
        total = np.zeros(nz.shape)
        for j, name in enumerate(opts.splines):
            for d in active:
                tpos = range(3, bshape[d] - 3)
                if not tpos:  # axis shorter than the 7-point stencil
                    continue
                err = np.take(stack, tpos, axis=d + 1)
                err -= line_predict(stack, tpos, name, axis=d + 1)
                nz[:, j] += np.count_nonzero(
                    np.rint(err / (2.0 * e)).reshape(len(members), -1), axis=1
                )
                np.abs(err, out=err)
                # each block's sum over its own (contiguous) slice
                total[:, j] += [blk.sum() for blk in err]
        for k, (bidx, _) in enumerate(members):
            bi = min(range(len(opts.splines)), key=lambda i: (nz[k, i], total[k, i]))
            # Clean-data stride-1 probing is an optimistic proxy (real
            # level-1 neighbours carry reconstruction noise): only a
            # decisive winner (<60 % of the global spline's cost) may
            # override.
            if nz[k, bi] >= 0.6 * nz[k, gi]:
                bi = gi
            # Map into the engine-global spline id space
            # (splines.SPLINE_CHOICES).
            cfg_map[bidx] = SPLINE_CHOICES.index(opts.splines[bi])
    if np.unique(cfg_map).size == 1:
        return None  # uniform map == global config; skip the metadata
    return cfg_map


def _validate_blockcfg(
    data: np.ndarray, e: float, cfg: EngineConfig, block_map: np.ndarray
) -> bool:
    """End-to-end check of a proposed block map (§6.6), which overrides
    ``cfg``'s level-1 spline somewhere: compress a block-aligned crop
    around the first overridden block with and without the map; keep it
    only if the payload actually shrinks. The stride-1 sub-block probe is
    optimistic on clean data, and the lossless stage is sensitive to
    mixed code distributions (DESIGN.md §2)."""
    B = interp.BLOCK
    gid = SPLINE_CHOICES.index(cfg.level_configs[0].spline)
    bidx = np.argwhere(block_map != gid)[0]
    sel = []
    bsel = []
    for ax, bi in enumerate(bidx):
        n = data.shape[ax]
        o = min(int(bi) * B, max(0, n - 2 * B))
        o = (o // B) * B
        w = min(2 * B, n - o)
        sel.append(slice(o, o + w))
        bsel.append(slice(o // B, (o + w + B - 1) // B))
    crop = np.ascontiguousarray(data[tuple(sel)])
    sub = replace(cfg, block_cfg=block_map[tuple(bsel)].tobytes())
    with_map, _ = interp.compress(crop, e, sub)
    without, _ = interp.compress(crop, e, cfg)
    return len(with_map) < len(without)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------
def tune(data: np.ndarray, e: float, opts: TuneOptions) -> TuneResult:
    """Run the full auto-tuning pipeline of Fig. 7; returns the engine
    config (and whether the Lorenzo predictor was selected instead)."""
    sigma2 = axis_interp_mse(data)
    probe_blocks = sample_blocks(data, CROP_TARGET, k=2)
    blocks = sample_blocks(data, TEST_TARGET)

    def crop_test(trial: EngineConfig) -> tuple[float, int, EngineConfig]:
        nbytes, score = _crop_test(blocks, e, trial, opts.target)
        return score, nbytes, trial

    def keep_best(
        best: tuple[float, int, EngineConfig], challengers: list[EngineConfig]
    ) -> tuple[float, int, EngineConfig]:
        """Crop-test each challenger in order (§6.3, §6.4); one replaces
        the incumbent ``(score, bytes, cfg)`` only when it scores
        strictly higher (``max`` keeps the first of equal scores)."""
        return max([best, *map(crop_test, challengers)], key=lambda t: t[0])

    cfg = EngineConfig(
        anchor_stride=opts.anchor_stride,
        md_sigma2=tuple(float(s) for s in sigma2),
        fvfi=opts.fvfi,
    )
    cfg = replace(cfg, level_configs=tune_global_interp(probe_blocks, opts, cfg, e))
    best = crop_test(cfg)

    # §6.3 dynamic dimension freezing
    if opts.dim_freeze and data.ndim >= 2:
        cand_axis = int(np.argmax(sigma2))
        # Reuse the globally tuned level configs (re-tuning under the
        # frozen geometry doubles tuning cost for marginal gain); only
        # drop the frozen axis from any explicit dim orders.
        fcfg = replace(
            cfg,
            frozen_axes=(cand_axis,),
            level_configs=tuple(
                replace(
                    c,
                    dim_order=tuple(d for d in c.dim_order if d != cand_axis)
                    if c.dim_order
                    else None,
                )
                for c in cfg.level_configs
            ),
        )
        best = keep_best(best, [fcfg])

    # §6.4 level-wise error-bound tuning (Eq. 15)
    if opts.tune_eb:
        cfg = best[2]
        trials = [replace(cfg, alpha=a, beta=b) for a, b in EB_CANDIDATES[1:]]
        best = keep_best(best, trials)
    _, best_bytes, cfg = best

    # §6.5 Lorenzo tuning
    use_lorenzo = False
    if opts.lorenzo:
        try:
            lbytes = 0
            for b in blocks:
                lbytes += len(lorenzo.compress(b, e))
                if lbytes * LORENZO_COEF >= best_bytes:
                    break  # already lost: the other blocks only add bytes
            use_lorenzo = lbytes * LORENZO_COEF < best_bytes
        except OverflowError:
            pass

    # §6.6 block-wise interpolation tuning
    if opts.blockwise and not use_lorenzo:
        block_map = tune_blocks(
            data, opts, cfg.frozen_axes, cfg.level_configs[0].spline, e
        )
        if block_map is not None and _validate_blockcfg(data, e, cfg, block_map):
            cfg = replace(cfg, block_cfg=block_map.tobytes())

    return TuneResult(use_lorenzo=use_lorenzo, cfg=cfg)
