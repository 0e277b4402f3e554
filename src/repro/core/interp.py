"""Anchor-based level-wise interpolation engine (paper §5, Fig. 2).

One engine serves SZ3 / QoZ / HPEZ — the presets differ only in the
:class:`EngineConfig` they pass (which features are enabled).

Walk structure
--------------
Anchor points (stride ``S = 2^m`` on every *active* axis, every position
on *frozen* axes, §6.3) are stored losslessly. Then levels ``l = m..1``
with stride ``s = 2^(l-1)`` and per-level error bound
``e_l = e / min(alpha^(l-1), beta)`` (Eq. 15) predict the remaining grid:

* paradigm ``"1d"`` (SZ3/QoZ style, §5.3/Fig. 4a): one pass per active
  axis in ``dim_order``; earlier axes are already refined to stride ``s``.
* paradigm ``"md"`` (HPEZ multi-dimensional, §5.3/Fig. 4b): points are
  grouped by how many of their coordinates are odd multiples of ``s``;
  ``r``-odd points are predicted by the inverse-variance-weighted
  combination (Eq. 9/12) of the 1-D interpolations along their odd axes.

Neighbour indices that fall outside the array are mirrored about the
target and, failing that, clamped to an even (always-known) index — this
keeps every read *parity-safe*: the decompressor replays the identical
walk on a NaN-initialized array and never reads an unwritten point.

:func:`passes` is the one definition of this structure: the walk runs
its passes' steps, the code stream is laid out in its order (each pass owns the
next ``Pass.size`` codes, C order over its targets), and
:func:`encode_walk` quantizes it: :func:`compress` over every level, the
tuner's §6.2 probes over one level at a time. The stream keeps the
codes' natural width, ``quantizer.STREAM_DTYPE`` (uint16), from the
quantizer through the byte planes (:mod:`.codes`) and back into
:func:`decompress`.

Each pass is planned once as its steps (:class:`Step`), each a vectorized
predict-and-quantize of targets that read no other target of the step,
split from the pass in this order:

* ``fvfi=False`` (Table 6 ablation): one position of the last,
  fastest-varying axis at a time — QoZ's traversal with poor memory
  locality — unless the pass interpolates along that axis;
* same-level interpolation (§5.4.2) in a cubic 1-D pass: targets
  ``j ≡ 1 (mod 4)`` with the inter-level stencil, then ``j ≡ 3 (mod 4)``
  with the same-level stencil (Eqs. 13/14) reading the first phase's
  outputs as ±2 neighbours;
* slabs of consecutive target rows along axis 0, at most ``SLAB``
  targets each (or one row when a row is bigger), which bound the
  temporaries (prediction, quantizer buffers, the source copy
  ``line_predict`` gathers from) to about ``SLAB`` elements each.

Neighbour indices stay those of the whole line, and slabs follow axis 0,
so they change no byte; the ``fvfi=False`` columns change only the
literal order.

Block-wise tuning (§6.6) supplies a spline id per ``BLOCK``^d block; each step
computes the prediction for every spline in use and blends them with the
block mask, so the walk stays vectorized and bit-exact on both sides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from . import codes as codes_mod
from . import container, lossless, splines
from .quantizer import RADIUS, STREAM_DTYPE, QuantDecoder, QuantEncoder

ALL = slice(None)

#: most targets one slab of a pass predicts and quantizes at a time
SLAB = 1 << 16

#: most pass plans :func:`passes` keeps
PLAN_CACHE = 256

#: edge of the §6.6 blocks that ``EngineConfig.block_cfg`` maps; a map
#: entry is an index into ``splines.SPLINE_CHOICES``
BLOCK = 32


def block_grid(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Blocks per axis of the §6.6 map over an array of ``shape``, edge
    blocks included."""
    return tuple((n + BLOCK - 1) // BLOCK for n in shape)


def _eb_factor(v: float) -> bool:
    """Eq. 15's ``alpha`` and ``beta``: finite and >= 1."""
    return 1 <= v <= container.FLOAT_MAX


@dataclass(frozen=True)
class InterpConfig:
    """Per-level interpolation configuration (§6.2 selection targets)."""

    paradigm: str = "md"  # "1d" | "md"
    spline: str = "cubic_nat"  # linear | cubic_nak | cubic_nat
    same_level: bool = True  # §5.4.2 (cubic only)
    dim_order: tuple[int, ...] | None = None  # "1d" only

    def to_dict(self) -> dict:
        return {
            "paradigm": self.paradigm,
            "spline": self.spline,
            "same_level": self.same_level,
            "dim_order": list(self.dim_order) if self.dim_order else None,
        }

    @staticmethod
    def from_dict(d: dict) -> "InterpConfig":
        return InterpConfig(
            paradigm=container.typed(d, "paradigm", str, lambda v: v in ("1d", "md")),
            spline=container.typed(d, "spline", str, lambda v: v in splines.SPLINE_CHOICES),
            same_level=container.typed(d, "same_level", bool),
            dim_order=container.typed_tuple(d, "dim_order", int, nullable=True) or None,
        )


@dataclass(frozen=True)
class EngineConfig:
    """Full engine configuration, serialized into the payload."""

    anchor_stride: int = 32
    level_configs: tuple[InterpConfig, ...] = (InterpConfig(),)
    alpha: float = 1.0  # Eq. 15
    beta: float = 1.0  # Eq. 15
    frozen_axes: tuple[int, ...] = ()  # §6.3
    md_sigma2: tuple[float, ...] | None = None  # §5.3 sigma_i^2 estimates
    # §6.6 spline ids, uint8 in C order over ``block_grid(shape)``, or None
    block_cfg: bytes | None = None
    fvfi: bool = True  # §5.4.1

    def to_dict(self) -> dict:
        return {
            "anchor_stride": self.anchor_stride,
            "level_configs": [c.to_dict() for c in self.level_configs],
            "alpha": self.alpha,
            "beta": self.beta,
            "frozen_axes": list(self.frozen_axes),
            "md_sigma2": list(self.md_sigma2) if self.md_sigma2 else None,
            "block_size": BLOCK,
            "fvfi": self.fvfi,
            "radius": RADIUS,
        }

    @staticmethod
    def from_dict(d: dict, block_cfg: bytes | None = None) -> "EngineConfig":
        """Invert :meth:`to_dict`; ``block_cfg`` is the payload's block
        map, which is stored in its own section."""
        if d["block_size"] != BLOCK or d["radius"] != RADIUS:
            raise ValueError(
                f"unsupported engine config: block_size={d['block_size']!r}, "
                f"radius={d['radius']!r} (expected {BLOCK}, {RADIUS})"
            )
        return EngineConfig(
            anchor_stride=container.typed(
                d, "anchor_stride", int, lambda v: v >= 2 and v & (v - 1) == 0
            ),
            level_configs=tuple(
                InterpConfig.from_dict(c)
                for c in container.typed_tuple(
                    d, "level_configs", dict, ok=lambda t: len(t) > 0
                )
            ),
            alpha=container.typed(d, "alpha", float, _eb_factor),
            beta=container.typed(d, "beta", float, _eb_factor),
            frozen_axes=container.typed_tuple(d, "frozen_axes", int),
            md_sigma2=container.typed_tuple(d, "md_sigma2", float, nullable=True) or None,
            block_cfg=block_cfg,
            fvfi=container.typed(d, "fvfi", bool),
        )


def _block_ids(cfg: EngineConfig, shape: tuple[int, ...]) -> np.ndarray | None:
    """``cfg.block_cfg`` as an array over ``block_grid(shape)``."""
    if cfg.block_cfg is None:
        return None
    return np.frombuffer(cfg.block_cfg, dtype=np.uint8).reshape(block_grid(shape))


def _stencil_name(spline: str, same_level_phase: bool) -> str:
    if spline == "linear" or not same_level_phase:
        return spline
    return splines.SAME_LEVEL_OF[spline]


def _active_axes(shape: tuple[int, ...], frozen_axes: tuple[int, ...]) -> tuple[int, ...]:
    """Axes the walk interpolates along: not frozen, length >= 2."""
    return tuple(d for d in range(len(shape)) if d not in frozen_axes and shape[d] >= 2)


def _n_levels(anchor_stride: int) -> int:
    """Levels of the walk: anchor stride ``2^m`` gives levels ``m..1``."""
    return int(anchor_stride).bit_length() - 1


def _put(sel: tuple, ax: int, sl: slice) -> tuple:
    return sel[:ax] + (sl,) + sel[ax + 1 :]


def _span(r: range) -> slice:
    return slice(r.start, r.stop, r.step)


def _cut(pos: tuple[range, ...], ax: int, sl: slice) -> tuple[range, ...]:
    return pos[:ax] + (pos[ax][sl],) + pos[ax + 1 :]


@dataclass(frozen=True)
class Step:
    """One vectorized predict-and-quantize of a pass: the targets
    ``sel``, their positions along each of the pass's axes in units of
    its stride (``tpos``), whether they take the same-level stencil
    (§5.4.2), and their codes, the slice ``out`` of the pass's chunk
    (``chunk[out]`` has the shape of ``a[sel]``)."""

    sel: tuple
    tpos: tuple[range, ...]
    same_level: bool
    out: tuple


@dataclass(frozen=True)
class Pass:
    """One pass of the walk at level ``level`` (stride ``s = 2^(level-1)``).

    ``sel`` selects the targets: odd multiples of ``s`` on every axis in
    ``axes``, the already-known grid on the other active axes, everything
    on frozen axes. One axis is a 1-D spline pass; several axes are an
    Eq. 9 multi-dimensional step. ``steps`` cover the targets, and the
    chunk of ``size`` codes they own, exactly once, in walk order."""

    level: int
    lc: InterpConfig
    axes: tuple[int, ...]
    sel: tuple
    shape: tuple[int, ...]  # of the targets, ``a[sel].shape``
    steps: tuple[Step, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def passes(
    shape: tuple[int, ...], cfg: EngineConfig, levels: tuple[int, ...] | None = None
) -> tuple[Pass, ...]:
    """The walk's passes in execution order, levels ``m..1`` (or only
    ``levels``). Every non-anchor point is the target of exactly one pass,
    so the same sequence also orders the serialized code stream.

    A plan depends only on the key below, and the tuner walks the same
    few shapes and configs hundreds of times, so plans are cached."""
    return _plan(
        tuple(shape),
        int(cfg.anchor_stride),
        tuple(cfg.level_configs),
        tuple(cfg.frozen_axes),
        bool(cfg.fvfi),
        SLAB,
        None if levels is None else tuple(levels),
    )


@lru_cache(maxsize=PLAN_CACHE)
def _plan(
    shape: tuple[int, ...],
    anchor_stride: int,
    level_configs: tuple[InterpConfig, ...],
    frozen_axes: tuple[int, ...],
    fvfi: bool,
    slab: int,
    levels: tuple[int, ...] | None,
) -> tuple[Pass, ...]:
    plan = []
    active = _active_axes(shape, frozen_axes)
    for l in range(_n_levels(anchor_stride), 0, -1):
        if levels is not None and l not in levels:
            continue
        s = 1 << (l - 1)
        lc = level_configs[min(l, len(level_configs)) - 1]
        # (target axes, known-grid stride of every active axis)
        if lc.paradigm == "1d" or len(active) == 1:
            # one pass per axis in dim order; earlier axes are already
            # refined to stride s, later ones are still at 2s
            order = tuple(d for d in lc.dim_order or active if d in active)
            order = order + tuple(d for d in active if d not in order)
            groups = [
                ((d,), {dd: s if j < k else 2 * s for j, dd in enumerate(order)})
                for k, d in enumerate(order)
            ]
        else:
            # points grouped by their set of odd axes, fewest first
            grid = {ax: 2 * s for ax in active}
            groups = [
                (A, grid)
                for r in range(1, len(active) + 1)
                for A in combinations(active, r)
            ]
        for axes, stride in groups:
            if any(shape[d] <= s for d in axes):
                continue
            sel = tuple(
                slice(s, None, 2 * s)
                if ax in axes
                else slice(0, None, stride[ax]) if ax in stride else ALL
                for ax in range(len(shape))
            )
            tgt = [range(n)[sl] for n, sl in zip(shape, sel)]
            steps = _steps(tgt, axes, lc, fvfi, slab)
            plan.append(Pass(l, lc, axes, sel, tuple(map(len, tgt)), steps))
    return tuple(plan)


def _steps(
    tgt: list[range], axes: tuple[int, ...], lc: InterpConfig, fvfi: bool, slab: int
) -> tuple[Step, ...]:
    """Steps, in walk order, of the pass whose targets are ``tgt``
    (indices per axis): columns, phases, then slabs (module docstring)."""
    tpos = [range(1, len(tgt[d]) * 2, 2) for d in axes]
    last = len(tgt) - 1
    # (same-level phase, chunk positions along each axis)
    whole = tuple(range(len(t)) for t in tgt)
    pieces = [(False, whole)]
    if not fvfi and last not in axes:
        pieces = [(False, _cut(whole, last, slice(k, k + 1))) for k in whole[last]]
    if len(axes) == 1 and lc.same_level and lc.spline != "linear" and len(tpos[0]) > 1:
        d = axes[0]
        pieces = [
            (h == 1, _cut(pos, d, slice(h, None, 2)))
            for _, pos in pieces
            for h in (0, 1)
        ]
    steps = []
    for same_level, pos in pieces:
        rows = max(1, slab // max(1, math.prod(map(len, pos[1:]))))
        for k in range(0, len(pos[0]), rows):
            q = _cut(pos, 0, slice(k, k + rows))
            steps.append(
                Step(
                    tuple(_span(t[_span(r)]) for t, r in zip(tgt, q)),
                    tuple(t[_span(q[d])] for d, t in zip(axes, tpos)),
                    same_level,
                    tuple(map(_span, q)),
                )
            )
    return tuple(steps)


def stream_size(
    shape: tuple[int, ...], cfg: EngineConfig, levels: tuple[int, ...] | None = None
) -> int:
    """Number of codes the passes of ``levels`` (default: all) emit."""
    return sum(p.size for p in passes(shape, cfg, levels))


def _walk(
    a: np.ndarray,
    e: float,
    cfg: EngineConfig,
    qfun: Callable[[np.ndarray, tuple, float, np.ndarray], np.ndarray],
    codes: np.ndarray,
    levels: tuple[int, ...] | None = None,
) -> None:
    """Run the steps of the passes of ``levels`` (default: all) on ``a``
    in place; the compress/decompress traversal.

    ``codes`` is the code stream of those passes, in pass order.
    ``qfun(pred, sel, e_l, out)`` quantizes (compress) or dequantizes
    (decompress) the targets at selection ``sel`` whose codes are the
    stream view ``out`` and returns the reconstruction, which the walk
    writes back into ``a``.
    """
    block_ids = _block_ids(cfg, a.shape)
    used = [] if block_ids is None else np.unique(block_ids).tolist()
    off = 0
    for p in passes(a.shape, cfg, levels):
        chunk = codes[off : off + p.size].reshape(p.shape)
        off += p.size
        e_l = e / min(cfg.alpha ** (p.level - 1), cfg.beta)
        for st in p.steps:
            pred = _blend(a, cfg, p, st, block_ids, used)
            a[st.sel] = qfun(pred, st.sel, e_l, chunk[st.out])


def _predict(
    a: np.ndarray, p: Pass, st: Step, stencil: str, sigma2: tuple[float, ...] | None
) -> np.ndarray:
    """1-D spline prediction of step ``st`` along each axis of pass
    ``p``, combined by inverse-variance weights (Eq. 9/12) when there are
    several. Each stencil gathers along its native axis ``d``; the
    combine accumulates in place, in axis order."""
    axes, s = p.axes, 1 << (p.level - 1)

    def along(d: int, t: range) -> np.ndarray:
        v = a[_put(st.sel, d, slice(0, None, s))]
        return splines.line_predict(v, t, stencil, axis=d)

    if len(axes) == 1:
        return along(axes[0], st.tpos[0])
    sig = sigma2 or tuple(1.0 for _ in range(a.ndim))
    inv = np.array([1.0 / max(sig[d], 1e-30) for d in axes])
    w = inv / inv.sum()
    acc = along(axes[0], st.tpos[0])
    acc *= w[0]
    for d, t, wi in zip(axes[1:], st.tpos[1:], w[1:]):
        pd = along(d, t)
        pd *= wi
        acc += pd
    return acc


def _blend(
    a: np.ndarray,
    cfg: EngineConfig,
    p: Pass,
    st: Step,
    block_ids: np.ndarray | None,
    used: list[int],
) -> np.ndarray:
    """Prediction of step ``st`` of pass ``p`` with the level spline, or
    blended per §6.6 block from the splines ``used`` in the block map
    ``block_ids``.

    The map applies on the final level only: block tuning scores splines
    at stride 1 (§6.6's sub-block test), which says nothing about the
    coarse levels — there the globally tuned config stays."""

    def pred_of(spline: str) -> np.ndarray:
        stencil = _stencil_name(spline, st.same_level)
        return _predict(a, p, st, stencil, cfg.md_sigma2)

    if block_ids is None or p.level != 1:
        return pred_of(p.lc.spline)
    pred = pred_of(splines.SPLINE_CHOICES[used[0]])
    if len(used) > 1:
        pos = [np.arange(n)[sl] // BLOCK for n, sl in zip(a.shape, st.sel)]
        ids = block_ids[np.ix_(*pos)]
        for sid in used[1:]:
            pred = np.where(ids == sid, pred_of(splines.SPLINE_CHOICES[sid]), pred)
    return pred


def _anchor_sel(shape: tuple[int, ...], cfg: EngineConfig) -> tuple:
    active = _active_axes(shape, tuple(cfg.frozen_axes))
    return tuple(
        slice(0, None, cfg.anchor_stride) if ax in active else ALL
        for ax in range(len(shape))
    )


def encode_walk(
    a: np.ndarray, e: float, cfg: EngineConfig, levels: tuple[int, ...] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run the passes of ``levels`` (default: all) on ``a`` in place,
    quantizing with :class:`QuantEncoder`, so ``a`` ends as the
    reconstruction. Returns the code stream and the literals.
    :func:`compress` runs every level; the tuner's §6.2 probes run one."""
    enc = QuantEncoder()
    stream = np.empty(stream_size(a.shape, cfg, levels), dtype=STREAM_DTYPE)

    def qfun(pred: np.ndarray, sel: tuple, e_l: float, out: np.ndarray) -> np.ndarray:
        return enc.quantize(pred, a[sel], e_l, out)

    _walk(a, e, cfg, qfun, stream, levels)
    return stream, enc.literals()


def _check_axes(cfg: EngineConfig, shape: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless ``cfg`` names the axes of ``shape`` as
    a walk over it reads them: distinct frozen axes, one ``md_sigma2`` per
    axis, and dim orders of distinct active axes (the walk appends the
    active axes an order leaves out). :func:`compress` refuses any other
    config, so :func:`decompress` reads any other meta as damage."""

    def distinct_of(axes: tuple[int, ...], allowed) -> bool:
        return len(set(axes) & set(allowed)) == len(axes)

    active = _active_axes(shape, cfg.frozen_axes)
    fits = {
        "frozen_axes": distinct_of(cfg.frozen_axes, range(len(shape))),
        "md_sigma2": cfg.md_sigma2 is None or len(cfg.md_sigma2) == len(shape),
        "dim_order": all(
            c.dim_order is None or distinct_of(c.dim_order, active)
            for c in cfg.level_configs
        ),
    }
    for key, ok in fits.items():
        if not ok:
            raise ValueError(f"engine config key {key!r} does not fit shape {shape}")


def compress(
    data: np.ndarray, e: float, cfg: EngineConfig
) -> tuple[bytes, np.ndarray]:
    """Compress ``data`` under absolute bound ``e``; returns (payload,
    reconstruction). The reconstruction is what the decompressor yields —
    handy for in-loop quality estimation during tuning."""
    if e <= 0:
        raise ValueError("error bound must be positive")
    _check_axes(cfg, data.shape)
    orig_dtype = data.dtype
    # a copy, always: the walk writes its reconstruction into ``a``
    a = np.array(data, dtype=np.float64, order="C")
    anchors = np.ascontiguousarray(data[_anchor_sel(a.shape, cfg)])
    stream, lits = encode_walk(a, e, cfg)

    meta = {"shape": list(data.shape), "e": e, "cfg": cfg.to_dict()}
    sections = [
        ("meta", container.json_section(meta)),
        ("anchors", container.array_section(anchors)),
        ("codes", codes_mod.encode(stream, center=RADIUS)),
    ]
    lits = lits.astype(orig_dtype if orig_dtype.kind == "f" else np.float64)
    if lits.size:
        sections.append(
            ("literals", lossless.compress(container.array_section(lits)))
        )
    block_ids = _block_ids(cfg, data.shape)
    if block_ids is not None:
        sections.append(
            ("blockcfg", lossless.compress(container.array_section(block_ids)))
        )
    return container.pack(sections), a


def decompress(payload: bytes) -> np.ndarray:
    """Invert :func:`compress`; returns float64 reconstruction."""
    sec = container.unpack(payload)
    meta = container.from_json(sec["meta"])
    shape = container.typed_tuple(meta, "shape", int)
    block_cfg = None
    if "blockcfg" in sec:
        ids = container.to_array(lossless.decompress(sec["blockcfg"]))
        if (
            ids.dtype != np.uint8
            or ids.shape != block_grid(shape)
            or ids.max(initial=0) >= len(splines.SPLINE_CHOICES)
        ):
            raise ValueError(
                f"corrupt container: block map does not fit shape {shape}"
            )
        block_cfg = ids.tobytes()
    cfg = EngineConfig.from_dict(container.typed(meta, "cfg", dict), block_cfg)
    _check_axes(cfg, shape)
    e = float(container.typed(meta, "e", float, container.positive))
    codes = codes_mod.decode(sec["codes"])
    if "literals" in sec:
        lits = container.to_array(lossless.decompress(sec["literals"])).astype(
            np.float64
        )
    else:
        lits = np.empty(0, dtype=np.float64)
    if codes.size != stream_size(shape, cfg):
        raise ValueError("quantization code stream size mismatch")
    if codes.size - np.count_nonzero(codes) != lits.size:
        raise ValueError("literal count mismatch: zero codes vs literals")
    dec = QuantDecoder(lits)
    a = np.full(shape, np.nan, dtype=np.float64)
    a[_anchor_sel(shape, cfg)] = container.to_array(sec["anchors"]).astype(np.float64)

    def qfun(pred: np.ndarray, sel: tuple, e_l: float, out: np.ndarray) -> np.ndarray:
        return dec.dequantize(pred, e_l, out)

    _walk(a, e, cfg, qfun, codes)
    return a
