"""ZFP-like fixed-accuracy codec over 4^d blocks (DESIGN.md §2).

Reproduces ZFP 0.5.5's archetype (paper §3.2: discrete-orthogonal-
transform-based, local 4^d decorrelation, no cross-block entropy
coding; the lowest ratio of the high-performance group):

1. pad to multiples of 4 and shred into 4^d blocks (vectorized: one
   array of shape (nblocks, 4, ..., 4));
2. block-floating-point: per-block common exponent, scale to int64;
3. ZFP's exact reversible integer lifting transform along each axis;
4. uniform coefficient quantization with a conservative step derived
   from the tolerance and the inverse-transform gain;
5. per-block fixed-width bit packing (groups of equal width packed
   vectorized) — deliberately *no* global entropy stage, like ZFP;
6. a correction list guarantees the point-wise bound exactly (real ZFP's
   fixed-accuracy mode guarantees it analytically); it is the one that
   sperr and tthresh write, ``core/corrections.py``. The gain bound is
   not tight enough to make it empty: 15 of the 48 blobs over the eight
   datasets at test and bench scale and eps 1e-2/1e-3/1e-4 carry one,
   and a bound far below a block's mantissa resolution corrects most
   points by many ``e``.

Decompression reverses the steps; everything is whole-array NumPy. ZFP
leads paper Table 2; this codec does so only at test scale. On the tiled
bench fields it measures 16.9–19.7 MB/s compress against 62–88 MB/s for
sz3 (EXPERIMENTS.md Table 2, deviation (b)). In a cProfile of round
trips on the six FP bench fields (0.99 s in all, 4-core Xeon VM) the
lifting transforms take 0.36 s and the two codec bodies, which hold the
per-bit packing loops, 0.29 s; a byte-identical NumPy ``packbits``
packer was no faster.

The meta holds ``shape``, ``e`` and ``frac_bits``; the padded shape is
worked out from ``shape`` (:func:`_padded`), and a ``frac_bits`` other
than this module's raises ``ValueError``.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core import container, corrections, lossless

_BLOCK = 4
#: scale of the block-floating-point mantissa (bits)
_FRAC_BITS = 40
#: L-inf gain bound of the inverse lifting transform per axis
_GAIN_PER_AXIS = 1.9


def _fwd_lift(t: np.ndarray, axis: int) -> None:
    """ZFP's forward lifting transform (in place, int64, exact)."""
    t_ = np.moveaxis(t, axis, -1)
    x, y, z, w = (t_[..., i].copy() for i in range(4))
    x += w
    x >>= 1
    w -= x
    z += y
    z >>= 1
    y -= z
    x += z
    x >>= 1
    z -= x
    w += y >> 1
    y -= w >> 1
    for i, v in enumerate((x, y, z, w)):
        t_[..., i] = v


def _inv_lift_exact(t: np.ndarray, axis: int) -> None:
    """Exact inverse lifting (mirrors the forward steps in reverse)."""
    t_ = np.moveaxis(t, axis, -1)
    x, y, z, w = (t_[..., i].copy() for i in range(4))
    y += w >> 1
    w -= y >> 1
    z += x
    x <<= 1
    x -= z
    y += z
    z <<= 1
    z -= y
    w += x
    x <<= 1
    x -= w
    for i, v in enumerate((x, y, z, w)):
        t_[..., i] = v


def _coef_classes(nd: int) -> np.ndarray:
    """ZFP's coefficient grouping by total degree (sum of per-axis
    indices): low-degree classes hold the energy after the decorrelating
    transform, so per-class bit widths avoid paying the block maximum for
    every coefficient."""
    idx = np.indices((_BLOCK,) * nd).reshape(nd, -1)
    return idx.sum(axis=0).astype(np.int64)


def _groups(widths: np.ndarray, nd: int) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """The ``(rows, cols, width)`` groups of the ``bits`` section in
    stream order: for each degree class, the blocks ``rows`` whose
    coefficients ``cols`` of that class are packed ``width`` bits wide,
    by increasing nonzero width (width 0 packs nothing)."""
    cls = _coef_classes(nd)
    for c in range(int(cls.max()) + 1):
        cols = np.flatnonzero(cls == c)
        wc = widths[:, c]
        for wv in np.unique(wc):
            if wv:
                yield np.flatnonzero(wc == wv), cols, int(wv)


def _padded(shape: tuple[int, ...]) -> tuple[int, ...]:
    """``shape`` rounded up to multiples of 4."""
    return tuple((n + _BLOCK - 1) // _BLOCK * _BLOCK for n in shape)


def _blockify(a: np.ndarray) -> np.ndarray:
    """Pad (edge) to multiples of 4; return (nblocks, 4...4) view-copy."""
    nd = a.ndim
    padded_shape = _padded(a.shape)
    pad = [(0, p - n) for n, p in zip(a.shape, padded_shape)]
    ap = np.pad(a, pad, mode="edge")
    nb = tuple(p // _BLOCK for p in padded_shape)
    # reshape to interleaved block axes then bring block axes together
    shp: list[int] = []
    for b in nb:
        shp.extend((b, _BLOCK))
    ap = ap.reshape(shp)
    order = list(range(0, 2 * nd, 2)) + list(range(1, 2 * nd, 2))
    ap = np.transpose(ap, order).reshape((-1,) + (_BLOCK,) * nd)
    return np.ascontiguousarray(ap)


def _unblockify(blocks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    nd = len(shape)
    padded_shape = _padded(shape)
    nb = tuple(p // _BLOCK for p in padded_shape)
    a = blocks.reshape(nb + (_BLOCK,) * nd)
    order: list[int] = []
    for i in range(nd):
        order.extend((i, nd + i))
    a = np.transpose(a, order).reshape(padded_shape)
    return a[tuple(slice(0, n) for n in shape)].copy()


def _scale_step(
    emax: np.ndarray, e: float, nd: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-block mantissa scale ``2^(FRAC_BITS - emax)`` and quantization
    step, conservative for the inverse transform's gain; both shaped to
    broadcast over the ``(nblocks, 4, ..., 4)`` blocks."""
    scale = np.exp2(_FRAC_BITS - emax.astype(np.float64)).reshape((-1,) + (1,) * nd)
    step = np.maximum(np.floor(e * scale / _GAIN_PER_AXIS**nd), 1.0).astype(np.int64)
    return scale, step


def compress(data: np.ndarray, e: float) -> bytes:
    """Fixed-accuracy compression under absolute error bound ``e``."""
    a = np.asarray(data, dtype=np.float64)
    nd = a.ndim
    blocks = _blockify(a)
    maxabs = np.abs(blocks).reshape(blocks.shape[0], -1).max(axis=1)
    emax = np.zeros(blocks.shape[0], dtype=np.int32)
    nz = maxabs > 0
    emax[nz] = np.ceil(np.log2(maxabs[nz])).astype(np.int32)
    scale, step = _scale_step(emax, e, nd)
    ints = np.rint(blocks * scale).astype(np.int64)
    for ax in range(1, nd + 1):
        _fwd_lift(ints, ax)
    q = np.rint(ints / step).astype(np.int64)
    # per-(block, degree-class) fixed-width packing
    qf = q.reshape(-1, _BLOCK**nd)
    cls = _coef_classes(nd)
    widths = np.zeros((qf.shape[0], int(cls.max()) + 1), dtype=np.uint8)
    for c in range(widths.shape[1]):
        sub = np.abs(qf[:, cls == c]).max(axis=1)
        nzc = sub > 0
        widths[nzc, c] = (
            np.floor(np.log2(sub[nzc])).astype(np.int64) + 2
        ).astype(np.uint8)
    payload_parts: list[bytes] = []
    for rows, cols, wv in _groups(widths, nd):
        offset = np.int64(1) << np.int64(wv - 1)
        flat = (qf[np.ix_(rows, cols)] + offset).astype(np.uint64).ravel()
        bits = np.zeros((flat.size, wv), dtype=np.uint8)
        for b in range(wv):
            bits[:, b] = (flat >> np.uint64(wv - 1 - b)) & np.uint64(1)
        payload_parts.append(np.packbits(bits.ravel()).tobytes())
    meta = {"shape": list(a.shape), "e": e, "frac_bits": _FRAC_BITS}
    sections = [
        ("meta", container.json_section(meta)),
        ("emax", lossless.compress(container.array_section(emax))),
        ("widths", lossless.compress(container.array_section(widths))),
        ("bits", b"".join(payload_parts)),
    ]
    # the correction list guarantees the bound exactly
    recon = _reconstruct(q, scale, step, a.shape)
    sections += corrections.sections(a, recon, e)
    return container.pack(sections)


def _reconstruct(
    q: np.ndarray,
    scale: np.ndarray,
    step: np.ndarray,
    shape: tuple[int, ...],
) -> np.ndarray:
    ints = q * step
    for ax in range(len(shape), 0, -1):
        _inv_lift_exact(ints, ax)
    blocks = ints.astype(np.float64) / scale
    return _unblockify(blocks, shape)


def decompress(blob: bytes) -> np.ndarray:
    sec = container.unpack(blob)
    meta = container.from_json(sec["meta"])
    frac_bits = container.typed(meta, "frac_bits", int)
    if frac_bits != _FRAC_BITS:
        raise ValueError(
            f"unsupported zfp payload: frac_bits={frac_bits!r} (expected {_FRAC_BITS})"
        )
    shape = container.typed_tuple(meta, "shape", int)
    nd = len(shape)
    e = float(container.typed(meta, "e", float, container.positive))
    emax = container.to_array(lossless.decompress(sec["emax"]))
    widths = container.to_array(lossless.decompress(sec["widths"]))
    qf = np.zeros((emax.size, _BLOCK**nd), dtype=np.int64)
    raw = sec["bits"]
    boff = 0
    for rows, cols, wv in _groups(widths, nd):
        nvals = rows.size * cols.size
        nbytes = (nvals * wv + 7) // 8
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8, count=nbytes, offset=boff),
            count=nvals * wv,
        ).reshape(nvals, wv)
        boff += nbytes
        u = np.zeros(nvals, dtype=np.uint64)
        for b in range(wv):
            u = (u << np.uint64(1)) | bits[:, b].astype(np.uint64)
        offset = np.int64(1) << np.int64(wv - 1)
        qf[np.ix_(rows, cols)] = (u.astype(np.int64) - offset).reshape(
            rows.size, cols.size
        )
    q = qf.reshape((-1,) + (_BLOCK,) * nd)
    recon = _reconstruct(q, *_scale_step(emax, e, nd), shape)
    return corrections.apply(recon, sec, e)
