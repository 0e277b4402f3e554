"""ZFP-like fixed-accuracy codec over 4^d blocks (DESIGN.md §2).

Reproduces ZFP 0.5.5's archetype (paper §3.2: discrete-orthogonal-
transform-based, local 4^d decorrelation, no cross-block entropy
coding — fastest codec, lowest ratio):

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

Decompression reverses the steps; everything is whole-array NumPy, which
is why this codec tops the speed table like ZFP does in paper Table 2.
"""
from __future__ import annotations

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


def _blockify(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pad (edge) to multiples of 4; return (nblocks, 4...4) view-copy."""
    nd = a.ndim
    padded_shape = tuple((n + _BLOCK - 1) // _BLOCK * _BLOCK for n in a.shape)
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
    return np.ascontiguousarray(ap), padded_shape


def _unblockify(
    blocks: np.ndarray, padded_shape: tuple[int, ...], shape: tuple[int, ...]
) -> np.ndarray:
    nd = len(shape)
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
    blocks, padded_shape = _blockify(a)
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
    bsz = _BLOCK**nd
    qf = q.reshape(-1, bsz)
    cls = _coef_classes(nd)
    nclasses = int(cls.max()) + 1
    nblocks = qf.shape[0]
    widths = np.zeros((nblocks, nclasses), dtype=np.uint8)
    for c in range(nclasses):
        sub = np.abs(qf[:, cls == c]).max(axis=1)
        nzc = sub > 0
        widths[nzc, c] = (
            np.floor(np.log2(sub[nzc])).astype(np.int64) + 2
        ).astype(np.uint8)
    payload_parts: list[bytes] = []
    for c in range(nclasses):
        cols = np.flatnonzero(cls == c)
        wc = widths[:, c]
        for wv in np.unique(wc):
            if wv == 0:
                continue
            rows = wc == wv
            grp = qf[np.ix_(rows, cols)]
            offset = np.int64(1) << np.int64(int(wv) - 1)
            flat = (grp + offset).astype(np.uint64).ravel()
            bits = np.zeros((flat.size, int(wv)), dtype=np.uint8)
            for b in range(int(wv)):
                bits[:, b] = (flat >> np.uint64(int(wv) - 1 - b)) & np.uint64(1)
            payload_parts.append(np.packbits(bits.ravel()).tobytes())
    meta = {
        "shape": list(data.shape),
        "padded": list(padded_shape),
        "dtype": np.asarray(data).dtype.str,
        "e": e,
        "frac_bits": _FRAC_BITS,
    }
    sections = [
        ("meta", container.json_section(meta)),
        ("emax", lossless.compress(container.array_section(emax))),
        ("widths", lossless.compress(container.array_section(widths))),
        ("bits", b"".join(payload_parts)),
    ]
    # the correction list guarantees the bound exactly
    recon = _reconstruct(q, scale, step, padded_shape, tuple(data.shape))
    sections += corrections.sections(a, recon, e)
    return container.pack(sections)


def _reconstruct(
    q: np.ndarray,
    scale: np.ndarray,
    step: np.ndarray,
    padded_shape: tuple[int, ...],
    shape: tuple[int, ...],
) -> np.ndarray:
    ints = q * step
    for ax in range(len(shape), 0, -1):
        _inv_lift_exact(ints, ax)
    blocks = ints.astype(np.float64) / scale
    return _unblockify(blocks, padded_shape, shape)


def decompress(blob: bytes) -> np.ndarray:
    sec = container.unpack(blob)
    meta = container.from_json(sec["meta"])
    shape = tuple(meta["shape"])
    padded_shape = tuple(meta["padded"])
    nd = len(shape)
    e = float(meta["e"])
    emax = container.to_array(lossless.decompress(sec["emax"]))
    widths = container.to_array(lossless.decompress(sec["widths"]))
    nblocks = emax.size
    bsz = _BLOCK**nd
    cls = _coef_classes(nd)
    nclasses = int(cls.max()) + 1
    qf = np.zeros((nblocks, bsz), dtype=np.int64)
    raw = sec["bits"]
    boff = 0
    for c in range(nclasses):
        cols = np.flatnonzero(cls == c)
        wc = widths[:, c]
        for wv in np.unique(wc):
            if wv == 0:
                continue
            rows = np.flatnonzero(wc == wv)
            nvals = rows.size * cols.size
            nbits = nvals * int(wv)
            nbytes = (nbits + 7) // 8
            bits = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8, count=nbytes, offset=boff),
                count=nbits,
            ).reshape(nvals, int(wv))
            boff += nbytes
            u = np.zeros(nvals, dtype=np.uint64)
            for b in range(int(wv)):
                u = (u << np.uint64(1)) | bits[:, b].astype(np.uint64)
            offset = np.int64(1) << np.int64(int(wv) - 1)
            qf[np.ix_(rows, cols)] = (u.astype(np.int64) - offset).reshape(
                rows.size, cols.size
            )
    q = qf.reshape((nblocks,) + (_BLOCK,) * nd)
    recon = _reconstruct(q, *_scale_step(emax, e, nd), padded_shape, shape)
    return corrections.apply(recon, sec, e)
