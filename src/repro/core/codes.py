"""Bulk coder for quantization-code streams (paper §4 steps 4-5).

The paper pipes quantization codes through Huffman then Zstd. A pure-
Python sequential Huffman *decode* of 10^6-10^8 symbols would dominate
every speed table, so bulk streams use an equivalent-entropy scheme that
is fully vectorized both ways:

* recenter codes around the quantizer radius (small signed ints),
* zigzag-map to unsigned,
* split into little-endian byte planes (plane 0 carries nearly all the
  entropy; higher planes are almost constant zero),
* DEFLATE each plane (DEFLATE's literal stage *is* Huffman coding, with
  LZ77 on top standing in for Zstd's match stage).

Byte-plane layout (``BP01``): magic, then ``<QqB`` = symbol count ``n``,
``center`` and plane count ``nbytes`` (1-8, the fewest bytes holding the
largest zigzag value), then ``nbytes`` records of ``<Q`` length +
DEFLATE blob, plane 0 (least significant byte) first; each plane
inflates to exactly ``n`` bytes. Both directions work on an ``(n, w)``
uint8 view of the narrowest unsigned dtype of ``w`` in {1, 2, 4, 8}
bytes that holds ``nbytes`` planes: column ``b`` is plane ``b``.

Streams below ``HUFFMAN_CUTOFF`` symbols use the real from-scratch
canonical Huffman codec + DEFLATE, exercising the paper's exact pipeline.
A ratio-parity test in ``tests/test_codes.py`` pins the two schemes
within a few percent of each other.
"""
from __future__ import annotations

import struct

import numpy as np

from . import huffman, lossless

_MAGIC_BP = b"BP01"
_MAGIC_HF = b"CH01"

HUFFMAN_CUTOFF = 4096

_CORRUPT = "corrupt code-stream blob"


def _width(nbytes: int) -> int:
    """Narrowest unsigned dtype width (bytes) holding ``nbytes`` planes."""
    return next(w for w in (1, 2, 4, 8) if w >= nbytes)


def _zigzag_max(lo: int, hi: int) -> int:
    """Largest zigzag value of a stream whose values span ``[lo, hi]``
    (zigzag grows with ``|v|`` on each side, so an end attains it)."""
    return max(2 * v if v >= 0 else -2 * v - 1 for v in (lo, hi))


def encode(codes: np.ndarray, center: int = 0) -> bytes:
    """Encode an integer code stream; ``center`` is subtracted first.

    The zigzag runs in int32 when the stream, ``center`` and the
    recentred values all fit, else in int64; both give the same bytes."""
    v = np.asarray(codes).ravel()
    n = v.size
    if n and n <= HUFFMAN_CUTOFF:
        body = lossless.compress(huffman.encode(v.astype(np.int64) - center))
        return _MAGIC_HF + struct.pack("<Qq", n, center) + body
    vmin, vmax = (int(v.min()), int(v.max())) if n else (center, center)
    lo, hi = vmin - center, vmax - center
    nbytes = max(1, (_zigzag_max(lo, hi).bit_length() + 7) // 8)
    i32 = np.iinfo(np.int32)
    fits = i32.min <= min(vmin, lo, center) and max(vmax, hi, center) <= i32.max
    bits = 32 if fits else 64
    z = np.subtract(v, center, dtype=f"i{bits // 8}")
    sign = z >> (bits - 1)
    z <<= 1
    z ^= sign  # zigzag
    w = _width(nbytes)
    planes = z.view(f"u{bits // 8}").astype(f"<u{w}", copy=False)
    planes = planes.view(np.uint8).reshape(n, w)
    out = [_MAGIC_BP, struct.pack("<QqB", n, center, nbytes)]
    for b in range(nbytes):
        # a 1-byte plane is contiguous and goes to DEFLATE as is
        blob = lossless.compress(planes[:, b] if w == 1 else planes[:, b].copy())
        out.append(struct.pack("<Q", len(blob)))
        out.append(blob)
    return b"".join(out)


def decode(blob: bytes) -> np.ndarray:
    """Decode back to int64 codes (center re-added).

    A byte-plane header that disagrees with its planes (plane count
    outside 1-8, a plane not ``n`` bytes long, trailing bytes) raises
    ``ValueError`` before anything sized by ``n`` is allocated."""
    magic = blob[:4]
    if magic == _MAGIC_HF:
        n, center = struct.unpack_from("<Qq", blob, 4)
        syms = huffman.decode(lossless.decompress(blob[4 + 16 :]))
        return syms + center
    if magic != _MAGIC_BP:
        raise ValueError("unknown code-stream blob")
    n, center, nbytes = struct.unpack_from("<QqB", blob, 4)
    if not 1 <= nbytes <= 8:
        raise ValueError(_CORRUPT)
    off = 4 + 17
    raw = []
    for _ in range(nbytes):
        if off + 8 > len(blob):
            raise ValueError(_CORRUPT)
        (ln,) = struct.unpack_from("<Q", blob, off)
        off += 8
        plane = lossless.decompress(blob[off : off + ln])
        off += ln
        if len(plane) != n:
            raise ValueError(_CORRUPT)
        raw.append(plane)
    if off != len(blob):
        raise ValueError(_CORRUPT)
    w = _width(nbytes)
    planes = np.zeros((n, w), dtype=np.uint8)
    for b, plane in enumerate(raw):
        planes[:, b] = np.frombuffer(plane, dtype=np.uint8)
    z = planes.view(f"<u{w}").ravel()
    v = ((z >> 1) ^ -(z & 1)).view(f"<i{w}").astype(np.int64)  # unzigzag
    v += center
    return v
