"""Coder for quantization-code streams (paper §4 steps 4-5).

The paper pipes quantization codes through Huffman then Zstd. A pure-
Python sequential Huffman *decode* of 10^6-10^8 symbols would dominate
every speed table, so every stream, whatever its length, uses an
equivalent-entropy scheme that is fully vectorized both ways:

* recenter codes around the quantizer radius (small signed ints),
* zigzag-map to unsigned,
* split into little-endian byte planes (plane 0 carries nearly all the
  entropy; higher planes are almost constant zero),
* Zstd the planes, one after the other, as one frame (Zstd's literal
  stage is Huffman coding, with its LZ match stage on top).

Byte-plane layout (``BP01``): magic, then ``<QqB`` = symbol count ``n``,
``center`` and plane count ``nbytes`` (1-8, the fewest bytes holding the
largest zigzag value), then one Zstd frame (:mod:`.lossless`) of
``n * nbytes`` bytes: the planes plane-major, plane 0 (least significant
byte) first, ``n`` bytes each. Both directions work on an ``(n, w)``
little-endian uint8 view of the zigzag stream, column ``b`` being plane
``b``: the encoder's ``w`` is its int32 or int64 width, the decoder's the
narrowest of {1, 2, 4, 8} bytes that holds ``nbytes`` planes.

A test in ``tests/test_codes.py`` pins the coded size of SZ-style
quantization codes within 25 % of their marginal-entropy floor, the
size no Huffman code can beat.
"""
from __future__ import annotations

import struct

import numpy as np

from . import lossless

_MAGIC_BP = b"BP01"

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
    vmin, vmax = (int(v.min()), int(v.max())) if n else (center, center)
    lo, hi = vmin - center, vmax - center
    nbytes = max(1, (_zigzag_max(lo, hi).bit_length() + 7) // 8)
    i32 = np.iinfo(np.int32)
    fits = i32.min <= min(vmin, lo, center) and max(vmax, hi, center) <= i32.max
    bits = 32 if fits else 64
    z = np.subtract(v, center, dtype=f"<i{bits // 8}")
    sign = z >> (bits - 1)
    z <<= 1
    z ^= sign  # zigzag
    columns = z.view(np.uint8).reshape(n, bits // 8)
    frame = np.empty((nbytes, n), dtype=np.uint8)
    for b in range(nbytes):
        frame[b] = columns[:, b]
    header = _MAGIC_BP + struct.pack("<QqB", n, center, nbytes)
    return header + lossless.compress(frame.ravel())


def decode(blob: bytes) -> np.ndarray:
    """Decode back to int64 codes (center re-added).

    A byte-plane header that is cut short or disagrees with its frame
    (plane count outside 1-8, a frame whose content is not ``n * nbytes``
    bytes, a damaged frame, trailing bytes) raises ``ValueError`` before
    anything sized by ``n`` is allocated."""
    if blob[:4] != _MAGIC_BP:
        raise ValueError("unknown code-stream blob")
    if len(blob) < 4 + 17:
        raise ValueError(_CORRUPT)
    n, center, nbytes = struct.unpack_from("<QqB", blob, 4)
    if not 1 <= nbytes <= 8:
        raise ValueError(_CORRUPT)
    try:
        raw = lossless.decompress(memoryview(blob)[4 + 17 :], n * nbytes)
    except ValueError as exc:
        raise ValueError(_CORRUPT) from exc
    raw = np.frombuffer(raw, dtype=np.uint8).reshape(nbytes, n)
    w = _width(nbytes)
    if w == 1:
        z = raw[0]
    else:
        planes = np.zeros((n, w), dtype=np.uint8)
        for b in range(nbytes):  # one plane at a time: a long inner loop
            planes[:, b] = raw[b]
        z = planes.view(f"<u{w}").ravel()
    v = ((z >> 1) ^ -(z & 1)).view(f"<i{w}").astype(np.int64)  # unzigzag
    v += center
    return v
