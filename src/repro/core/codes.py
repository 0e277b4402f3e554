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
byte) first, ``n`` bytes each.

Codes keep their natural width both ways. ``nbytes`` planes hold every
recentred value in ``[-2^(8 nbytes - 1), 2^(8 nbytes - 1))``, so the
encoder recentres and zigzags in ``w``-byte modular arithmetic, ``w``
the narrowest of {1, 2, 4, 8} bytes holding ``nbytes`` planes, whatever
the input's width (an interpolation stream at radius 32768 is uint16
and stays so). The decoder writes the planes straight into the
narrowest integer dtype holding ``center`` plus that range
(:func:`decoded_dtype`): uint16 for such a stream, int8 for a
one-plane stream centred on 0.

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


#: candidate decode dtypes, narrowest first
_DTYPES = tuple(
    np.dtype(f"<{k}{w}") for w in (1, 2, 4) for k in ("i", "u")
) + (np.dtype("<i8"),)


def _width(nbytes: int) -> int:
    """Narrowest unsigned dtype width (bytes) holding ``nbytes`` planes."""
    return next(w for w in (1, 2, 4, 8) if w >= nbytes)


def _zigzag_max(lo: int, hi: int) -> int:
    """Largest zigzag value of a stream whose values span ``[lo, hi]``
    (zigzag grows with ``|v|`` on each side, so an end attains it)."""
    return max(2 * v if v >= 0 else -2 * v - 1 for v in (lo, hi))


def decoded_dtype(center: int, nbytes: int) -> np.dtype:
    """Narrowest integer dtype holding every value an ``nbytes``-plane
    stream around ``center`` can carry, ``center + [-2^(8 nbytes - 1),
    2^(8 nbytes - 1))``; int64 when none does (8 planes, ``center != 0``:
    the encoder's input was int64, so its values still fit)."""
    half = 1 << (8 * nbytes - 1)
    lo, hi = center - half, center + half - 1
    for dt in _DTYPES:
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return dt
    return _DTYPES[-1]


def encode(codes: np.ndarray, center: int = 0) -> bytes:
    """Encode an integer code stream; ``center`` is subtracted first.

    Recentring and zigzag run in the narrowest unsigned width holding the
    planes, modulo ``2^(8 w)``: exact, since every recentred value fits
    in ``w`` signed bytes. Raises ``ValueError`` when a recentred value
    does not fit in int64."""
    v = np.asarray(codes).ravel()
    n = v.size
    vmin, vmax = (int(v.min()), int(v.max())) if n else (center, center)
    nbytes = max(1, (_zigzag_max(vmin - center, vmax - center).bit_length() + 7) // 8)
    if nbytes > 8:
        raise ValueError("recentred codes do not fit in int64")
    w = _width(nbytes)
    bits = 8 * w
    z = np.subtract(v, center % (1 << bits), dtype=f"<u{w}", casting="unsafe")
    sign = z.view(f"<i{w}") >> (bits - 1)
    z <<= 1
    z ^= sign.view(z.dtype)  # zigzag
    columns = z.view(np.uint8).reshape(n, w)
    frame = np.empty((nbytes, n), dtype=np.uint8)
    for b in range(nbytes):
        frame[b] = columns[:, b]
    header = _MAGIC_BP + struct.pack("<QqB", n, center, nbytes)
    return header + lossless.compress(frame.ravel())


def decode(blob: bytes) -> np.ndarray:
    """Decode back to the integer codes (center re-added), in the dtype
    :func:`decoded_dtype` gives for the header's ``center`` and
    ``nbytes``.

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
    dt = decoded_dtype(center, nbytes)
    # the planes go to the low bytes of each element, then unzigzag and
    # recentre in place, modulo 2^(8 w): exact, as the values fit ``dt``
    w = dt.itemsize
    z = np.zeros(n, dtype=f"<u{w}")
    columns = z.view(np.uint8).reshape(n, w)
    for b in range(nbytes):  # one plane at a time: a long inner loop
        columns[:, b] = raw[b]
    sign = z & 1
    np.negative(sign, out=sign)
    z >>= 1
    z ^= sign  # unzigzag
    z += center % (1 << (8 * w))
    return z.view(dt)
