"""Quantization-code coder tests (byte planes + Zstd)."""
import os
import struct
import sys
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codes, lossless


def _uint64_plane_encode(codes_, center):
    """Reference byte-plane encoder as first written: one shift, mask and
    ``astype`` pass over the uint64 zigzag stream per plane, the planes
    joined plane-major into one frame."""
    v = np.asarray(codes_).ravel().astype(np.int64) - center
    z = ((v << 1) ^ (v >> 63)).astype(np.uint64)
    nbytes = 1
    if z.size:
        m = int(z.max())
        while m >> (8 * nbytes):
            nbytes += 1
    planes = [
        ((z >> np.uint64(8 * b)) & np.uint64(0xFF)).astype(np.uint8).tobytes()
        for b in range(nbytes)
    ]
    header = b"BP01" + struct.pack("<QqB", z.size, center, nbytes)
    return header + lossless.compress(b"".join(planes))


#: largest zigzag value -> 1, 2, 3, 4, 5, 6, 7 and 8 byte planes
_ZMAX = [2**8 - 1, 2**8, 2**16, 2**24, 2**32, 2**40, 2**48, 2**56]
_CASES = [(n, None) for n in (0, 1, 10, 5000, 70000)] + [(5000, z) for z in _ZMAX]
#: int32 streams: near the center, and spanning the whole int32 range so
#: that the recentred values run just past it (center -5 or 32768) or
#: reach its limits exactly (center 0)
_CASES += [(70000, "i32"), (5000, "i32-full")]


def _case_id(n, zmax):
    if zmax is None:
        return str(n)
    return f"{n}-{zmax}" if isinstance(zmax, str) else f"{n}-z{zmax}"


@pytest.mark.parametrize("center", [0, 32768, -5])
@pytest.mark.parametrize("n, zmax", _CASES, ids=[_case_id(n, z) for n, z in _CASES])
def test_roundtrip(n, zmax, center):
    """Round trip, and streams byte-equal to the reference encoder at
    every plane width, from int64 and int32 inputs."""
    rng = np.random.default_rng(n + 1)
    i32 = np.iinfo(np.int32)
    if zmax is None:
        arr = rng.integers(center - 100, center + 100, n)
    elif zmax == "i32":
        arr = rng.integers(center - 100, center + 100, n).astype(np.int32)
    elif zmax == "i32-full":
        arr = rng.integers(i32.min, i32.max, n, dtype=np.int32, endpoint=True)
        arr[:2] = i32.min, i32.max
    else:
        z = rng.integers(0, zmax + 1, n)
        z[n // 2] = zmax
        arr = ((z >> 1) ^ -(z & 1)) + center  # un-zigzag
    blob = codes.encode(arr, center=center)
    assert blob == _uint64_plane_encode(arr, center)
    if isinstance(zmax, int):
        assert blob[20] == (zmax.bit_length() + 7) // 8
    if zmax == "i32-full":
        # zigzag of i32.min - center needs a fifth plane unless center is 0
        assert blob[20] == (4 if center == 0 else 5)
    out = codes.decode(blob)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, arr)


@pytest.mark.parametrize("n", [100, 1, 0])
def test_small_stream_uses_byteplanes(n):
    arr = np.arange(n)
    blob = codes.encode(arr)
    assert blob[:4] == b"BP01"
    np.testing.assert_array_equal(codes.decode(blob), arr)


def test_large_stream_uses_byteplanes():
    arr = np.zeros(100000, dtype=np.int64)
    blob = codes.encode(arr)
    assert blob[:4] == b"BP01"


def test_concentrated_codes_compress_well():
    rng = np.random.default_rng(0)
    arr = 32768 + np.rint(rng.standard_normal(200000) * 1.5).astype(np.int64)
    blob = codes.encode(arr, center=32768)
    assert len(blob) * 8 / arr.size < 3.5  # ~2.8 bits marginal entropy


def test_ratio_parity_entropy_floor_vs_byteplane():
    """The byte-plane path stands in for Huffman+Zstd (DESIGN.md §2). No
    symbol-wise code beats the marginal-entropy floor ``n*H`` bits, and
    on SZ-style quantization codes the byte planes stay within 25 % of
    it."""
    rng = np.random.default_rng(1)
    sym = np.rint(rng.standard_normal(40000) * 2.0).astype(np.int64)
    _, counts = np.unique(sym, return_counts=True)
    p = counts / sym.size
    floor = sym.size * float(-(p * np.log2(p)).sum()) / 8
    bp = len(codes.encode(sym, center=0))
    assert bp < floor * 1.25


def test_negative_values():
    arr = np.array([-(2**40), -1, 0, 1, 2**40])
    out = codes.decode(codes.encode(arr, center=0))
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**50), max_value=2**50),
        min_size=0,
        max_size=200,
    )
)
def test_roundtrip_hypothesis(data):
    arr = np.array(data, dtype=np.int64)
    out = codes.decode(codes.encode(arr, center=0))
    np.testing.assert_array_equal(out, arr)


def test_rejects_garbage():
    with pytest.raises(ValueError):
        codes.decode(b"XXXXrest")


def test_rejects_retired_huffman_blob():
    """``CH01``, the canonical-Huffman stream format of small streams,
    is no longer written or read."""
    blob = b"CH01" + struct.pack("<Qq", 3, 0) + lossless.compress(b"\0" * 8)
    with pytest.raises(ValueError, match="unknown code-stream blob"):
        codes.decode(blob)


def _byteplane_blob():
    return codes.encode(np.arange(-3000, 3000), center=0)  # 2 planes


@pytest.mark.parametrize(
    "damage",
    [
        lambda b: b[:20] + bytes([9]) + b[21:],  # plane count above 8
        lambda b: b[:20] + bytes([0]) + b[21:],  # no planes
        lambda b: b[:20] + bytes([3]) + b[21:],  # a plane missing at the end
        lambda b: b[:4] + struct.pack("<Q", 6001) + b[12:],  # n != plane size
        lambda b: b + b"\0",  # bytes after the last plane
        lambda b: b[:12],  # header cut short
    ],
    ids=["nbytes9", "nbytes0", "missing_plane", "wrong_n", "trailing", "short_header"],
)
def test_rejects_corrupt_byteplane_header(damage):
    with pytest.raises(ValueError, match="corrupt code-stream blob"):
        codes.decode(damage(_byteplane_blob()))


def _deflate_era_encode(codes_, center):
    """The code-stream format before the Zstd back-end: the same
    ``BP01`` header, then per plane a ``<Q`` length and a DEFLATE-6
    stream."""
    v = np.asarray(codes_).ravel().astype(np.int64) - center
    z = ((v << 1) ^ (v >> 63)).astype(np.uint64)
    out = [b"BP01", struct.pack("<QqB", z.size, center, 1)]
    blob = zlib.compress(z.astype(np.uint8).tobytes(), 6)
    return b"".join(out + [struct.pack("<Q", len(blob)), blob])


def test_rejects_deflate_era_blob():
    """A code stream written with the DEFLATE back-end is rejected, not
    decoded by a second path."""
    blob = _deflate_era_encode(np.arange(-50, 50), 0)
    with pytest.raises(ValueError, match="corrupt code-stream blob"):
        codes.decode(blob)


def test_flipped_bit_never_decodes_wrong():
    """Every single-bit flip inside the frame raises ``ValueError`` or
    decodes to the same stream (a few header and table bits do not
    change the content, which the frame checksum then vouches for); a
    flip in the checksum itself raises."""
    arr = np.rint(np.random.default_rng(3).standard_normal(500) * 2).astype(np.int64)
    blob = codes.encode(arr)
    raised = 0
    for bit in range(21 * 8, len(blob) * 8):
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << (bit % 8)
        try:
            out = codes.decode(bytes(bad))
        except ValueError:
            raised += 1
            continue
        np.testing.assert_array_equal(out, arr)
    assert raised > 0.9 * (len(blob) - 21) * 8
    bad = bytearray(blob)
    bad[-1] ^= 0x10  # frame checksum
    with pytest.raises(ValueError, match="corrupt code-stream blob"):
        codes.decode(bytes(bad))


def _huge_frame(claim: int) -> bytes:
    """A Zstd frame header claiming ``claim`` content bytes (single
    segment, 8-byte content size), then one raw 1-byte last block."""
    return b"\x28\xb5\x2f\xfd\xe0" + struct.pack("<Q", claim) + b"\x09\x00\x00" + b"\x07"


def test_huge_content_size_raises_before_allocating():
    """A frame (or byte-plane header) claiming a huge content size raises
    ``ValueError`` without allocating for it."""
    claim = 1 << 40
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="corrupt zstd frame"):
            lossless.decompress(_huge_frame(claim))
        blob = b"BP01" + struct.pack("<QqB", claim, 0, 1) + _huge_frame(claim)
        with pytest.raises(ValueError, match="corrupt code-stream blob"):
            codes.decode(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_repeated_calls_give_identical_bytes():
    """The per-thread contexts carry nothing from one call to the next,
    also after a failed decode."""
    arr = np.rint(np.random.default_rng(4).standard_normal(20000) * 3).astype(np.int64)
    first = codes.encode(arr, center=0)
    bad = bytearray(first)
    bad[len(bad) // 2] ^= 0xFF
    with pytest.raises(ValueError):
        codes.decode(bytes(bad))
    again = codes.encode(arr, center=0)
    assert again == first
    np.testing.assert_array_equal(codes.decode(again), arr)


def test_threads_give_the_serial_bytes():
    """Threads coding at once (each with its own contexts; more threads
    than cores, with a short switch interval) write and read the bytes
    of a serial run."""
    rng = np.random.default_rng(5)
    streams = [rng.integers(-(8**k), 8**k, 30000 + 1000 * k) for k in range(1, 9)] * 4
    serial = [codes.encode(s) for s in streams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max(4, 2 * (os.cpu_count() or 1))) as pool:
            parallel = list(pool.map(codes.encode, streams, timeout=60))
            decoded = list(pool.map(codes.decode, parallel, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    for s, d in zip(streams, decoded):
        np.testing.assert_array_equal(d, s)
