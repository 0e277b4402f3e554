"""Bulk quantization-code coder tests (byte-plane + Huffman paths)."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codes, huffman, lossless


def _uint64_plane_encode(codes_, center):
    """Reference byte-plane encoder as first written: one shift, mask and
    ``astype`` pass over the uint64 zigzag stream per plane."""
    v = np.asarray(codes_).ravel().astype(np.int64) - center
    z = ((v << 1) ^ (v >> 63)).astype(np.uint64)
    nbytes = 1
    if z.size:
        m = int(z.max())
        while m >> (8 * nbytes):
            nbytes += 1
    out = [b"BP01", struct.pack("<QqB", z.size, center, nbytes)]
    for b in range(nbytes):
        plane = ((z >> np.uint64(8 * b)) & np.uint64(0xFF)).astype(np.uint8)
        blob = lossless.compress(plane.tobytes())
        out += [struct.pack("<Q", len(blob)), blob]
    return b"".join(out)


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
    """Round trip, and byte-plane streams byte-equal to the reference
    encoder at every plane width, from int64 and int32 inputs."""
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
    if blob[:4] == b"BP01":
        assert blob == _uint64_plane_encode(arr, center)
    if isinstance(zmax, int):
        assert blob[20] == (zmax.bit_length() + 7) // 8
    if zmax == "i32-full":
        # zigzag of i32.min - center needs a fifth plane unless center is 0
        assert blob[20] == (4 if center == 0 else 5)
    out = codes.decode(blob)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, arr)


def test_small_stream_uses_huffman():
    arr = np.arange(100)
    blob = codes.encode(arr)
    assert blob[:4] == b"CH01"


def test_large_stream_uses_byteplanes():
    arr = np.zeros(100000, dtype=np.int64)
    blob = codes.encode(arr)
    assert blob[:4] == b"BP01"


def test_concentrated_codes_compress_well():
    rng = np.random.default_rng(0)
    arr = 32768 + np.rint(rng.standard_normal(200000) * 1.5).astype(np.int64)
    blob = codes.encode(arr, center=32768)
    assert len(blob) * 8 / arr.size < 3.5  # ~2.8 bits marginal entropy


def test_ratio_parity_huffman_vs_byteplane():
    """The byte-plane path stands in for Huffman+Zstd on bulk streams
    (DESIGN.md §2); their sizes must stay within ~25 % on SZ-style
    quantization codes."""
    rng = np.random.default_rng(1)
    sym = np.rint(rng.standard_normal(40000) * 2.0).astype(np.int64)
    hf = len(lossless.compress(huffman.encode(sym)))
    bp = len(codes.encode(sym, center=0))
    assert bp < hf * 1.25


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
    ],
    ids=["nbytes9", "nbytes0", "missing_plane", "wrong_n", "trailing"],
)
def test_rejects_corrupt_byteplane_header(damage):
    with pytest.raises(ValueError, match="corrupt code-stream blob"):
        codes.decode(damage(_byteplane_blob()))
