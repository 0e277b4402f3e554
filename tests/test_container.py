"""Container / serialization tests."""
import struct

import numpy as np
import pytest

from repro.core import container, lossless


def test_pack_unpack_order_preserving():
    secs = [("a", b"123"), ("b", b""), ("c", b"\x00" * 100)]
    out = container.unpack(container.pack(secs))
    assert out == {"a": b"123", "b": b"", "c": b"\x00" * 100}


def test_unpack_rejects_garbage():
    with pytest.raises(ValueError):
        container.unpack(b"AAAA....")


def test_json_section_roundtrip():
    obj = {"a": [1, 2.5, None], "b": "x"}
    assert container.from_json(container.json_section(obj)) == obj


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(10, dtype=np.int32),
        np.random.default_rng(0).standard_normal((3, 4, 5)),
        np.array([], dtype=np.float32),
        np.arange(6, dtype=np.uint8).reshape(2, 3),
    ],
)
def test_array_section_roundtrip(arr):
    out = container.to_array(container.array_section(arr))
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    np.testing.assert_array_equal(out, arr)


def _int_section(dtype=b"<i4", shape=(2, 3), data=None):
    """An :func:`container.array_section` blob with its header fields
    given one by one, so that each can be damaged."""
    body = np.arange(6, dtype="<i4").tobytes() if data is None else data
    hdr = struct.pack("<B", len(dtype)) + dtype + struct.pack("<B", len(shape))
    return hdr + struct.pack(f"<{len(shape)}q", *shape) + body


def test_int_section_matches_array_section():
    arr = np.arange(6, dtype="<i4").reshape(2, 3)
    assert _int_section() == container.array_section(arr)


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        _int_section()[:3],  # cut inside the dtype string
        _int_section()[:4],  # cut before the dimension count
        _int_section()[:10],  # cut inside the shape
        _int_section(dtype=b"<zz"),  # not a dtype
        _int_section(dtype=b"|O8"),  # a dtype, but not bool/int/uint/float
        _int_section(dtype=b"<\xff4"),  # not ASCII
        _int_section(shape=(2, 4)),  # more elements than data
        _int_section(shape=(-2, -3)),  # negative extents
        _int_section(data=np.arange(6, dtype="<i4").tobytes()[:-1]),  # short data
        _int_section() + b"\0",  # bytes after the data
    ],
    ids=[
        "empty", "cut_dtype", "cut_ndim", "cut_shape", "dtype_zz", "dtype_object",
        "dtype_bytes", "shape_too_big", "shape_negative", "data_short", "trailing",
    ],
)
def test_to_array_rejects_damaged_section(blob):
    with pytest.raises(ValueError, match="corrupt array section"):
        container.to_array(blob)


def test_lossless_roundtrip():
    data = b"hello " * 1000
    assert lossless.decompress(lossless.compress(data)) == data
    assert len(lossless.compress(data)) < len(data)


def test_lossless_empty():
    assert lossless.decompress(lossless.compress(b"")) == b""


def test_unpack_rejects_truncated_blob():
    """A blob cut anywhere — in a header, in a section, just short of its
    end — raises the one documented error, not ``struct.error`` or a
    zlib error from a short section."""
    from repro import codecs
    from repro.datasets import generate

    f = generate("Miranda", "test")
    blob = codecs.compress("hpez", f, 1e-3)
    cuts = [5, 7, 8, 10, 30, 60, len(blob) // 2, len(blob) - 10, len(blob) - 1]
    for cut in cuts:
        with pytest.raises(ValueError, match="corrupt container"):
            codecs.decompress(blob[:cut])
    with pytest.raises(ValueError, match="corrupt container"):
        container.unpack(blob + b"\0")
