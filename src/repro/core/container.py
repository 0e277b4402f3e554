"""Tagged binary container for compressed payloads.

A payload is an ordered list of named byte sections. The on-disk layout
is ``MAGIC, nsections, [name_len, name, data_len, data]...`` — purely
structural so compressed sizes are honest byte counts (no pickle for bulk
data; small config dicts are serialized as UTF-8 JSON sections).
"""
from __future__ import annotations

import json
import math
import struct
from typing import Any

import numpy as np

_MAGIC = b"RPC1"
_CORRUPT = "corrupt container"
_CORRUPT_ARRAY = "corrupt array section"


def pack(sections: list[tuple[str, bytes]]) -> bytes:
    out = [_MAGIC, struct.pack("<I", len(sections))]
    for name, data in sections:
        nb = name.encode()
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<Q", len(data)))
        out.append(data)
    return b"".join(out)


class _Sections(dict):
    """Sections by name; reading one the blob lacks is damage."""

    def __missing__(self, name: str) -> bytes:
        raise ValueError(f"{_CORRUPT}: no section {name!r}")


def unpack(blob: bytes) -> dict[str, bytes]:
    """Sections of a :func:`pack` blob. A header or section that runs
    past the end of ``blob``, bytes after the last section, or reading a
    section the blob lacks raise ``ValueError("corrupt container")``."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a repro container")
    off = 4

    def take(size: int) -> bytes:
        nonlocal off
        if off + size > len(blob):
            raise ValueError(_CORRUPT)
        off += size
        return blob[off - size : off]

    (n,) = struct.unpack("<I", take(4))
    out = _Sections()
    for _ in range(n):
        (nl,) = struct.unpack("<H", take(2))
        name = take(nl).decode()
        (dl,) = struct.unpack("<Q", take(8))
        out[name] = take(dl)
    if off != len(blob):
        raise ValueError(_CORRUPT)
    return out


def json_section(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


class _Meta(dict):
    """A JSON object of a meta section; reading a key it lacks is damage."""

    def __missing__(self, key: str) -> Any:
        raise ValueError(f"{_CORRUPT}: no meta key {key!r}")


def from_json(data: bytes) -> Any:
    """Value of a :func:`json_section`; reading a key one of its objects
    lacks raises ``ValueError("corrupt container: no meta key ...")``."""
    return json.loads(data.decode(), object_hook=_Meta)


def array_section(a: np.ndarray) -> bytes:
    """Self-describing little-endian array blob (dtype + shape + data)."""
    dt = a.dtype.str.encode()
    hdr = struct.pack("<B", len(dt)) + dt + struct.pack("<B", a.ndim)
    hdr += struct.pack(f"<{a.ndim}q", *a.shape)
    return hdr + np.ascontiguousarray(a).tobytes()


def to_array(data: bytes) -> np.ndarray:
    """Array of an :func:`array_section` blob. A header cut short, a
    dtype that is not bool, int, uint or float, or a shape whose byte
    size is not the data length raise ``ValueError("corrupt array section")``."""
    try:
        dl = data[0]
        dt = np.dtype(data[1 : 1 + dl].decode())
        nd = data[1 + dl]
        shape = struct.unpack_from(f"<{nd}q", data, 2 + dl)
    except (IndexError, TypeError, ValueError, struct.error) as exc:
        raise ValueError(_CORRUPT_ARRAY) from exc
    off = 2 + dl + 8 * nd
    if (
        dt.kind not in "biuf"
        or min(shape, default=0) < 0
        or math.prod(shape) * dt.itemsize != len(data) - off
    ):
        raise ValueError(_CORRUPT_ARRAY)
    return np.frombuffer(data, dtype=dt, offset=off).reshape(shape).copy()
