"""Tagged binary container for compressed payloads.

A payload is an ordered list of named byte sections. The on-disk layout
is ``MAGIC, nsections, [name_len, name, data_len, data]...`` — purely
structural so compressed sizes are honest byte counts (no pickle for bulk
data; small config dicts are serialized as UTF-8 JSON sections).

A JSON meta section holds each fact its decoder needs once, and nothing
the decoder does not read or can work out from the rest; its decoder
reads every value through :func:`typed` / :func:`typed_tuple`, so a
missing key, a value of the wrong type or a value the encoder never
writes raises ``ValueError``.
"""
from __future__ import annotations

import json
import math
import struct
import sys
from typing import Any, Callable

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


#: the Python types of a JSON value a meta key may hold, by its kind
_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str, list: list, dict: dict}


#: a predicate on a meta value: does the encoder write such a value?
_Check = Callable[[Any], bool] | None


def _checked(value: Any, kind: type, key: str, ok: _Check = None) -> Any:
    # a JSON bool is a bool, never a number
    if not isinstance(value, _JSON_TYPES[kind]) or (kind is bool) != isinstance(value, bool):
        raise ValueError(f"{_CORRUPT}: meta key {key!r} is not {kind.__name__}: {value!r}")
    if ok is not None and not ok(value):
        raise ValueError(f"{_CORRUPT}: meta key {key!r} holds a wrong value: {value!r}")
    return value


def typed(meta: dict, key: str, kind: type, ok: _Check = None) -> Any:
    """``meta[key]`` if it holds a JSON ``kind`` (``float`` also takes an
    int) for which ``ok`` holds; any other value raises
    ``ValueError("corrupt container ...")``."""
    return _checked(meta[key], kind, key, ok)


def typed_tuple(
    meta: dict, key: str, kind: type, nullable: bool = False, ok: _Check = None
) -> tuple | None:
    """``meta[key]``, a JSON list of ``kind`` values (see :func:`typed`)
    for which ``ok`` holds, as a tuple; ``None`` stays ``None`` if
    ``nullable``."""
    value = meta[key]
    if value is None and nullable:
        return None
    return tuple(_checked(v, kind, key) for v in _checked(value, list, key, ok))


#: the largest finite float; a JSON int above it does not convert
FLOAT_MAX = sys.float_info.max


def positive(v: float) -> bool:
    """An error bound or a quantization step: finite and > 0."""
    return 0 < v <= FLOAT_MAX


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
