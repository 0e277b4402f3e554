"""Lossless back-end (paper §4 step 5: Zstd).

``zstandard`` is not installed in this offline container, so DEFLATE
(stdlib ``zlib``) stands in — same LZ77+entropy family, a few percent
ratio difference, no effect on compressor ordering (see DESIGN.md §2).
"""
from __future__ import annotations

import zlib

LEVEL = 6


def compress(data: bytes) -> bytes:
    return zlib.compress(data, LEVEL)


def decompress(blob: bytes) -> bytes:
    return zlib.decompress(blob)
