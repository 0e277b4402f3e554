"""Lossless back-end (paper §4 step 5): Zstd, through the system libzstd.

A thin ``ctypes`` binding to ``libzstd.so.1``. Every call writes or reads
one single-shot Zstd frame at :data:`LEVEL` with the content size in its
header and a frame checksum (``ZSTD_c_checksumFlag``), so a damaged frame
raises ``ValueError`` instead of decoding to wrong bytes.

Each thread keeps one compression context, one decompression context and
one compress output buffer (grown, never shrunk) for its lifetime:
per-call contexts and ``ZSTD_compressBound``-sized buffers would be
allocated and page-faulted afresh on every call, and the tuner makes
hundreds of small calls per field. All three live in anonymous ``mmap``
regions outside the malloc heap (the contexts are static ones,
``ZSTD_initStatic*Ctx``, in workspaces sized for any input at
:data:`LEVEL`): they never reallocate, only pages written become
resident, and they pin no heap memory. A context grown by libzstd inside
the heap raised the peak RSS of a large-fields benchmark run from 289 to
337 MB.

:func:`decompress` checks the frame before it allocates: one whole frame
with nothing after it, a known content size, and at most
:data:`MAX_RATIO` times the frame length (a Zstd block of at most 128 KiB
costs at least 4 bytes, so no valid frame expands further).
"""
from __future__ import annotations

import ctypes
import mmap
import threading

import numpy as np

LEVEL = 7
#: largest content size per frame byte a valid frame can decode to
MAX_RATIO = 1 << 15

_lib = ctypes.CDLL("libzstd.so.1")
_size_t, _ptr = ctypes.c_size_t, ctypes.c_void_p
for _name, _res, _args in (
    ("ZSTD_versionNumber", ctypes.c_uint, ()),
    ("ZSTD_isError", ctypes.c_uint, (_size_t,)),
    ("ZSTD_getErrorName", ctypes.c_char_p, (_size_t,)),
    ("ZSTD_compressBound", _size_t, (_size_t,)),
    ("ZSTD_estimateCCtxSize", _size_t, (ctypes.c_int,)),
    ("ZSTD_initStaticCCtx", _ptr, (_ptr, _size_t)),
    ("ZSTD_CCtx_reset", _size_t, (_ptr, ctypes.c_int)),
    ("ZSTD_CCtx_setParameter", _size_t, (_ptr, ctypes.c_int, ctypes.c_int)),
    ("ZSTD_compress2", _size_t, (_ptr, _ptr, _size_t, _ptr, _size_t)),
    ("ZSTD_estimateDCtxSize", _size_t, ()),
    ("ZSTD_initStaticDCtx", _ptr, (_ptr, _size_t)),
    ("ZSTD_decompressDCtx", _size_t, (_ptr, _ptr, _size_t, _ptr, _size_t)),
    ("ZSTD_getFrameContentSize", ctypes.c_ulonglong, (_ptr, _size_t)),
    ("ZSTD_findFrameCompressedSize", _size_t, (_ptr, _size_t)),
):
    _fn = getattr(_lib, _name)
    _fn.restype, _fn.argtypes = _res, list(_args)

_C_COMPRESSION_LEVEL, _C_CHECKSUM_FLAG = 100, 201
_RESET_PARAMETERS = 2
#: ``ZSTD_getFrameContentSize`` returns this ("error") or above ("unknown")
_CONTENTSIZE_ERROR = 2**64 - 2

#: libzstd's version as ``major * 10000 + minor * 100 + patch``; the
#: frames (and so every payload) depend on it
VERSION = _lib.ZSTD_versionNumber()

_CORRUPT = "corrupt zstd frame"


def _check(code: int) -> int:
    if _lib.ZSTD_isError(code):
        raise RuntimeError(_lib.ZSTD_getErrorName(code).decode())
    return code


class _Contexts:
    """One thread's contexts and compress output buffer."""

    def __init__(self) -> None:
        self.cwork = mmap.mmap(-1, _lib.ZSTD_estimateCCtxSize(LEVEL))
        self.dwork = mmap.mmap(-1, _lib.ZSTD_estimateDCtxSize())
        self.cctx = _lib.ZSTD_initStaticCCtx(_address(self.cwork)[0], len(self.cwork))
        self.dctx = _lib.ZSTD_initStaticDCtx(_address(self.dwork)[0], len(self.dwork))
        if not self.cctx or not self.dctx:
            raise MemoryError("cannot create zstd contexts")
        # a static context starts with zeroed parameters (no content size
        # in the frame header); reset them to ZSTD_createCCtx's defaults
        _check(_lib.ZSTD_CCtx_reset(self.cctx, _RESET_PARAMETERS))
        _check(_lib.ZSTD_CCtx_setParameter(self.cctx, _C_COMPRESSION_LEVEL, LEVEL))
        _check(_lib.ZSTD_CCtx_setParameter(self.cctx, _C_CHECKSUM_FLAG, 1))
        self.out = mmap.mmap(-1, mmap.PAGESIZE)


_local = threading.local()


def _contexts() -> _Contexts:
    ctx = getattr(_local, "ctx", None)
    if ctx is None:
        ctx = _local.ctx = _Contexts()
    return ctx


def _address(buf) -> tuple[int, int]:
    """Address and byte length of a C-contiguous buffer (bytes, bytearray,
    memoryview or ndarray)."""
    a = np.frombuffer(buf, dtype=np.uint8)
    return a.ctypes.data, a.size


def compress(data) -> bytes:
    """One Zstd frame of the bytes of ``data`` (any C-contiguous buffer)."""
    ctx = _contexts()
    src, n = _address(data)
    bound = _lib.ZSTD_compressBound(n)
    if len(ctx.out) < bound:
        ctx.out.close()
        ctx.out = mmap.mmap(-1, bound)
    dst, _ = _address(ctx.out)
    k = _check(_lib.ZSTD_compress2(ctx.cctx, dst, bound, src, n))
    return ctx.out[:k]


def decompress(blob, size: int | None = None) -> bytearray:
    """Content of the one Zstd frame ``blob``.

    Raises ``ValueError`` when ``blob`` is not exactly one frame, its
    header gives no content size, or the content size exceeds
    :data:`MAX_RATIO` times ``len(blob)`` or differs from ``size`` (when
    given) -- all before the output is allocated -- and when the frame
    does not decode to its content size or fails its checksum."""
    src, n = _address(blob)
    fcs = _lib.ZSTD_getFrameContentSize(src, n)
    if fcs >= _CONTENTSIZE_ERROR or fcs > MAX_RATIO * n:
        raise ValueError(_CORRUPT)
    if size is not None and fcs != size:
        raise ValueError(_CORRUPT)
    flen = _lib.ZSTD_findFrameCompressedSize(src, n)
    if _lib.ZSTD_isError(flen) or flen != n:
        raise ValueError(_CORRUPT)
    out = bytearray(fcs)
    dst, _ = _address(out)
    got = _lib.ZSTD_decompressDCtx(_contexts().dctx, dst, fcs, src, n)
    if _lib.ZSTD_isError(got) or got != fcs:
        raise ValueError(_CORRUPT)
    return out
