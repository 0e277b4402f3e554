"""Codec registry and self-describing dispatch.

Every compressor in the evaluation (paper §7.1.2) is exposed through one
API::

    blob = codecs.compress("hpez", data, 1e-3)       # value-range eps
    recon = codecs.decompress(blob)                   # dispatch by tag

The paper's two groups:

* high-performance: ``sz3``, ``zfp``, ``qoz``, ``hpez``
* high-ratio: ``sperr``, ``faz``, ``tthresh``
"""
from __future__ import annotations

import numpy as np

from . import faz, sperr, tthresh, zfp
from .core import container, hpez, qoz, sz3

HIGH_PERFORMANCE = ("sz3", "zfp", "qoz", "hpez")
HIGH_RATIO = ("sperr", "faz", "tthresh")
ALL_CODECS = HIGH_PERFORMANCE + HIGH_RATIO

#: name -> codec module; each exports ``compress`` and ``decompress``.
_CODECS = {
    "sz3": sz3,
    "qoz": qoz,
    "hpez": hpez,
    "zfp": zfp,
    "sperr": sperr,
    "faz": faz,
    "tthresh": tthresh,
}


def compress(
    name: str, data: np.ndarray, eps: float, mode: str = "rel", **kw
) -> bytes:
    """Compress ``data`` with codec ``name`` under value-range (or
    absolute) error bound ``eps``; returns a self-describing blob."""
    inner = _CODECS[name].compress(data, eps, mode=mode, **kw)
    return container.pack(
        [("codec", name.encode()), ("payload", inner)]
    )


def decompress(blob: bytes) -> np.ndarray:
    """Decompress a blob produced by :func:`compress` (any codec)."""
    sec = container.unpack(blob)
    name = sec["codec"].decode()
    return _CODECS[name].decompress(sec["payload"])


def codec_of(blob: bytes) -> str:
    return container.unpack(blob)["codec"].decode()
