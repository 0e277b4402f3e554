"""Codec registry and self-describing dispatch.

Every compressor in the evaluation (paper §7.1.2) is exposed through one
API::

    blob = codecs.compress("hpez", data, 1e-3)       # value-range eps
    recon = codecs.decompress(blob)                   # dispatch by tag

The error bound is resolved in one place, :func:`abs_bound`:
``e = eps * (max - min)`` (paper §7.1.3), or ``e = eps`` with
``mode="abs"``. Every codec module's ``compress(data, e)`` takes that
absolute ``e``.

The paper's two groups:

* high-performance: ``sz3``, ``zfp``, ``qoz``, ``hpez``
* high-ratio: ``sperr``, ``faz``, ``tthresh``
"""
from __future__ import annotations

import time

import numpy as np

from . import faz, sperr, tthresh, zfp
from .core import container, metrics
from .core.pipeline import PRESETS, PredictionCodec

HIGH_PERFORMANCE = ("sz3", "zfp", "qoz", "hpez")
HIGH_RATIO = ("sperr", "faz", "tthresh")
ALL_CODECS = HIGH_PERFORMANCE + HIGH_RATIO

#: name -> codec (a preset or a codec module); each has ``compress`` and
#: ``decompress``.
_CODECS = {
    **{name: PredictionCodec(opts) for name, opts in PRESETS.items()},
    "zfp": zfp,
    "sperr": sperr,
    "faz": faz,
    "tthresh": tthresh,
}


def abs_bound(data: np.ndarray, eps: float, mode: str = "rel") -> float:
    """The absolute error bound ``e`` for compressing ``data``.

    ``mode="rel"`` gives ``eps * (max - min)`` (paper §7.1.3; ``eps`` on a
    constant field); ``mode="abs"`` gives ``eps``. Raises ``ValueError``
    for an unknown mode, a 0-d or empty array, non-finite data (seen as a
    non-finite value range) and a bound that is not finite and > 0."""
    if mode not in ("rel", "abs"):
        raise ValueError(f"mode must be 'rel' or 'abs', got {mode!r}")
    data = np.asarray(data)
    if data.ndim == 0 or data.size == 0:
        raise ValueError(f"cannot compress a 0-d or empty array (shape {data.shape})")
    r = metrics.value_range(data)
    if not np.isfinite(r):
        raise ValueError(
            f"data must be finite (NaN or Inf gives value range {r})"
        )
    e = float(eps if mode == "abs" or r == 0 else eps * r)
    if not (np.isfinite(e) and e > 0):
        raise ValueError(
            f"error bound must be finite and > 0: eps={eps!r} gives e={e!r}"
        )
    return e


def compress(name: str, data: np.ndarray, eps: float, mode: str = "rel") -> bytes:
    """Compress ``data`` with codec ``name`` under value-range (or
    absolute) error bound ``eps``; returns a self-describing blob."""
    inner = _CODECS[name].compress(data, abs_bound(data, eps, mode))
    return container.pack(
        [("codec", name.encode()), ("payload", inner)]
    )


def decompress(blob: bytes) -> np.ndarray:
    """Decompress a blob produced by :func:`compress` (any codec). A
    blob that is not one (an unknown codec tag, a missing section) raises
    ``ValueError``."""
    sec = container.unpack(blob)
    name = sec["codec"].decode()
    if name not in _CODECS:
        raise ValueError(f"unknown codec tag {name!r}")
    return _CODECS[name].decompress(sec["payload"])


def roundtrip(
    name: str, data: np.ndarray, eps: float
) -> tuple[bytes, np.ndarray, float, float]:
    """Timed :func:`compress` → :func:`decompress` under value-range bound
    ``eps`` that checks ``max|x - x'| <= e`` (with
    :data:`metrics.BOUND_SLACK` relative slack); returns ``(blob, recon,
    compress_s, decompress_s)``."""
    e = abs_bound(data, eps)
    t0 = time.perf_counter()
    blob = compress(name, data, eps)
    t1 = time.perf_counter()
    recon = decompress(blob)
    t2 = time.perf_counter()
    err = metrics.max_abs_err(data, recon)
    if not err <= e * (1 + metrics.BOUND_SLACK):
        raise RuntimeError(
            f"bound violated: {name} max|x - x'| = {err!r} > e = {e!r}"
        )
    return blob, recon, t1 - t0, t2 - t1
