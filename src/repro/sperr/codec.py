"""SPERR-like error-bounded wavelet codec (DESIGN.md §2).

SPERR [27] = CDF 9/7 wavelet + SPECK coefficient coding + an outlier
correction pass that turns the RMSE-oriented transform coder into a
point-wise error-bounded one. This reproduction keeps that structure:

1. multi-level CDF 9/7 transform (``wavelet.py``);
2. uniform scalar quantization of all coefficients (step from the
   tolerance; SPECK's bitplane coding is replaced by the repo's
   byte-plane + DEFLATE coder, see ``core/codes.py``);
3. in-loop decompression to find points whose error exceeds the bound,
   encoded as an (index, quantized-residual) correction list;
4. if corrections would exceed ~2 % of points, the step is halved and
   the loop retries (up to 3 times) — mirroring SPERR's quality loop.

The in-loop inverse transform is why this codec is several times slower
than the interpolation compressors, exactly as in paper Table 2.
"""
from __future__ import annotations

import numpy as np

from ..core import codes as codes_mod
from ..core import container, lossless
from . import wavelet

_LEVELS = 4
_MAX_RETRY = 3
_CORR_FRACTION = 0.02


def _n_levels(shape: tuple[int, ...]) -> int:
    m = min(shape)
    lv = 0
    while m >= 8 and lv < _LEVELS:
        m //= 2
        lv += 1
    return max(lv, 1)


def compress(data: np.ndarray, e: float) -> bytes:
    """Compress under absolute error bound ``e``."""
    a = np.asarray(data, dtype=np.float64)
    levels = _n_levels(a.shape)
    coeffs = wavelet.forward(a, levels)
    # Initial step: wavelet synthesis of i.i.d. quantization noise keeps
    # most points within ~2x the coefficient noise; start optimistic and
    # let the correction loop tighten.
    step = e
    for attempt in range(_MAX_RETRY + 1):
        q = np.rint(coeffs / (2.0 * step)).astype(np.int64)
        recon = wavelet.inverse(2.0 * step * q.astype(np.float64), levels)
        err = a - recon
        bad = np.abs(err) > e
        nbad = int(bad.sum())
        if nbad <= _CORR_FRACTION * a.size or attempt == _MAX_RETRY:
            break
        step *= 0.5
    idx = np.flatnonzero(bad.ravel()).astype(np.int64)
    corr = np.rint(err.ravel()[idx] / e).astype(np.int32)
    meta = {
        "shape": list(a.shape),
        "dtype": np.asarray(data).dtype.str,
        "e": e,
        "step": step,
        "levels": levels,
    }
    sections = [
        ("meta", container.json_section(meta)),
        ("codes", codes_mod.encode(q.ravel(), center=0)),
    ]
    if idx.size:
        didx = np.diff(idx, prepend=0)
        sections.append(
            ("corr_idx", codes_mod.encode(didx, center=0))
        )
        sections.append(("corr_val", codes_mod.encode(corr, center=0)))
    return container.pack(sections)


def decompress(blob: bytes) -> np.ndarray:
    sec = container.unpack(blob)
    meta = container.from_json(sec["meta"])
    shape = tuple(meta["shape"])
    e = float(meta["e"])
    step = float(meta["step"])
    q = codes_mod.decode(sec["codes"]).reshape(shape)
    recon = wavelet.inverse(2.0 * step * q.astype(np.float64), int(meta["levels"]))
    if "corr_idx" in sec:
        idx = np.cumsum(codes_mod.decode(sec["corr_idx"]))
        corr = codes_mod.decode(sec["corr_val"]).astype(np.float64)
        flat = recon.ravel()
        flat[idx] += corr * e
        recon = flat.reshape(shape)
    return recon
