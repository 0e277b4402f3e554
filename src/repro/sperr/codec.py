"""SPERR-like error-bounded wavelet codec (DESIGN.md §2).

SPERR [27] = CDF 9/7 wavelet + SPECK coefficient coding + an outlier
correction pass that turns the RMSE-oriented transform coder into a
point-wise error-bounded one. This reproduction keeps that structure:

1. multi-level CDF 9/7 transform (``wavelet.py``);
2. uniform scalar quantization of all coefficients (step from the
   tolerance; SPECK's bitplane coding is replaced by the repo's
   byte-plane + Zstd coder, see ``core/codes.py``);
3. in-loop decompression to find points whose error exceeds the bound;
   if they are more than 2 % of the points, the step is halved and the
   loop retries (at most 4 tries) — mirroring SPERR's quality loop;
4. the points still out of bound go to an (index, quantized-residual)
   correction list.

Steps 3 and 4 are ``core/corrections.py``, shared with tthresh (and,
for the list, zfp).

The in-loop inverse transform is why this codec is several times slower
than the interpolation compressors, exactly as in paper Table 2.
"""
from __future__ import annotations

import numpy as np

from ..core import codes as codes_mod
from ..core import container, corrections
from . import wavelet

_LEVELS = 4


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
    step, q, recon = corrections.search_step(
        a, e, coeffs, lambda c: wavelet.inverse(c, levels), shrink=0.5
    )
    meta = {"shape": list(a.shape), "e": e, "step": step}
    sections = [
        ("meta", container.json_section(meta)),
        ("codes", codes_mod.encode(q.ravel(), center=0)),
    ]
    return container.pack(sections + corrections.sections(a, recon, e))


def decompress(blob: bytes) -> np.ndarray:
    sec = container.unpack(blob)
    meta = container.from_json(sec["meta"])
    shape = container.typed_tuple(meta, "shape", int)
    e = float(container.typed(meta, "e", float, container.positive))
    step = float(container.typed(meta, "step", float, container.positive))
    q = codes_mod.decode(sec["codes"]).reshape(shape)
    recon = wavelet.inverse(2.0 * step * q.astype(np.float64), _n_levels(shape))
    return corrections.apply(recon, sec, e)
