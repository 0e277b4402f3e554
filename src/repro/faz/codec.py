"""FAZ-like hybrid codec (DESIGN.md §2).

FAZ [36] is "a hybrid compression framework combining diverse
compression techniques, adaptively generating the compression pipeline
for varying inputs, while suffering from low compression speed" (paper
§2). This reproduction runs both of the strongest pipelines in this
repo — the rate-distortion-tuned interpolation compressor (HPEZ core
with psnr target) and the wavelet compressor (SPERR-like) — and keeps
the smaller payload. Compression time ~= the sum of both pipelines,
reproducing FAZ's Table 2 position; ratio = max of the two archetypes,
reproducing its Table 4 position.

The interpolation leg is stored as the prediction payload itself; the
wavelet leg is wrapped as ``(meta {"kind": "wavelet"}, inner)``.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import sperr
from ..core import container, pipeline
from ..core.pipeline import PRESETS, PredictionCodec

_INTERP = PredictionCodec(replace(PRESETS["hpez"], target="psnr"))


def compress(data: np.ndarray, e: float) -> bytes:
    """Compress under absolute error bound ``e``; keeps the smaller of
    the interpolation and wavelet payloads, as stored, or the
    interpolation payload when the wavelet leg raises ``ValueError``."""
    a = np.asarray(data)
    interp_blob = _INTERP.compress(a, e)
    try:
        wave = sperr.compress(a, e)
    except ValueError:  # the wavelet leg cannot bound this input
        return interp_blob
    wave_blob = container.pack(
        [("meta", container.json_section({"kind": "wavelet"})), ("inner", wave)]
    )
    return wave_blob if len(wave_blob) < len(interp_blob) else interp_blob


def decompress(blob: bytes) -> np.ndarray:
    sec = container.unpack(blob)
    if container.from_json(sec["meta"]).get("kind") == "wavelet":
        return sperr.decompress(sec["inner"])
    return pipeline.decompress(blob)
