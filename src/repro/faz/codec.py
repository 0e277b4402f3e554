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
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import sperr
from ..core import container, pipeline
from ..core.pipeline import PRESETS, PredictionCodec

_INTERP = PredictionCodec("faz-interp", replace(PRESETS["hpez"], target="psnr"))


def compress(data: np.ndarray, e: float) -> bytes:
    """Compress under absolute error bound ``e``; keeps the smaller of
    the interpolation and wavelet payloads."""
    a = np.asarray(data)
    interp_blob = _INTERP.compress(a, e)
    wave_blob = sperr.compress(a, e)
    if len(wave_blob) < len(interp_blob):
        kind, inner = "wavelet", wave_blob
    else:
        kind, inner = "interp", interp_blob
    meta = {"kind": kind}
    return container.pack(
        [("meta", container.json_section(meta)), ("inner", inner)]
    )


def decompress(blob: bytes) -> np.ndarray:
    sec = container.unpack(blob)
    kind = container.from_json(sec["meta"]).get("kind")
    if kind == "wavelet":
        return sperr.decompress(sec["inner"])
    if kind == "interp":
        return pipeline.decompress(sec["inner"])
    raise ValueError(f"unknown FAZ pipeline kind {kind!r}")
