"""Shared prediction-codec pipeline for the SZ3 / QoZ / HPEZ presets.

Implements the five framework steps of paper §4 around the interpolation
engine: auto-tuning → prediction → linear quantization → entropy coding →
lossless postprocessing, under an absolute error bound ``e`` (resolved
from the §7.1.3 value-range ``eps`` by ``codecs.abs_bound``).

A preset is a name and a :class:`TuneOptions` value (``sz3.CODEC``,
``qoz.CODEC``, ``hpez.CODEC``, FAZ's interpolation leg); the traversal
order ``fvfi`` is the one option a call may override (Table 6).
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import autotune, container, interp, lorenzo
from .autotune import TuneOptions


class PredictionCodec:
    """An SZ3-framework codec parameterized by its tuning options."""

    def __init__(self, name: str, opts: TuneOptions) -> None:
        self.name = name
        self.opts = opts

    def compress(self, data: np.ndarray, e: float, fvfi: bool | None = None) -> bytes:
        """Compress under absolute error bound ``e``; ``fvfi`` overrides
        the preset's traversal order for this call."""
        data = np.asarray(data)
        opts = self.opts if fvfi is None else replace(self.opts, fvfi=fvfi)
        result = autotune.tune(data, e, opts)
        if result.use_lorenzo:
            inner = lorenzo.compress(data, e)
            kind = "lorenzo"
        else:
            inner, _ = interp.compress(data, e, result.cfg)
            kind = "interp"
        meta = {"algo": self.name, "kind": kind, "e": e}
        return container.pack(
            [("meta", container.json_section(meta)), ("inner", inner)]
        )

    def decompress(self, blob: bytes) -> np.ndarray:
        sec = container.unpack(blob)
        meta = container.from_json(sec["meta"])
        if meta["kind"] == "lorenzo":
            return lorenzo.decompress(sec["inner"])
        return interp.decompress(sec["inner"])
