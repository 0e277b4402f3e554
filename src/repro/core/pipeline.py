"""The SZ3-framework codec behind the SZ3 / QoZ / HPEZ presets.

Implements the five framework steps of paper §4 around the interpolation
engine: auto-tuning → prediction → linear quantization → entropy coding →
lossless postprocessing, under an absolute error bound ``e`` (resolved
from the §7.1.3 value-range ``eps`` by ``codecs.abs_bound``).

The three codecs are this one pipeline with different §5/§6 features
switched on (§7.1.2, Fig. 17): a preset is a name and a
:class:`TuneOptions` value in :data:`PRESETS`, and an ablation is
``replace(PRESETS["hpez"], ...)`` (Fig. 17) or the preset ``hpez-nofvfi``
(Table 6). A payload records the predictor the tuner chose, not the
preset, so one :func:`decompress` reads them all.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autotune, container, interp, lorenzo
from .autotune import TuneOptions

#: name -> tuning options; each preset states only where it differs from
#: HPEZ's all-on default
PRESETS = {
    # SZ3.1 [32, 53]: dynamic spline interpolation with a uniform error
    # bound across levels (no QoZ anchor-level eb tuning), not-a-knot
    # cubic/linear selection with dimension-order tuning, plus the hybrid
    # Lorenzo-vs-interpolation selection SZ3 ships with.
    "sz3": TuneOptions(
        splines=("linear", "cubic_nak"),
        paradigms=("1d",),
        same_level=False,
        tune_eb=False,  # SZ3 uses the global bound on every level
        dim_freeze=False,
        blockwise=False,
        anchor_stride=64,
    ),
    # QoZ 1.1 [35]: anchor-based level-wise interpolation with level-wise
    # error-bound tuning and per-level predictor tuning, but none of the
    # HPEZ §5/§6 additions (natural spline, multi-dimensional
    # interpolation, same-level pass, dimension freezing, Lorenzo,
    # block-wise tuning). QoZ's traversal is the dim-major order, but
    # that is a speed-only ablation (Table 6 job), so fvfi stays on.
    "qoz": TuneOptions(
        splines=("linear", "cubic_nak"),
        paradigms=("1d",),
        same_level=False,
        dim_freeze=False,
        lorenzo=False,
        blockwise=False,
    ),
    # HPEZ (QoZ 2.0), the paper's contribution (§5–§6): natural cubic
    # splines, multi-dimensional interpolation, interpolation re-ordering
    # (fast-varying-first + same-level cubic), dynamic dimension
    # freezing, Lorenzo tuning and block-wise interpolation tuning.
    "hpez": TuneOptions(),
    # Table 6's ablation: HPEZ with the dim-major traversal instead of
    # fast-varying-first interpolation (§5.4.1); not one of the paper's
    # seven codecs
    "hpez-nofvfi": TuneOptions(fvfi=False),
}


def decompress(payload: bytes) -> np.ndarray:
    """Invert :meth:`PredictionCodec.compress`, whatever the preset."""
    sec = container.unpack(payload)
    kind = container.from_json(sec["meta"]).get("kind")
    if kind == "lorenzo":
        return lorenzo.decompress(sec["inner"])
    if kind == "interp":
        return interp.decompress(sec["inner"])
    raise ValueError(f"unknown predictor kind {kind!r}")


@dataclass(frozen=True)
class PredictionCodec:
    """An SZ3-framework codec parameterized by its tuning options."""

    opts: TuneOptions

    # the payload names its predictor: every preset has the one decoder
    decompress = staticmethod(decompress)

    def compress(self, data: np.ndarray, e: float) -> bytes:
        """Compress under absolute error bound ``e``."""
        data = np.asarray(data)
        result = autotune.tune(data, e, self.opts)
        if result.use_lorenzo:
            inner = lorenzo.compress(data, e)
            kind = "lorenzo"
        else:
            inner, _ = interp.compress(data, e, result.cfg)
            kind = "interp"
        return container.pack(
            [("meta", container.json_section({"kind": kind})), ("inner", inner)]
        )
