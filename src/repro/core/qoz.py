"""QoZ 1.1 baseline [35]: anchor-based level-wise interpolation with
level-wise error-bound tuning and per-level predictor tuning, but *none*
of the HPEZ §5/§6 additions (no natural spline, no multi-dimensional
interpolation, no same-level pass, no dimension freezing, no Lorenzo, no
block-wise tuning; QoZ's traversal is the dim-major order — fvfi off)."""
from __future__ import annotations

from .autotune import TuneOptions
from .pipeline import PredictionCodec

CODEC = PredictionCodec(
    "qoz",
    TuneOptions(
        target="cr",
        splines=("linear", "cubic_nak"),
        paradigms=("1d",),
        same_level=False,
        tune_eb=True,
        dim_freeze=False,
        lorenzo=False,
        blockwise=False,
        anchor_stride=32,
        fvfi=True,  # traversal order is a speed-only ablation; see Table 6 job
    ),
)

compress = CODEC.compress
decompress = CODEC.decompress
