"""SZ3.1 baseline [32, 53]: dynamic spline interpolation with a uniform
error bound across levels (no QoZ anchor-level eb tuning), not-a-knot
cubic/linear selection with dimension-order tuning, plus the hybrid
Lorenzo-vs-interpolation selection SZ3 ships with."""
from __future__ import annotations

from .autotune import TuneOptions
from .pipeline import PredictionCodec

CODEC = PredictionCodec(
    "sz3",
    TuneOptions(
        target="cr",
        splines=("linear", "cubic_nak"),
        paradigms=("1d",),
        same_level=False,
        tune_eb=False,  # SZ3 uses the global bound on every level
        dim_freeze=False,
        lorenzo=True,
        blockwise=False,
        anchor_stride=64,
        fvfi=True,
    ),
)

compress = CODEC.compress
decompress = CODEC.decompress
