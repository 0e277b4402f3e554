"""HPEZ (QoZ 2.0) — the paper's contribution, all features enabled.

New over QoZ 1.1 (paper §5–§6): natural cubic splines, multi-dimensional
interpolation, interpolation re-ordering (fast-varying-first + same-level
cubic), dynamic dimension freezing, Lorenzo tuning, block-wise
interpolation tuning. ``OPTS`` is the :class:`TuneOptions` default, with
every feature on. A Fig. 17 ablation is ``replace(hpez.OPTS, ...)`` with
features switched off — ``splines=("linear", "cubic_nak")`` (no natural
spline), ``paradigms=("1d",)``, ``same_level=False``, ``dim_freeze=False``,
``lorenzo=False``, ``blockwise=False`` — wrapped in a
:class:`PredictionCodec`.
"""
from __future__ import annotations

from .autotune import TuneOptions
from .pipeline import PredictionCodec

OPTS = TuneOptions()
CODEC = PredictionCodec("hpez", OPTS)

compress = CODEC.compress
decompress = CODEC.decompress
