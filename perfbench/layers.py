"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of the codec modules with
timing wrappers for the duration of a ``with`` block and restores the
originals afterwards; nothing under ``src/`` is edited. Every wrapped call
becomes one span ``(name, codec, parent, start, end, in_tune, size)``
kept in memory. Layer metrics are computed from the spans at the end:

* a layer's *self* time is its span duration minus the time covered by
  its child spans;
* spans below ``autotune.tune`` belong to the tuner (§6); coder,
  quantizer and DEFLATE spans there are charged to the tuner stage, not
  to the layers of the final encode, so the layers partition a compress.

The wrappers work because the codec modules call each other through
module attributes (``interp.compress``, ``codes_mod.encode``, …) and
``autotune.tune`` looks its stages up in its module globals.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

from repro.core import autotune, codes, interp, lorenzo, lossless, quantizer

TUNE = "autotune.tune"


def _len0(args: tuple, kwargs: dict) -> int:
    return len(args[0]) if args else 0


def _symbols(args: tuple, kwargs: dict) -> int:
    return int(getattr(args[0], "size", 0)) if args else 0


#: (owner, attribute, span name, size-of-input function or None)
TARGETS: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (autotune, "tune", TUNE, None),
    (autotune, "axis_interp_mse", "autotune.axis_interp_mse", None),
    (autotune, "sample_blocks", "autotune.sample_blocks", None),
    (autotune, "tune_global_interp", "autotune.tune_global_interp", None),
    (autotune, "tune_blocks", "autotune.tune_blocks", None),
    (interp, "compress", "interp.compress", None),
    (interp, "decompress", "interp.decompress", None),
    (lorenzo, "compress", "lorenzo.compress", None),
    (lorenzo, "decompress", "lorenzo.decompress", None),
    (quantizer.QuantEncoder, "quantize", "quantizer.quantize", None),
    (codes, "encode", "codes.encode", _symbols),
    (codes, "decode", "codes.decode", None),
    (lossless, "compress", "lossless.compress", _len0),
    (lossless, "decompress", "lossless.decompress", None),
)

# span fields
_NAME, _CODEC, _PARENT, _T0, _T1, _IN_TUNE, _SIZE = range(7)


class Tracer:
    """Wraps :data:`TARGETS` while active; ``codec`` labels new spans."""

    def __init__(self) -> None:
        self.codec = ""
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, size in TARGETS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, size))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str, size: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            in_tune = parent >= 0 and (
                spans[parent][_IN_TUNE] or spans[parent][_NAME] == TUNE
            )
            n = size(args, kwargs) if size else 0
            span = [name, self.codec, parent, time.perf_counter(), 0.0, in_tune, n]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[_T1] = time.perf_counter()
                stack.pop()

        return traced

    def layer_totals(self) -> dict[tuple[str, str, bool], list[float]]:
        """``(codec, span name, in_tune) -> [inclusive s, self s, calls,
        size]`` summed over all spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_T1] - s[_T0]
        out: dict[tuple[str, str, bool], list[float]] = defaultdict(
            lambda: [0.0, 0.0, 0, 0]
        )
        for s, c in zip(self.spans, child):
            acc = out[(s[_CODEC], s[_NAME], s[_IN_TUNE])]
            dur = s[_T1] - s[_T0]
            acc[0] += dur
            acc[1] += dur - c
            acc[2] += 1
            acc[3] += s[_SIZE]
        return out


def codec_layer_metrics(
    tracer: Tracer, codec: str, compress_s: float, decompress_s: float
) -> dict[str, float]:
    """Per-layer metrics of one prediction codec (``sz3``/``qoz``/``hpez``)
    from the spans, plus the share of its traced compress / decompress
    wall time (``compress_s`` / ``decompress_s``) the layers account for."""
    t = tracer.layer_totals()

    def get(name: str, in_tune: bool, field: int) -> float:
        return t.get((codec, name, in_tune), (0.0, 0.0, 0, 0))[field]

    INCL, SELF, CALLS, SIZE = range(4)
    m = {
        "autotune.tune_s": get(TUNE, False, INCL),
        "autotune.sampling_s": get("autotune.axis_interp_mse", True, INCL)
        + get("autotune.sample_blocks", True, INCL),
        "autotune.global_interp_s": get("autotune.tune_global_interp", True, INCL),
        "autotune.crop_tests_s": get("interp.compress", True, INCL),
        "autotune.crop_tests": get("interp.compress", True, CALLS),
        "autotune.lorenzo_test_s": get("lorenzo.compress", True, INCL),
        "autotune.blockwise_s": get("autotune.tune_blocks", True, INCL),
        "interp.walk_compress_s": get("interp.compress", False, SELF),
        "interp.walk_decompress_s": get("interp.decompress", False, SELF),
        "lorenzo.compress_s": get("lorenzo.compress", False, SELF),
        "lorenzo.decompress_s": get("lorenzo.decompress", False, SELF),
        "quantizer.quantize_s": get("quantizer.quantize", False, SELF),
        "quantizer.quantize_calls": get("quantizer.quantize", False, CALLS),
        "codes.encode_s": get("codes.encode", False, SELF),
        "codes.decode_s": get("codes.decode", False, SELF),
        "codes.symbols": get("codes.encode", False, SIZE),
        "lossless.compress_s": get("lossless.compress", False, SELF),
        "lossless.decompress_s": get("lossless.decompress", False, SELF),
        "lossless.bytes_in": get("lossless.compress", False, SIZE),
    }
    covered_c = sum(
        m[k]
        for k in (
            "autotune.tune_s",
            "interp.walk_compress_s",
            "lorenzo.compress_s",
            "quantizer.quantize_s",
            "codes.encode_s",
            "lossless.compress_s",
        )
    )
    covered_d = sum(
        m[k]
        for k in (
            "interp.walk_decompress_s",
            "lorenzo.decompress_s",
            "codes.decode_s",
            "lossless.decompress_s",
        )
    )
    m["trace.compress_covered_pct"] = 100.0 * covered_c / compress_s if compress_s else 0.0
    m["trace.decompress_covered_pct"] = (
        100.0 * covered_d / decompress_s if decompress_s else 0.0
    )
    return {f"{codec}.{k}": float(v) for k, v in m.items()}
