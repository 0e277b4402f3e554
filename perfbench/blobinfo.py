"""What a blob says about itself, read from outside with ``container.unpack``.

A ``codecs.compress`` blob is a container ``(codec, payload)``. For the
prediction codecs (``sz3``, ``qoz``, ``hpez``) the payload is a container
``(meta, inner)`` whose meta names the predictor the tuner chose; an
interpolation ``inner`` holds ``meta`` (with the tuned ``EngineConfig``),
``anchors``, ``codes`` and optionally ``literals`` and ``blockcfg``; a
Lorenzo ``inner`` holds ``meta`` and ``codes``.
"""
from __future__ import annotations

import hashlib

from repro.core import container

SECTIONS = ("meta", "anchors", "codes", "literals", "blockcfg")
DECISIONS = ("lorenzo", "frozen_axis", "eb_tuned", "block_map")


def section_bytes(blob: bytes) -> dict[str, int]:
    """Bytes per section of a prediction-codec blob. ``meta`` is everything
    that is not anchors, codes, literals or block map (container framing
    and the JSON headers), so the sections sum to ``len(blob)``."""
    inner = container.unpack(container.unpack(container.unpack(blob)["payload"])["inner"])
    out = {s: len(inner.get(s, b"")) for s in SECTIONS[1:]}
    out["meta"] = len(blob) - sum(out.values())
    return out


def decisions(blob: bytes) -> dict[str, int]:
    """The tuner's choices recorded in a prediction-codec blob, as 0/1."""
    outer = container.unpack(container.unpack(blob)["payload"])
    kind = container.from_json(outer["meta"])["kind"]
    out = dict.fromkeys(DECISIONS, 0)
    if kind == "lorenzo":
        out["lorenzo"] = 1
        return out
    inner = container.unpack(outer["inner"])
    cfg = container.from_json(inner["meta"])["cfg"]
    out["frozen_axis"] = int(bool(cfg["frozen_axes"]))
    out["eb_tuned"] = int((cfg["alpha"], cfg["beta"]) != (1.0, 1.0))
    out["block_map"] = int("blockcfg" in inner)
    return out


def fingerprint(blobs: list[bytes]) -> str:
    """sha256 over one or more length-prefixed blobs, in order."""
    h = hashlib.sha256()
    for b in blobs:
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()
