"""Golden payload hashes: the bit-exactness gate for refactors.

``golden_hashes`` compresses a fixed set of inputs and returns the sha256
of every payload and of its decompressed array:

* all seven codecs on the eight ``TEST_SHAPES`` fields at eps = 1e-3
  (keys ``codec/<codec>/<dataset>``), 1e-2 and 1e-4 (keys
  ``codec/<codec>/<dataset>/eps<eps>``);
* HPEZ with ``fvfi=False`` through the full tuner;
* sz3, qoz, hpez and faz on one 1-D input, the first 20000 points of
  Miranda (keys ``codec/<codec>/Miranda-1d``);
* ``interp.compress`` over an engine-config grid: 1–4-D shapes × ``1d``/
  ``md`` × the three splines × same-level × ``fvfi`` × frozen axis
  none/0, plus one block map and one bound tight enough to emit literals.

The test compares against ``golden_payloads.json``. A change that alters
the payload format on purpose regenerates the fixture in one step::

    PYTHONPATH=src python -m tests.test_golden_payloads

The hashes depend on the libzstd build's output; the fixture records the
libzstd version (``ZSTD_versionNumber``) it was made with, and a different
libzstd fails the test before any hash is compared.
"""
from __future__ import annotations

import hashlib
import json
from itertools import product
from pathlib import Path

import numpy as np

from repro import codecs
from repro.core import interp, lossless, splines
from repro.core.interp import EngineConfig, InterpConfig
from repro.datasets import TEST_SHAPES, generate

from .test_interp_engine import _field

FIXTURE = Path(__file__).with_name("golden_payloads.json")
ZSTD_KEY = "_zstd"

ENGINE_SHAPES = ((97,), (37, 41), (19, 23, 17), (7, 9, 6, 10))
#: relative bounds of the codec cases besides 1e-3
CODEC_EPS = (1e-2, 1e-4)
#: codecs with a golden key for a 1-D input
ONE_D_CODECS = ("sz3", "qoz", "hpez", "faz")


def _sha(b: bytes | np.ndarray) -> str:
    if isinstance(b, np.ndarray):
        b = np.ascontiguousarray(b).tobytes()
    return hashlib.sha256(b).hexdigest()


def _engine_cases() -> dict[str, tuple[np.ndarray, float, EngineConfig]]:
    cases = {}
    for shape, paradigm, spline, sl, fvfi, frozen in product(
        ENGINE_SHAPES,
        ("1d", "md"),
        splines.SPLINE_CHOICES,
        (False, True),
        (True, False),
        ((), (0,)),
    ):
        f = _field(shape, seed=len(shape))
        cfg = EngineConfig(
            level_configs=(InterpConfig(paradigm, spline, sl, None),),
            frozen_axes=frozen,
            fvfi=fvfi,
        )
        key = "x".join(map(str, shape))
        name = f"engine/{key}/{paradigm}/{spline}/sl{int(sl)}/fvfi{int(fvfi)}/frozen{frozen}"
        cases[name] = (f, 1e-3 * float(f.max() - f.min()), cfg)
    f = _field((40, 40), seed=8)
    bc = np.array([[0, 1], [2, 1]], dtype=np.uint8)
    cases["engine/blockmap"] = (
        f,
        1e-3 * float(f.max() - f.min()),
        EngineConfig(block_cfg=bc),
    )
    f = _field((19, 23, 17), seed=9)
    cases["engine/literals"] = (f, 1e-7 * float(f.max() - f.min()), EngineConfig())
    return cases


def golden_hashes() -> dict[str, str]:
    """sha256 of every golden payload and decompressed array, by case."""
    out = {ZSTD_KEY: lossless.VERSION}
    runs: list[tuple[str, np.ndarray, str, float, dict]] = [
        (f"codec/{c}/{d}" + ("" if eps == 1e-3 else f"/eps{eps:g}"), generate(d), c, eps, {})
        for eps in (1e-3,) + CODEC_EPS
        for c in codecs.ALL_CODECS
        for d in TEST_SHAPES
    ]
    runs.append(("codec/hpez-nofvfi/Miranda", generate("Miranda"), "hpez", 1e-3, {"fvfi": False}))
    line = generate("Miranda").ravel()[:20000]
    runs += [(f"codec/{c}/Miranda-1d", line, c, 1e-3, {}) for c in ONE_D_CODECS]
    for name, data, codec, eps, kw in runs:
        blob = codecs.compress(codec, data, eps, **kw)
        out[name + "/payload"] = _sha(blob)
        out[name + "/decoded"] = _sha(codecs.decompress(blob))
    return out | _engine_hashes()


def _engine_hashes() -> dict[str, str]:
    out = {}
    for name, (f, e, cfg) in _engine_cases().items():
        blob, _ = interp.compress(f, e, cfg)
        out[name + "/payload"] = _sha(blob)
        out[name + "/decoded"] = _sha(interp.decompress(blob))
    return out


def _expected() -> dict[str, str]:
    expect = json.loads(FIXTURE.read_text())
    assert lossless.VERSION == expect[ZSTD_KEY], "fixture made with another libzstd"
    return expect


def _assert_same(expect: dict[str, str], got: dict[str, str]) -> None:
    changed = sorted(k for k in expect.keys() | got.keys() if expect.get(k) != got.get(k))
    assert not changed, f"{len(changed)} golden hashes differ, e.g. {changed[:5]}"


def test_golden_payloads():
    _assert_same(_expected(), golden_hashes())


def test_one_row_slabs_keep_engine_payloads(monkeypatch):
    """The walk's axis-0 slabs change neither bytes nor decode: with one
    target row per slab every engine case still matches the fixture
    (literal and block-map order, same-level phases and ``md`` steps
    along axis 0, frozen axis 0, ``fvfi=False``, 1–4-D)."""
    expect = {k: v for k, v in _expected().items() if k.startswith("engine/")}
    monkeypatch.setattr(interp, "SLAB", 1)
    _assert_same(expect, _engine_hashes())


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden_hashes(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
