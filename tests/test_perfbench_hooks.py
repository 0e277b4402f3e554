"""The benchmark's per-layer tracer wraps codec functions by module
attribute name (``perfbench/layers.py``); a rename or an inlined call
would silently drop a layer from its metrics. HPEZ compress and
decompress must still reach every wrapped layer."""
from perfbench.layers import TARGETS, Tracer
from repro import codecs
from repro.datasets import generate


def test_tracer_sees_every_hpez_layer():
    data = generate("Miranda", "test")
    with Tracer() as tracer:
        tracer.codec = "hpez"
        codecs.decompress(codecs.compress("hpez", data, 1e-3))
    names = {span[0] for span in tracer.spans}
    assert {"autotune.tune", "autotune.tune_global_interp", "interp.compress"} <= names
    # Lorenzo is only crop-tested here: the tuner keeps interpolation
    assert names == {name for _, _, name, _ in TARGETS} - {"lorenzo.decompress"}
