"""HPEZ preset / ablation tests (paper §7.2.7, Fig. 17): every design
component can be toggled and each configuration remains a correct
error-bounded codec."""
from dataclasses import replace

import numpy as np
import pytest

from repro.core import metrics, pipeline
from repro.core.pipeline import PRESETS, PredictionCodec
from repro.datasets import generate

#: Fig. 17 component -> the ``TuneOptions`` fields that switch it off
_SWITCHES = {
    "natural_spline": {"splines": ("linear", "cubic_nak")},
    "multidim": {"paradigms": ("1d",)},
    "same_level": {"same_level": False},
    "dim_freeze": {"dim_freeze": False},
    "use_lorenzo": {"lorenzo": False},
    "blockwise": {"blockwise": False},
}


def _hpez(**changes) -> PredictionCodec:
    return PredictionCodec("hpez", replace(PRESETS["hpez"], **changes))


@pytest.mark.parametrize("switch", _SWITCHES)
def test_each_component_off_still_bounded(switch):
    codec = _hpez(**_SWITCHES[switch])
    data = generate("SCALE", "test")
    e = metrics.value_range(data) * 1e-3
    blob = codec.compress(data, e)
    recon = pipeline.decompress(blob)
    assert metrics.max_abs_err(data, recon) <= e * (1 + 1e-6)


def test_dim_freeze_component_drives_cesm_gain():
    """Fig. 17(b): on CESM-like data the freezing component is the big
    contributor — removing it must cost compression ratio."""
    data = generate("CESM-ATM", "test")
    e = metrics.value_range(data) * 1e-3
    full = len(_hpez().compress(data, e))
    nofreeze = len(_hpez(dim_freeze=False).compress(data, e))
    assert full < nofreeze * 0.8


def test_ablation_chain_never_catastrophic():
    """Accumulating feature removals degrades gracefully (each curve in
    Fig. 17 sits between QoZ and full HPEZ)."""
    data = generate("Miranda", "test")
    e = metrics.value_range(data) * 1e-3
    full = len(_hpez().compress(data, e))
    off = {k: v for changes in _SWITCHES.values() for k, v in changes.items()}
    stripped = len(_hpez(**off).compress(data, e))
    assert stripped < full * 1.3  # stripped ~= QoZ; full must not be worse by much
    assert full < stripped * 1.3


def test_fvfi_values_identical():
    """§5.4.1 is a traversal-order (speed) change only."""
    data = generate("SCALE", "test")
    e = metrics.value_range(data) * 1e-3
    c1 = _hpez(fvfi=True)
    c2 = _hpez(fvfi=False)
    r1 = pipeline.decompress(c1.compress(data, e))
    r2 = pipeline.decompress(c2.compress(data, e))
    np.testing.assert_array_equal(r1, r2)


def test_target_switch_changes_tradeoff():
    """hpez tunes for either target (§3.1 metric M); the rate-distortion
    target may spend bytes for quality but must stay bounded."""
    data = generate("Miranda", "test")
    cr_codec = _hpez(target="cr")
    ps_codec = _hpez(target="psnr")
    e = metrics.value_range(data) * 1e-3
    b_cr = cr_codec.compress(data, e)
    b_ps = ps_codec.compress(data, e)
    for blob in (b_cr, b_ps):
        recon = pipeline.decompress(blob)
        assert metrics.max_abs_err(data, recon) <= e * (1 + 1e-6)
