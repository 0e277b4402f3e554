"""HPEZ preset / ablation tests (paper §7.2.7, Fig. 17): every design
component can be toggled and each configuration remains a correct
error-bounded codec."""
import numpy as np
import pytest

from repro.core import hpez, metrics
from repro.datasets import generate

_SWITCHES = (
    "natural_spline",
    "multidim",
    "same_level",
    "dim_freeze",
    "use_lorenzo",
    "blockwise",
)


@pytest.mark.parametrize("switch", _SWITCHES)
def test_each_component_off_still_bounded(switch):
    codec = hpez.make_codec(**{switch: False})
    data = generate("SCALE", "test")
    e = metrics.value_range(data) * 1e-3
    blob = codec.compress(data, e)
    recon = codec.decompress(blob)
    assert metrics.max_abs_err(data, recon) <= e * (1 + 1e-6)


def test_dim_freeze_component_drives_cesm_gain():
    """Fig. 17(b): on CESM-like data the freezing component is the big
    contributor — removing it must cost compression ratio."""
    data = generate("CESM-ATM", "test")
    e = metrics.value_range(data) * 1e-3
    full = len(hpez.make_codec().compress(data, e))
    nofreeze = len(hpez.make_codec(dim_freeze=False).compress(data, e))
    assert full < nofreeze * 0.8


def test_ablation_chain_never_catastrophic():
    """Accumulating feature removals degrades gracefully (each curve in
    Fig. 17 sits between QoZ and full HPEZ)."""
    data = generate("Miranda", "test")
    e = metrics.value_range(data) * 1e-3
    full = len(hpez.make_codec().compress(data, e))
    stripped = len(
        hpez.make_codec(
            natural_spline=False,
            multidim=False,
            same_level=False,
            dim_freeze=False,
            use_lorenzo=False,
            blockwise=False,
        ).compress(data, e)
    )
    assert stripped < full * 1.3  # stripped ~= QoZ; full must not be worse by much
    assert full < stripped * 1.3


def test_fvfi_values_identical():
    """§5.4.1 is a traversal-order (speed) change only."""
    data = generate("SCALE", "test")
    e = metrics.value_range(data) * 1e-3
    c1 = hpez.make_codec(fvfi=True)
    c2 = hpez.make_codec(fvfi=False)
    r1 = c1.decompress(c1.compress(data, e))
    r2 = c2.decompress(c2.compress(data, e))
    np.testing.assert_array_equal(r1, r2)


def test_target_switch_changes_tradeoff():
    data = generate("Miranda", "test")
    cr_codec = hpez.make_codec(target="cr")
    ps_codec = hpez.make_codec(target="psnr")
    e = metrics.value_range(data) * 1e-3
    b_cr = cr_codec.compress(data, e)
    b_ps = ps_codec.compress(data, e)
    # psnr target may spend bytes for quality but must stay bounded
    for codec, blob in ((cr_codec, b_cr), (ps_codec, b_ps)):
        recon = codec.decompress(blob)
        assert metrics.max_abs_err(data, recon) <= e * (1 + 1e-6)
