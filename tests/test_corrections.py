"""Point-wise correction lists of zfp, sperr and tthresh
(``core/corrections.py``)."""
import numpy as np
import pytest

from repro import codecs
from repro.core import codes, container
from repro.datasets import generate


def _edit_negative_first_delta(sec: dict, size: int) -> None:
    didx = codes.decode(sec["corr_idx"])
    didx[0] = -1
    sec["corr_idx"] = codes.encode(didx)


def _edit_one_value(sec: dict, size: int) -> None:
    """``corr_val`` of one value, or of two where the list has one."""
    corr = codes.decode(sec["corr_val"])
    sec["corr_val"] = codes.encode(corr[:1] if corr.size > 1 else np.repeat(corr, 2))


def _edit_index_past_end(sec: dict, size: int) -> None:
    didx = codes.decode(sec["corr_idx"])
    didx[-1] += size
    sec["corr_idx"] = codes.encode(didx)


@pytest.mark.parametrize(
    "edit", [_edit_negative_first_delta, _edit_one_value, _edit_index_past_end]
)
@pytest.mark.parametrize("codec", ["zfp", "sperr", "tthresh"])
def test_damaged_correction_list_raises(codec, edit):
    """A correction list whose indices are not strictly increasing inside
    the array, or whose two sections differ in length, raises
    ``ValueError`` instead of decoding out of bound."""
    data = generate("RTM")
    outer = container.unpack(codecs.compress(codec, data, 1e-3))
    sec = container.unpack(outer["payload"])
    assert "corr_idx" in sec  # RTM at 1e-3 needs corrections in all three
    edit(sec, data.size)
    outer["payload"] = container.pack(list(sec.items()))
    with pytest.raises(ValueError, match="corrupt correction list"):
        codecs.decompress(container.pack(list(outer.items())))
