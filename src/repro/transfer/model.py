"""The paper's analytic parallel-transfer model (§7.2.4) and the
PSNR-targeted error-bound search behind Table 5.

The paper validates this approximation itself (Fig. 14): for ``p`` cores
and transfer speed ``s``, per-core data of size ``S_core``, total data
``S_total``:

    T = S_core / v_comp  +  S_total / (CR * s)  +  S_core / v_dec

with single-core compression/decompression speeds ``v_comp``/``v_dec``
measured sequentially. Table 5 fixes the decompression quality at
PSNR = 80 dB, which requires searching each codec's eps for that PSNR.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import codecs
from ..core import metrics


@dataclass
class TransferMeasurement:
    codec: str
    eps: float
    psnr: float
    cr: float
    comp_mbps: float
    decomp_mbps: float


def transfer_time(
    total_bytes: float,
    p: int,
    bw_bytes_per_s: float,
    m: TransferMeasurement,
) -> float:
    """Seconds for the compress → transfer → decompress pipeline."""
    per_core = total_bytes / p
    t_comp = per_core / (m.comp_mbps * 1e6)
    t_xfer = total_bytes / m.cr / bw_bytes_per_s
    t_dec = per_core / (m.decomp_mbps * 1e6)
    return t_comp + t_xfer + t_dec


def search_eps_for_psnr(
    codec: str,
    data: np.ndarray,
    target_psnr: float = 80.0,
    iters: int = 7,
    lo: float = 1e-6,
    hi: float = 1e-1,
) -> tuple[float, float]:
    """Bisect the value-range eps so the decompressed PSNR ~= target
    (PSNR decreases monotonically in eps). Returns (eps, psnr)."""
    flo, fhi = np.log10(lo), np.log10(hi)
    best = (hi, -np.inf)
    for _ in range(iters):
        mid = 10 ** ((flo + fhi) / 2)
        blob = codecs.compress(codec, data, mid)
        p = metrics.psnr(data, codecs.decompress(blob))
        best = (mid, p)
        if p > target_psnr:
            flo = np.log10(mid)  # can afford a looser bound
        else:
            fhi = np.log10(mid)
    return best


def measure_codec(
    codec: str,
    data: np.ndarray,
    target_psnr: float = 80.0,
    timing_data: np.ndarray | None = None,
) -> TransferMeasurement:
    """eps search to the target PSNR on ``data``, then a timed,
    bound-checked compress/decompress. ``timing_data`` (default:
    ``data``) lets the timing run on a larger array so constant tuning
    costs amortize like on the paper's GB-scale files."""
    eps, psnr = search_eps_for_psnr(codec, data, target_psnr)
    big = data if timing_data is None else timing_data
    blob, recon, t_comp, t_dec = codecs.roundtrip(codec, big, eps)
    mb = big.nbytes / 1e6
    if big is not data:
        blob, recon, _, _ = codecs.roundtrip(codec, data, eps)
    return TransferMeasurement(
        codec=codec,
        eps=eps,
        psnr=metrics.psnr(data, recon),
        cr=data.nbytes / len(blob),
        comp_mbps=mb / t_comp,
        decomp_mbps=mb / t_dec,
    )
