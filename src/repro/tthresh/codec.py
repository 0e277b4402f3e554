"""TTHRESH-like HOSVD (Tucker) codec (DESIGN.md §2).

TTHRESH [7] compresses with a higher-order SVD: orthogonal factor
matrices per mode plus a quantized core tensor. This reproduction:

1. factor matrices via the Gram-matrix eigendecomposition of each mode
   unfolding (cheap: the Gram matrix is only n_d x n_d);
2. core = X x_1 U1^T x_2 U2^T ... (energy concentrates in a corner);
3. uniform core quantization, step found by an iterative search against
   the measured point-wise error (real TTHRESH bounds RMSE only; the
   search plus a correction list makes this strictly error-bounded like
   every codec in this repo — noted deviation). Search and list are
   sperr's, ``core/corrections.py``, with the step shrunk by 0.4 a try;
4. factors stored as float32, core codes through the byte-plane coder.

The repeated full reconstructions in the step search are why this codec
sits at the bottom of the speed table, exactly like TTHRESH in paper
Table 2.
"""
from __future__ import annotations

import numpy as np

from ..core import codes as codes_mod
from ..core import container, corrections, lossless


def _mode_factors(a: np.ndarray) -> list[np.ndarray]:
    """Orthonormal factor U_d per mode (eigenvectors of the mode Gram)."""
    factors = []
    for d in range(a.ndim):
        unf = np.moveaxis(a, d, 0).reshape(a.shape[d], -1)
        gram = unf @ unf.T
        w, v = np.linalg.eigh(gram)
        factors.append(v[:, ::-1].copy())  # descending energy
    return factors


def _tucker_core(a: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    c = a
    for d, u in enumerate(factors):
        c = np.moveaxis(
            np.tensordot(u.T, np.moveaxis(c, d, 0), axes=1), 0, d
        )
    return c


def _tucker_compose(core: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    x = core
    for d, u in enumerate(factors):
        x = np.moveaxis(np.tensordot(u, np.moveaxis(x, d, 0), axes=1), 0, d)
    return x


def compress(data: np.ndarray, e: float) -> bytes:
    """Compress under absolute error bound ``e``."""
    a = np.asarray(data, dtype=np.float64)
    factors = _mode_factors(a)
    core = _tucker_core(a, factors)
    # The decoder composes with the *stored* (float32) factors; use the
    # same ones in-loop so the correction list matches bit-for-bit.
    fac32 = [f.astype(np.float32) for f in factors]
    factors = [f.astype(np.float64) for f in fac32]
    step, q, recon = corrections.search_step(
        a, e, core, lambda c: _tucker_compose(c, factors), shrink=0.4
    )
    meta = {
        "shape": list(a.shape),
        "dtype": np.asarray(data).dtype.str,
        "e": e,
        "step": step,
    }
    sections = [
        ("meta", container.json_section(meta)),
        ("codes", codes_mod.encode(q.ravel(), center=0)),
    ]
    for d, f in enumerate(fac32):
        sections.append((f"factor{d}", lossless.compress(container.array_section(f))))
    return container.pack(sections + corrections.sections(a, recon, e))


def decompress(blob: bytes) -> np.ndarray:
    sec = container.unpack(blob)
    meta = container.from_json(sec["meta"])
    shape = tuple(meta["shape"])
    e = float(meta["e"])
    step = float(meta["step"])
    nd = len(shape)
    factors = [
        container.to_array(lossless.decompress(sec[f"factor{d}"])).astype(np.float64)
        for d in range(nd)
    ]
    q = codes_mod.decode(sec["codes"]).reshape(shape)
    recon = _tucker_compose(2.0 * step * q.astype(np.float64), factors)
    return corrections.apply(recon, sec, e)
