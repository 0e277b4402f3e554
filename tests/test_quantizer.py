"""Linear quantization invariants (paper §4 step 3)."""
import numpy as np
import pytest

from repro.core.quantizer import RADIUS, STREAM_DTYPE, QuantDecoder, QuantEncoder


def _roundtrip(pred, truth, eb, codes=None):
    enc = QuantEncoder()
    codes = np.empty(truth.shape, dtype=np.int32) if codes is None else codes
    recon = enc.quantize(pred, truth, eb, codes)
    dec = QuantDecoder(enc.literals())
    recon2 = dec.dequantize(pred, eb, codes)
    return recon, recon2


@pytest.mark.parametrize("eb", [1e-1, 1e-3, 1e-6])
def test_bound_holds(eb):
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((50, 40))
    pred = truth + rng.standard_normal((50, 40)) * 10 * eb
    recon, recon2 = _roundtrip(pred, truth, eb)
    assert np.abs(truth - recon).max() <= eb
    np.testing.assert_array_equal(recon, recon2)


def test_outliers_roundtrip_exactly():
    """Residuals of ``RADIUS - 1`` quantization steps (``2 eb`` each) or
    more are carried as exact literals (code 0); one step less is still
    a code, the largest the stream dtype has to hold."""
    eb = 1e-3
    steps = np.array([RADIUS - 2, RADIUS - 1, -(RADIUS - 1), RADIUS, 2.5 * RADIUS, -7 * RADIUS])
    truth = steps * (2 * eb) + 0.25 * eb
    pred = np.zeros(truth.size)
    codes = np.empty(truth.shape, dtype=STREAM_DTYPE)
    recon, recon2 = _roundtrip(pred, truth, eb, codes)
    np.testing.assert_array_equal(codes, [2 * RADIUS - 2, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(recon[1:], truth[1:])
    assert abs(recon[0] - truth[0]) <= eb
    np.testing.assert_array_equal(recon2, recon)


def test_zero_error_gives_center_codes():
    truth = np.linspace(0, 1, 16)
    enc = QuantEncoder()
    codes = np.empty(truth.shape, dtype=np.int32)
    enc.quantize(truth.copy(), truth, 1e-3, codes)
    assert (codes == RADIUS).all()


def test_codes_scattered_by_selection():
    """A call writes only the stream view it is given."""
    truth = np.arange(8, dtype=np.float64)
    enc = QuantEncoder()
    codes = np.full(truth.shape, RADIUS, dtype=np.int32)
    sel = (slice(1, None, 2),)
    enc.quantize(np.zeros(4), truth[sel], 0.5, codes[sel])
    assert (codes[0::2] == RADIUS).all()
    assert (codes[1::2] != RADIUS).any()


def test_decoder_consumes_literals_in_order():
    eb = 1e-9
    truth = np.array([3.0, -5.0, 7.0]) * RADIUS * (2 * eb)  # all beyond the radius
    pred = np.zeros(3)
    enc = QuantEncoder()
    codes = np.empty(truth.shape, dtype=np.int32)
    enc.quantize(pred, truth, eb, codes)
    np.testing.assert_array_equal(enc.literals(), truth)
    dec = QuantDecoder(enc.literals())
    out = dec.dequantize(pred, eb, codes)
    np.testing.assert_array_equal(out, truth)


@pytest.mark.parametrize("shape", [(7,), (5, 9), (4, 3, 6)])
def test_multi_pass_scatter(shape):
    """Several disjoint selections fill one pass-ordered stream
    consistently: each owns the next chunk, reshaped to its targets."""
    rng = np.random.default_rng(2)
    truth = rng.standard_normal(shape)
    pred = np.zeros_like(truth)
    eb = 1e-2
    enc = QuantEncoder()
    sels = [
        tuple([slice(0, None, 2)] + [slice(None)] * (len(shape) - 1)),
        tuple([slice(1, None, 2)] + [slice(None)] * (len(shape) - 1)),
    ]
    stream = np.empty(truth.size, dtype=np.int32)
    chunks, off = [], 0
    for sel in sels:
        n = truth[sel].size
        chunks.append(stream[off : off + n].reshape(truth[sel].shape))
        off += n
    for sel, chunk in zip(sels, chunks):
        enc.quantize(pred[sel], truth[sel], eb, chunk)
    dec = QuantDecoder(enc.literals())
    for sel, chunk in zip(sels, chunks):
        out = dec.dequantize(pred[sel], eb, chunk)
        assert np.abs(out - truth[sel]).max() <= eb


def test_uint16_codes_dequantize_like_int64():
    """The walk's uint16 stream dequantizes as its int64 copy does, at
    both ends: code 0 (a literal) and 65535 (the largest residual). A
    uint16 minus the radius must not wrap (0 would give +32768)."""
    rng = np.random.default_rng(4)
    codes = rng.integers(1, 65536, 1000).astype(np.uint16)
    codes[:3] = 0, 65535, 1
    codes[500] = 0
    pred = rng.standard_normal(codes.size)
    lits = np.array([7.0, -9.0])
    out = {
        dt: QuantDecoder(lits).dequantize(pred, 1e-3, codes.astype(dt))
        for dt in (np.uint16, np.int64)
    }
    np.testing.assert_array_equal(out[np.uint16], out[np.int64])
    assert out[np.uint16][0] == 7.0 and out[np.uint16][500] == -9.0
    assert out[np.uint16][1] == pred[1] + 2e-3 * 32767
