"""Corruption and failure-injection tests: errors must be loud and typed."""

import numpy as np
import pytest

from repro.api.frames import decode_payload, encode_payload
from repro.compressors import compressor_names, get_compressor
from repro.errors import ReproError

_METHODS = [m for m in compressor_names() if m != "dzip"]


def _stream(method):
    comp = get_compressor(method)
    rng = np.random.default_rng(42)
    arr = np.round(rng.normal(10, 2, 600), 2)
    return comp, encode_payload(comp, arr), arr


@pytest.mark.parametrize("method", _METHODS)
def test_truncated_stream_raises_repro_error(method):
    comp, blob, arr = _stream(method)
    for cut in (len(blob) // 4, len(blob) // 2, len(blob) - 3):
        try:
            out = decode_payload(comp, blob[:cut], arr.shape, arr.dtype)
        except ReproError:
            continue  # loud, typed failure: exactly what we want
        except Exception as exc:  # pragma: no cover - diagnostic aid
            pytest.fail(f"{method} leaked {type(exc).__name__} on truncation")
        # Silently returning wrong data would be a correctness bug.
        pytest.fail(f"{method} decoded a truncated stream to {out.shape}")


@pytest.mark.parametrize("method", _METHODS)
def test_empty_payload_raises(method):
    comp = get_compressor(method)
    with pytest.raises(ReproError):
        decode_payload(comp, b"", (600,), np.float64)


def test_header_shape_overflow_guarded():
    comp = get_compressor("gorilla")
    blob = encode_payload(comp, np.ones(16))
    with pytest.raises(ReproError):
        decode_payload(comp, blob, (16, 1 << 62), np.float64)


def test_bitmap_mismatch_detected():
    comp = get_compressor("mpc")
    arr = np.cumsum(np.random.default_rng(0).normal(0, 1e-6, 2048))
    blob = bytearray(encode_payload(comp, arr))
    blob[-1] ^= 0xFF  # corrupt the nonzero-word payload tail
    try:
        out = decode_payload(comp, bytes(blob), arr.shape, arr.dtype)
        # A tail flip may decode (it is data, not structure) but must
        # never crash with a non-repro exception.
        assert out.shape == arr.shape
    except ReproError:
        pass


def test_wrong_dtype_stream_mismatch():
    comp = get_compressor("chimp")
    blob = encode_payload(comp, np.ones(32, dtype=np.float32))
    with pytest.raises(ReproError):
        decode_payload(comp, blob, (32,), np.float64)  # claim float64
