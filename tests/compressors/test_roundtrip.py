"""Bit-exact round-trip matrix: every method x every canonical array."""

import pytest

from repro.api.frames import decode_payload, encode_payload
from repro.compressors import compressor_names, get_compressor
from tests.conftest import assert_bit_exact, roundtrip

METHODS = compressor_names()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "case",
    [
        "smooth3d_f32", "smooth3d_f64", "noisy_f64", "noisy_f32",
        "decimals_f64", "repeats_f64", "table_f64", "specials_f64",
        "single_f64", "pair_f32", "empty_f64", "denormals_f32",
    ],
)
def test_roundtrip(method, case, cases):
    array = cases[case]
    comp = get_compressor(method)
    if method == "dzip" and array.size > 1200:
        pytest.skip("dzip is KB/s-slow by design; covered on small arrays")
    assert_bit_exact(array, roundtrip(comp, array))


@pytest.mark.parametrize("method", [m for m in METHODS if m != "dzip"])
def test_compress_is_deterministic(method, cases):
    comp = get_compressor(method)
    array = cases["decimals_f64"]
    assert encode_payload(comp, array) == encode_payload(comp, array)


@pytest.mark.parametrize("method", METHODS)
def test_stream_is_self_describing(method, cases):
    comp = get_compressor(method)
    array = cases["table_f64"]
    blob = encode_payload(comp, array)
    # A fresh instance (no shared state) must decode the stream.
    fresh = get_compressor(method)
    assert_bit_exact(array, decode_payload(fresh, blob, array.shape, array.dtype))
