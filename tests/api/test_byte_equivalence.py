"""Byte-equivalence guarantees of the streaming redesign (satellite).

1. A chunk-parallel ``CompressSession`` writes the exact bytes the
   serial path writes, for every registered method — parallelism is a
   scheduling decision, never a format decision.
2. The frame of a single-chunk session is exactly what the payload
   codec (:func:`repro.api.frames.encode_payload`) returns for the same
   array, and :func:`~repro.api.frames.decode_payload` inverts it — the
   paper runner and the FCF sessions measure the same bytes.
3. That payload is the codec's own output with no header in front: the
   bytes the retired one-shot layout carried after its header.

Tests 2 and 3 keep the names they had when they covered the one-shot
``Compressor.compress``/``decompress`` layer.
"""

import numpy as np
import pytest

from repro.api import DecompressSession, compress_array, decompress_array
from repro.api.frames import decode_payload, encode_payload
from repro.compressors import compressor_names, get_compressor
from tests.conftest import assert_bit_exact

ALL_METHODS = compressor_names()


def _sample(comp, n=3000):
    rng = np.random.default_rng(5)
    dtype = np.float64 if "D" in comp.info.precisions else np.float32
    arr = np.cumsum(rng.normal(0, 1, n)).astype(dtype)
    arr[3] = np.nan
    return arr


@pytest.mark.parametrize("name", ALL_METHODS)
def test_parallel_session_is_byte_identical_to_serial(name):
    comp = get_compressor(name)
    arr = _sample(comp)
    serial = compress_array(arr, comp, chunk_elements=512)
    parallel = compress_array(arr, comp, chunk_elements=512, jobs=3)
    assert serial == parallel


@pytest.mark.parametrize("name", ALL_METHODS)
def test_single_chunk_session_roundtrips_through_legacy_shim(name):
    comp = get_compressor(name)
    arr = _sample(comp, n=700)
    blob = compress_array(arr, comp, chunk_elements=arr.size)
    with DecompressSession(blob) as reader:
        (frame,) = reader.frames
    payload = encode_payload(comp, arr)
    assert blob[frame.offset : frame.offset + frame.compressed_bytes] == payload
    assert_bit_exact(arr, decode_payload(comp, payload, arr.shape, arr.dtype))


@pytest.mark.parametrize("name", ALL_METHODS)
def test_legacy_compress_format_is_frozen(name):
    """The payload is the codec's own output, with no header in front."""
    comp = get_compressor(name)
    arr = _sample(comp, n=257).reshape(257)
    assert encode_payload(comp, arr) == comp._compress(comp._validate(arr))


def test_fcf_streams_decode_without_naming_a_codec():
    # The stream is self-describing: the reader resolves the codec from
    # the header.
    arr = _sample(get_compressor("gorilla"))
    blob = compress_array(arr, "gorilla", chunk_elements=1024)
    np.testing.assert_array_equal(
        decompress_array(blob).view(np.uint64), arr.view(np.uint64)
    )
