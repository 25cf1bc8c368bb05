"""Unit tests for the FCF frame format primitives."""

import io

import numpy as np
import pytest

from repro.api import frames
from repro.compressors import get_compressor
from repro.encodings.varint import encode_uvarint
from repro.errors import CorruptStreamError
from tests.conftest import roundtrip


# ----------------------------------------------------------------------
# Header
# ----------------------------------------------------------------------
def test_header_roundtrip():
    header = frames.StreamHeader("gorilla", np.dtype(np.float64), 4096)
    blob = header.encode()
    decoded, size = frames.StreamHeader.decode(blob)
    assert decoded == header
    assert size == len(blob)


def test_header_rejects_bad_magic():
    with pytest.raises(CorruptStreamError, match="magic"):
        frames.StreamHeader.decode(b"JUNKJUNKJUNK")


def test_header_rejects_future_version():
    blob = bytearray(frames.StreamHeader("chimp", np.float64, 1).encode())
    blob[4] = 99
    with pytest.raises(CorruptStreamError, match="version"):
        frames.StreamHeader.decode(bytes(blob))


def test_header_rejects_unknown_dtype_code():
    blob = bytearray(frames.StreamHeader("chimp", np.float64, 1).encode())
    blob[5] = 7
    with pytest.raises(CorruptStreamError, match="dtype"):
        frames.StreamHeader.decode(bytes(blob))


def test_header_rejects_integer_dtype_on_encode():
    with pytest.raises(ValueError):
        frames.StreamHeader("chimp", np.int32, 1).encode()


# ----------------------------------------------------------------------
# Index
# ----------------------------------------------------------------------
def test_index_roundtrip():
    entries = [(100, 37, 0xAA), (100, 41, 0xBB), (50, 12, 0xCC)]
    blob = frames.encode_index(entries, (5, 50))
    index = frames.decode_index(blob, data_start=10, data_length=90)
    assert index.shape == (5, 50)
    assert index.n_elements == 250
    assert index.compressed_bytes == 90
    assert [f.offset for f in index.frames] == [10, 47, 88]
    assert [f.crc32 for f in index.frames] == [0xAA, 0xBB, 0xCC]


def test_index_rejects_payload_size_mismatch():
    blob = frames.encode_index([(100, 37, 0)], (100,))
    with pytest.raises(CorruptStreamError, match="payload bytes"):
        frames.decode_index(blob, data_start=0, data_length=36)


def test_index_rejects_shape_count_mismatch():
    blob = frames.encode_index([(100, 37, 0)], (99,))
    with pytest.raises(CorruptStreamError, match="declares"):
        frames.decode_index(blob, data_start=0, data_length=37)


def test_index_rejects_trailing_garbage():
    blob = frames.encode_index([(100, 37, 0)], (100,)) + b"\x00"
    with pytest.raises(CorruptStreamError, match="trailing"):
        frames.decode_index(blob, data_start=0, data_length=37)


def test_payload_crc_verified_before_decode():
    comp = get_compressor("gorilla")
    arr = np.linspace(0, 1, 256)
    payload = frames.encode_payload(comp, arr)
    import zlib

    crc = zlib.crc32(payload) & 0xFFFFFFFF
    out = frames.decode_payload(comp, payload, (256,), np.float64, crc)
    np.testing.assert_array_equal(out, arr)
    damaged = bytearray(payload)
    damaged[len(damaged) // 2] ^= 0x01
    with pytest.raises(CorruptStreamError, match="checksum"):
        frames.decode_payload(comp, bytes(damaged), (256,), np.float64, crc)


def test_index_rejects_absurd_chunk_count():
    blob = encode_uvarint(1 << 50) + b"\x01\x01"
    with pytest.raises(CorruptStreamError):
        frames.decode_index(blob, data_start=0, data_length=1)


def test_index_rejects_absurd_rank():
    blob = encode_uvarint(0) + encode_uvarint(40)
    with pytest.raises(CorruptStreamError, match="rank"):
        frames.decode_index(blob, data_start=0, data_length=0)


# ----------------------------------------------------------------------
# read_layout
# ----------------------------------------------------------------------
def test_read_layout_rejects_short_stream():
    with pytest.raises(CorruptStreamError, match="too short"):
        frames.read_layout(io.BytesIO(b"FCF1"))


def test_read_layout_rejects_missing_end_magic():
    blob = frames.StreamHeader("chimp", np.float64, 1).encode() + b"\x00" * 20
    with pytest.raises(CorruptStreamError, match="end magic"):
        frames.read_layout(io.BytesIO(blob))


def test_read_layout_rejects_oversized_index_length():
    header = frames.StreamHeader("chimp", np.float64, 1).encode()
    footer = (1 << 40).to_bytes(8, "little") + frames.END_MAGIC
    with pytest.raises(CorruptStreamError, match="index length"):
        frames.read_layout(io.BytesIO(header + footer))


# ----------------------------------------------------------------------
# Payload codec
# ----------------------------------------------------------------------
def test_raw_payload_roundtrip():
    arr = np.linspace(0, 1, 64)
    blob = frames.encode_payload(None, arr)
    assert blob == arr.tobytes()
    out = frames.decode_payload(None, blob, (64,), np.float64)
    np.testing.assert_array_equal(out, arr)


def test_raw_payload_length_validated():
    with pytest.raises(CorruptStreamError, match="raw frame"):
        frames.decode_payload(None, b"\x00" * 24, (4,), np.float64)


def test_f32_reinterpret_roundtrip_odd_tail():
    comp = get_compressor("gfc")  # double-only
    arr = np.random.default_rng(0).normal(0, 1, 101).astype(np.float32)
    for case in (arr, arr[:91].reshape(7, 13)):  # both with an odd tail
        blob = frames.encode_payload(comp, case)
        out = frames.decode_payload(comp, blob, case.shape, np.float32)
        assert out.shape == case.shape
        np.testing.assert_array_equal(
            out.view(np.uint32), case.view(np.uint32)
        )


def test_payload_codec_sees_the_logical_shape():
    # fpzip's Lorenzo predictor uses the dimensions it is handed.
    comp = get_compressor("fpzip")
    arr = np.add.outer(np.arange(24.0), np.arange(40.0) / 8)
    payload = frames.encode_payload(comp, arr)
    assert payload != frames.encode_payload(comp, arr.ravel())
    out = frames.decode_payload(comp, payload, arr.shape, arr.dtype)
    np.testing.assert_array_equal(out, arr)


def test_unknown_codec_is_corrupt_stream():
    with pytest.raises(CorruptStreamError, match="unknown codec"):
        frames.resolve_codec("gzip")


# ----------------------------------------------------------------------
# Hostile metadata (satellite: bound count against payload length)
# ----------------------------------------------------------------------
def test_hostile_declared_shape_rejected_before_allocation():
    comp = get_compressor("gorilla")
    hostile_shape = (1 << 60,)  # ~9 exabytes of float64
    with pytest.raises(CorruptStreamError, match="declares"):
        frames.decode_payload(comp, b"\x00" * 100, hostile_shape, np.float64)


def test_hostile_count_bound_is_per_codec():
    # fpzip's adaptive coder legitimately reaches thousands of elements
    # per byte; its bound must admit what the default bound rejects.
    payload = b"\x00" * 100
    fpzip = get_compressor("fpzip")
    frames.check_declared_count(fpzip, 10_000_000, len(payload))  # no raise
    with pytest.raises(CorruptStreamError):
        frames.check_declared_count(fpzip, 1 << 40, len(payload))
    gorilla = get_compressor("gorilla")
    with pytest.raises(CorruptStreamError):
        frames.check_declared_count(gorilla, 10_000_000, len(payload))


def test_payload_driven_codec_skips_bound_but_validates_count():
    # SPDP's output size comes from its token stream; a hostile declared
    # count is caught by the post-decode element-count comparison.
    comp = get_compressor("spdp")
    payload = frames.encode_payload(comp, np.zeros(1000))
    with pytest.raises(CorruptStreamError):
        frames.decode_payload(comp, payload, (1 << 60,), np.float64)


def test_highly_compressible_streams_still_decode():
    # The bound must never reject output our own compressors produce.
    for name in ("spdp", "fpzip", "bitshuffle-zstd", "gorilla"):
        comp = get_compressor(name)
        arr = np.zeros(1 << 17)
        np.testing.assert_array_equal(roundtrip(comp, arr), arr)
