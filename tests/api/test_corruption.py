"""Corrupt-stream fuzz tests (satellite of the streaming redesign).

For every registered codec, truncate valid streams at each
header/payload boundary and flip bytes across the FCF chunk index.
Whatever the damage, the public decode surface must either reproduce
the original bits exactly (possible only when the damaged bytes were
redundant) or raise :class:`~repro.errors.CorruptStreamError` — never
``IndexError``/``ValueError``/``MemoryError`` or any other leak from a
decoder's internals.
"""

import numpy as np
import pytest

from repro.api import FOOTER_BYTES, compress_array, decompress_array
from repro.api.frames import decode_payload, encode_payload
from repro.compressors import compressor_names, get_compressor
from repro.errors import CorruptStreamError

ALL_METHODS = compressor_names()


def _sample(comp, n=257):
    rng = np.random.default_rng(42)
    dtype = np.float64 if "D" in comp.info.precisions else np.float32
    arr = np.cumsum(rng.normal(0, 1, n)).astype(dtype)
    arr[7] = np.nan
    arr[11] = np.inf
    return arr


def _expect_corrupt_or_exact(decode, original):
    """The only acceptable outcomes: CorruptStreamError or bit-exactness."""
    try:
        out = decode()
    except CorruptStreamError:
        return
    except BaseException as exc:  # noqa: BLE001 - the point of the test
        pytest.fail(
            f"leaked {type(exc).__name__} instead of CorruptStreamError: {exc}"
        )
    uint = np.uint64 if original.dtype.itemsize == 8 else np.uint32
    assert out.size == original.size and np.array_equal(
        np.asarray(out).ravel().view(uint), original.view(uint)
    ), "damaged stream decoded to different data without an error"


@pytest.mark.parametrize("name", ALL_METHODS)
def test_legacy_stream_truncation(name):
    """A bare payload cut short, decoded by :func:`decode_payload`.

    The name is kept from when payloads were read inside the one-shot
    stream layout; the bare payload is what that layout carried.
    """
    comp = get_compressor(name)
    arr = _sample(comp)
    payload = encode_payload(comp, arr)
    # The first bytes, plus a spread of cut points.  A bare payload
    # carries no checksum, so cuts inside the last few bytes of an
    # arithmetic-coded tail are indistinguishable from final-flush
    # padding — that detection gap is exactly what the FCF per-frame
    # CRC closes (see test_fcf_stream_truncation, which covers every
    # region including the very last byte).
    tail_limit = max(0, len(payload) - 16)
    cuts = set(range(5))
    cuts.update(min((len(payload) * f) // 8, tail_limit) for f in range(9))
    for cut in sorted(cuts):
        _expect_corrupt_or_exact(
            lambda cut=cut: decode_payload(
                comp, payload[:cut], arr.shape, arr.dtype
            ),
            arr,
        )


@pytest.mark.parametrize("name", ALL_METHODS)
def test_fcf_stream_truncation(name):
    comp = get_compressor(name)
    arr = _sample(comp)
    blob = compress_array(arr, comp, chunk_elements=64)
    # Any strict prefix loses the footer, so every truncation must fail
    # loudly; sample boundaries across header, frames, index, footer.
    cuts = {0, 1, 4, 5, 6, len(blob) - FOOTER_BYTES, len(blob) - 1}
    cuts.update((len(blob) * f) // 16 for f in range(16))
    for cut in sorted(cuts):
        with pytest.raises(CorruptStreamError):
            decompress_array(blob[:cut])


@pytest.mark.parametrize("name", ALL_METHODS)
def test_fcf_index_byte_flips(name):
    comp = get_compressor(name)
    arr = _sample(comp)
    blob = compress_array(arr, comp, chunk_elements=64)
    index_len = int.from_bytes(blob[-FOOTER_BYTES:][:8], "little")
    index_start = len(blob) - FOOTER_BYTES - index_len
    for pos in range(index_start, len(blob)):
        damaged = bytearray(blob)
        damaged[pos] ^= 0xFF
        _expect_corrupt_or_exact(
            lambda d=bytes(damaged): decompress_array(d).ravel(), arr
        )


@pytest.mark.parametrize("name", ALL_METHODS)
def test_fcf_payload_byte_flips(name):
    """Bit rot inside compressed frames must also obey the error contract.

    The per-frame CRC makes this cheap and airtight: a flipped payload
    byte fails the checksum before the codec ever runs.
    """
    comp = get_compressor(name)
    arr = _sample(comp)
    blob = compress_array(arr, comp, chunk_elements=64)
    index_len = int.from_bytes(blob[-FOOTER_BYTES:][:8], "little")
    index_start = len(blob) - FOOTER_BYTES - index_len
    span = max(1, (index_start - 16) // 24)
    for pos in range(16, index_start, span):
        damaged = bytearray(blob)
        damaged[pos] ^= 0x55
        _expect_corrupt_or_exact(
            lambda d=bytes(damaged): decompress_array(d).ravel(), arr
        )
