"""Vectorized codec paths vs. the retained scalar (seed) oracles.

Every rewritten hot path must produce *byte-identical* payloads to the
original per-element implementation, and the vectorized decoders must
invert both.  Cases cover adversarial floats (NaN payloads, signed
zeros, infinities, denormals) and structural extremes (constant runs,
alternating repeats, pure noise, quantized decimals).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.mpc import MpcCompressor
from repro.compressors.ndzip import NdzipCpuCompressor
from tests.conftest import roundtrip

from .conftest_vector import adversarial_cases  # noqa: F401  (fixture file)


def _uint_view(array: np.ndarray) -> np.ndarray:
    return array.view(
        np.uint32 if array.dtype == np.float32 else np.uint64
    )


def _bitexact(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(_uint_view(a.ravel()), _uint_view(b.ravel()))
    )


ORACLE_METHODS = ["gorilla", "chimp", "fpzip", "ndzip-cpu"]


@pytest.mark.parametrize("method", ORACLE_METHODS)
class TestByteIdentity:
    def test_payloads_byte_identical(self, method, adversarial_cases):
        compressor = get_compressor(method)
        for name, array in adversarial_cases.items():
            array = np.ascontiguousarray(array)
            expected = compressor._compress_scalar(array)
            actual = compressor._compress(array)
            assert actual == expected, (
                f"{method} diverges from the seed payload on {name!r}"
            )

    def test_vector_decoder_inverts_scalar_payload(
        self, method, adversarial_cases
    ):
        compressor = get_compressor(method)
        for name, array in adversarial_cases.items():
            array = np.ascontiguousarray(array)
            payload = compressor._compress_scalar(array)
            restored = compressor._decompress(
                payload, array.shape, array.dtype
            )
            assert _bitexact(
                np.asarray(restored).reshape(array.shape), array
            ), f"{method} failed to decode the seed payload of {name!r}"


@pytest.mark.parametrize("method", ["gorilla", "chimp", "fpzip"])
def test_scalar_decoder_inverts_vector_payload(method, adversarial_cases):
    compressor = get_compressor(method)
    for name, array in adversarial_cases.items():
        array = np.ascontiguousarray(array)
        payload = compressor._compress(array)
        restored = compressor._decompress_scalar(
            payload, array.shape, array.dtype
        )
        assert _bitexact(np.asarray(restored).reshape(array.shape), array), (
            f"{method} vector payload not decodable by the seed on {name!r}"
        )


class TestNdzipBatching:
    @pytest.mark.parametrize(
        "shape",
        [
            (4096 * 3 + 17,),  # full 1-D blocks plus a border
            (130, 70),  # 2-D: full and partial hypercubes
            (17, 17, 17),  # 3-D border-heavy grid
            (4096,),  # exactly one block (scalar path)
        ],
    )
    def test_batched_blocks_match_scalar_blocks(self, shape):
        rng = np.random.default_rng(5)
        array = np.cumsum(rng.normal(0, 1, shape), axis=-1)
        compressor = NdzipCpuCompressor()
        assert compressor._compress(array) == compressor._compress_scalar(
            array
        )
        restored = roundtrip(compressor, array)
        assert _bitexact(restored, array)


class TestMpcLaneReconstruction:
    def test_vectorized_lag6_matches_naive_loop(self):
        rng = np.random.default_rng(11)
        array = rng.normal(0, 1, 5000)
        compressor = MpcCompressor()
        restored = roundtrip(compressor, array)
        assert _bitexact(restored, array)

    def test_lag6_prefix_identity(self):
        # The strided cumsums must equal the scalar recurrence exactly,
        # including uint64 wraparound.
        rng = np.random.default_rng(12)
        stage1 = rng.integers(0, 2**64, (3, 1024), dtype=np.uint64)
        naive = stage1.copy()
        for lane in range(6, 1024):
            naive[:, lane] = stage1[:, lane] + naive[:, lane - 6]
        fast = stage1.copy()
        for residue in range(6):
            lanes = fast[:, residue::6]
            np.cumsum(lanes, axis=1, dtype=np.uint64, out=lanes)
        assert np.array_equal(naive, fast)
