"""Method-specific behaviour: the traits the paper attributes to each."""

import numpy as np
import pytest

from repro.api.frames import decode_payload, encode_payload
from repro.compressors import get_compressor
from repro.compressors.buff import PRECISION_BITS, BuffCompressor
from repro.compressors.gfc import GFC_MAX_INPUT_BYTES
from repro.errors import InputTooLargeError, PrecisionError
from tests.conftest import assert_bit_exact, roundtrip


class TestGorilla:
    def test_constant_run_costs_one_bit_per_value(self):
        arr = np.full(5000, 12.5)
        blob = encode_payload(get_compressor("gorilla"), arr)
        assert len(blob) < 5000 / 8 + 64

    def test_random_data_slightly_expands(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(0, 1, 4000)
        cr = arr.nbytes / len(encode_payload(get_compressor("gorilla"), arr))
        assert 0.90 < cr < 1.05  # paper: 0.97-0.99 on pattern-free data


class TestChimp:
    def test_beats_gorilla_on_decimal_data(self):
        rng = np.random.default_rng(1)
        arr = np.round(rng.normal(50, 10, 6000), 2)
        chimp = len(encode_payload(get_compressor("chimp"), arr))
        gorilla = len(encode_payload(get_compressor("gorilla"), arr))
        assert chimp < gorilla

    def test_window_reference_hits(self):
        # Values recurring within 128 positions compress via the window.
        base = np.random.default_rng(2).normal(0, 1, 64)
        arr = np.tile(base, 40)
        cr = arr.nbytes / len(encode_payload(get_compressor("chimp"), arr))
        assert cr > 4.0


class TestFpzip:
    def test_dimensionality_improves_ratio(self, cases):
        arr = cases["smooth3d_f32"]
        comp = get_compressor("fpzip")
        cr_3d = arr.nbytes / len(encode_payload(comp, arr))
        cr_1d = arr.nbytes / len(encode_payload(comp, arr.ravel()))
        assert cr_3d > cr_1d

    def test_smooth_field_compresses_well(self, cases):
        arr = cases["smooth3d_f32"]
        cr = arr.nbytes / len(encode_payload(get_compressor("fpzip"), arr))
        assert cr > 1.8


class TestPfpc:
    def test_thread_count_changes_chunking_not_content(self):
        rng = np.random.default_rng(3)
        arr = np.cumsum(rng.normal(0, 0.01, 4000))
        one = get_compressor("pfpc", threads=1)
        eight = get_compressor("pfpc", threads=8)
        assert_bit_exact(arr, roundtrip(one, arr))
        assert_bit_exact(arr, roundtrip(eight, arr))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            get_compressor("pfpc", threads=0)
        with pytest.raises(ValueError):
            get_compressor("pfpc", table_bits=2)


class TestBuff:
    def test_explicit_precision(self):
        arr = np.round(np.random.default_rng(4).normal(5, 1, 2000), 1)
        comp = BuffCompressor(precision=1)
        assert_bit_exact(arr, roundtrip(comp, arr))

    def test_invalid_precision_rejected(self):
        with pytest.raises(PrecisionError):
            BuffCompressor(precision=11)

    def test_precision_bits_match_table2(self):
        assert PRECISION_BITS[1] == 5
        assert PRECISION_BITS[5] == 18
        assert PRECISION_BITS[10] == 35

    def test_full_precision_data_expands(self):
        rng = np.random.default_rng(5)
        arr = rng.normal(0, 1, 3000)
        cr = arr.nbytes / len(encode_payload(BuffCompressor(), arr))
        assert cr < 1.0  # everything is an outlier

    def test_scan_matches_numpy_reference(self):
        rng = np.random.default_rng(6)
        arr = np.round(rng.normal(100, 15, 5000), 2)
        comp = BuffCompressor()
        blob = encode_payload(comp, arr)
        for threshold in (70.0, 100.0, 130.0):
            np.testing.assert_array_equal(
                comp.scan_less_equal(blob, threshold, arr.dtype), arr <= threshold
            )
        value = arr[42]
        np.testing.assert_array_equal(
            comp.scan_equal(blob, value, arr.dtype), arr == value
        )

    def test_scan_handles_outliers(self):
        rng = np.random.default_rng(7)
        arr = np.round(rng.normal(10, 2, 1000), 2)
        arr[::50] = rng.normal(0, 1, 20)  # full-precision outliers
        comp = BuffCompressor()
        blob = encode_payload(comp, arr)
        np.testing.assert_array_equal(
            comp.scan_less_equal(blob, 10.0, arr.dtype), arr <= 10.0
        )


class TestGfc:
    def test_input_size_limit(self):
        comp = get_compressor("gfc")
        assert comp.max_input_bytes == GFC_MAX_INPUT_BYTES == 512 * 1024 * 1024

    def test_oversized_input_rejected(self, monkeypatch):
        comp = get_compressor("gfc")
        monkeypatch.setattr(type(comp), "max_input_bytes", 1024)
        with pytest.raises(InputTooLargeError):
            encode_payload(comp, np.zeros(1000))

    def test_subchunk_base_prediction(self):
        # Constant data is GFC's best case: every residual is zero, so
        # only the 4-bit code plus one zero byte remain per value.
        arr = np.full(1280, 7.25)
        cr = arr.nbytes / len(encode_payload(get_compressor("gfc"), arr))
        assert cr > 4.0

    def test_leading_zero_bytes_only(self):
        # GFC trims leading zero *bytes* but keeps trailing zeros, so an
        # exponent-only step compresses barely at all (the inaccurate-
        # predictor trait behind its last-place ranking).
        arr = np.repeat(np.arange(40, dtype=np.float64), 32)
        cr = arr.nbytes / len(encode_payload(get_compressor("gfc"), arr))
        assert 1.0 < cr < 1.5

    def test_device_trace_records_transfers(self):
        comp = get_compressor("gfc")
        arr = np.random.default_rng(8).normal(0, 1, 1024)
        encode_payload(comp, arr)
        assert comp.device.trace.h2d_bytes == arr.nbytes
        assert comp.device.trace.launch_count >= 1


class TestMpc:
    def test_smooth_doubles_compress(self):
        arr = np.cumsum(np.random.default_rng(9).normal(0, 1e-6, 8192)) + 10.0
        cr = arr.nbytes / len(encode_payload(get_compressor("mpc"), arr))
        assert cr > 1.3

    def test_chunk_padding_boundary(self):
        for n in (1023, 1024, 1025, 2047):
            arr = np.random.default_rng(n).normal(0, 1, n)
            comp = get_compressor("mpc")
            assert_bit_exact(arr, roundtrip(comp, arr))


class TestNdzip:
    def test_cpu_gpu_streams_identical(self, cases):
        arr = cases["smooth3d_f32"]
        cpu = encode_payload(get_compressor("ndzip-cpu"), arr)
        gpu = encode_payload(get_compressor("ndzip-gpu"), arr)
        assert cpu == gpu  # same algorithm, different execution schedule

    def test_partial_border_blocks(self):
        # 17x17x17 leaves partial blocks on every axis.
        rng = np.random.default_rng(10)
        arr = np.cumsum(rng.normal(0, 0.01, 17**3)).reshape(17, 17, 17)
        comp = get_compressor("ndzip-cpu")
        assert_bit_exact(arr, roundtrip(comp, arr))

    def test_rank_4_flattened_to_3(self):
        arr = np.random.default_rng(11).normal(0, 1, (3, 4, 5, 6))
        comp = get_compressor("ndzip-cpu")
        out = roundtrip(comp, arr)
        assert out.shape == arr.shape


class TestNvcomp:
    def test_bitcomp_constant_chunks_tiny(self):
        arr = np.full(8192, 1.0)
        blob = encode_payload(get_compressor("nvcomp-bitcomp"), arr)
        cr = arr.nbytes / len(blob)
        assert cr > 20.0

    def test_bitcomp_noisy_near_one(self):
        arr = np.random.default_rng(12).normal(0, 1, 8192)
        blob = encode_payload(get_compressor("nvcomp-bitcomp"), arr)
        cr = arr.nbytes / len(blob)
        assert 0.9 < cr < 1.1

    def test_lz4_chunking_parameter(self):
        comp = get_compressor("nvcomp-lz4", chunk_bytes=4096)
        arr = np.random.default_rng(13).normal(0, 1, 4000)
        assert_bit_exact(arr, roundtrip(comp, arr))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            get_compressor("nvcomp-lz4", chunk_bytes=10)
        with pytest.raises(ValueError):
            get_compressor("nvcomp-bitcomp", chunk_values=3)


class TestSpdp:
    def test_window_tradeoff_parameters(self):
        rng = np.random.default_rng(14)
        arr = np.round(rng.normal(10, 1, 4000), 2)
        small = get_compressor("spdp", window=1 << 10)
        large = get_compressor("spdp", window=1 << 18)
        assert_bit_exact(arr, roundtrip(small, arr))
        blob_small = encode_payload(small, arr)
        blob_large = encode_payload(large, arr)
        assert len(blob_large) <= len(blob_small) + 32

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            get_compressor("spdp", window=16)


class TestDzip:
    def test_compresses_structured_bytes(self):
        arr = np.round(np.random.default_rng(15).normal(5, 1, 600), 1)
        comp = get_compressor("dzip")
        blob = encode_payload(comp, arr)
        assert_bit_exact(arr, decode_payload(comp, blob, arr.shape, arr.dtype))
        assert len(blob) < arr.nbytes

    def test_two_model_mixing_is_symmetric(self):
        # Encode/decode must drive identical model state; any divergence
        # would corrupt the stream immediately.
        rng = np.random.default_rng(16)
        arr = np.repeat(rng.normal(0, 1, 25), 20)
        comp = get_compressor("dzip")
        assert_bit_exact(arr, roundtrip(comp, arr))
