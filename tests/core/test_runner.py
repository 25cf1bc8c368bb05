"""Tests for the benchmark runner's measurement protocol."""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.core.runner import BenchmarkRunner, verify_roundtrip
from repro.data.catalog import get_spec
from repro.data.loader import load


@pytest.fixture(scope="module")
def runner():
    return BenchmarkRunner()


def test_verify_roundtrip_bit_level():
    a = np.array([0.0])
    b = np.array([-0.0])
    assert not verify_roundtrip(a, b)
    assert verify_roundtrip(a, a.copy())


def test_successful_cell(runner):
    spec = get_spec("citytemp")
    m = runner.run_cell("chimp", load("citytemp", 2048), spec)
    assert m.ok
    assert m.compression_ratio > 0.5
    assert m.compress_gbs == pytest.approx(0.034)  # anchored
    assert m.measured_compress_s > 0
    assert m.domain == "TS"


def test_gfc_paper_scale_skip(runner):
    spec = get_spec("miranda3d")  # 4 GB at paper scale
    m = runner.run_cell("gfc", load("miranda3d", 2048), spec)
    assert not m.ok
    assert "limit" in m.error


def test_gfc_runs_at_512mb_exactly(runner):
    spec = get_spec("wave")  # exactly 512 MB
    m = runner.run_cell("gfc", load("wave", 2048), spec)
    assert m.ok


def test_paper_limits_can_be_disabled():
    runner = BenchmarkRunner(paper_limits=False)
    spec = get_spec("miranda3d")
    m = runner.run_cell("gfc", load("miranda3d", 2048), spec)
    assert m.ok


def test_f32_reinterpreted_for_double_only(runner):
    # pFPC sees the float32 dataset's bytes as 64-bit words; CR is still
    # measured against the original bytes, not an upcast buffer.
    spec = get_spec("rsim")
    arr = load("rsim", 2048)
    assert arr.dtype == np.float32 and arr.size % 2  # odd: one padded word
    m = runner.run_cell("pfpc", arr, spec)
    assert m.ok
    assert m.precision == "D"
    assert m.input_bytes == arr.nbytes
    padded = np.append(arr.ravel(), np.float32(0))
    words = padded.view(np.float64)
    assert m.compressed_bytes == len(get_compressor("pfpc")._compress(words))


def test_supported_dtype_passthrough(runner):
    # The codec receives the dataset unchanged, shape included, and CR
    # counts its own output only.
    spec = get_spec("rsim")
    arr = load("rsim", 2048)
    comp = get_compressor("fpzip")
    m = runner.run_cell("fpzip", arr, spec)
    assert m.ok
    assert m.precision == "S"
    assert m.compressed_bytes == len(comp._compress(comp._validate(arr)))
    flat = runner.run_cell("fpzip", arr.ravel(), spec)
    assert flat.compressed_bytes != m.compressed_bytes


def test_wall_time_includes_gpu_transfers(runner):
    spec = get_spec("tpcH-order")
    gpu = runner.run_cell("mpc", load("tpcH-order", 2048), spec)
    cpu = runner.run_cell("ndzip-cpu", load("tpcH-order", 2048), spec)
    # MPC's kernels are ~15x faster but PCIe narrows the wall-time gap.
    kernel_gap = gpu.compress_gbs / cpu.compress_gbs
    wall_gap = cpu.compress_wall_ms / gpu.compress_wall_ms
    assert wall_gap < kernel_gap
