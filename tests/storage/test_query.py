"""Tests for the query micro-benchmark engine (Table 11)."""

import numpy as np
import pytest

from repro.api.session import DecompressSession, compress_array
from repro.compressors import get_compressor
from repro.core.runner import BenchmarkRunner
from repro.data import get_spec, load
from repro.storage.iosim import DiskModel
from repro.storage.query import QueryBenchmark


@pytest.fixture(scope="module")
def bench():
    return QueryBenchmark()


def test_cost_components_positive(bench):
    spec = get_spec("tpcH-order")
    cost = bench.run(
        get_compressor("chimp"), spec.name, load(spec.name, 4096),
        spec.paper_bytes, spec.paper_extent[0],
    )
    assert cost.read_ms > 0
    assert cost.decode_ms > 0
    assert cost.query_ms > 0
    assert cost.total_ms == pytest.approx(
        cost.read_ms + cost.decode_ms + cost.query_ms
    )


def test_read_time_scales_with_compressed_size(bench):
    # Better CR -> fewer bytes read -> shorter read time.
    spec = get_spec("tpcH-order")
    arr = load(spec.name, 4096)
    chimp = bench.run(get_compressor("chimp"), spec.name, arr,
                      spec.paper_bytes, spec.paper_extent[0])
    gorilla = bench.run(get_compressor("gorilla"), spec.name, arr,
                        spec.paper_bytes, spec.paper_extent[0])
    assert chimp.read_ms < gorilla.read_ms


def test_query_time_is_method_independent(bench):
    # The decoded frames are identical, so scans cost the same.
    spec = get_spec("tpcDS-web")
    arr = load(spec.name, 4096)
    a = bench.run(get_compressor("chimp"), spec.name, arr,
                  spec.paper_bytes, spec.paper_extent[0])
    b = bench.run(get_compressor("mpc"), spec.name, arr,
                  spec.paper_bytes, spec.paper_extent[0])
    assert a.query_ms == pytest.approx(b.query_ms)


def test_serial_decoders_dominate_total(bench):
    # Observation 9: fpzip's slow decode dwarfs its read time.
    spec = get_spec("tpcH-order")
    arr = load(spec.name, 4096)
    fpzip = bench.run(get_compressor("fpzip"), spec.name, arr,
                      spec.paper_bytes, spec.paper_extent[0])
    assert fpzip.decode_ms > 10 * fpzip.read_ms


def test_float32_read_volume_matches_table4_ratio():
    # A disk model whose read time in seconds is the byte count: the
    # read volume of Table 11 is paper_bytes over the Table 4 ratio of
    # the same cell, also for float32 tables under a double-only codec.
    spec = get_spec("tpcDS-web")
    arr = load(spec.name, 4096)
    assert arr.dtype == np.float32
    cell = BenchmarkRunner().run_cell("pfpc", arr, spec)
    assert cell.ok
    bytes_as_seconds = DiskModel(
        bandwidth_gbs=1e-9, seek_latency_s=0.0, per_chunk_overhead_s=0.0
    )
    cost = QueryBenchmark(disk=bytes_as_seconds).run(
        get_compressor("pfpc"), spec.name, arr,
        spec.paper_bytes, spec.paper_extent[0],
    )
    expected = int(spec.paper_bytes / cell.compression_ratio)
    assert cost.read_ms / 1e3 == pytest.approx(expected, rel=1e-9)


# -- range reads through the stream index (run_range edge cases) -------
@pytest.fixture(scope="module")
def range_stream():
    # 5 full chunks of 100 elements plus a final partial chunk of 37.
    arr = np.cumsum(np.ones(537)) * 0.5
    blob = compress_array(arr, "gorilla", chunk_elements=100)
    with DecompressSession(blob) as session:
        yield arr, session


def test_range_empty(bench, range_stream):
    arr, session = range_stream
    scan = bench.run_range(session, 200, 200)
    assert scan.values.size == 0
    assert scan.n_chunks == 0
    assert scan.bytes_read == 0
    assert scan.read_ms == 0.0


def test_range_reversed_bounds(bench, range_stream):
    arr, session = range_stream
    scan = bench.run_range(session, 400, 100)
    assert scan.values.size == 0
    assert scan.n_chunks == 0
    assert scan.read_ms == 0.0


def test_range_spanning_final_partial_chunk(bench, range_stream):
    arr, session = range_stream
    scan = bench.run_range(session, 480, 537)
    assert np.array_equal(scan.values, arr[480:537])
    assert scan.n_chunks == 2  # last full chunk + the 37-element tail
    assert scan.bytes_read > 0
    assert scan.read_ms > 0


def test_range_clamps_past_the_end(bench, range_stream):
    arr, session = range_stream
    scan = bench.run_range(session, 530, 10_000)
    assert np.array_equal(scan.values, arr[530:])
    assert scan.n_chunks == 1  # only the final partial chunk


def test_range_read_cost_counts_only_touched_chunks(bench, range_stream):
    arr, session = range_stream
    one = bench.run_range(session, 0, 50)
    many = bench.run_range(session, 0, 537)
    assert one.n_chunks == 1 and many.n_chunks == 6
    assert one.bytes_read < many.bytes_read
    assert one.read_ms < many.read_ms
