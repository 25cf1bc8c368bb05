"""End-to-end pipeline: generate -> store -> read -> query."""

import numpy as np
import pytest

from repro.api.frames import decode_payload, encode_payload
from repro.compressors import get_compressor
from repro.data import get_spec, load
from repro.storage import ContainerReader, ContainerWriter, DataFrame


@pytest.mark.parametrize("filter_name", ["chimp", "bitshuffle-lz4", "mpc"])
def test_generate_store_scan(tmp_path, filter_name):
    """The paper's Figure 4 loop: HDF5-like file -> frame -> scan."""
    arr = load("nyc-taxi", 4096).copy()
    writer = ContainerWriter(chunk_elements=1024)
    writer.add_dataset("taxi", arr, filter_name=filter_name)
    path = tmp_path / "db.fcbc"
    writer.save(path)

    reader = ContainerReader(path)
    table = reader.read_dataset("taxi")
    np.testing.assert_array_equal(
        table.view(np.uint64), arr.view(np.uint64)
    )

    frame = DataFrame.from_table(table)
    edges = frame.histogram_edges(frame.column_names[0], bins=10)
    for edge in edges[1:]:
        mask = frame.scan_less_equal(frame.column_names[0], float(edge))
        np.testing.assert_array_equal(mask, table[:, 0] <= edge)


def test_insitu_timestep_loop(tmp_path):
    """Simulation writing successive timesteps through a compressed store."""
    rng = np.random.default_rng(0)
    field = np.cumsum(rng.normal(0, 0.01, (8, 16, 16)), axis=0)
    writer = ContainerWriter(chunk_elements=512)
    for step in range(4):
        field = field + rng.normal(0, 0.001, field.shape)
        writer.add_dataset(f"step{step}", field, filter_name="ndzip-cpu")
    path = tmp_path / "sim.fcbc"
    writer.save(path)

    reader = ContainerReader(path)
    assert reader.dataset_names() == [f"step{i}" for i in range(4)]
    last = reader.read_dataset("step3")
    np.testing.assert_array_equal(
        last.view(np.uint64), field.view(np.uint64)
    )


def test_buff_query_without_decode_vs_decoded_scan(tmp_path):
    """BUFF's selective filter agrees with the decoded full scan."""
    arr = np.round(np.random.default_rng(1).normal(30, 8, 6000), 2)
    comp = get_compressor("buff")
    blob = encode_payload(comp, arr)
    threshold = 30.0
    encoded_scan = comp.scan_less_equal(blob, threshold, arr.dtype)
    decoded_scan = decode_payload(comp, blob, arr.shape, arr.dtype) <= threshold
    np.testing.assert_array_equal(encoded_scan, decoded_scan)


def test_cross_method_stream_confusion_fails_loud():
    a = encode_payload(get_compressor("gorilla"), np.ones(64))
    with pytest.raises(Exception):
        decode_payload(get_compressor("fpzip"), a, (64,), np.float64)


def test_full_suite_cell_consistency():
    """Suite CR equals a direct compress call for the same input."""
    from repro.core.runner import BenchmarkRunner

    spec = get_spec("citytemp")
    arr = load("citytemp", 2048)
    cell = BenchmarkRunner().run_cell("chimp", arr, spec)
    direct = arr.nbytes / len(encode_payload(get_compressor("chimp"), arr))
    assert cell.compression_ratio == pytest.approx(direct)
