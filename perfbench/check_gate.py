"""The benchmark's own test: its correctness gate catches corrupted
streams, a failed check yields a non-zero exit with no metric, and
``compare.py`` never passes a change whose runs fail more often.

    python3 perfbench/check_gate.py
    python3 -m pytest perfbench/check_gate.py

Needs no server and runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import repro  # noqa: E402
import repro.api.session as session  # noqa: E402

import codec_matrix  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
from common import CHUNK, Gate, check_oracle, make_arrays, stream_payload  # noqa: E402


def flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0x01])


@contextlib.contextmanager
def corrupting_encoder():
    """Every frame payload the API writes has its last byte flipped."""
    encode = session.encode_payload
    session.encode_payload = lambda *a, **k: flip_last_byte(encode(*a, **k))
    try:
        yield
    finally:
        session.encode_payload = encode


def test_clean_cells_pass():
    gate = Gate()
    arrays = make_arrays(3, ["citytemp"], 1)
    cells = codec_matrix.build_cells(arrays, ["gorilla", "mpc"])
    codec_matrix.run_cells(cells, 0.0, gate)
    assert gate.attempted > 0 and gate.failed == 0, gate.reasons


def test_corrupted_payload_fails_codec_matrix_gate():
    gate = Gate()
    arrays = make_arrays(3, ["citytemp"], 1)
    with corrupting_encoder():
        codec_matrix.run_cells(
            codec_matrix.build_cells(arrays, ["gorilla", "mpc"]), 0.0, gate)
    assert gate.failed > 0


def test_oracle_catches_corrupted_payload():
    name, array = make_arrays(3, ["tpcH-order"], 1)[0]
    with corrupting_encoder():
        blob = repro.compress_array(array, "gorilla", chunk_elements=CHUNK)
    assert stream_payload(blob) != stream_payload(
        repro.compress_array(array, "gorilla", chunk_elements=CHUNK))
    gate = Gate()
    check_oracle(gate, "gorilla", array, blob)
    assert gate.failed == 1


class CorruptingClient:
    """Serves local results, with the compressed stream corrupted."""

    def compress_array(self, array, codec, **options):
        with corrupting_encoder():
            return repro.compress_array(array, codec, **options)

    def decompress_array(self, blob):
        return repro.decompress_array(blob)


def test_corrupted_served_stream_fails_serve_gate():
    gate = Gate()
    mix = serving.LightMix(3, gate)
    assert gate.failed == 0
    for _ in range(5):
        serving.light_pair(CorruptingClient(), mix, gate, serving.Tally())
    assert gate.failed >= 5


def test_benchmark_json_lists_the_per_layer_metrics():
    import layers

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.names()


def test_failed_check_exits_nonzero_without_metrics():
    def failing_run(workload, seed, seconds, gate):
        gate.op(False, "corrupted stream")
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        return {m["name"]: {"value": 1.0, "unit": m["unit"]}
                for m in spec["end_to_end"]}, {}

    saved = run.run_untraced
    run.run_untraced = failing_run
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "serve-light", "--seconds", "1"])
    finally:
        run.run_untraced = saved
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code != 0
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_compare_never_calls_a_change_with_more_failures_no_worse():
    def record(seed, value, failed=0):
        metrics = {} if failed else {"ops_s": {"value": value, "unit": "1/s"}}
        result = {"correct": not failed, "attempted": 10, "failed": failed,
                  "metrics": metrics}
        return json.dumps({"context": {"workload": "serve-light", "seed": seed},
                           "result": result})

    with tempfile.TemporaryDirectory() as tmp:
        base, change = Path(tmp, "base.jsonl"), Path(tmp, "change.jsonl")
        base.write_text("\n".join(record(s, 100.0 + s) for s in range(1, 11)))
        change.write_text("\n".join(
            [record(1, 0.0, failed=1)] + [record(s, 200.0) for s in range(2, 11)]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            compare.main([str(base), str(change)])
    lines = out.getvalue().splitlines()
    assert "change 10 runs, 1 failed, 1 failed ops" in lines[0]
    assert [line for line in lines if "ops_s" in line][0].endswith("worse (failures)")


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
