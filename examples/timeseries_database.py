"""Time-series database scenario: Gorilla vs Chimp vs BUFF on a stream.

Run:  python examples/timeseries_database.py

Reproduces the paper's database-side story on a server-monitoring
stream, through the streaming session API (`repro.api`): readings are
ingested minute-batch by minute-batch into chunked FCF streams —
exactly how a TSDB lands data — then queried with index-backed random
access instead of whole-stream decodes.  The XOR codecs (Gorilla,
Chimp) trade ratio for simplicity, while BUFF's byte-aligned
sub-columns answer predicates *without decompressing* — the capability
behind its 35x-50x selective-filter speedups (section 3.3).
"""

from __future__ import annotations

import io
import time

import numpy as np

from repro.api import CompressSession, DecompressSession
from repro.api.frames import decode_payload, encode_payload
from repro.compressors import BuffCompressor, get_compressor
from repro.core.report import format_table


def make_stream(n: int = 60_000) -> np.ndarray:
    """A monitoring stream: diurnal load with 2-decimal readings."""
    rng = np.random.default_rng(11)
    t = np.arange(n)
    load = 40 + 25 * np.sin(2 * np.pi * t / 1440) + rng.normal(0, 2.0, n)
    return np.round(np.abs(load), 2)


def main() -> None:
    stream = make_stream()
    print(f"monitoring stream: {stream.size} float64 readings, 2 decimals")

    rows = []
    streams = {}
    for method in ("gorilla", "chimp", "buff"):
        comp = get_compressor(method)
        # Ingest like a TSDB: one write per arriving minute-batch; the
        # session cuts 4096-element frames and indexes them for seeks.
        buf = io.BytesIO()
        with CompressSession(buf, comp, np.float64,
                             chunk_elements=4096) as session:
            for start in range(0, stream.size, 1440):
                session.write(stream[start : start + 1440])
        streams[method] = buf.getvalue()
        restored = DecompressSession(streams[method]).read_all()
        assert np.array_equal(restored, stream)
        rows.append(
            [comp.info.display_name,
             f"{stream.nbytes / len(streams[method]):.3f}",
             comp.info.trait, comp.info.parallelism]
        )
    print()
    print(format_table(["method", "CR", "trait", "parallelism"], rows,
                       title="Time-series codecs on the stream"))

    # --- dashboard window: random access via the chunk index -----------
    with DecompressSession(streams["gorilla"]) as reader:
        start = time.perf_counter()
        window = reader.read(stream.size - 1440, stream.size)  # last day
        window_ms = (time.perf_counter() - start) * 1e3
        touched = reader.bytes_read
    assert np.array_equal(window, stream[-1440:])
    print(
        f"\nlast-day window: decoded {window.size} readings in "
        f"{window_ms:.2f} ms, reading {touched} of "
        f"{len(streams['gorilla'])} compressed bytes "
        f"({reader.n_chunks} chunks indexed, "
        f"{touched / len(streams['gorilla']):.0%} touched)"
    )

    # --- BUFF: query without decoding ----------------------------------
    # BUFF's encoded-plane scans work on one codec payload (the
    # byte-plane layout needs the whole column in one payload).
    buff = BuffCompressor()
    blob = encode_payload(buff, stream)
    threshold = 60.0

    start = time.perf_counter()
    encoded_mask = buff.scan_less_equal(blob, threshold, stream.dtype)
    encoded_time = time.perf_counter() - start

    start = time.perf_counter()
    decoded = decode_payload(buff, blob, stream.shape, stream.dtype)
    decoded_mask = decoded <= threshold
    decode_time = time.perf_counter() - start

    assert np.array_equal(encoded_mask, decoded_mask)
    print(
        f"\npredicate load <= {threshold}: "
        f"{int(encoded_mask.sum())} of {stream.size} rows match"
    )
    print(
        f"BUFF scan on encoded sub-columns: {encoded_time * 1e3:8.2f} ms\n"
        f"decompress-then-scan:             {decode_time * 1e3:8.2f} ms\n"
        f"speedup from skipping the decode: {decode_time / encoded_time:6.1f}x"
    )

    value = stream[1234]
    eq_mask = buff.scan_equal(blob, float(value), stream.dtype)
    print(f"point lookup x == {value}: {int(eq_mask.sum())} matches "
          "(evaluated byte-plane by byte-plane)")


if __name__ == "__main__":
    main()
