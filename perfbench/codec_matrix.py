"""codec-matrix: every registered codec plus ``auto`` on one dataset per
paper domain, encoded and decoded in process at the serving chunk.

A cell is one codec on one dataset, with three arrays of the dataset
that its round trips take in turn: some codecs' speed depends on the
data (spdp's encode of one tpcH-order array or another took 0.6 to
7 ms), and a median over three arrays moves less with the seed than one
array does.  Every cell makes one ``compress_array`` +
``decompress_array`` round trip per pass, over three passes, and the
cell that has spent the least time so far makes the next extra one.
Extra round trips are interleaved with the passes, taking a quarter of
their time, and continue after them until the time is up.  Slow codecs
thus get three samples and fast ones many, spread over the whole run.

The host's speed changes from second to second with what else runs on
it, and whole runs take its typical speed with them: in eight runs in a
row on a 2-vCPU guest, a fixed kernel's median time per run ranged from
1.08 to 1.61 ms, and encode_mbs spread by 25% (interquartile range over
median).  So every encode and decode time is scaled to a reference host
speed.  The fixed kernel of ``common.reference_s``, which calls no
code of the program, runs before a round trip when its last reading is
older than a tenth of a second, and after any longer call; each time is
multiplied by ``REFERENCE_S`` over the median of the two readings
before it and the two after.  The same eight runs' scaled encode_mbs
spread by 8%.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from common import (
    CHUNK,
    MB,
    REFERENCE_EVERY_S,
    ROOT,
    Gate,
    HostClock,
    check_oracle,
    child_env,
    geomean,
    hd_quantile,
    make_arrays,
    median,
    metric,
    reference_context,
    same_bits,
)

#: One dataset per paper domain: HPC, TS, OBS, DB.
DATASETS = ("num-brain", "citytemp", "hst-wfc3-ir", "tpcH-order")
AUTO = "auto"
#: Extra round trips take this share of the passes' time while they run.
INTERLEAVE = 0.25
#: Whole passes over the cells per run, so each cell's median draws on
#: samples ~20 s apart.  Over ten seeds, one pass left latency_p50_ms
#: with a 22% interquartile spread and two passes 15%; in a noisier
#: hour, two passes left 18-24% on every throughput and latency.
PASSES = 3
#: Arrays per dataset; a cell's round trips take them in turn.
ARRAYS = 3
#: Elements of the arrays a set-up makes its first codec calls on.
WARM_ELEMENTS = 256


@dataclass
class Cell:
    codec: str
    dataset: str
    arrays: list
    #: The stream of each array's first round trip, by array index.
    blobs: dict = field(default_factory=dict)
    # Wall seconds of each call, its (start, end), and its HostClock scale.
    encode_s: list = field(default_factory=list)
    decode_s: list = field(default_factory=list)
    encode_at: list = field(default_factory=list)
    decode_at: list = field(default_factory=list)
    encode_k: list = field(default_factory=list)
    decode_k: list = field(default_factory=list)
    # Filled only while a CodecClock is running (traced runs).
    codec_encode_s: list = field(default_factory=list)
    codec_decode_s: list = field(default_factory=list)
    api_encode_ms: list = field(default_factory=list)
    api_decode_ms: list = field(default_factory=list)

    @property
    def array(self) -> np.ndarray:
        return self.arrays[0]

    @property
    def blob(self) -> bytes:
        return self.blobs.get(0, b"")

    @property
    def raw_bytes(self) -> int:
        """Bytes of one array; every array of a cell has the same shape."""
        return self.array.nbytes

    def encode_ref_s(self) -> float:
        """Median encode seconds at the reference host speed."""
        return median([s * k for s, k in zip(self.encode_s, self.encode_k)])

    def decode_ref_s(self) -> float:
        return median([s * k for s, k in zip(self.decode_s, self.decode_k)])

    def round_trip_s(self) -> float:
        return self.encode_ref_s() + self.decode_ref_s()


class CodecClock:
    """Times the codec calls made inside ``compress_array``/``decompress_array``.

    Wraps the frame payload coders the API session calls, so the time of
    one API call splits into codec time and framing/session overhead.
    """

    def __init__(self) -> None:
        import repro.api.session as session

        self._session = session
        self._saved = (session.encode_payload, session.decode_payload)
        self.encode_s = 0.0
        self.decode_s = 0.0

    def __enter__(self) -> "CodecClock":
        encode, decode = self._saved

        def timed_encode(*args, **kwargs):
            start = time.perf_counter()
            try:
                return encode(*args, **kwargs)
            finally:
                self.encode_s += time.perf_counter() - start

        def timed_decode(*args, **kwargs):
            start = time.perf_counter()
            try:
                return decode(*args, **kwargs)
            finally:
                self.decode_s += time.perf_counter() - start

        self._session.encode_payload = timed_encode
        self._session.decode_payload = timed_decode
        return self

    def __exit__(self, *exc) -> None:
        self._session.encode_payload, self._session.decode_payload = self._saved


def build_cells(arrays, codecs) -> list[Cell]:
    """One cell per codec and dataset, holding every array of the dataset."""
    by_dataset = defaultdict(list)
    for name, array in arrays:
        by_dataset[name].append(array)
    return [
        Cell(codec, name, group) for codec in codecs
        for name, group in by_dataset.items()
    ]


def _round_trip(cell: Cell, gate: Gate, clock: CodecClock | None,
                host: HostClock) -> float:
    """One timed encode + decode of a cell; checks and reference readings
    run outside the timing.

    Returns when the timed part ended.
    """
    import repro

    try:
        if clock is not None:
            clock.encode_s = clock.decode_s = 0.0
        index = len(cell.encode_s) % len(cell.arrays)
        array = cell.arrays[index]
        host.read_if_due()
        t0 = time.perf_counter()
        blob = repro.compress_array(array, cell.codec, chunk_elements=CHUNK)
        t1 = time.perf_counter()
        if t1 - t0 > REFERENCE_EVERY_S:
            host.read()
        t2 = time.perf_counter()
        out = repro.decompress_array(blob)
        t3 = time.perf_counter()
        if t3 - t2 > REFERENCE_EVERY_S:
            host.read()
    except Exception as exc:  # noqa: BLE001 - any failure is a failed op
        gate.op(False, f"{cell.codec}/{cell.dataset}: {exc!r}")
        return time.perf_counter()
    if index not in cell.blobs:
        cell.blobs[index] = blob
        check_oracle(gate, cell.codec, array, blob)
    gate.op(blob == cell.blobs[index], f"{cell.codec}/{cell.dataset}: stream changed")
    gate.op(same_bits(out, array), f"{cell.codec}/{cell.dataset}: decode differs")
    cell.encode_s.append(t1 - t0)
    cell.decode_s.append(t3 - t2)
    cell.encode_at.append((t0, t1))
    cell.decode_at.append((t2, t3))
    if clock is not None:
        cell.codec_encode_s.append(clock.encode_s)
        cell.codec_decode_s.append(clock.decode_s)
        cell.api_encode_ms.append((t1 - t0 - clock.encode_s) * 1e3)
        cell.api_decode_ms.append((t3 - t2 - clock.decode_s) * 1e3)
    return t3


def run_cells(cells, seconds: float, gate: Gate, clocked: bool = False,
              passes: int = 1) -> dict:
    """``passes`` passes over every cell, interleaved with least-time-first
    extra round trips, which continue until ``seconds`` pass.

    Traced runs are ``clocked``: each round trip runs under a
    :class:`CodecClock`.  Returns the generator's gaps between timed
    operations and the reference kernel's readings.
    """
    host = HostClock()
    start = time.perf_counter()
    first = deque(list(range(len(cells))) * passes)
    spent = [0.0] * len(cells)
    visited = set()
    first_s = extra_s = 0.0
    gaps = []
    last_end = None
    while first or time.perf_counter() - start < seconds:
        in_pass = bool(first) and (not visited or extra_s >= INTERLEAVE * first_s)
        i = first.popleft() if in_pass else min(visited, key=spent.__getitem__)
        step = time.perf_counter()
        if last_end is not None:
            gaps.append(step - last_end)
        with CodecClock() if clocked else contextlib.nullcontext() as clock:
            last_end = _round_trip(cells[i], gate, clock, host)
        took = time.perf_counter() - step
        spent[i] += took
        visited.add(i)
        if in_pass:
            first_s += took
        else:
            extra_s += took
    host.read()
    for cell in cells:
        cell.encode_k += [host.scale(*at) for at in cell.encode_at[len(cell.encode_k):]]
        cell.decode_k += [host.scale(*at) for at in cell.decode_at[len(cell.decode_k):]]
    return {"gaps_s": gaps, "reference_s": host.seconds}


def end_to_end(cells) -> dict:
    """Times are at the reference host speed.  Throughputs are geomeans
    over cells, so each codec counts equally (a plain sum would be ~80%
    dzip).  Latencies are Harrell-Davis quantiles over the codecs of each
    codec's round trip (geomean over the four domains): a quantile over
    64 unlike cells jumped by ~20% between runs as neighbours reordered,
    one over 16 codecs by ~10%."""
    measured = [c for c in cells if c.encode_s]
    raw = sum(c.raw_bytes for c in measured)
    stored = [len(b) for c in measured for b in c.blobs.values()]
    stored_raw = sum(c.raw_bytes * len(c.blobs) for c in measured)
    per_codec = defaultdict(list)
    for c in measured:
        per_codec[c.codec].append(c.round_trip_s() * 1e3)
    codec_ms = [geomean(v) for v in per_codec.values()]
    return {
        "encode_mbs": metric(
            geomean([c.raw_bytes / MB / c.encode_ref_s() for c in measured]),
            "MB/s",
        ),
        "decode_mbs": metric(
            geomean([c.raw_bytes / MB / c.decode_ref_s() for c in measured]),
            "MB/s",
        ),
        "compression_ratio": metric(stored_raw / sum(stored), "x"),
        "ops_s": metric(geomean([2 / c.round_trip_s() for c in measured]), "1/s"),
        "latency_p50_ms": metric(hd_quantile(codec_ms, 0.50), "ms"),
        "latency_p95_ms": metric(hd_quantile(codec_ms, 0.95), "ms"),
        "bulk_mbs": metric(
            2 * raw / MB / sum(c.round_trip_s() for c in measured), "MB/s"
        ),
    }


def _setup_once(seed: int) -> float:
    """Seconds for a fresh interpreter to import the library, generate the
    inputs and make the first encode + decode call of every codec."""
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import codec_matrix as m\n"
        "m.first_calls(int(sys.argv[3]))\n"
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(seed)],
        check=True, cwd=ROOT, env=child_env(),
    )
    return time.perf_counter() - start


def first_calls(seed: int) -> None:
    import repro

    arrays = make_arrays(seed, DATASETS, 1)
    for codec in [*repro.compressor_names(), AUTO]:
        for _, array in arrays:
            part = array.ravel()[:WARM_ELEMENTS]
            repro.decompress_array(repro.compress_array(part, codec))


def setup(seed: int, times: int = 3) -> tuple[list, float]:
    """Median of ``times`` cold set-ups, then the same set-up in process."""
    seconds = median([_setup_once(seed) for _ in range(times)])
    first_calls(seed)
    return make_arrays(seed, DATASETS, ARRAYS), seconds


def codecs() -> list[str]:
    import repro

    return [*repro.compressor_names(), AUTO]


def run(seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    arrays, setup_s = setup(seed)
    cells = build_cells(arrays, codecs())
    loop = run_cells(cells, seconds, gate, passes=PASSES)
    metrics = {"setup_s": metric(setup_s, "s"), **end_to_end(cells)}
    return metrics, {"elements": {n: int(a.size) for n, a in arrays},
                     **reference_context(loop["reference_s"])}
