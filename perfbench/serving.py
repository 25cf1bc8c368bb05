"""serve-light and serve-mixed: load against an ``fcbench serve``
subprocess through ``repro.connect``, from this one process.

serve-light is one connection in a closed loop.  serve-mixed runs two
tenants on two connections: ``interactive`` sends the serve-light mix
in an open loop at a fixed rate, timed from when each request was due,
while ``bulk`` compresses a fixed amount of work with the online bandit.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

import numpy as np

from common import (
    CHUNK,
    LIGHT_CODECS,
    LIGHT_DATASETS,
    MB,
    OUT_DIR,
    Gate,
    HostClock,
    Server,
    check_oracle,
    dataset_seeds,
    geomean,
    make_arrays,
    median,
    metric,
    percentile,
    quartiles,
    reference_context,
    same_bits,
    spawn_median,
)

#: Arrays per serve-light dataset; requests draw from these.
LIGHT_ARRAYS = 4
#: serve-light reports rates and p95 as medians over windows this long.
LIGHT_WINDOW_S = 2.0
#: serve-mixed reports interactive p95 as a median over windows this long.
MIXED_WINDOW_S = 5.0
#: Alternating untraced/traced blocks in a traced serve-light run.
BLOCK_S = 1.0
#: Ring size of traced servers and clients, so no span is dropped.
TRACE_CAPACITY = 1 << 17
#: serve-mixed: the interactive tenant's fixed request rate.
INTERACTIVE_RATE = 25.0
#: serve-mixed: the regimes the bulk tenant's arrays cycle through.
BULK_REGIMES = ("hdr-night", "spitzer-irac", "tpcxBB-store", "citytemp")
#: serve-mixed: bulk arrays per second of ``--seconds``: 64 arrays, or 16
#: cycles through the regimes, at ``--seconds 15``.  With 48, bulk_mbs
#: spread by 15-21% over ten seeds, as one dzip pull more or less moved
#: it by ~15%.
BULK_PER_SECOND = 64 / 15
TOKENS = {"interactive": "perfbench-interactive", "bulk": "perfbench-bulk"}


class LightMix:
    """The serve-light request mix, with local reference streams.

    Every fixed-codec stream the server returns must equal the local
    ``repro.compress_array`` stream of the same array; the references
    are made once, before anything is timed.
    """

    def __init__(self, seed: int, gate: Gate) -> None:
        import repro

        self.arrays = make_arrays(seed, LIGHT_DATASETS, LIGHT_ARRAYS)
        self.combos = [
            (i, codec) for i in range(len(self.arrays)) for codec in LIGHT_CODECS
        ]
        self.refs = {}
        for i, codec in self.combos:
            array = self.arrays[i][1]
            blob = repro.compress_array(array, codec, chunk_elements=CHUNK)
            check_oracle(gate, codec, array, blob)
            self.refs[(i, codec)] = blob
        self.rng = np.random.default_rng([seed, 11])

    def next(self) -> tuple[int, str]:
        return self.combos[int(self.rng.integers(len(self.combos)))]


class Tally:
    """Per-request records of one client's traffic."""

    def __init__(self) -> None:
        self.latency_ms = []
        self.service_ms = []  # from send to reply, for matching spans
        #: How late the generator sent: after the due time (open loop),
        #: or after the previous reply (closed loop).
        self.late_ms = []
        self.by_cell = defaultdict(list)  # (op, codec, dataset) -> seconds
        self.cell_bytes = {}  # (op, codec, dataset) -> raw bytes per request
        self.raw = 0
        self.stored = 0
        self.done_s = []  # perf_counter() when each reply arrived
        self.moved_bytes = []

    def add(self, op, codec, dataset, seconds, raw, done, late_s=0.0) -> None:
        self.done_s.append(done)
        self.moved_bytes.append(raw)
        self.latency_ms.append(seconds * 1e3)
        self.service_ms.append((seconds - late_s) * 1e3)
        self.by_cell[(op, codec, dataset)].append(seconds)
        self.cell_bytes[(op, codec, dataset)] = raw


def light_pair(client, mix: LightMix, gate: Gate, tally: Tally, due=None) -> float:
    """One compress + decompress request pair of the serve-light mix.

    ``due`` (open loop) is when the compress was due; the decompress is
    due when its compress returns.  Returns when the last reply arrived.
    """
    i, codec = mix.next()
    dataset, array = mix.arrays[i]
    sent = time.perf_counter()
    start = sent if due is None else due
    try:
        blob = client.compress_array(array, codec, chunk_elements=CHUNK)
        mid = time.perf_counter()
        out = client.decompress_array(blob)
        end = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - any failure is a failed op
        gate.op(False, f"serve {codec}/{dataset}: {exc!r}")
        return time.perf_counter()
    if due is not None:
        tally.late_ms.append((sent - due) * 1e3)
    tally.add("compress", codec, dataset, mid - start, array.nbytes, mid, sent - start)
    tally.add("decompress", codec, dataset, end - mid, array.nbytes, end)
    tally.raw += array.nbytes
    tally.stored += len(blob)
    gate.op(blob == mix.refs[(i, codec)], f"served {codec}/{dataset} != local")
    gate.op(same_bits(out, array), f"served {codec}/{dataset}: decode differs")
    return end


def closed_loop(client, mix, gate, tally, seconds: float) -> float:
    """Pairs back to back for ``seconds``; returns the wall seconds."""
    start = time.perf_counter()
    last = None
    while time.perf_counter() - start < seconds:
        if last is not None:
            tally.late_ms.append((time.perf_counter() - last) * 1e3)
        last = light_pair(client, mix, gate, tally)
    return time.perf_counter() - start


def served_rate(tally: Tally, op: str) -> float:
    """Geomean over (codec, dataset) cells of raw MB per median request second."""
    return geomean([
        tally.cell_bytes[key] / MB / median(seconds)
        for key, seconds in tally.by_cell.items()
        if key[0] == op
    ])


def windows(tally: Tally, start: float, window_s: float) -> list[list[int]]:
    """Request indices per whole ``window_s`` window from ``start``."""
    groups = defaultdict(list)
    for i, done in enumerate(tally.done_s):
        groups[int((done - start) // window_s)].append(i)
    whole = int((max(tally.done_s) - start) // window_s)
    return [groups[w] for w in range(whole) if groups[w]] or [list(groups[0])]


def windowed_p95(tally: Tally, groups) -> float:
    """Median over windows of each window's p95 latency: a burst of host
    noise moves one window, not the run's figure."""
    return median([percentile([tally.latency_ms[i] for i in g], 95) for g in groups])


def window_rate(tally: Tally, group: list[int], values) -> float:
    """Sum of ``values`` over a window's requests after its first reply,
    per second between its first and last replies."""
    span = tally.done_s[group[-1]] - tally.done_s[group[0]]
    return sum(values[i] for i in group[1:]) / span


def served_metrics(tally: Tally, start: float) -> dict:
    """Rates and p95 are medians over 2 s windows, p50 is per request."""
    groups = [g for g in windows(tally, start, LIGHT_WINDOW_S) if len(g) > 1]
    ones = [1] * len(tally.done_s)
    return {
        "ops_s": metric(median([window_rate(tally, g, ones) for g in groups]), "1/s"),
        "latency_p50_ms": metric(percentile(tally.latency_ms, 50), "ms"),
        "latency_p95_ms": metric(windowed_p95(tally, groups), "ms"),
        "encode_mbs": metric(served_rate(tally, "compress"), "MB/s"),
        "decode_mbs": metric(served_rate(tally, "decompress"), "MB/s"),
        "compression_ratio": metric(tally.raw / tally.stored, "x"),
        "bulk_mbs": metric(median(
            [window_rate(tally, g, tally.moved_bytes) for g in groups]) / MB, "MB/s"),
    }


# ----------------------------------------------------------------------
# serve-light
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> None:
    """Run the load generator (this process) on one CPU.

    Servers are spawned with the mask this process started with, so a
    server's threads and worker processes may use every CPU.  On a
    2-vCPU guest, with nothing pinned, whole serve-light runs dropped at
    times from ~240 to ~150 ops/s, likely from wake-ups of the client's
    threads on the other virtual CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_light(seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    import repro

    pin_to_one_cpu()
    mix = LightMix(seed, gate)
    server, setup_s = spawn_median(())
    with server, repro.connect(server.address) as client:
        tally = Tally()
        start = time.perf_counter()
        closed_loop(client, mix, gate, tally, seconds)
    metrics = {"setup_s": metric(setup_s, "s"), **served_metrics(tally, start)}
    return metrics, {"elements": {n: int(a.size) for n, a in mix.arrays},
                     "server_cpus": server.cpus}


def traced_light(mix, gate, seconds: float) -> dict:
    """Alternate 1 s blocks against an untraced and a traced server.

    Gives the tracing overhead (ops/s medians of the two sides), the
    untraced server's counters, and the traced server's per-request
    stage breakdown matched to the client's timings.
    """
    import repro
    from repro.obs import SpanRecorder

    import layers

    pin_to_one_cpu()
    plain = Server()
    traced = Server("--trace", "--trace-capacity", str(TRACE_CAPACITY))
    recorder = SpanRecorder(capacity=TRACE_CAPACITY)
    with plain, traced, repro.connect(plain.address) as a, \
            repro.connect(traced.address, trace=recorder) as b:
        rates = {"plain": [], "traced": []}
        tallies = {"plain": Tally(), "traced": Tally()}
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for side, client in (("plain", a), ("traced", b)):
                tally = tallies[side]
                before = len(tally.latency_ms)
                wall = closed_loop(client, mix, gate, tally, BLOCK_S)
                rates[side].append((len(tally.latency_ms) - before) / wall)
        counters = layers.counters(a.stats())
        trace_stats = b.stats()["tracing"]
        spans = b.trace()["spans"]
    out = layers.span_layers(
        spans, [(recorder.snapshot(), tallies["traced"].service_ms)])
    shares = [100.0 * (1 - t / p) for p, t in zip(rates["plain"], rates["traced"])]
    q1, _, q3 = quartiles(shares)
    out.update(counters)
    out.update({
        "obs.tracing_overhead_pct":
            100.0 * (1 - median(rates["traced"]) / median(rates["plain"])),
        "obs.tracing_overhead_iqr_pct": q3 - q1,
        "obs.spans_dropped": trace_stats["dropped"] + recorder.stats()["dropped"],
        "loadgen.late_p95_ms": percentile(tallies["plain"].late_ms, 95),
    })
    return out


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def bulk_arrays(seed: int, seconds: float) -> list[tuple[str, np.ndarray]]:
    """A fixed amount of bulk work: whole cycles through the regimes."""
    from repro.data import load

    cycles = max(1, round(seconds * BULK_PER_SECOND / len(BULK_REGIMES)))
    seeds = {r: dataset_seeds(seed, "bulk-" + r, cycles) for r in BULK_REGIMES}
    return [
        (regime, np.ascontiguousarray(load(regime, CHUNK, seeds[regime][k])))
        for k in range(cycles) for regime in BULK_REGIMES
    ]


def tenants_file() -> str:
    from repro.service.tenants import TenantConfig, TenantRegistry

    registry = TenantRegistry([
        TenantConfig("interactive", TOKENS["interactive"], priority=5,
                     max_requests_per_window=10 ** 9),
        TenantConfig("bulk", TOKENS["bulk"], priority=0,
                     max_bytes_per_window=1 << 40),
    ])
    path = OUT_DIR / "tenants.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    registry.save(path)
    return str(path)


class Mixed:
    """One serve-mixed pass: bulk work beside the interactive open loop."""

    def __init__(self, seed: int, seconds: float, gate: Gate) -> None:
        self.mix = LightMix(seed, gate)
        self.bulk = bulk_arrays(seed, seconds)
        self.gate = gate

    def run(self, address: str, trace=False) -> dict:
        """Returns the tallies, bulk facts and the traced clients' runs."""
        import repro
        from repro.obs import SpanRecorder

        rec_i = SpanRecorder(capacity=TRACE_CAPACITY) if trace else False
        rec_b = SpanRecorder(capacity=TRACE_CAPACITY) if trace else False
        interactive, bulk = Tally(), Tally()
        host = HostClock()
        done = threading.Event()
        with repro.connect(address, token=TOKENS["interactive"], trace=rec_i) as ci, \
                repro.connect(address, token=TOKENS["bulk"], trace=rec_b) as cb:
            worker = threading.Thread(
                target=self._interactive, args=(ci, interactive, done))
            start = time.perf_counter()
            worker.start()
            try:
                with host.sampling():
                    self._bulk(cb, bulk)
            finally:
                done.set()
                worker.join()
            wall = time.perf_counter() - start
            stats = ci.stats()
            spans = ci.trace()["spans"] if trace else []
        runs = []
        if trace:
            # Only the compress + decompress pairs are timed requests.
            runs = [(rec_i.snapshot(), interactive.service_ms),
                    (rec_b.snapshot(), bulk.service_ms)]
        return {"interactive": interactive, "bulk": bulk, "wall_s": wall,
                "start": start, "host": host,
                "stats": stats, "spans": spans, "client_runs": runs,
                "dropped": (rec_i.stats()["dropped"] + rec_b.stats()["dropped"]
                            if trace else 0)}

    def _interactive(self, client, tally: Tally, done: threading.Event) -> None:
        period = 2.0 / INTERACTIVE_RATE  # each pair is two requests
        start = time.perf_counter()
        k = 0
        while not done.is_set():
            due = start + k * period
            wait = due - time.perf_counter()
            if wait > 0:
                done.wait(wait)
                if done.is_set():
                    break
            light_pair(client, self.mix, self.gate, tally, due=due)
            k += 1

    def _bulk(self, client, tally: Tally) -> None:
        for regime, array in self.bulk:
            try:
                t0 = time.perf_counter()
                blob = client.compress_array(
                    array, "auto", chunk_elements=CHUNK, policy="online")
                t1 = time.perf_counter()
                out = client.decompress_array(blob)
                t2 = time.perf_counter()
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                self.gate.op(False, f"bulk {regime}: {exc!r}")
                continue
            self.gate.op(True, "bulk compress")
            self.gate.op(same_bits(out, array), f"bulk {regime}: decode differs")
            tally.add("compress", "auto", regime, t1 - t0, array.nbytes, t1)
            tally.add("decompress", "auto", regime, t2 - t1, array.nbytes, t2)
            tally.raw += array.nbytes
            tally.stored += len(blob)


def scaled_seconds(tally: Tally, host: HostClock) -> list[float]:
    """Each request's seconds at the reference host speed."""
    return [ms / 1e3 * host.scale(done - ms / 1e3, done)
            for ms, done in zip(tally.latency_ms, tally.done_s)]


def mixed_metrics(result: dict) -> dict:
    """``bulk_mbs`` is over the bulk requests' seconds at the reference
    host speed: the server's bulk work is mostly dzip, whose speed moves
    with the host's more than any other figure here."""
    inter, bulk, wall = result["interactive"], result["bulk"], result["wall_s"]
    return {
        "latency_p50_ms": metric(percentile(inter.latency_ms, 50), "ms"),
        "latency_p95_ms": metric(windowed_p95(
            inter, windows(inter, result["start"], MIXED_WINDOW_S)), "ms"),
        "ops_s": metric(
            (len(inter.latency_ms) + len(bulk.latency_ms)) / wall, "1/s"),
        "encode_mbs": metric(served_rate(inter, "compress"), "MB/s"),
        "decode_mbs": metric(served_rate(inter, "decompress"), "MB/s"),
        "compression_ratio": metric(bulk.raw / bulk.stored, "x"),
        "bulk_mbs": metric(sum(bulk.moved_bytes) / MB
                           / sum(scaled_seconds(bulk, result["host"])), "MB/s"),
    }


def run_mixed(seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    pin_to_one_cpu()
    mixed = Mixed(seed, seconds, gate)
    server, setup_s = spawn_median(("--tenants", tenants_file()),
                                   token=TOKENS["interactive"])
    with server:
        result = mixed.run(server.address)
    import layers

    metrics = {"setup_s": metric(setup_s, "s"), **mixed_metrics(result)}
    pulls = layers.pulls_from(result["stats"].get("online", {}))
    return metrics, {**mixed_context(mixed), "server_cpus": server.cpus,
                     "bulk_pulls": dict(pulls),
                     **reference_context(result["host"].seconds)}


def mixed_context(mixed: Mixed) -> dict:
    elements = {n: int(a.size) for n, a in mixed.mix.arrays}
    elements.update({n: int(a.size) for n, a in mixed.bulk})
    return {"elements": elements, "bulk_arrays": len(mixed.bulk)}


def traced_mixed(mixed: Mixed) -> dict:
    """Per-layer values from an untraced pass then a traced pass, each on
    a fresh server."""
    import layers

    pin_to_one_cpu()
    tenants = tenants_file()
    with Server("--tenants", tenants, token=TOKENS["interactive"]) as server:
        plain = mixed.run(server.address)
    with Server("--tenants", tenants, "--trace", "--trace-capacity",
                str(TRACE_CAPACITY), token=TOKENS["interactive"]) as server:
        traced = mixed.run(server.address, trace=True)
    out = layers.span_layers(traced["spans"], traced["client_runs"])
    out.update(layers.counters(plain["stats"]))
    pulls = layers.pulls_from(plain["stats"].get("online", {}))
    for arm in layers.SELECT_ARMS:
        out[f"select.online_pulls.{arm}"] = pulls[arm]
    out.update({
        "obs.spans_dropped":
            traced["stats"]["tracing"]["dropped"] + traced["dropped"],
        "loadgen.late_p95_ms": percentile(plain["interactive"].late_ms, 95),
    })
    return out
