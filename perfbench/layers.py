"""Per-layer metrics for traced runs, each measured from outside the
program: by timing calls into a layer's public functions from these
files, from the server's ``stats()`` counters, and from the spans a
``fcbench serve --trace`` server records, read back through ``trace()``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from common import CHUNK, MB, median, metric, percentile

#: Server stages whose self times make up a served request.
STAGES = ("parse", "deadline", "gate", "queue_wait", "execute", "request_self")
#: The heuristic policy's candidates, which are also the bandit's arms.
SELECT_ARMS = ("bitshuffle-zstd", "dzip", "buff", "fpzip")
COUNTERS = (
    "service.batch_mean_size",
    "service.shed_requests",
    "service.deadline_expired",
    "service.protocol_errors",
    "tenants.quota_rejected",
)
#: From alternating untraced/traced serve-light blocks on every workload.
TRACING_OVERHEAD = ("obs.tracing_overhead_pct", "obs.tracing_overhead_iqr_pct")


def names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    import repro

    out = []
    for codec in repro.compressor_names():
        out += [(f"compressors.{codec}.encode_mbs", "MB/s"),
                (f"compressors.{codec}.decode_mbs", "MB/s")]
    out += [("api.encode_overhead_ms", "ms"), ("api.decode_overhead_ms", "ms"),
            ("select.features_ms", "ms"), ("select.heuristic_choose_ms", "ms")]
    out += [(f"select.auto_chunks.{arm}", "count") for arm in SELECT_ARMS]
    out += [(f"select.online_pulls.{arm}", "count") for arm in SELECT_ARMS]
    out += [("select.online_choose_ms", "ms"), ("select.online_observe_ms", "ms"),
            ("client.encode_request_ms", "ms"), ("client.decode_response_ms", "ms"),
            ("client.outside_server_ms", "ms"), ("client.latency_p50_ms", "ms")]
    for stage in STAGES:
        out += [(f"service.{stage}_p50_ms", "ms"), (f"service.{stage}_p95_ms", "ms")]
    out += [("tenants.auth_p50_ms", "ms"), ("tenants.quota_p50_ms", "ms")]
    out += [(name, "count") for name in COUNTERS]
    out += [("obs.tracing_overhead_pct", "%"), ("obs.tracing_overhead_iqr_pct", "%"),
            ("obs.spans_dropped", "count"), ("obs.breakdown_coverage", "x"),
            ("loadgen.late_p95_ms", "ms")]
    return out


def finish(values: dict) -> dict:
    """Attach units; every per-layer metric must have been measured."""
    missing = [name for name, _ in names() if name not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return {name: metric(values[name], unit) for name, unit in names()}


def _timed(fn, *args, repeat: int = 1) -> tuple[float, object]:
    """Median milliseconds of ``repeat`` calls, and the last result."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples), result


# ----------------------------------------------------------------------
# In-process layers: compressors, api, select, client wire encoding
# ----------------------------------------------------------------------
def _scaled(samples, scales) -> list:
    """Times at the reference host speed (see ``common.HostClock``)."""
    return [s * k for s, k in zip(samples, scales)]


def codec_layers(cells) -> dict:
    """compressors.* and api.* from the clocked slices of a cell loop, at
    the reference host speed like codec-matrix's end-to-end times."""
    out = {}
    per_codec = defaultdict(list)
    for cell in cells:
        if cell.codec_encode_s and cell.codec != "auto":
            per_codec[cell.codec].append(cell)
    for codec, group in per_codec.items():
        raw = sum(c.raw_bytes for c in group) / MB
        out[f"compressors.{codec}.encode_mbs"] = raw / sum(
            median(_scaled(c.codec_encode_s, c.encode_k)) for c in group)
        out[f"compressors.{codec}.decode_mbs"] = raw / sum(
            median(_scaled(c.codec_decode_s, c.decode_k)) for c in group)
    fixed = [c for c in cells if c.codec != "auto" and c.api_encode_ms]
    out["api.encode_overhead_ms"] = median(
        [v for c in fixed for v in _scaled(c.api_encode_ms, c.encode_k)])
    out["api.decode_overhead_ms"] = median(
        [v for c in fixed for v in _scaled(c.api_decode_ms, c.decode_k)])
    return out


def select_layers(arrays, cells, repeat: int = 5) -> dict:
    """Heuristic features/choice per chunk, and the bandit driven in process.

    The bandit is fed the bytes and seconds the cell loop measured for
    the arm it chose, so its choices follow real outcomes.
    """
    import repro.select.policy as policy_module
    from repro.select.online import OnlineSelectorHub
    from repro.select.policy import resolve_policy

    heuristic = resolve_policy("heuristic")
    features_fn = policy_module.extract_features
    spent = [0.0]

    def timed_features(*args, **kwargs):
        start = time.perf_counter()
        try:
            return features_fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - start

    features_ms, choose_ms, picks = [], [], Counter()
    policy_module.extract_features = timed_features
    try:
        for _, array in arrays:
            for _ in range(repeat):
                spent[0] = 0.0
                start = time.perf_counter()
                choice = heuristic.select(array)
                total = time.perf_counter() - start
                features_ms.append(spent[0] * 1e3)
                choose_ms.append((total - spent[0]) * 1e3)
            picks[choice] += 1
    finally:
        policy_module.extract_features = features_fn

    outcome = {(c.codec, c.dataset): c for c in cells if c.blob}
    hub = OnlineSelectorHub(seed=0)
    decide_ms, observe_ms = [], []
    for _ in range(repeat):
        for name, array in arrays:
            ms, (codec, bucket) = _timed(hub.decide, "perfbench", array)
            decide_ms.append(ms)
            cell = outcome[(codec, name)]
            ms, _ = _timed(hub.observe, "perfbench", bucket, codec,
                           cell.raw_bytes, len(cell.blob),
                           median(cell.encode_s))
            observe_ms.append(ms)
    pulls = pulls_from(hub.snapshot())
    out = {"select.features_ms": median(features_ms),
           "select.heuristic_choose_ms": median(choose_ms),
           "select.online_choose_ms": median(decide_ms),
           "select.online_observe_ms": median(observe_ms)}
    for arm in SELECT_ARMS:
        out[f"select.auto_chunks.{arm}"] = picks[arm]
        out[f"select.online_pulls.{arm}"] = pulls[arm]
    return out


def pulls_from(online: dict) -> Counter:
    """Summed arm pulls over every tenant and bucket of a hub snapshot."""
    pulls = Counter()
    for tenant in online.get("tenants", {}).values():
        for bucket in tenant["buckets"].values():
            for arm, stats in bucket["arms"].items():
                pulls[arm] += stats["pulls"]
    return pulls


def wire_layers(arrays, codec: str = "mpc", repeat: int = 20) -> dict:
    """The client's request encoding and response decoding, per request."""
    from repro.service import protocol

    encode_ms, decode_ms = [], []
    for _, array in arrays:
        ms, _ = _timed(protocol.encode_compress_request, array, codec, CHUNK,
                       "heuristic", repeat=repeat)
        encode_ms.append(ms)
        reply = protocol.encode_array(array)
        ms, _ = _timed(protocol.decode_array, reply, repeat=repeat)
        decode_ms.append(ms)
    return {"client.encode_request_ms": median(encode_ms),
            "client.decode_response_ms": median(decode_ms)}


def tenant_layers(repeat: int = 200) -> dict:
    """Token auth and quota accounting timed on a registry in process."""
    from repro.service.tenants import TenantConfig, TenantRegistry

    registry = TenantRegistry([
        TenantConfig("interactive", "perfbench-interactive", priority=5,
                     max_requests_per_window=10 ** 9),
        TenantConfig("bulk", "perfbench-bulk"),
    ])
    auth, _ = _timed(registry.authenticate, "perfbench-interactive", repeat=repeat)
    quota, _ = _timed(registry.check_quota, "interactive", CHUNK * 8, repeat=repeat)
    return {"tenants.auth_p50_ms": auth, "tenants.quota_p50_ms": quota}


# ----------------------------------------------------------------------
# Server layers: counters from stats(), stages from spans
# ----------------------------------------------------------------------
def counters(stats: dict) -> dict:
    admission = stats["admission"]
    return {
        "service.batch_mean_size": stats["batches"]["mean_size"],
        "service.shed_requests": admission["shed_requests"],
        "service.deadline_expired": admission["deadline_expired"],
        "service.protocol_errors": stats["protocol_errors"],
        "tenants.quota_rejected": admission["quota_rejected"],
    }


def _self_ms(span: dict, children: list[dict]) -> float:
    """A span's duration minus the part its children's intervals cover."""
    begin = span["start"]
    end = begin + span["duration_ms"] / 1e3
    covered, cursor = 0.0, begin
    for lo, hi in sorted(
        (c["start"], c["start"] + c["duration_ms"] / 1e3) for c in children
    ):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span["duration_ms"] - covered * 1e3


def span_layers(server_spans, client_runs) -> dict:
    """Stage self times per served request, matched to client latencies.

    ``client_runs`` holds, per traced client, its recorder's span list
    and the latencies (ms) the benchmark timed for that client's calls,
    in call order; the k-th ``client.request`` span is the k-th call.
    """
    by_parent = defaultdict(list)
    requests = {}
    for span in server_spans:
        by_parent[span["parent_id"]].append(span)
        if span["name"] == "server.request":
            requests[span["trace_id"]] = span
    stages = defaultdict(list)
    for request in requests.values():
        children = by_parent[request["span_id"]]
        for child in children:
            stage = child["name"].split(".", 1)[1]
            stages[stage].append(_self_ms(child, by_parent[child["span_id"]]))
        stages["request_self"].append(_self_ms(request, children))
    outside, latencies = [], []
    for spans, timed_ms in client_runs:
        roots = [s for s in spans if s["name"] == "client.request"]
        for root, latency in zip(roots, timed_ms):
            latencies.append(latency)
            if root["trace_id"] in requests:
                outside.append(latency - requests[root["trace_id"]]["duration_ms"])
    out = {}
    for stage in STAGES:
        out[f"service.{stage}_p50_ms"] = percentile(stages[stage], 50)
        out[f"service.{stage}_p95_ms"] = percentile(stages[stage], 95)
    out["client.outside_server_ms"] = percentile(outside, 50)
    out["client.latency_p50_ms"] = percentile(latencies, 50)
    out["obs.breakdown_coverage"] = (
        sum(out[f"service.{s}_p50_ms"] for s in STAGES)
        + out["client.outside_server_ms"]
    ) / out["client.latency_p50_ms"]
    # Spans that only some servers record: tenancy, and the online bandit.
    for stage, key in (("auth", "tenants.auth_p50_ms"),
                       ("quota", "tenants.quota_p50_ms"),
                       ("choose", "select.online_choose_ms"),
                       ("observe", "select.online_observe_ms")):
        if stages[stage]:
            out[key] = percentile(stages[stage], 50)
    return out
