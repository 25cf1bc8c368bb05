"""Service observability: request counters and latency histograms.

The server records every request into a :class:`ServiceMetrics`
instance; a ``stats`` protocol request (and ``fcbench serve
--metrics-json``) serves :meth:`ServiceMetrics.snapshot`, a JSON-ready
dict with per-operation counts, per-codec byte totals, per-tenant
request/byte/rejection counters, and p50/p95/p99 latency estimates.

Snapshot naming contract: admission-control counters (shedding,
deadline and tenant rejections) live under the ``admission`` key.

Latencies go into a fixed log-spaced :class:`LatencyHistogram` rather
than a sample list, so a server that has handled a hundred million
requests still answers ``stats`` in O(buckets) with O(buckets)
memory.  Percentiles are therefore bucket-resolution estimates (upper
bucket bound), which is what serving dashboards want; the load
generator (:mod:`repro.perf.loadgen`) keeps exact client-side samples
when precision matters.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

__all__ = ["LatencyHistogram", "ServiceMetrics"]

#: Histogram bucket upper bounds (seconds): 24 log-spaced buckets from
#: 10 us to ~2000 s, plus a catch-all overflow bucket.
_BUCKET_BOUNDS = tuple(1e-5 * (2.15443469) ** i for i in range(24))


class LatencyHistogram:
    """Fixed-bucket log-scale latency histogram."""

    __slots__ = ("counts", "overflow", "total", "sum_seconds")

    def __init__(self) -> None:
        self.counts = [0] * len(_BUCKET_BOUNDS)
        self.overflow = 0
        self.total = 0
        self.sum_seconds = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative latency {seconds}")
        self.total += 1
        self.sum_seconds += seconds
        for index, bound in enumerate(_BUCKET_BOUNDS):
            if seconds <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q`` quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        seen = 0
        for count, bound in zip(self.counts, _BUCKET_BOUNDS):
            seen += count
            if seen >= rank:
                return bound
        return _BUCKET_BOUNDS[-1]

    @property
    def mean_seconds(self) -> float:
        return self.sum_seconds / self.total if self.total else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.total,
            "mean_ms": self.mean_seconds * 1e3,
            "p50_ms": self.quantile(0.50) * 1e3,
            "p95_ms": self.quantile(0.95) * 1e3,
            "p99_ms": self.quantile(0.99) * 1e3,
        }


class ServiceMetrics:
    """Aggregate counters for one server instance.

    Thread-safe: the server's event loop records, while other threads
    — an embedding's :attr:`ServerHandle.metrics`, the CLI's
    ``--metrics-json`` writer, the supervisor's health loop — may call
    :meth:`snapshot` concurrently.  One lock covers every mutation and
    the whole snapshot, so a snapshot is never torn: each request's
    op counter, codec bytes, and latency sample land atomically, and
    the returned dict deep-copies into plain JSON types — safe to hand
    to another thread or the wire.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.connections_opened = 0
        self.connections_active = 0
        self.protocol_errors = 0
        self.batches = 0
        self.batched_requests = 0
        #: admission-gate sheds (request never queued).
        self.shed_requests = 0
        #: requests rejected at admission because they arrived expired.
        self.deadline_rejected = 0
        #: queued requests discarded because their budget lapsed waiting.
        self.deadline_expired = 0
        #: requests rejected for a missing/unknown tenant token.
        self.auth_rejected = 0
        #: requests rejected because the tenant was over budget.
        self.quota_rejected = 0
        #: per request-op counters: {"compress": {"requests": n, "errors": n}}
        self.ops: dict[str, dict[str, int]] = defaultdict(
            lambda: {"requests": 0, "errors": 0}
        )
        #: per codec-name byte accounting over the compress/decompress ops.
        self.codecs: dict[str, dict[str, int]] = defaultdict(
            lambda: {"requests": 0, "bytes_in": 0, "bytes_out": 0}
        )
        self._latency: dict[str, LatencyHistogram] = defaultdict(LatencyHistogram)
        #: per tenant-id serving counters (admissions, bytes, rejections).
        self.tenants: dict[str, dict[str, int]] = defaultdict(
            lambda: {
                "requests": 0,
                "errors": 0,
                "bytes_in": 0,
                "bytes_out": 0,
                "admitted_requests": 0,
                "admitted_bytes": 0,
                "auth_rejected": 0,
                "quota_rejected": 0,
            }
        )
        self._tenant_latency: dict[str, LatencyHistogram] = defaultdict(
            LatencyHistogram
        )

    # -- recording -----------------------------------------------------
    def connection_opened(self) -> None:
        with self._lock:
            self.connections_opened += 1
            self.connections_active += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_active = max(0, self.connections_active - 1)

    def record_batch(self, n_requests: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += n_requests

    def record_request(
        self,
        op: str,
        seconds: float,
        *,
        ok: bool = True,
        codec: str | None = None,
        bytes_in: int = 0,
        bytes_out: int = 0,
        tenant: str | None = None,
    ) -> None:
        with self._lock:
            entry = self.ops[op]
            entry["requests"] += 1
            if not ok:
                entry["errors"] += 1
            self._latency[op].record(seconds)
            if codec is not None:
                stats = self.codecs[codec]
                stats["requests"] += 1
                stats["bytes_in"] += int(bytes_in)
                stats["bytes_out"] += int(bytes_out)
            if tenant is not None:
                row = self.tenants[tenant]
                row["requests"] += 1
                if not ok:
                    row["errors"] += 1
                row["bytes_in"] += int(bytes_in)
                row["bytes_out"] += int(bytes_out)
                self._tenant_latency[tenant].record(seconds)

    def record_protocol_error(self) -> None:
        with self._lock:
            self.protocol_errors += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed_requests += 1

    def record_deadline_rejected(self) -> None:
        with self._lock:
            self.deadline_rejected += 1

    def record_deadline_expired(self) -> None:
        with self._lock:
            self.deadline_expired += 1

    def record_tenant_admitted(self, tenant: str, nbytes: int) -> None:
        """Ledger twin of the quota registry's charge.

        Called at the exact admission point where
        :meth:`~repro.service.tenants.TenantRegistry.check_quota`
        charged the tenant's window, so the registry's lifetime totals
        and this counter must agree byte-exactly — the invariant the
        chaos soak asserts across failover.
        """
        with self._lock:
            row = self.tenants[tenant]
            row["admitted_requests"] += 1
            row["admitted_bytes"] += int(nbytes)

    def record_auth_rejected(self, tenant: str | None = None) -> None:
        with self._lock:
            self.auth_rejected += 1
            if tenant is not None:
                self.tenants[tenant]["auth_rejected"] += 1

    def record_quota_rejected(self, tenant: str) -> None:
        with self._lock:
            self.quota_rejected += 1
            self.tenants[tenant]["quota_rejected"] += 1

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of every counter and latency histogram.

        Taken atomically under the metrics lock: a snapshot racing a
        recording thread sees either all of a request's effects (op
        count, codec bytes, latency sample) or none of them.
        """
        with self._lock:
            return {
                "uptime_seconds": time.time() - self.started_at,
                "connections": {
                    "opened": self.connections_opened,
                    "active": self.connections_active,
                },
                "protocol_errors": self.protocol_errors,
                "batches": {
                    "count": self.batches,
                    "requests": self.batched_requests,
                    "mean_size": (
                        self.batched_requests / self.batches
                        if self.batches
                        else 0.0
                    ),
                },
                "admission": {
                    "shed_requests": self.shed_requests,
                    "deadline_rejected": self.deadline_rejected,
                    "deadline_expired": self.deadline_expired,
                    "auth_rejected": self.auth_rejected,
                    "quota_rejected": self.quota_rejected,
                },
                "tenants": {
                    tenant: {
                        **row,
                        "latency": self._tenant_latency[tenant].snapshot(),
                    }
                    for tenant, row in sorted(self.tenants.items())
                },
                "ops": {
                    op: {**counts, "latency": self._latency[op].snapshot()}
                    for op, counts in sorted(self.ops.items())
                },
                "codecs": {
                    name: dict(stats)
                    for name, stats in sorted(self.codecs.items())
                },
            }
