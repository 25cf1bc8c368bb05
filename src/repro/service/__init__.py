"""The network compression service.

Turns the in-process streaming surface (:mod:`repro.api`) into a
multi-client TCP service: a length-prefixed binary wire protocol
(:mod:`repro.service.protocol`), an asyncio server with per-connection
backpressure, request batching, and graceful drain
(:mod:`repro.service.server`), a pooled synchronous client
(:mod:`repro.service.client`), request/latency metrics
(:mod:`repro.service.metrics`), the resilience primitives —
deadlines, retry policies and budgets, circuit breakers — the clients
compose around their transports (:mod:`repro.service.resilience`),
per-tenant authentication and quota admission
(:mod:`repro.service.tenants`), and an HTTP observability gateway
serving Prometheus metrics (:mod:`repro.service.gateway`).

Compressed payloads cross the wire as FCF streams verbatim, so a served
round trip is byte-identical to a local ``compress_array`` /
``decompress_array`` call — including ``codec="auto"`` v2 mixed-codec
streams.  See ``docs/service.md`` for the wire specification and threat
model; ``fcbench serve`` / ``fcbench client`` are the CLI entry points.
"""

from repro.service.client import DEFAULT_CODEC, ServiceClient
from repro.service.gateway import ObservabilityGateway, render_prometheus
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import (
    DEFAULT_MAX_PAYLOAD,
    MAGIC,
    PROTOCOL_VERSION,
    Frame,
    FrameParser,
    encode_frame,
)
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    RetryBudget,
    RetryPolicy,
)
from repro.service.server import (
    CompressionServer,
    ServerHandle,
    run_server,
    serve_background,
)
from repro.service.tenants import (
    TenantConfig,
    TenantRegistry,
    generate_token,
)

__all__ = [
    "CircuitBreaker",
    "CompressionServer",
    "DEFAULT_CODEC",
    "DEFAULT_MAX_PAYLOAD",
    "Deadline",
    "Frame",
    "FrameParser",
    "LatencyHistogram",
    "MAGIC",
    "ObservabilityGateway",
    "PROTOCOL_VERSION",
    "RetryBudget",
    "RetryPolicy",
    "ServerHandle",
    "ServiceClient",
    "ServiceMetrics",
    "TenantConfig",
    "TenantRegistry",
    "encode_frame",
    "generate_token",
    "render_prometheus",
    "run_server",
    "serve_background",
]
