"""Clients for the compression service.

:class:`ServiceClient` is the synchronous client: a small connection
pool over blocking sockets, transparent retry on transient disconnects,
and ``compress_array`` / ``decompress_array`` methods that mirror the
local :mod:`repro.api` surface — the compressed bytes a served call
returns are exactly the FCF stream the local call would produce.

Usage::

    from repro.service import ServiceClient, serve_background

    with serve_background() as server:
        with ServiceClient(server.host, server.port) as client:
            blob = client.compress_array(array, codec="gorilla")
            back = client.decompress_array(blob)

Every server-reported failure raises the same typed exception a local
call would (:class:`~repro.errors.CorruptStreamError`,
:class:`~repro.errors.SelectionError`, ...); transport-level garbage
raises :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np

from repro.api.frames import DEFAULT_CHUNK_ELEMENTS
from repro.client import CompressionClient
from repro.errors import ProtocolError, ServerOverloadedError
from repro.obs import NULL_SPAN, SpanRecorder
from repro.service import protocol
from repro.service.resilience import Deadline, RetryBudget, RetryPolicy
from repro.service.protocol import (
    CLUSTER_CONTROL,
    CLUSTER_TOPOLOGY,
    COMPRESS,
    DECOMPRESS,
    DEFAULT_MAX_PAYLOAD,
    HEALTH,
    PING,
    SELECT_EXPLAIN,
    STATS,
    TRACE,
    Frame,
    FrameParser,
    encode_frame,
    response_type,
)

__all__ = ["ServiceClient", "DEFAULT_CODEC"]

#: Default codec for served compression, matching ``fcbench compress``.
DEFAULT_CODEC = "bitshuffle-zstd"

#: Transport failures worth one transparent retry on a fresh connection.
_TRANSIENT = (ConnectionError, BrokenPipeError, EOFError, OSError)


class _Connection:
    """One pooled socket plus its incremental frame parser."""

    def __init__(self, host: str, port: int, timeout: float, max_payload: int):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)
        self.parser = FrameParser(max_payload)

    def request(
        self,
        frame_type: int,
        request_id: int,
        payload: bytes,
        *,
        timeout: float,
        deadline: Deadline | None = None,
        deadline_ms: int | None = None,
        tenant_token: str | None = None,
        trace_context: bytes | None = None,
    ) -> Frame:
        """One round trip.  ``timeout`` caps each socket operation;
        ``deadline`` (when given) additionally caps the *whole* wait,
        and ``deadline_ms`` / ``tenant_token`` / ``trace_context`` ride
        on the wire for the server to enforce (or join, for tracing).
        """
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining <= 0:
                raise TimeoutError("operation deadline expired before send")
            self.sock.settimeout(min(timeout, remaining))
        else:
            self.sock.settimeout(timeout)
        self.sock.sendall(
            encode_frame(
                frame_type,
                request_id,
                payload,
                deadline_ms,
                tenant_token=tenant_token,
                trace_context=trace_context,
            )
        )
        while True:
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise TimeoutError(
                        "operation deadline expired awaiting the reply"
                    )
                self.sock.settimeout(min(timeout, remaining))
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection mid-reply")
            frames = self.parser.feed(data)
            if frames:
                if len(frames) > 1:
                    raise ProtocolError(
                        f"server answered one request with {len(frames)} frames"
                    )
                return frames[0]

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _check_response(frame: Frame, frame_type: int, request_id: int) -> Frame:
    """Validate a reply: typed errors raise, mismatches are protocol bugs."""
    if frame.is_error:
        protocol.raise_for_error(frame)
    if frame.frame_type != response_type(frame_type):
        raise ProtocolError(
            f"response type {frame.frame_type:#04x} does not answer "
            f"request type {frame_type:#04x}"
        )
    if frame.request_id != request_id:
        raise ProtocolError(
            f"response id {frame.request_id} does not match "
            f"request id {request_id}"
        )
    return frame


class ServiceClient(CompressionClient):
    """Synchronous client with connection pooling and retries.

    Parameters
    ----------
    host, port:
        Server address.
    pool_size:
        Most idle connections kept open for reuse.  Each request
        checks one out (or dials a new one) and returns it afterwards,
        so the client is safe to share across threads — concurrent
        requests simply use distinct connections.
    retry:
        Transparent re-dials after a transient transport failure
        (connection reset, broken pipe).  Requests are idempotent pure
        functions, so replaying one is always safe.  Shorthand for a
        default :class:`~repro.service.resilience.RetryPolicy` with
        ``retry + 1`` attempts; ignored when ``retry_policy`` is
        given.
    deadline:
        The *overall operation budget* in seconds: one budget that
        every attempt, backoff sleep, and re-dial spends from.  A
        per-call ``deadline=`` argument overrides it per request.
    attempt_timeout:
        Cap on each individual socket operation (connect, send, recv).
        Defaults to ``deadline``, preserving the historical behavior
        where one knob served both roles.
    token:
        Tenant auth token carried on every request frame
        (``FLAG_TENANT``) — required when the server runs with a
        tenant registry, ignored otherwise.  ``None`` sends unflagged
        frames, parseable by any server version.
    retry_policy:
        Backoff schedule shared with the cluster client; see
        :class:`~repro.service.resilience.RetryPolicy`.
    retry_budget:
        Token bucket bounding the client-wide retry fraction; one is
        created when omitted.
    propagate_deadline:
        When true, every request carries its remaining budget (whole
        ms) in the flagged frame header so the server can reject or
        skip expired work.  Off by default: a flagged frame is not
        parseable by pre-deadline servers, so enabling this is the
        caller's statement that the server is new enough.
    trace:
        Client-side distributed tracing.  ``True`` gives the client its
        own :class:`~repro.obs.spans.SpanRecorder`; passing a recorder
        shares one (the cluster client does this so failover renders in
        one tree).  Every request then opens a ``client.request`` root
        with a ``client.attempt`` child per try, and each attempt's
        span context rides the wire (``FLAG_TRACE``) so a traced server
        joins the same trace.  Off by default — untraced clients send
        byte-identical frames to previous releases.

    Retry semantics: transient transport faults and typed
    ``ServerOverloadedError`` sheds are retried (the latter honoring
    the server's retry-after hint); ``TimeoutError``, typed data errors
    (``CorruptStreamError`` …), ``DeadlineExceededError``,
    ``AuthenticationError``, ``QuotaExceededError``, and
    ``ProtocolError`` never are — credentials and budgets do not get
    better by asking again.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 2,
        retry: int = 1,
        deadline: float = 30.0,
        attempt_timeout: float | None = None,
        token: str | None = None,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        retry_policy: RetryPolicy | None = None,
        retry_budget: RetryBudget | None = None,
        propagate_deadline: bool = False,
        trace: bool | SpanRecorder = False,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be positive")
        self.host = host
        self.port = int(port)
        self.pool_size = int(pool_size)
        if retry_policy is None:
            retry_policy = RetryPolicy(max_attempts=max(0, int(retry)) + 1)
        self.retry_policy = retry_policy
        self.retries = retry_policy.max_attempts - 1
        self.retry_budget = (
            retry_budget if retry_budget is not None else RetryBudget()
        )
        self.propagate_deadline = bool(propagate_deadline)
        self.token = token
        self.deadline = float(deadline)
        self.attempt_timeout = float(
            deadline if attempt_timeout is None else attempt_timeout
        )
        self.max_payload = int(max_payload)
        self.recorder = (
            trace
            if isinstance(trace, SpanRecorder)
            else SpanRecorder(enabled=bool(trace))
        )
        # The cluster client parents this client's request spans under
        # its per-replica spans; plain callers leave it unset.
        self._trace_parent = threading.local()
        self._pool: list[_Connection] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False

    # -- pooling -------------------------------------------------------
    def _checkout(self, connect_timeout: float | None = None) -> _Connection:
        with self._lock:
            if self._closed:
                raise ProtocolError("client is closed")
            if self._pool:
                return self._pool.pop()
        return _Connection(
            self.host,
            self.port,
            self.attempt_timeout if connect_timeout is None else connect_timeout,
            self.max_payload,
        )

    def _checkin(self, conn: _Connection) -> None:
        with self._lock:
            if not self._closed and len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def _request_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _resolve_deadline(self, deadline) -> Deadline:
        if isinstance(deadline, Deadline):
            return deadline
        return Deadline.after(self.deadline if deadline is None else deadline)

    def _may_retry(self, attempts: int, deadline: Deadline) -> bool:
        """Common gate for every retry: attempts, budget, and deadline."""
        return (
            attempts < self.retry_policy.max_attempts
            and not deadline.expired
            and self.retry_budget.try_spend()
        )

    def _request(
        self, frame_type: int, payload: bytes, deadline=None
    ) -> Frame:
        op_deadline = self._resolve_deadline(deadline)
        request_id = self._request_id()
        self.retry_budget.record_call()
        root = self.recorder.span(
            "client.request",
            parent=getattr(self._trace_parent, "ctx", None),
            attributes={
                "op": protocol.REQUEST_NAMES.get(frame_type, "unknown"),
                "request_id": request_id,
            },
        )
        last: BaseException | None = None
        attempts = 0
        attempt = NULL_SPAN
        try:
            while True:
                attempts += 1
                conn: _Connection | None = None
                kept = False
                attempt = self.recorder.span(
                    "client.attempt",
                    parent=root,
                    attributes={"attempt": attempts},
                )
                # The attempt span's context rides the wire: the server
                # span becomes this attempt's child, so a redialed retry
                # is a *sibling* attempt in the same trace.
                ctx = attempt.context
                try:
                    connect_timeout = op_deadline.clamp(self.attempt_timeout)
                    if connect_timeout <= 0:
                        raise TimeoutError(
                            f"operation deadline expired after {attempts - 1} "
                            f"attempt(s): {last}"
                        )
                    conn = self._checkout(connect_timeout)
                    deadline_ms = (
                        op_deadline.remaining_ms()
                        if self.propagate_deadline
                        else None
                    )
                    frame = conn.request(
                        frame_type,
                        request_id,
                        payload,
                        timeout=self.attempt_timeout,
                        deadline=op_deadline,
                        deadline_ms=deadline_ms,
                        tenant_token=self.token,
                        trace_context=ctx.to_wire() if ctx else None,
                    )
                    self._checkin(conn)
                    kept = True
                    result = _check_response(frame, frame_type, request_id)
                    attempt.finish()
                    attempt = NULL_SPAN
                    root.finish()
                    return result
                except TimeoutError:
                    # A slow request is not a transport fault: the server
                    # may still be executing it, so replaying would double
                    # its work.  Surface the timeout as a timeout.
                    raise
                except ServerOverloadedError as exc:
                    # The server shed the request before queueing it, so a
                    # replay is free of double-execution risk — wait out
                    # the server's hint (budget permitting) and try again.
                    last = exc
                    attempt.set_error(exc)
                    attempt.finish()
                    attempt = NULL_SPAN
                    if not self._may_retry(attempts, op_deadline):
                        raise
                    delay = self.retry_policy.delay(attempts - 1)
                    if exc.retry_after_ms is not None:
                        delay = max(delay, exc.retry_after_ms / 1e3)
                    if delay >= op_deadline.remaining():
                        raise
                    with self.recorder.span(
                        "client.backoff", parent=root
                    ) as nap:
                        nap.set_attribute("seconds", delay)
                        time.sleep(delay)
                except _TRANSIENT as exc:
                    # The connection is poisoned either way; retry dials a
                    # fresh one.  ProtocolError is deliberately NOT retried:
                    # the server is answering, just not speaking FCS.
                    last = exc
                    attempt.set_error(exc)
                    attempt.set_attribute("redial", True)
                    attempt.finish()
                    attempt = NULL_SPAN
                    if not self._may_retry(attempts, op_deadline):
                        raise ProtocolError(
                            f"request failed after {attempts} attempt(s): "
                            f"{last}"
                        ) from last
                    delay = op_deadline.clamp(
                        self.retry_policy.delay(attempts - 1)
                    )
                    with self.recorder.span(
                        "client.backoff", parent=root
                    ) as nap:
                        nap.set_attribute("seconds", delay)
                        time.sleep(delay)
                finally:
                    # Satellite of the resilience work: every checked-out
                    # connection is either back in the pool or closed, on
                    # *every* exit path — success, typed error, timeout,
                    # transport fault, or an exception raised between
                    # checkout and checkin.
                    if conn is not None and not kept:
                        conn.close()
        except BaseException as exc:
            if attempt:
                attempt.set_error(exc)
                attempt.finish()
            root.set_error(exc)
            root.finish()
            raise

    # -- request surface -----------------------------------------------
    # Every method takes an optional ``deadline``: seconds (or a
    # pre-built Deadline) bounding the whole operation across retries;
    # ``None`` falls back to the client's ``timeout``.
    def ping(self, payload: bytes = b"fcbench", *, deadline=None) -> float:
        """Round-trip ``payload``; returns the wall-clock seconds taken."""
        start = time.perf_counter()
        frame = self._request(PING, bytes(payload), deadline)
        if frame.payload != bytes(payload):
            raise ProtocolError("pong payload does not echo the ping")
        return time.perf_counter() - start

    def compress_array(
        self,
        array,
        codec: str = DEFAULT_CODEC,
        *,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        policy: str = "heuristic",
        deadline=None,
    ) -> bytes:
        """Served mirror of :func:`repro.api.compress_array`.

        Returns the FCF stream bytes — verbatim what the local call
        produces, including v2 mixed-codec streams for
        ``codec="auto"``.
        """
        payload = protocol.encode_compress_request(
            np.asarray(array), codec, chunk_elements, policy
        )
        return self._request(COMPRESS, payload, deadline).payload

    def decompress_array(self, blob, *, deadline=None) -> np.ndarray:
        """Served mirror of :func:`repro.api.decompress_array`."""
        frame = self._request(DECOMPRESS, bytes(blob), deadline)
        return protocol.decode_array(frame.payload)

    def select_explain(
        self,
        array,
        *,
        policy: str = "heuristic",
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        deadline=None,
    ) -> dict:
        """Per-chunk selection decisions, as ``fcbench select explain``."""
        payload = protocol.encode_explain_request(
            np.asarray(array), policy, chunk_elements
        )
        return protocol.decode_json(
            self._request(SELECT_EXPLAIN, payload, deadline).payload
        )

    def stats(self, *, deadline=None) -> dict:
        """The server's :meth:`ServiceMetrics.snapshot`."""
        return protocol.decode_json(self._request(STATS, b"", deadline).payload)

    def health(self, *, deadline=None) -> dict:
        """The peer's liveness document (status, node id, uptime, pid)."""
        return protocol.decode_json(
            self._request(HEALTH, b"", deadline).payload
        )

    def cluster_topology(self, *, deadline=None) -> dict:
        """The peer's validated cluster topology document.

        A standalone server answers with a single-node topology
        pointing at itself; a cluster node or supervisor answers with
        the full ring membership.
        """
        return protocol.decode_topology(
            self._request(CLUSTER_TOPOLOGY, b"", deadline).payload
        )

    def cluster_control(
        self, action: str, node: str | None = None, *, deadline=None
    ) -> dict:
        """Send a supervisor control verb (``drain``/``restart``/``status``).

        Only the cluster supervisor's control endpoint serves these;
        a compression node answers with a typed protocol error.
        """
        payload = protocol.encode_control(action, node)
        return protocol.decode_json(
            self._request(CLUSTER_CONTROL, payload, deadline).payload
        )

    def trace(
        self,
        limit: int | None = None,
        trace_id: str | None = None,
        *,
        deadline=None,
    ) -> dict:
        """The peer's span-recorder document (``fcbench trace`` remote).

        ``trace_id`` narrows the answer to one trace; otherwise the
        most recent ``limit`` spans.  A peer with tracing disabled
        answers honestly (``stats.enabled: false``, no spans).
        """
        payload = protocol.encode_trace_request(limit, trace_id)
        return protocol.decode_json(
            self._request(TRACE, payload, deadline).payload
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
