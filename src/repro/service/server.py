"""HTTP gateway over the simulation service (stdlib only).

:class:`ServiceGateway` binds a :class:`ThreadingHTTPServer` in front of
one :class:`~repro.service.core.SimulationService` running its
background coalescer: every HTTP handler thread just ``submit()``\\ s and
waits on its future, while the coalescer thread packs concurrent
requests — across connections and tenants — into micro-batches.  The
answer contract is unchanged: a reducer value served over HTTP is
bit-identical to the same request resolved through a caller-driven
``tick()`` loop (the wire format is JSON whose float round-trip is
exact for binary64).

Wire model (one JSON object per request, mirroring
:class:`~repro.service.request.SimRequest` field-for-field)::

    POST /simulate
    {"cycles": 400, "corner": "SS",
     "workload": {"kind": "poisson", "rate": 1e5, "seed": 7},
     "tenant": "bench", "priority": 1}
    -> 200 {"key": "…", "values": {...}, "cached": false,
            "batch_size": 17}

    GET /stats    -> 200 {"submitted": …, "completed": …, ...}
    GET /healthz  -> 200 {"status": "ok"}
    GET /metrics  -> 200 Prometheus text exposition

Status mapping: malformed body or unknown field → 400; admission
rejection (queue at capacity) → 429; shed deadline or gateway result
timeout → 504; gateway shutting down → 503; anything else → 500.  Every
response carries ``Content-Length`` so HTTP/1.1 keep-alive connections
stay usable for open-loop load generation — and ``do_POST`` consumes
the request body *before* routing, so even a 404/503 short-circuit
leaves the connection clean for the next request (unread body bytes
would otherwise be parsed as the next request line).  A client that
resets or closes its connection mid-exchange is counted in
``repro_gateway_disconnects_total``; it prints no traceback.

Tracing: when the underlying service has a tracer, every ``POST
/simulate`` opens an ``http.request`` root span.  The trace id is taken
from the client's ``X-Repro-Trace`` header when present (hex, 8–64
chars) or minted fresh, propagated into the service via
``submit(trace=...)``, and echoed back on the response in the same
header so clients can join their logs to the exported span tree.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.obs.trace import NULL_SPAN, parse_trace_id
from repro.service.core import (
    AdmissionError,
    DeadlineExceeded,
    ServiceConfig,
    SimulationService,
)
from repro.service.request import SimRequest, SimResult, WorkloadSpec

TRACE_HEADER = "X-Repro-Trace"
"""Request/response header carrying the hex trace id."""

METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""Prometheus text exposition format content type."""

_WORKLOAD_FIELDS = frozenset(
    field.name for field in dataclasses.fields(WorkloadSpec)
)
_REQUEST_FIELDS = frozenset(
    field.name for field in dataclasses.fields(SimRequest)
)


def request_from_wire(payload: object) -> SimRequest:
    """Build a :class:`SimRequest` from one decoded JSON object.

    Strict: unknown keys raise (a typo'd field silently meaning "use
    the default" would change simulated physics without a peep), and
    all value validation is delegated to the dataclass
    ``__post_init__`` hooks so wire requests obey exactly the in-process
    rules.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    fields = dict(payload)
    unknown = set(fields) - _REQUEST_FIELDS
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    workload = fields.pop("workload", None)
    if workload is not None:
        if not isinstance(workload, dict):
            raise ValueError("workload must be a JSON object")
        unknown = set(workload) - _WORKLOAD_FIELDS
        if unknown:
            raise ValueError(
                f"unknown workload fields: {sorted(unknown)}"
            )
        fields["workload"] = WorkloadSpec(**workload)
    for name in ("schedule_codes", "reducers"):
        if fields.get(name) is not None:
            if not isinstance(fields[name], list):
                raise ValueError(f"{name} must be a JSON array")
            fields[name] = tuple(fields[name])
    return SimRequest(**fields)


def request_to_wire(request: SimRequest) -> Dict[str, object]:
    """Flatten one :class:`SimRequest` into its JSON wire object
    (the exact inverse of :func:`request_from_wire`)."""
    return dataclasses.asdict(request)


def result_to_wire(result: SimResult) -> Dict[str, object]:
    """Flatten one :class:`SimResult` into its JSON wire object."""
    return {
        "key": result.key,
        "values": dict(result.values),
        "cached": result.cached,
        "batch_size": result.batch_size,
    }


class _GatewayHandler(BaseHTTPRequestHandler):
    """One HTTP exchange; all state lives on the server/gateway."""

    protocol_version = "HTTP/1.1"
    server: "_GatewayServer"

    # The default handler logs every request to stderr; a load test
    # would drown the console, so routing goes through the gateway's
    # (default no-op) log hook instead.
    def log_message(self, format: str, *args: object) -> None:
        self.server.gateway._log(format % args)

    def _reply(
        self,
        status: int,
        payload: Dict[str, object],
        trace_id: Optional[str] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._reply_bytes(
            status, body, "application/json", trace_id=trace_id
        )

    def _reply_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        trace_id: Optional[str] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if trace_id is not None:
            self.send_header(TRACE_HEADER, trace_id)
        self.end_headers()
        self.wfile.write(body)
        self.server.gateway._count_response(status)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        gateway = self.server.gateway
        gateway._count_request()
        if self.path == "/healthz":
            self._reply(200, {"status": "ok"})
        elif self.path == "/stats":
            self._reply(200, gateway.stats_payload())
        elif self.path == "/metrics":
            self._reply_bytes(
                200,
                gateway.metrics_text().encode("utf-8"),
                METRICS_CONTENT_TYPE,
            )
        else:
            self._reply(404, {"error": f"no such resource: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        gateway = self.server.gateway
        gateway._count_request()
        # Consume the body before any routing short-circuit: an early
        # 404/503 that leaves body bytes unread would poison this
        # keep-alive connection (the leftovers parse as the next
        # request line).
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            # Unknown body extent — the stream cannot be resynced, so
            # answer and drop the connection.
            self.close_connection = True
            self._reply(400, {"error": "invalid Content-Length"})
            return
        raw = self.rfile.read(length) if length > 0 else b""
        if self.path != "/simulate":
            self._reply(404, {"error": f"no such resource: {self.path}"})
            return
        if gateway._closing:
            self._reply(503, {"error": "gateway is shutting down"})
            return
        tracer = getattr(gateway.service, "tracer", None)
        root = NULL_SPAN
        trace_id: Optional[str] = None
        if tracer is not None:
            trace_id = (
                parse_trace_id(self.headers.get(TRACE_HEADER))
                or tracer.new_trace_id()
            )
            root = tracer.start(
                "http.request",
                trace_id=trace_id,
                attrs={"method": "POST", "path": self.path},
            )
        try:
            try:
                request = request_from_wire(json.loads(raw))
            except (ValueError, TypeError) as exc:
                self._reply(400, {"error": str(exc)}, trace_id=trace_id)
                root.set(status=400)
                return
            try:
                # The trace keyword is passed only when a sampled span
                # is open: submit stays drop-in replaceable (tests
                # monkeypatch it with single-argument callables).
                if root.context is None:
                    future = gateway.service.submit(request)
                else:
                    future = gateway.service.submit(
                        request, trace=root.context
                    )
                result = future.result(timeout=gateway.result_timeout_s)
            except AdmissionError as exc:
                status, payload = 429, {"error": str(exc)}
            except (DeadlineExceeded, TimeoutError) as exc:
                status, payload = 504, {"error": str(exc)}
            except Exception as exc:  # engine failures -> this request
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            else:
                status, payload = 200, result_to_wire(result)
            write_span = root.child(
                "http.write", start_s=time.perf_counter()
            )
            self._reply(status, payload, trace_id=trace_id)
            write_span.end()
            root.set(status=status)
        finally:
            root.end()


_DISCONNECTS = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)
"""Errors of a client that went away mid-exchange (not a server fault)."""


class _GatewayServer(ThreadingHTTPServer):
    daemon_threads = True
    gateway: "ServiceGateway"

    def handle_error(self, request, client_address) -> None:
        """Count a client disconnect; report anything else as usual."""
        if isinstance(sys.exc_info()[1], _DISCONNECTS):
            self.gateway._m_disconnects.inc()
        else:
            super().handle_error(request, client_address)


class _MetricsHandler(BaseHTTPRequestHandler):
    """Scrape-only sidecar handler: ``/metrics`` and ``/healthz``."""

    protocol_version = "HTTP/1.1"
    server: "_GatewayServer"

    def log_message(self, format: str, *args: object) -> None:
        self.server.gateway._log(format % args)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/metrics":
            body = self.server.gateway.metrics_text().encode("utf-8")
            status, content_type = 200, METRICS_CONTENT_TYPE
        elif self.path == "/healthz":
            body = b'{"status": "ok"}'
            status, content_type = 200, "application/json"
        else:
            body = json.dumps(
                {"error": f"no such resource: {self.path}"}
            ).encode("utf-8")
            status, content_type = 404, "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ServiceGateway:
    """HTTP front end owning one service + its background coalescer.

    ``start()`` starts the service's batching thread, binds the listen
    socket and serves from a daemon thread; ``close()`` drains and
    stops both.  Usable as a context manager::

        with ServiceGateway(port=0) as gateway:
            host, port = gateway.address
            ...

    ``port=0`` binds an ephemeral port (tests and CI smoke runs);
    :attr:`address` reports the bound endpoint either way.

    ``metrics_port`` (optional) binds a second, scrape-only HTTP
    server exposing ``/metrics`` — so an operator can point Prometheus
    at a port that never competes with simulation traffic.  ``/metrics``
    is always also served on the main port.
    """

    def __init__(
        self,
        service: Optional[SimulationService] = None,
        host: str = "127.0.0.1",
        port: int = 8265,
        result_timeout_s: float = 60.0,
        config: Optional[ServiceConfig] = None,
        metrics_port: Optional[int] = None,
    ) -> None:
        if service is not None and config is not None:
            raise ValueError("pass a service or a config, not both")
        if not (result_timeout_s > 0.0):
            raise ValueError("result_timeout_s must be positive")
        self.service = service or SimulationService(config=config)
        self.host = host
        self.port = port
        self.metrics_port = metrics_port
        self.result_timeout_s = result_timeout_s
        self._server: Optional[_GatewayServer] = None
        self._metrics_server: Optional[_GatewayServer] = None
        self._thread: Optional[threading.Thread] = None
        self._metrics_thread: Optional[threading.Thread] = None
        self._closing = False
        self._counter_lock = threading.Lock()
        self._http_requests = 0
        self._http_errors = 0
        self._http_responses: Dict[int, int] = {}
        registry = self.service.metrics
        self._m_http_requests = registry.counter(
            "repro_gateway_http_requests_total",
            "HTTP requests accepted by the gateway.",
        ).labels()
        self._m_http_errors = registry.counter(
            "repro_gateway_http_errors_total",
            "HTTP responses with status >= 400.",
        ).labels()
        self._f_http_responses = registry.counter(
            "repro_gateway_http_responses_total",
            "HTTP responses by status code.",
            labelnames=("status",),
        )
        self._m_disconnects = registry.counter(
            "repro_gateway_disconnects_total",
            "Connections the client reset or closed mid-exchange.",
        ).labels()

    def _log(self, line: str) -> None:
        """Per-request log hook; default drops the line (load tests)."""

    def _count_request(self) -> None:
        with self._counter_lock:
            self._http_requests += 1

    def _count_response(self, status: int) -> None:
        with self._counter_lock:
            self._http_responses[status] = (
                self._http_responses.get(status, 0) + 1
            )
            if status >= 400:
                self._http_errors += 1

    def _refresh_http_metrics(self) -> None:
        """Bridge gateway counters into the shared registry (one
        coherent cut under the counter lock)."""
        with self._counter_lock:
            self._m_http_requests.set_total(self._http_requests)
            self._m_http_errors.set_total(self._http_errors)
            for status in sorted(self._http_responses):
                self._f_http_responses.labels(
                    status=str(status)
                ).set_total(self._http_responses[status])

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` bindings)."""
        if self._server is None:
            return (self.host, self.port)
        return self._server.server_address[:2]

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """The metrics sidecar's bound ``(host, port)``, when enabled."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.server_address[:2]

    def start(self) -> "ServiceGateway":
        """Bind, start the coalescer and serve (idempotent)."""
        if self._server is not None:
            return self
        self._closing = False
        self.service.start()
        server = _GatewayServer(
            (self.host, self.port), _GatewayHandler
        )
        server.gateway = self
        self._server = server
        thread = threading.Thread(
            target=server.serve_forever,
            name="repro-service-gateway",
            daemon=True,
        )
        self._thread = thread
        thread.start()
        if self.metrics_port is not None:
            metrics_server = _GatewayServer(
                (self.host, self.metrics_port), _MetricsHandler
            )
            metrics_server.gateway = self
            self._metrics_server = metrics_server
            metrics_thread = threading.Thread(
                target=metrics_server.serve_forever,
                name="repro-service-metrics",
                daemon=True,
            )
            self._metrics_thread = metrics_thread
            metrics_thread.start()
        return self

    def stats_payload(self) -> Dict[str, object]:
        """Service stats plus gateway counters, as one JSON object.

        The service portion is built from one atomic registry snapshot
        (:meth:`SimulationService.stats`), so counters in the payload
        never tear against each other under live traffic.
        """
        payload: Dict[str, object] = dataclasses.asdict(
            self.service.stats()
        )
        with self._counter_lock:
            payload["http_requests"] = self._http_requests
            payload["http_errors"] = self._http_errors
        return payload

    def metrics_text(self) -> str:
        """Render one registry snapshot as Prometheus text exposition."""
        self._refresh_http_metrics()
        return self.service.metrics_snapshot().to_prometheus()

    def close(self) -> None:
        """Stop accepting, drain in-flight work, close the service."""
        self._closing = True
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        metrics_server, self._metrics_server = self._metrics_server, None
        metrics_thread, self._metrics_thread = self._metrics_thread, None
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
        if metrics_thread is not None and metrics_thread.is_alive():
            metrics_thread.join()
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None and thread.is_alive():
            thread.join()
        self.service.close()

    def __enter__(self) -> "ServiceGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "METRICS_CONTENT_TYPE",
    "TRACE_HEADER",
    "ServiceGateway",
    "request_from_wire",
    "request_to_wire",
    "result_to_wire",
]
