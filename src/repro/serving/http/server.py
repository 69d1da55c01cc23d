"""Threaded HTTP front-end, and the embedding server built on it.

:class:`HttpFrontEnd` is the one HTTP listener in the package: a
``ThreadingTCPServer`` with one thread per connection, the
:mod:`~repro.serving.http.wire` codec, and the request plumbing
(request ids, bounded heads and bodies, keep-alive hygiene, JSON
envelopes on every verb and framing error, drain, error counts,
tracing) over *any* route table.  The data port
(:class:`EmbeddingServer`), each supervisor worker's admin port and the
supervisor's own (:mod:`repro.serving.http.supervisor`) are all built
from it — same limits, headers and error envelopes by construction.

:class:`EmbeddingServer` puts the in-process serving stack behind a
network boundary with nothing but the standard library: handler threads
answer JSON endpoints against snapshot-pinned views of the query service.

Endpoints (see :mod:`repro.serving.http.protocol` for the wire schema):

==========================  ====================================================
``GET  /healthz``           liveness + active version (503 while draining)
``GET  /v1/describe``       the stable ``QueryService.describe()`` document
``GET  /metrics``           the LRU ``cache`` document, the write path's
                            block, and the mergeable metrics ``registry``
                            (Prometheus text under ``Accept: text/plain``)
``GET  /debug/traces``      the newest finished request traces
``POST /v1/topk``           ``{node, k?, filter?}`` → ids/scores
``POST /v1/topk:batch``     ``{nodes, k?, filter?}`` → row-major ids/scores
``POST /v1/similar_by_vector``  ``{vector, k?, filter?}`` → ids/scores
``POST /v1/upsert``         ``{add_edges?, remove_edges?, add_associations?,
                            remove_associations?}`` → durable LSN (requires a
                            WAL; acked only after fsync) — the only write
``POST /admin/refresh``     ``{}`` → follow LATEST; ``{version}`` → pin
==========================  ====================================================

The write endpoints (upsert, ``/admin/promote``, ``GET /v1/replicate``)
are the :class:`~repro.serving.http.write_path.WritePath`'s; this module
only routes to them.

Concurrency: every request handler runs in its own thread and pins one
immutable service snapshot (:meth:`QueryService.pin`) for its whole
lifetime, so a concurrent ``/admin/refresh`` swap can never hand a
request the new backend with the old matrix.  The service's cache,
instruments, and worker pool are all lock-protected / snapshot-immutable,
so handler threads need no locking of their own.

Graceful drain: :meth:`HttpFrontEnd.close` (and SIGTERM under
:meth:`~HttpFrontEnd.run`) stops accepting connections, answers requests
that arrive on already-open keep-alive connections with 503 ``draining``,
and waits up to ``drain_timeout_s`` for requests already *executing* to
finish — in-flight work completes with its real status, never a 500.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import sys
import threading
import time
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro.serving.faults import InjectedFault
from repro.serving.fsck import StoreCorruptionError
from repro.serving.http import protocol, wire
from repro.serving.http.protocol import ApiError
from repro.serving.http.write_path import WritePath, write_routes
from repro.serving.obs import metrics as obs_metrics
from repro.serving.obs import trace as obs_trace
from repro.serving.obs.metrics import Counter, MetricsRegistry
from repro.serving.obs.trace import TraceBuffer, trace_span
from repro.search.knn import FilterError
from repro.serving.service import QueryService, SearchRequest, json_safe
from repro.serving.sharding.router import ShardRouter

# Request-size guards: a validation error must cost a bounded amount of
# work, not an unbounded np.asarray over attacker-sized JSON.
MAX_BODY_BYTES = 8 << 20
MAX_BATCH_NODES = 8192
MAX_VECTOR_DIM = 65536
MAX_K = 65536


class HttpFrontEnd:
    """One listener and the shared request plumbing over a route table.

    Parameters
    ----------
    routes:
        ``{path: ("GET" | "POST", handler)}``; a handler takes the parsed
        body (for a GET, the query parameters) and returns ``(status,
        payload)`` — a JSON-able dict, a :class:`protocol.ResultPayload`
        or a :class:`protocol.RawPayload`; an :class:`ApiError` it raises
        becomes the structured error body.  ``GET /debug/traces`` serves
        this front-end's own ring unless the table says otherwise.
    host / port / socket_fd:
        Bind address (``port=0`` picks a free port, read it back from
        :attr:`port`) — or an already-listening socket to adopt (pre-fork
        accept sharing: every worker blocks in accept() on the same fd,
        the kernel hands each connection to exactly one of them).
    drain_timeout_s:
        How long :meth:`close` waits for in-flight requests.
    binary:
        Speak the binary frame format on the data endpoints when a
        request negotiates it; ``False`` pins the port to JSON (binary
        bodies get a structured 415, ``Accept`` preferences are ignored).
    registry:
        With a :class:`MetricsRegistry`, every request is traced into
        :attr:`trace_buffer` and counted in its ``http_*`` families;
        ``None`` turns both off (a side-channel that only *exposes*
        another port's numbers must not dilute them).
    slow_query_ms / slow_log:
        Requests slower than the threshold are printed as one structured
        JSON line on ``slow_log`` (default stderr); 0 disables.
    """

    def __init__(
        self,
        routes: dict,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_fd: int | None = None,
        drain_timeout_s: float = 10.0,
        binary: bool = False,
        log: bool = False,
        faults=None,
        registry: MetricsRegistry | None = None,
        slow_query_ms: float = 0.0,
        slow_log=None,
    ) -> None:
        self.routes = {protocol.TRACES: ("GET", self.handle_traces), **routes}
        self.drain_timeout_s = drain_timeout_s
        self.binary_wire = binary
        self.log_requests = log
        self.faults = faults
        self._draining = False
        self._in_flight = 0
        self._flight_lock = threading.Lock()
        self._drained = threading.Condition(self._flight_lock)
        self._thread: threading.Thread | None = None
        # Owned here whether or not a registry exposes it; _count_error()
        # is its only writer.
        self.errors_total = Counter(
            "http_errors_total", "Structured error responses, by code", ("code",)
        )
        self.slow_query_ms = float(slow_query_ms)
        self._slow_log = slow_log
        self.registry = registry
        self.trace_buffer = TraceBuffer() if registry is not None else None
        if registry is not None:
            # The request path pays exactly one counter increment and one
            # histogram observation (plus one per error); state that is
            # not an event stream (in-flight, draining) is mirrored only
            # at scrape time.
            registry.adopt(self.errors_total)
            self._m_requests = registry.counter(
                "http_requests_total",
                "HTTP requests dispatched, by endpoint",
                ("endpoint",),
            )
            self._m_latency = registry.histogram(
                "http_request_seconds",
                "End-to-end HTTP request latency in seconds",
                ("endpoint",),
            )
            self._m_slow = registry.counter(
                "http_slow_queries_total",
                "Requests slower than --slow-query-ms, by endpoint",
                ("endpoint",),
            )
            registry.add_collect(self._collect_http)
        self._httpd = _Listener(
            (host, port), _Handler, bind_and_activate=socket_fd is None
        )
        if socket_fd is not None:
            self._httpd.socket.close()
            self._httpd.socket = socket.socket(fileno=socket_fd)
            # A shared listen socket must be non-blocking: a new
            # connection wakes every worker's selector, but only one
            # accept() wins — the losers must get EAGAIN back, not block
            # their serve loop until the *next* connection arrives.
            self._httpd.socket.setblocking(False)
            self._httpd.server_address = self._httpd.socket.getsockname()[:2]
        self._httpd.front_end = self  # type: ignore[attr-defined]

    # -- lifecycle -----------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def in_flight(self) -> int:
        with self._flight_lock:
            return self._in_flight

    def start(self):
        """Serve in a background thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="embedding-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def run(self, *, signals: bool = True) -> bool:
        """Serve until SIGTERM/SIGINT, then drain and shut down.

        The accept loop runs in a background thread while the calling
        (main) thread waits on an event the signal handlers set — a
        handler that called :meth:`close` directly would deadlock inside
        ``serve_forever``'s own thread.  Returns :meth:`close`'s verdict:
        ``True`` for a clean drain, ``False`` if in-flight requests were
        still running when ``drain_timeout_s`` expired.
        """
        stop = threading.Event()
        if signals:
            import signal

            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_: stop.set())
        self.start()
        try:
            stop.wait()
        finally:
            drained = self.close()
        return drained

    def close(self) -> bool:
        """Drain in-flight requests and stop the server.

        Returns ``True`` when every in-flight request finished inside
        ``drain_timeout_s`` (the graceful path), ``False`` on timeout.
        Idempotent.
        """
        self._draining = True
        if self._thread is not None:
            # shutdown() handshakes with serve_forever; calling it on a
            # never-started server would wait on an event nothing sets.
            self._httpd.shutdown()  # stop accepting; running handlers continue
        with self._drained:
            drained = self._drained.wait_for(
                lambda: self._in_flight == 0, timeout=self.drain_timeout_s
            )
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout_s)
            self._thread = None
        return bool(drained)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request accounting --------------------------------------------
    def _enter_request(self) -> bool:
        """Register an in-flight request; ``False`` once draining began."""
        with self._flight_lock:
            if self._draining:
                return False
            self._in_flight += 1
            return True

    def _exit_request(self) -> None:
        with self._drained:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._drained.notify_all()

    def _count_error(self, code: str) -> None:
        self.errors_total.inc(code=code)

    # -- what a port built on this may specialize -------------------------
    def draining_health(self) -> dict:
        """Extra fields for the 503 a draining port answers ``GET /healthz``."""
        return {}

    def freshness_stamp(self, path: str) -> int | None:
        """The ``X-Lsn-Served`` floor for a read on ``path``, if any."""
        return None

    # -- observability --------------------------------------------------
    def _collect_http(self) -> None:
        reg = self.registry
        reg.gauge("http_in_flight", "Requests currently executing").set(
            self.in_flight
        )
        reg.gauge("http_draining", "1 while the server is draining").set(
            1.0 if self._draining else 0.0
        )

    def _finish_trace(self, trace, path: str, status, duration_s: float) -> None:
        """Seal a request trace: counters, ring buffer, slow-query log."""
        trace.finish(status if status is not None else 0)
        self._m_requests.inc(endpoint=path)
        self._m_latency.observe(duration_s, endpoint=path)
        entry = trace.as_dict()
        self.trace_buffer.add(entry)
        if self.slow_query_ms > 0 and duration_s * 1e3 >= self.slow_query_ms:
            self._m_slow.inc(endpoint=path)
            stream = self._slow_log if self._slow_log is not None else sys.stderr
            line = json.dumps(
                {
                    "slow_query": {
                        **entry,
                        "threshold_ms": self.slow_query_ms,
                    }
                },
                separators=(",", ":"),
                default=str,
            )
            try:
                print(line, file=stream, flush=True)
            except (OSError, ValueError):
                pass  # a closed log stream must not fail the request

    def handle_traces(self, _body: dict) -> tuple[int, dict]:
        if self.trace_buffer is None:
            return 200, {"enabled": False, "total": 0, "traces": []}
        return 200, {
            "enabled": True,
            "capacity": self.trace_buffer.capacity,
            "total": self.trace_buffer.total_added,
            "traces": self.trace_buffer.snapshot(),
        }


class EmbeddingServer(HttpFrontEnd):
    """The data port: an :class:`HttpFrontEnd` over one :class:`QueryService`.

    Parameters (besides the front-end's ``host`` … ``slow_log``)
    -----------------------------------------------------------
    service:
        The query service to expose.  The server never closes it — the
        owner that built it does.
    ingest:
        The write path: a :class:`WritePath`, or a bare bootstrapped
        ``IngestPipeline`` (wrapped in one with the default ack
        settings).  Makes ``POST /v1/upsert`` live (acked after fsync)
        and surfaces ``lsn_durable``/``lsn_served``.  Like the service,
        it is closed by whoever built it; :meth:`close` only quiesces it.
    obs:
        ``False`` runs without a metrics registry or request traces.

    Examples
    --------
    >>> with EmbeddingServer(service) as server:      # doctest: +SKIP
    ...     client = ServingClient(server.url)
    ...     client.top_k(0, k=5)
    """

    _QUERY_ENDPOINTS = (protocol.TOPK, protocol.TOPK_BATCH, protocol.SIMILAR)

    def __init__(
        self,
        service: QueryService,
        *,
        binary: bool = True,
        worker_id: int | None = None,
        ingest=None,
        obs: bool = True,
        journal=None,
        **front_end,
    ) -> None:
        self.service = service
        if ingest is None or isinstance(ingest, WritePath):
            self.write_path = ingest
        else:
            self.write_path = WritePath(
                ingest, journal=journal, faults=front_end.get("faults")
            )
        self.worker_id = worker_id
        self.journal = journal
        self._drain_logged = False
        self._refresh_lock = threading.Lock()
        super().__init__(
            {
                protocol.HEALTHZ: ("GET", self.handle_healthz),
                protocol.DESCRIBE: ("GET", self.handle_describe),
                protocol.METRICS: ("GET", self.handle_metrics),
                protocol.TOPK: ("POST", self.handle_topk),
                protocol.TOPK_BATCH: ("POST", self.handle_topk_batch),
                protocol.SIMILAR: ("POST", self.handle_similar),
                protocol.REFRESH: ("POST", self.handle_refresh),
                **write_routes(self.write_path),
            },
            binary=binary,
            registry=MetricsRegistry() if obs else None,
            **front_end,
        )
        if self.registry is not None:
            # The service and the shard router record into instruments
            # they own, which the registry adopts as the same objects.
            for metric in service.instruments:
                self.registry.adopt(metric)
            if isinstance(service.backend, ShardRouter):
                self.registry.adopt(service.backend.search_seconds)
            self.registry.add_collect(self._collect_metrics)

    def close(self) -> bool:
        if self.write_path is not None:
            # Before the drain: a fresh long poll against a dying primary
            # (or a feed parked here) would just burn the drain budget.
            self.write_path.quiesce()
        drained = super().close()
        if self.journal is not None and not self._drain_logged:
            self._drain_logged = True
            self.journal.emit(
                "drain",
                drained=drained,
                worker=self.worker_id,
                version=self.service.version,
            )
        return drained

    def draining_health(self) -> dict:
        return {"version": self.service.version}

    def freshness_stamp(self, path: str) -> int | None:
        # Read before the snapshot pin, so it is a conservative floor:
        # the data answered is at least this fresh.
        if self.write_path is not None and path in self._QUERY_ENDPOINTS:
            try:
                return self.write_path.pipeline.lsn_served()
            except Exception:
                pass  # freshness stamping must never fail a read
        return None

    def _collect_metrics(self) -> None:
        """Mirror state that is not an event stream, only when scraped."""
        reg = self.registry
        obs_metrics.mirror_process(reg, worker=self.worker_id or 0)
        if self.write_path is not None:
            self.write_path.collect(reg)

    # -- endpoint handlers ---------------------------------------------
    # Each returns (status, payload-dict); ApiError propagates to the
    # handler, which writes the structured error body.
    def handle_healthz(self, _body: dict) -> tuple[int, dict]:
        payload = {
            "status": "ok",
            "version": self.service.version,
            "draining": self._draining,
        }
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        if self.write_path is not None:
            payload.update(self.write_path.health_fields())
        return 200, payload

    def handle_describe(self, _body: dict) -> tuple[int, dict]:
        info = self.service.describe()
        info["schema"] = protocol.PROTOCOL_SCHEMA
        # Server-level capabilities, so clients/operators can discover
        # the negotiated surfaces without probing.
        info["wire_formats"] = (
            ["json", "binary"] if self.binary_wire else ["json"]
        )
        if self.worker_id is not None:
            info["worker"] = self.worker_id
        if self.write_path is not None:
            info.update(self.write_path.status_fields())
        return 200, json_safe(info)

    def handle_metrics(self, _body: dict) -> tuple[int, dict]:
        payload = {
            "schema": protocol.PROTOCOL_SCHEMA,
            # The LRU's size beside its cache_lookups_total cells.
            "cache": self.service.cache_info(),
        }
        if self.write_path is not None:
            payload.update(self.write_path.status_fields())
        if self.registry is not None:
            # The sum-mergeable view, and the only home of every count and
            # latency: the same families the Prometheus exposition
            # renders, as JSON, so a supervisor can merge worker cells
            # exactly (obs.metrics.merge_dicts).
            payload["registry"] = self.registry.as_dict()
        return 200, json_safe(payload)

    def handle_topk(self, body: dict) -> tuple[int, "protocol.ResultPayload"]:
        protocol.reject_unknown_fields(
            body, ("node", "k") + protocol.SEARCH_OPTION_FIELDS
        )
        node = protocol.require_int(body, "node", required=True, minimum=0)
        k = protocol.require_int(body, "k", default=10, minimum=1, maximum=MAX_K)
        request = _parse_search_request(body, node=node, k=k)
        with trace_span("pin"):
            view = self.service.pin()
        result = _translate_errors(lambda: view.search(request))
        return 200, protocol.ResultPayload(result)

    def handle_topk_batch(self, body: dict) -> tuple[int, "protocol.ResultPayload"]:
        protocol.reject_unknown_fields(
            body, ("nodes", "k") + protocol.SEARCH_OPTION_FIELDS
        )
        nodes = protocol.require_node_field(
            body, "nodes", max_items=MAX_BATCH_NODES
        )
        k = protocol.require_int(body, "k", default=10, minimum=1, maximum=MAX_K)
        if int(nodes.min()) < 0:
            raise ApiError(
                400, "invalid_request", "field 'nodes' must be non-negative"
            )
        request = _parse_search_request(body, nodes=nodes, k=k)
        with trace_span("pin"):
            view = self.service.pin()
        result = _translate_errors(lambda: view.search(request))
        return 200, protocol.ResultPayload(result)

    def handle_similar(self, body: dict) -> tuple[int, "protocol.ResultPayload"]:
        protocol.reject_unknown_fields(
            body, ("vector", "k") + protocol.SEARCH_OPTION_FIELDS
        )
        vector = protocol.require_vector_field(
            body, "vector", max_items=MAX_VECTOR_DIM
        )
        k = protocol.require_int(body, "k", default=10, minimum=1, maximum=MAX_K)
        request = _parse_search_request(
            body, vector=np.asarray(vector, dtype=np.float64), k=k
        )
        with trace_span("pin"):
            view = self.service.pin()
        result = _translate_errors(lambda: view.search(request))
        return 200, protocol.ResultPayload(result)

    def handle_upsert(self, body: dict) -> tuple[int, dict]:
        return self.routes[protocol.UPSERT][1](body)

    def handle_refresh(self, body: dict) -> tuple[int, dict]:
        protocol.reject_unknown_fields(body, ("version",))
        if not self._refresh_lock.acquire(blocking=False):
            raise ApiError(
                409, "refresh_in_progress",
                "another refresh is already running; retry after it settles",
            )
        try:
            previous = self.service.version
            if "version" in body:
                version = body["version"]
                if not isinstance(version, str) or not version:
                    raise ApiError(
                        400, "invalid_request",
                        "field 'version' must be a non-empty string",
                    )
                try:
                    current = self.service.activate(version)
                except FileNotFoundError:
                    raise ApiError(
                        404, "version_not_found",
                        f"store has no version {version!r}",
                        {"version": version},
                    )
                except StoreCorruptionError as error:
                    raise _store_corrupt_error(error)
            else:
                try:
                    current = self.service.refresh_to_latest()
                except StoreCorruptionError as error:
                    raise _store_corrupt_error(error)
            return 200, {
                "previous_version": previous,
                "version": current,
                "swapped": current != previous,
            }
        finally:
            self._refresh_lock.release()


def _store_corrupt_error(error: StoreCorruptionError) -> ApiError:
    """A refresh target failing fsck is a 409, not a retryable 503.

    The currently served snapshot is untouched (activation refused before
    the swap), so the server stays healthy — but retrying the refresh
    cannot succeed until an operator runs ``repro fsck --repair``.
    """
    return ApiError(
        409, "store_corrupt", str(error),
        {
            "version": error.version,
            "issues": [issue.as_dict() for issue in error.issues],
        },
    )


def _parse_search_request(
    body: dict,
    *,
    k: int,
    node: int | None = None,
    nodes: np.ndarray | None = None,
    vector: np.ndarray | None = None,
) -> SearchRequest:
    """The shared tail of the three data handlers: options → SearchRequest.

    The filter parses to the ``invalid_filter`` wire code; request
    assembly itself can only fail on programmer error upstream, but is
    translated anyway so a gap surfaces as a 400, not a 500.
    """
    node_filter = protocol.parse_filter_field(body)
    return _translate_errors(
        lambda: SearchRequest(
            node=node, nodes=nodes, vector=vector, k=k, filter=node_filter
        )
    )


def _translate_errors(run):
    """Map service-level exceptions onto wire errors.

    ``IndexError`` (node/attribute out of range for the pinned snapshot)
    is a missing resource → 404; :class:`FilterError` (a predicate that
    cannot compile against the active version — unknown attribute,
    partition selector on an unpartitioned store) gets the dedicated
    ``invalid_filter`` code; any other ``ValueError`` (bad k, dim
    mismatch) is a caller mistake → 400.  Everything else propagates to
    the handler's 500 path.
    """
    try:
        return run()
    except IndexError as error:
        raise ApiError(404, "node_not_found", str(error))
    except FilterError as error:
        raise ApiError(400, "invalid_filter", str(error))
    except ValueError as error:
        raise ApiError(400, "invalid_request", str(error))


class _Listener(socketserver.ThreadingTCPServer):
    """The accept loop: one daemon thread per connection."""

    # A restarted server must rebind a port still in TIME_WAIT.
    allow_reuse_address = True
    # Handler threads must not block process exit (an idle keep-alive
    # peer would otherwise hang server_close); the drain condition in
    # HttpFrontEnd is what guarantees in-flight *requests* complete.
    daemon_threads = True


# The codes of requests the codec cannot frame, by status.
_FRAMING_CODES = {
    400: "invalid_request",
    414: "uri_too_long",
    431: "header_fields_too_large",
    505: "http_version_not_supported",
}
_REQUEST_ID = protocol.REQUEST_ID_HEADER.lower()
_DEADLINE = protocol.DEADLINE_HEADER.lower()


class _Handler(socketserver.StreamRequestHandler):
    """The wire side of :class:`HttpFrontEnd`: one connection, its requests in order."""

    # A peer that stalls mid-request must not pin a handler thread (and
    # the drain wait) forever.
    timeout = 30
    # A response leaves as one write, but a short one must not wait on
    # Nagle for the peer's delayed ACK of the previous one (~40 ms).
    disable_nagle_algorithm = True

    @property
    def owner(self) -> HttpFrontEnd:
        return self.server.front_end  # type: ignore[attr-defined]

    def handle(self) -> None:
        """Answer requests until the peer or a response closes the connection.

        Pipelined requests are read from the buffer and answered in
        order.  A head the codec cannot frame gets its JSON error and
        the connection closes; an idle timeout or reset just closes.
        """
        self.close_connection = False
        while not self.close_connection:
            self.command = self.target = ""
            self.version = "HTTP/1.1"
            self._request_id = self._lsn_served = None
            try:
                request = wire.read_request(self.rfile)
            except wire.ProtocolError as error:
                code = _FRAMING_CODES[error.status]
                self.owner._count_error(code)
                self.close_connection = True
                self._request_id = obs_trace.new_request_id()
                self._respond(
                    error.status,
                    ApiError(error.status, code, str(error), request_id=self._request_id).body(),
                )
                return
            except OSError:
                return
            if request is None:
                return
            self.command, self.target, self.version, self.headers = request
            self.close_connection = not request.keep_alive
            self._dispatch()

    # -- plumbing ------------------------------------------------------
    def _write(self, status: int, body: bytes, content_type: str) -> None:
        fields = []
        if self._request_id:
            # Every response — success, error, even the draining 503 —
            # echoes the request id so clients and operators can join
            # logs, traces, and retries on one key.
            fields.append((protocol.REQUEST_ID_HEADER, self._request_id))
        if self._lsn_served is not None:
            # Read-freshness stamp for the client's min_lsn guard.
            fields.append((protocol.LSN_HEADER, str(self._lsn_served)))
        self._status_sent = status
        if self.owner.draining or self.close_connection:
            # Tear the connection down once the response is out: while
            # draining a reused connection would only see more 503s, and
            # an error raised before the request body was consumed leaves
            # bytes that would desync the next keep-alive request.
            fields.append(("Connection", "close"))
            self.close_connection = True
        elif self.version == "HTTP/1.0":
            fields.append(("Connection", "keep-alive"))
        self.wfile.write(
            wire.response_bytes(
                status, content_type, body, fields,
                send_body=self.command != "HEAD",
            )
        )
        if self.owner.log_requests:
            print(
                f'{self.client_address[0]} - - [{time.strftime("%d/%b/%Y %H:%M:%S")}] '
                f'"{self.command} {self.target} {self.version}" {status} {len(body)}',
                file=sys.stderr,
            )

    def _accepts_binary(self) -> bool:
        """Did the request opt in to binary frame responses?

        Deliberately a substring membership test, not a full
        content-negotiation parser: the only client that sends the
        ``application/x-repro-frame`` token is one that can decode it.
        A JSON-only server ignores the preference entirely — that *is*
        the fallback contract (clients always accept JSON).
        """
        if not self.owner.binary_wire:
            return False
        return protocol.BINARY_CONTENT_TYPE in self.headers.get("accept", "")

    def _encode(self, payload) -> tuple[bytes, str]:
        """A response payload's bytes and content type.

        Accepts a plain JSON-able dict, a :class:`protocol.RawPayload`
        (sent as-is), or a :class:`protocol.ResultPayload`, which is
        encoded as a binary frame when the request negotiated it and as
        JSON otherwise.
        """
        if isinstance(payload, protocol.ResultPayload):
            if self._accepts_binary():
                frame = payload.to_frame()
                if self.owner.faults is not None:
                    # Wire-corruption injection: the client's frame
                    # decoder must catch the damage, not crash on it.
                    frame = self.owner.faults.corrupt_frame(frame)
                return frame, protocol.BINARY_CONTENT_TYPE
            payload = payload.to_json()
        elif isinstance(payload, protocol.RawPayload):
            return payload.data, payload.content_type
        return protocol.dump_json(payload), protocol.JSON_CONTENT_TYPE

    def _respond(self, status: int, payload) -> None:
        """Encode and send a response, swallowing a peer that already hung up.

        Used on every response (success and error): a client that gave
        up mid-exchange must cost one closed connection, not a stderr
        traceback per occurrence — during a drain with impatient clients
        that would flood the log.  The two spans keep socket and peer
        time out of the encoder's.
        """
        with trace_span("encode"):
            body, content_type = self._encode(payload)
        with trace_span("write"):
            try:
                self._write(status, body, content_type)
            except OSError:
                self.close_connection = True

    def _read_body(self) -> bytes:
        if self.headers.get("transfer-encoding"):
            # Chunked bodies are never consumed by this server, so the
            # same keep-alive desync as an unread Content-Length body
            # applies: refuse and tear the connection down.
            self.close_connection = True
            raise ApiError(
                411, "length_required",
                "Transfer-Encoding is not supported; send Content-Length",
            )
        try:
            length = wire.content_length(self.headers)
        except wire.ProtocolError:
            # The declared body cannot be skipped, so a keep-alive reuse
            # would parse its bytes as the next request line — tear the
            # connection down with the error response.
            self.close_connection = True
            raise ApiError(400, "invalid_request", "bad Content-Length header")
        if not length:
            return b""
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # unread body poisons keep-alive
            raise ApiError(
                413, "payload_too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
                {"content_length": length},
            )
        try:
            if (
                self.version != "HTTP/1.0"
                and self.headers.get("expect", "").lower() == "100-continue"
            ):
                self.wfile.write(wire.CONTINUE)
            raw = self.rfile.read(length)
        except OSError as error:  # stalled peer hit the handler timeout
            self.close_connection = True
            raise ApiError(
                400, "invalid_request", f"request body read failed: {error}"
            )
        if len(raw) != length:
            # A short read means the connection is mid-body: any bytes
            # that arrive later would be parsed as the next request.
            self.close_connection = True
            raise ApiError(
                400, "invalid_request",
                f"request body truncated ({len(raw)}/{length} bytes)",
            )
        return raw

    def _check_deadline(self, path: str, start: float) -> None:
        """Shed a data request whose client-propagated deadline passed.

        The client sends its *remaining* retry budget in
        ``X-Deadline-Ms``; by the time this handler runs, that budget
        minus our own elapsed time is what's left.  If nothing is, the
        caller has already given up (or is about to) — answering 503
        ``deadline_exceeded`` now costs a header parse instead of a GEMM
        whose result nobody reads.
        """
        if path not in protocol.DATA_ENDPOINTS:
            return
        header = self.headers.get(_DEADLINE)
        if header is None:
            return
        try:
            budget_ms = float(header)
        except ValueError:
            budget_ms = math.nan
        if not math.isfinite(budget_ms):
            # nan never compares <= 0 and inf never runs out: neither is
            # a budget, and -inf could not be written into the 503.
            raise ApiError(
                400, "invalid_request",
                f"bad {protocol.DEADLINE_HEADER} header: {header!r}",
            )
        elapsed_ms = (time.perf_counter() - start) * 1e3
        if budget_ms - elapsed_ms <= 0:
            raise ApiError(
                503, "deadline_exceeded",
                "request deadline passed before execution began",
                {"budget_ms": budget_ms, "elapsed_ms": round(elapsed_ms, 3)},
            )

    def _parse_body(self, raw: bytes, path: str) -> dict:
        """Decode the request body by its declared Content-Type.

        Binary frames are accepted on the data endpoints of a
        binary-capable server; everything else parses as JSON (the
        compatibility default — an absent or unknown Content-Type is
        treated as JSON exactly as before the binary wire existed).
        """
        content_type = self.headers.get("content-type", "").split(";")[0].strip()
        if content_type == protocol.BINARY_CONTENT_TYPE:
            if not self.owner.binary_wire or path not in protocol.DATA_ENDPOINTS:
                raise ApiError(
                    415, "unsupported_media_type",
                    f"binary frames are not accepted on {path!r} by this server",
                )
            return protocol.decode_frame_body(raw)
        return protocol.parse_json_body(raw)

    # -- routing -------------------------------------------------------
    def _assign_request_id(self) -> str:
        """Adopt the caller's ``X-Request-Id`` or mint one."""
        supplied = obs_trace.clean_request_id(
            self.headers.get(_REQUEST_ID)
        )
        self._request_id = supplied or obs_trace.new_request_id()
        return self._request_id

    def _dispatch(self) -> None:
        """Every verb enters here; only GET / HEAD / POST route anywhere.

        HEAD answers exactly like GET minus the body (load balancers
        probe with it; ``_write`` skips the body).  Any other verb
        passes the same draining gate, body handling and error
        accounting on its way to a JSON 405.
        """
        owner = self.owner
        url = urlsplit(self.target)
        path = url.path
        request_id = self._assign_request_id()
        if not owner._enter_request():
            body = ApiError(
                503, "draining",
                "server is draining; retry against another replica",
                request_id=request_id,
            ).body()
            if path == protocol.HEALTHZ and self.command == "GET":
                # Health probes still get the documented body shape (with
                # draining=true) alongside the error envelope, so an LB
                # can tell "draining" from "dead" without parsing errors.
                body.update(
                    owner.draining_health(), status="draining", draining=True
                )
            self._respond(503, body)
            return
        start = time.perf_counter()
        # Tracing: only a port with a registry of its own traces its
        # requests (a side-channel exposing another port's numbers must
        # not pollute them with probes).
        trace = None
        token = None
        if owner.trace_buffer is not None:
            trace = obs_trace.Trace(request_id, path, method=self.command)
            token = obs_trace.set_current(trace)
        self._status_sent = None
        self._lsn_served = owner.freshness_stamp(path)
        try:
            try:
                if owner.faults is not None and path in protocol.DATA_ENDPOINTS:
                    # Injection point: stall this handler or crash the
                    # process mid-request.  Only data endpoints count
                    # toward kill-after-N — a supervisor's health probes
                    # must never be what pulls the trigger.
                    owner.faults.on_request()
                # Consume the declared body before any routing decision:
                # a 404/405 sent with the body still unread would leave
                # its bytes to be parsed as the next keep-alive request.
                with trace_span("parse") as parse_span:
                    raw = self._read_body()
                    if parse_span is not None:
                        parse_span.meta["bytes"] = len(raw)
                self._check_deadline(path, start)
                verb = "GET" if self.command == "HEAD" else self.command
                method, route = owner.routes.get(path, (None, None))
                if verb not in ("GET", "POST") or method not in (None, verb):
                    raise ApiError(
                        405, "method_not_allowed",
                        f"{self.command} is not supported on {path}",
                    )
                if route is None:
                    raise ApiError(
                        404, "unknown_endpoint", f"no endpoint at {path!r}"
                    )
                body = self._parse_body(raw, path)
                if url.query and verb == "GET":
                    body = dict(parse_qsl(url.query))  # a GET's "body"
                status, payload = route(body)
                if (
                    path == protocol.METRICS
                    and "registry" in payload
                    and "text/plain" in self.headers.get("accept", "")
                ):
                    # Content negotiation: Accept: text/plain turns the
                    # JSON metrics document's registry into Prometheus
                    # exposition (no registry, obs off: JSON it stays).
                    text = obs_metrics.render_text_from_dict(payload["registry"])
                    payload = protocol.RawPayload(
                        text.encode("utf-8"), obs_metrics.TEXT_CONTENT_TYPE
                    )
                self._respond(status, payload)
            except ApiError as error:
                owner._count_error(error.code)
                error.request_id = request_id
                self._respond(error.status, error.body())
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-request; nothing left to read
            except InjectedFault:
                # Soft-mode injected crash: die like a killed worker would
                # — no response, torn connection — without taking the
                # in-process test's interpreter down.  socketserver's
                # handle_error catches the re-raise and closes the socket.
                self.close_connection = True
                raise
            except Exception as error:  # the contract: never a bare 500 page
                owner._count_error("internal")
                self._respond(
                    500,
                    ApiError(
                        500, "internal", f"{type(error).__name__}: {error}",
                        request_id=request_id,
                    ).body(),
                )
        finally:
            duration_s = time.perf_counter() - start
            if trace is not None:
                obs_trace.reset_current(token)
                owner._finish_trace(trace, path, self._status_sent, duration_s)
            owner._exit_request()
