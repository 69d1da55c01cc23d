"""Threaded HTTP server over a :class:`~repro.serving.service.QueryService`.

:class:`EmbeddingServer` puts the in-process serving stack behind a
network boundary with nothing but the standard library: a
``ThreadingHTTPServer`` whose handler threads answer JSON endpoints
against snapshot-pinned views of the query service.

Endpoints (see :mod:`repro.serving.http.protocol` for the wire schema):

==========================  ====================================================
``GET  /healthz``           liveness + active version (503 while draining)
``GET  /v1/describe``       the stable ``QueryService.describe()`` document
``GET  /metrics``           cache / ingest / service count-sum documents plus
                            the mergeable metrics ``registry`` (Prometheus
                            text under ``Accept: text/plain``)
``POST /v1/topk``           ``{node, k?, filter?, params?}`` → ids/scores
``POST /v1/topk:batch``     ``{nodes, k?, filter?, params?}`` → row-major
                            ids/scores
``POST /v1/similar_by_vector``  ``{vector, k?, filter?, params?}`` → ids/scores
``POST /v1/upsert``         ``{add_edges?, remove_edges?, add_associations?,
                            remove_associations?}`` → durable LSN (requires a
                            WAL ``IngestPipeline``; acked only after fsync) —
                            the only write
``POST /admin/refresh``     ``{}`` → follow LATEST; ``{version}`` → pin
==========================  ====================================================

Concurrency: every request handler runs in its own thread and pins one
immutable service snapshot (:meth:`QueryService.pin`) for its whole
lifetime, so a concurrent ``/admin/refresh`` swap can never hand a
request the new backend with the old matrix.  The service's cache,
instruments, and worker pool are all lock-protected / snapshot-immutable,
so handler threads need no locking of their own.

Graceful drain: :meth:`EmbeddingServer.close` (and SIGTERM under
:meth:`run`) stops accepting connections, answers requests that arrive
on already-open keep-alive connections with 503 ``draining``, and waits
up to ``drain_timeout_s`` for requests already *executing* to finish —
in-flight work completes with its real status, never a 500.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro.dynamic.delta import GraphDelta
from repro.serving.faults import InjectedFault
from repro.serving.fsck import StoreCorruptionError
from repro.serving.http import protocol
from repro.serving.http.protocol import ApiError
from repro.serving.obs import metrics as obs_metrics
from repro.serving.obs import trace as obs_trace
from repro.serving.obs.metrics import MetricsRegistry
from repro.serving.obs.trace import TraceBuffer, trace_span
from repro.search.knn import FilterError
from repro.serving.service import QueryService, SearchRequest, json_safe
from repro.serving.sharding.router import ShardRouter
from repro.serving.wal.log import LogFull, LogWriteError
from repro.serving.wal.replication import (
    FeedRejected,
    ReplicationHub,
    build_feed,
    check_feed_request,
)

# Request-size guards: a validation error must cost a bounded amount of
# work, not an unbounded np.asarray over attacker-sized JSON.
MAX_BODY_BYTES = 8 << 20
MAX_BATCH_NODES = 8192
MAX_VECTOR_DIM = 65536
MAX_K = 65536


class EmbeddingServer:
    """A stdlib HTTP front-end over one :class:`QueryService`.

    Parameters
    ----------
    service:
        The query service to expose.  The server never closes it — the
        owner that built it does.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port`).
    drain_timeout_s:
        How long :meth:`close` waits for in-flight requests.
    coalesce_window_s / coalesce_max_batch:
        ``coalesce_window_s > 0`` turns on the admission coalescer:
        concurrent single-query ``POST /v1/topk`` handler threads merge
        into one batch GEMM against a single snapshot (the
        leader/follower :meth:`QueryService.make_coalescer` machinery).
        The window bounds how long the first arrival waits for company;
        ``coalesce_max_batch`` wakes the leader early once that many
        queued.  Every response from a coalesced group carries the same
        ``group`` id and — by construction, one snapshot per group — the
        same ``version``.  Batch/vector endpoints and cache hits bypass
        the coalescer.
    binary:
        Speak the binary frame format when a request negotiates it
        (``Accept``/``Content-Type``; see
        :mod:`repro.serving.http.protocol`).  ``False`` pins the server
        to JSON-only (the pre-binary wire surface): binary request
        bodies get a structured 415 and ``Accept`` preferences are
        ignored.

    Examples
    --------
    >>> with EmbeddingServer(service) as server:      # doctest: +SKIP
    ...     client = ServingClient(server.url)
    ...     client.top_k(0, k=5)
    """

    def __init__(
        self,
        service: QueryService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout_s: float = 10.0,
        coalesce_window_s: float = 0.0,
        coalesce_max_batch: int = 64,
        binary: bool = True,
        log: bool = False,
        socket_fd: int | None = None,
        worker_id: int | None = None,
        faults=None,
        stats_for: "EmbeddingServer | None" = None,
        ingest=None,
        compactor=None,
        replicator=None,
        ack_replicas: int = 0,
        ack_timeout_s: float = 5.0,
        obs: bool = True,
        slow_query_ms: float = 0.0,
        slow_log=None,
        journal=None,
    ) -> None:
        self.service = service
        # The write path: an IngestPipeline makes POST /v1/upsert live
        # (acked after fsync) and surfaces lsn_durable/lsn_served; the
        # optional Compactor reference is observability-only.
        self.ingest = ingest
        self.compactor = compactor
        # Replication roles.  A primary (any server with a WAL) serves
        # the feed and tracks standby acks through a ReplicationHub so
        # `--ack-replicas N` can make upsert acks semi-synchronous.  A
        # standby carries a StandbyReplicator and refuses writes with
        # 409 not_primary until handle_promote flips it.
        self.replicator = replicator
        self.ack_replicas = int(ack_replicas)
        self.ack_timeout_s = float(ack_timeout_s)
        self.hub = ReplicationHub(journal=journal) if ingest is not None else None
        self._promoted = False
        self._promote_lock = threading.Lock()
        self.drain_timeout_s = drain_timeout_s
        self.binary_wire = binary
        self.worker_id = worker_id
        self.faults = faults
        # A worker's admin server reports *for* its data server: health
        # and metrics must describe the traffic-carrying surface, not the
        # loopback side-channel they arrive on.
        self.stats_for = stats_for
        self.coalesce_window_s = coalesce_window_s
        self.coalesce_max_batch = coalesce_max_batch
        self._coalescer = (
            service.make_coalescer(coalesce_window_s, max_batch=coalesce_max_batch)
            if coalesce_window_s > 0
            else None
        )
        self.log_requests = log
        self._drain_logged = False
        self._draining = False
        self._in_flight = 0
        self._flight_lock = threading.Lock()
        self._drained = threading.Condition(self._flight_lock)
        self._refresh_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self.error_counts: dict[str, int] = {}
        # Observability surfaces.  A worker's admin server *shares* its
        # data server's registry and trace ring (via stats_for) so the
        # admin /metrics and /debug/traces describe real traffic — but
        # only the owning server records into them (health probes must
        # not dilute the request traces or the http_* series).
        self.journal = journal
        self.slow_query_ms = float(slow_query_ms)
        self._slow_log = slow_log
        if stats_for is not None:
            self.registry = stats_for.registry
            self.trace_buffer = stats_for.trace_buffer
            self._trace_enabled = False
        elif obs:
            self.registry = MetricsRegistry()
            self.trace_buffer = TraceBuffer()
            self._trace_enabled = True
            self._register_instruments()
        else:
            self.registry = None
            self.trace_buffer = None
            self._trace_enabled = False
        if socket_fd is not None:
            # A supervisor worker: adopt the parent's already-bound,
            # already-listening socket (classic pre-fork accept sharing —
            # every worker blocks in accept() on the same fd, the kernel
            # hands each connection to exactly one of them).
            self._httpd = ThreadingHTTPServer(
                (host, port), _Handler, bind_and_activate=False
            )
            self._httpd.socket.close()
            self._httpd.socket = socket.socket(fileno=socket_fd)
            address = self._httpd.socket.getsockname()
            self._httpd.server_address = address[:2]
            self._httpd.server_name = address[0]
            self._httpd.server_port = address[1]
        else:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        # Handler threads must not block process exit (an idle keep-alive
        # peer would otherwise hang server_close); the drain condition
        # below is what guarantees in-flight *requests* complete.
        self._httpd.daemon_threads = True
        self._httpd.embedding_server = self  # type: ignore[attr-defined]

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
    def role(self) -> str | None:
        """``primary`` / ``standby`` for servers with a WAL, else None."""
        if self.replicator is not None and not self._promoted:
            return "standby"
        if self.ingest is not None:
            return "primary"
        return None

    @property
    def is_standby(self) -> bool:
        return self.role == "standby"

    @property
    def in_flight(self) -> int:
        with self._flight_lock:
            return self._in_flight

    def start(self) -> "EmbeddingServer":
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
        if self.replicator is not None:
            # Stop tailing before the drain: a replicator mid-append is
            # fine (its log write completes), but a fresh long poll
            # against a dying primary would just burn the drain budget.
            self.replicator.stop(timeout_s=1.0)
        if self._thread is not None:
            # shutdown() handshakes with serve_forever; calling it on a
            # never-started server would wait on an event nothing sets.
            self._httpd.shutdown()  # stop accepting; running handlers continue
        drained = True
        with self._drained:
            deadline_ok = self._drained.wait_for(
                lambda: self._in_flight == 0, timeout=self.drain_timeout_s
            )
            drained = bool(deadline_ok)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout_s)
            self._thread = None
        if self.journal is not None and not self._drain_logged:
            self._drain_logged = True
            self.journal.emit(
                "drain",
                drained=drained,
                worker=self.worker_id,
                version=self.service.version,
            )
        return drained

    def __enter__(self) -> "EmbeddingServer":
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
        with self._flight_lock:
            self.error_counts[code] = self.error_counts.get(code, 0) + 1

    # -- observability --------------------------------------------------
    def _register_instruments(self) -> None:
        """Create this server's instruments and adopt the layers' below it.

        The request path pays exactly one counter increment and one
        histogram observation here; the service and the shard router
        record into instruments they own, which the registry adopts as
        the same objects.  State that is not an event stream (in-flight,
        cache hit/miss, error counts, WAL and compactor totals) is
        mirrored by a collect hook that runs only when someone scrapes.
        """
        reg = self.registry
        for metric in self.service.instruments:
            reg.adopt(metric)
        if isinstance(self.service.backend, ShardRouter):
            reg.adopt(self.service.backend.search_seconds)
        self._m_requests = reg.counter(
            "http_requests_total",
            "HTTP requests dispatched, by endpoint",
            ("endpoint",),
        )
        self._m_latency = reg.histogram(
            "http_request_seconds",
            "End-to-end HTTP request latency in seconds",
            ("endpoint",),
        )
        self._m_slow = reg.counter(
            "http_slow_queries_total",
            "Requests slower than --slow-query-ms, by endpoint",
            ("endpoint",),
        )
        reg.add_collect(self._collect_metrics)

    def _collect_metrics(self) -> None:
        reg = self.registry
        obs_metrics.mirror_process(reg, worker=self.worker_id or 0)
        reg.gauge("http_in_flight", "Requests currently executing").set(
            self.in_flight
        )
        reg.gauge("http_draining", "1 while the server is draining").set(
            1.0 if self._draining else 0.0
        )
        errors = reg.counter(
            "http_errors_total", "Structured error responses, by code", ("code",)
        )
        with self._flight_lock:
            counts = dict(self.error_counts)
        for code, n in counts.items():
            errors.set_total(n, code=code)
        cache = self.service.cache_info()
        lookups = reg.counter(
            "cache_lookups_total", "LRU cache lookups, by outcome", ("outcome",)
        )
        lookups.set_total(cache.get("hits", 0), outcome="hit")
        lookups.set_total(cache.get("misses", 0), outcome="miss")
        if self._coalescer is not None:
            info = self._coalescer.info()
            reg.counter(
                "coalesce_groups_total", "Coalesced admission groups executed"
            ).set_total(info["groups"])
            reg.counter(
                "coalesce_members_total", "Requests that joined a coalesced group"
            ).set_total(info["members"])
            reg.gauge(
                "coalesce_pending", "Requests waiting in the coalescer right now"
            ).set(info["pending"])
        if self.ingest is not None:
            obs_metrics.mirror_wal_counters(reg, self.ingest)
            fresh = self.ingest.freshness()
            reg.gauge("ingest_lsn_durable", "Highest fsync-acked LSN").set(
                fresh["lsn_durable"]
            )
            reg.gauge("ingest_lsn_served", "Highest LSN visible to queries").set(
                fresh["lsn_served"]
            )
            reg.gauge(
                "ingest_freshness_lag", "lsn_durable - lsn_served"
            ).set(fresh["lag"])
            reg.gauge(
                "wal_epoch", "Current fencing epoch of the local WAL"
            ).set(self.ingest.log.epoch)
        if self.hub is not None:
            hub = self.hub.status()
            reg.gauge(
                "replication_standbys", "Standbys polling the feed (live)"
            ).set(hub["n_standbys"])
            reg.gauge(
                "replication_min_ack_lsn",
                "Lowest LSN acked by every live standby",
            ).set(hub["min_ack_lsn"])
        if self.replicator is not None:
            status = self.replicator.status()
            reg.gauge(
                "replication_lag",
                "Primary lsn_durable minus this standby's (0 = caught up)",
            ).set(status["lag"] if status["lag"] is not None else -1)
            reg.gauge(
                "replication_connected",
                "1 while the standby is streaming or caught up",
            ).set(1.0 if status["state"] in ("streaming", "caught_up") else 0.0)
            reg.counter(
                "replication_records_total",
                "WAL records replicated from the primary",
            ).set_total(status["records_replicated"])
            reg.counter(
                "replication_bytes_total",
                "WAL payload bytes replicated from the primary",
            ).set_total(status["bytes_replicated"])
            reg.counter(
                "replication_errors_total",
                "Transient replication failures (retried)",
            ).set_total(status["errors"])
        if self.compactor is not None:
            timings = getattr(self.compactor, "timings", None)
            if timings:
                reg.counter(
                    "compactor_fold_seconds_total", "Time spent folding WAL deltas"
                ).set_total(timings.get("fold_seconds", 0.0))
                reg.counter(
                    "compactor_publish_seconds_total",
                    "Time spent publishing folded versions",
                ).set_total(timings.get("publish_seconds", 0.0))
                reg.counter(
                    "compactor_publishes_total", "Versions published by the compactor"
                ).set_total(timings.get("publishes", 0))
            reg.gauge(
                "compactor_alive", "1 while the compactor thread is running"
            ).set(1.0 if self.compactor.is_alive() else 0.0)

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

    def prometheus_text(self) -> str:
        """Render this server's registry as Prometheus text exposition."""
        if self.registry is None:
            raise ApiError(
                406, "not_acceptable",
                "observability is disabled on this server (obs=False)",
            )
        return self.registry.render_text()

    # -- endpoint handlers ---------------------------------------------
    # Each returns (status, payload-dict); ApiError propagates to the
    # handler, which writes the structured error body.
    def handle_healthz(self, _body: dict) -> tuple[int, dict]:
        target = self.stats_for or self
        payload = {
            "status": "ok",
            "version": self.service.version,
            "draining": target._draining,
        }
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        if self.ingest is not None:
            fresh = self.ingest.freshness()
            payload["lsn_durable"] = fresh["lsn_durable"]
            payload["lsn_served"] = fresh["lsn_served"]
            payload["freshness_lag"] = fresh["lag"]
            payload["role"] = self.role
            payload["epoch"] = self.ingest.log.epoch
        if self.replicator is not None:
            status = self.replicator.status()
            payload["replication"] = {
                "state": status["state"],
                "lag": status["lag"],
                "primary_url": status["primary_url"],
                "primary_epoch": status["primary_epoch"],
            }
        elif self.hub is not None and self.hub.status()["n_standbys"]:
            payload["replication"] = self.hub.status()
        return 200, payload

    def handle_describe(self, _body: dict) -> tuple[int, dict]:
        info = self.service.describe()
        info["schema"] = protocol.PROTOCOL_SCHEMA
        # Server-level capabilities, so clients/operators can discover
        # the negotiated surfaces without probing.
        info["wire_formats"] = (
            ["json", "binary"] if self.binary_wire else ["json"]
        )
        info["coalescing"] = {
            "enabled": self._coalescer is not None,
            "window_s": self.coalesce_window_s,
            "max_batch": self.coalesce_max_batch,
        }
        if self.worker_id is not None:
            info["worker"] = self.worker_id
        if self.ingest is not None:
            fresh = self.ingest.freshness()
            info["lsn_durable"] = fresh["lsn_durable"]
            info["lsn_served"] = fresh["lsn_served"]
            info["role"] = self.role
            info["epoch"] = self.ingest.log.epoch
            info["ingest"] = {
                **fresh,
                "wal_dir": str(self.ingest.wal_dir),
                "log_bytes": self.ingest.log.size_bytes,
                "log_max_bytes": self.ingest.log.max_bytes,
            }
            info["replication"] = self._replication_status()
        return 200, json_safe(info)

    def _replication_status(self) -> dict:
        """The shared describe/metrics replication document."""
        doc: dict = {"role": self.role}
        if self.ingest is not None:
            doc["epoch"] = self.ingest.log.epoch
            doc["epoch_start_lsn"] = self.ingest.log.epoch_start_lsn
        if self.replicator is not None:
            doc["standby"] = self.replicator.status()
        if self.hub is not None:
            doc["hub"] = self.hub.status()
            doc["ack_replicas"] = self.ack_replicas
        return doc

    def handle_metrics(self, _body: dict) -> tuple[int, dict]:
        target = self.stats_for or self
        payload = {
            "schema": protocol.PROTOCOL_SCHEMA,
            "server": {
                "worker": self.worker_id,
                "in_flight": target.in_flight,
                "draining": target._draining,
                "errors": dict(target.error_counts),
            },
            "service": self.service.latency_info(),
            # The LRU's own hit/miss view (the service counters above
            # only say how many answers were cache-served, not how often
            # lookups missed — both are needed to judge sizing).
            "cache": self.service.cache_info(),
        }
        backend = self.service.backend
        if isinstance(backend, ShardRouter):
            payload["shards"] = {
                "n_shards": backend.n_shards,
                **backend.latency_info(),
            }
        if self.ingest is not None:
            ingest = {
                **self.ingest.freshness(),
                "counters": dict(self.ingest.counters),
                "log_bytes": self.ingest.log.size_bytes,
                "log_max_bytes": self.ingest.log.max_bytes,
            }
            if self.compactor is not None:
                ingest["compactor"] = {
                    "alive": self.compactor.is_alive(),
                    "interval_s": self.compactor.interval_s,
                    "keep_versions": self.compactor.keep_versions,
                    "last_publish": self.compactor.last_publish,
                    "last_error": self.compactor.last_error,
                }
            payload["ingest"] = ingest
            payload["replication"] = self._replication_status()
        if target.registry is not None:
            # The sum-mergeable view, and the only home of per-endpoint
            # HTTP latency: the same families the Prometheus exposition
            # renders, as JSON, so a supervisor can merge worker cells
            # exactly (obs.metrics.merge_dicts).
            payload["registry"] = target.registry.as_dict()
        return 200, json_safe(payload)

    def handle_traces(self, _body: dict) -> tuple[int, dict]:
        target = self.stats_for or self
        if target.trace_buffer is None:
            return 200, {"enabled": False, "total": 0, "traces": []}
        return 200, {
            "enabled": True,
            "capacity": target.trace_buffer.capacity,
            "total": target.trace_buffer.total_added,
            "traces": target.trace_buffer.snapshot(),
        }

    def handle_topk(self, body: dict) -> tuple[int, "protocol.ResultPayload"]:
        protocol.reject_unknown_fields(
            body, ("node", "k") + protocol.SEARCH_OPTION_FIELDS
        )
        node = protocol.require_int(body, "node", required=True, minimum=0)
        k = protocol.require_int(body, "k", default=10, minimum=1, maximum=MAX_K)
        request = _parse_search_request(body, node=node, k=k)
        if self._coalescer is not None:
            # Admission coalescing: this handler thread merges with its
            # concurrent peers into one batch GEMM.  The group executes
            # against a single snapshot read at drain time — the same
            # consistency a PinnedView gives one request, extended to
            # the whole group (every member answers with one version).
            result = _translate_errors(
                lambda: self.service.search(request, coalescer=self._coalescer)
            )
        else:
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
        if self.is_standby:
            status = self.replicator.status()
            raise ApiError(
                409, "not_primary",
                "this server is a standby replicating from "
                f"{status['primary_url']}; send writes to the primary "
                "(or promote this standby first)",
                {
                    "primary_url": status["primary_url"],
                    "state": status["state"],
                    "epoch": self.ingest.log.epoch if self.ingest else None,
                },
            )
        return apply_upsert(
            self.ingest, body,
            hub=self.hub,
            ack_replicas=self.ack_replicas,
            ack_timeout_s=self.ack_timeout_s,
            epoch=self.ingest.log.epoch if self.ingest is not None else None,
        )

    def handle_promote(self, body: dict) -> tuple[int, dict]:
        """Fenced promotion: stop tailing, bump the epoch, accept writes.

        Safe to call on a primary too (a bare epoch bump re-fences the
        log); the interesting path is a standby taking over after its
        primary died.  The epoch bump is durable *before* the role
        flips, so a revived old primary reconnecting as a standby — or
        replaying its divergent tail — is structurally rejected by epoch
        comparison, never by luck of timing.
        """
        protocol.reject_unknown_fields(body, ("epoch",))
        if self.ingest is None:
            raise ApiError(
                409, "no_write_path",
                "this server has no WAL attached; nothing to promote",
            )
        target = protocol.require_int(body, "epoch", minimum=1)
        with self._promote_lock:
            previous_role = self.role
            if self.replicator is not None:
                # A replicator mid-append finishes against the old epoch
                # or trips EpochFenced after the bump — both safe; the
                # stop only prevents *new* polls.
                self.replicator.stop(timeout_s=2.0)
            log = self.ingest.log
            if self.replicator is not None:
                # Never promote *behind* a primary epoch we already saw.
                seen = self.replicator.status()["primary_epoch"]
                if target is not None and target <= max(log.epoch, seen):
                    raise ApiError(
                        409, "stale_epoch",
                        f"requested epoch {target} does not exceed the "
                        f"highest epoch observed ({max(log.epoch, seen)})",
                        {"epoch": max(log.epoch, seen)},
                    )
                if target is None and seen > log.epoch:
                    target = seen + 1
            try:
                epoch = log.bump_epoch(target)
            except ValueError as error:
                raise ApiError(409, "stale_epoch", str(error), {"epoch": log.epoch})
            self._promoted = True
        if self.journal is not None:
            self.journal.emit(
                "promote",
                epoch=epoch,
                previous_role=previous_role,
                lsn_durable=log.last_lsn,
            )
        return 200, {
            "role": "primary",
            "previous_role": previous_role,
            "epoch": epoch,
            "lsn_durable": log.last_lsn,
        }

    def handle_replicate(self, query: str) -> bytes:
        """The feed: raw WAL records past ``from_lsn`` as binary frames.

        Dispatched outside the JSON routing table because the response
        is the replication wire format, not an envelope — but rejections
        still surface as structured :class:`ApiError` JSON.
        """
        if self.ingest is None:
            raise ApiError(
                409, "no_write_path",
                "this server has no WAL attached; there is no log to replicate",
            )
        return serve_replicate_feed(
            self.ingest.log,
            self.hub,
            query,
            faults=self.faults,
            abort=lambda: self._draining,
        )

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


_DELTA_FIELDS = (
    "add_edges",
    "remove_edges",
    "add_associations",
    "remove_associations",
)


def _delta_from_body(body: dict) -> GraphDelta:
    """Parse the four GraphDelta fields out of a ``/v1/upsert`` body.

    Frame bodies arrive with the fields already decoded to arrays; JSON
    bodies as nested lists — both land on the same validation.
    """
    protocol.reject_unknown_fields(body, _DELTA_FIELDS)

    def as_array(name: str, width: int) -> np.ndarray | None:
        rows = body.get(name)
        if rows is None:
            return None
        try:
            array = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError):
            raise ApiError(
                400, "invalid_request", f"delta field {name!r} is malformed"
            )
        if array.size == 0:
            return None
        if array.ndim != 2 or array.shape[1] != width:
            raise ApiError(
                400, "invalid_request",
                f"delta field {name!r} must be rows of {width} numbers",
                {"shape": list(array.shape)},
            )
        return array

    return GraphDelta(
        add_edges=as_array("add_edges", 2),
        remove_edges=as_array("remove_edges", 2),
        add_associations=as_array("add_associations", 3),
        remove_associations=as_array("remove_associations", 2),
    )


def serve_replicate_feed(
    log, hub, query: str, *, faults=None, abort=None
) -> bytes:
    """Parse a ``GET /v1/replicate`` query and build the binary feed.

    Module-level so the supervisor's admin surface (which owns the log
    in multi-worker mode) serves the identical wire as a single-process
    :class:`EmbeddingServer`.
    """
    params = dict(parse_qsl(query))
    try:
        from_lsn = int(params.get("from_lsn", 0))
        epoch = int(params["epoch"]) if "epoch" in params else None
        wait_s = min(float(params.get("wait_s", 0.0)), 30.0)
        max_records = min(int(params.get("max_records", 4096)), 65536)
    except ValueError:
        raise ApiError(
            400, "invalid_request",
            "replicate query parameters must be numeric",
        )
    if from_lsn < 0 or (epoch is not None and epoch < 1) or max_records < 1:
        raise ApiError(
            400, "invalid_request",
            "replicate query parameters out of range",
        )
    standby_id = params.get("standby_id")
    try:
        # Fencing gate FIRST: a diverged or stale-epoch requester's
        # from_lsn is not a valid ack — counting it could let a
        # semi-sync upsert ack against a standby that does not
        # actually hold the record.
        check_feed_request(log, from_lsn, epoch)
    except FeedRejected as error:
        raise ApiError(409, error.code, str(error), error.details)
    if standby_id and hub is not None:
        # from_lsn is the standby's cumulative ack: everything at or
        # below it is fsync'd over there.  Note it *before* parking
        # so a waiting semi-sync upsert unblocks immediately.
        hub.note_poll(standby_id, from_lsn, durable_lsn=log.last_lsn)
    try:
        return build_feed(
            log,
            from_lsn,
            requester_epoch=epoch,
            max_records=max_records,
            wait_s=wait_s,
            faults=faults,
            abort=abort,
        )
    except FeedRejected as error:
        raise ApiError(409, error.code, str(error), error.details)


def apply_upsert(
    ingest,
    body: dict,
    *,
    hub=None,
    ack_replicas: int = 0,
    ack_timeout_s: float = 5.0,
    epoch: int | None = None,
) -> tuple[int, dict]:
    """Validate, append, fsync, ack — the whole ``/v1/upsert`` contract.

    Module-level so the supervisor's admin surface (which owns the
    pipeline in multi-worker mode) speaks the identical protocol as a
    single-process :class:`EmbeddingServer`.

    With ``ack_replicas > 0`` and a :class:`ReplicationHub`, the ack is
    semi-synchronous: it is withheld until that many standbys confirmed
    the batch's last LSN.  On timeout the append *is* locally durable,
    but the client gets a structured 503 ``replication_timeout`` and no
    ack — so "every acked LSN survives failover" holds by construction.
    """
    if ingest is None:
        raise ApiError(
            409, "no_write_path",
            "this server has no WAL attached; start it with --wal-dir "
            "to accept upserts",
        )
    delta = _delta_from_body(body)
    try:
        with trace_span("append"):
            first, last = ingest.append(delta)
    except ValueError as error:
        raise ApiError(400, "invalid_request", f"upsert rejected: {error}")
    except LogFull as error:
        # Structured backpressure: the log hit its ceiling and only
        # compaction + checkpointing can shrink it.  Raised before the
        # append touched the log, so the 503 is safe to retry; the
        # retry_after_s hint paces the client's resend.
        raise ApiError(
            503, "log_full", str(error),
            {
                "size_bytes": error.size_bytes,
                "max_bytes": error.max_bytes,
                "retry_after_s": 1.0,
            },
        )
    except LogWriteError as error:
        raise ApiError(503, "wal_write_failed", str(error))
    if ack_replicas > 0 and hub is not None:
        with trace_span("replicate"):
            replicated = hub.wait_replicated(
                last, min_replicas=ack_replicas, timeout_s=ack_timeout_s
            )
        if not replicated:
            raise ApiError(
                503, "replication_timeout",
                f"append is durable locally (LSN {last}) but "
                f"{ack_replicas} standby ack(s) did not arrive within "
                f"{ack_timeout_s:g}s; the write was NOT acked",
                {
                    "lsn": last,
                    "required_replicas": ack_replicas,
                    "acked_replicas": hub.acked(last),
                    "retry_after_s": 1.0,
                },
            )
    # The ack: these LSNs are fsync'd — a crash from here on loses
    # nothing the client was told about.  The trace records the acked
    # LSN range so `/debug/traces` ties a request id to durable state.
    obs_trace.annotate(first_lsn=first, lsn=last)
    payload = {
        "first_lsn": first,
        "lsn": last,
        "events": last - first + 1,
        "durable": True,
        "lsn_served": ingest.lsn_served(),
    }
    if epoch is not None:
        # The fencing token: clients track the highest epoch they have
        # seen and refuse to write through a server that regressed.
        payload["epoch"] = epoch
    return 200, json_safe(payload)


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

    The filter parses to the ``invalid_filter`` wire code, params to
    ``invalid_request``; request assembly itself can only fail on
    programmer error upstream, but is translated anyway so a gap
    surfaces as a 400, not a 500.
    """
    node_filter = protocol.parse_filter_field(body)
    params = protocol.parse_params_field(body)
    return _translate_errors(
        lambda: SearchRequest(
            node=node, nodes=nodes, vector=vector, k=k,
            filter=node_filter, params=params,
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


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`EmbeddingServer`'s handlers."""

    protocol_version = "HTTP/1.1"
    # A peer that stalls mid-request must not pin a handler thread (and
    # the drain wait) forever.
    timeout = 30
    # The response goes out as two writes (header block, body).  With
    # Nagle on, the body write can sit behind the peer's delayed ACK of
    # the header segment — a fixed ~40 ms stall per keep-alive exchange
    # that dwarfs the actual query time.  TCP_NODELAY on both sides
    # (the client sets it too) removes it.
    disable_nagle_algorithm = True

    @property
    def owner(self) -> EmbeddingServer:
        return self.server.embedding_server  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.owner.log_requests:
            super().log_message(format, *args)

    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id:
            # Every response — success, error, even the draining 503 —
            # echoes the request id so clients and operators can join
            # logs, traces, and retries on one key.
            self.send_header(protocol.REQUEST_ID_HEADER, request_id)
        lsn_served = getattr(self, "_lsn_served", None)
        if lsn_served is not None:
            # Read-freshness stamp for the client's min_lsn guard.  Read
            # before the snapshot pin, so it is a conservative floor:
            # the data answered is at least this fresh.
            self.send_header(protocol.LSN_HEADER, str(lsn_served))
        self._status_sent = status
        if self.owner.draining or self.close_connection:
            # Tear the connection down once the response is out: while
            # draining a reused connection would only see more 503s, and
            # an error raised before the request body was consumed leaves
            # bytes that would desync the next keep-alive request.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_bytes(
            status, protocol.dump_json(payload), protocol.JSON_CONTENT_TYPE
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
        accept = self.headers.get("Accept") or ""
        return protocol.BINARY_CONTENT_TYPE in accept

    def _safe_send(self, status: int, payload) -> None:
        """Send a response, swallowing a peer that already hung up.

        Accepts either a plain JSON-able dict or a
        :class:`protocol.ResultPayload`, which is encoded as a binary
        frame when the request negotiated it and as JSON otherwise.
        Used on every write in the dispatch paths (success and error):
        a client that gave up mid-exchange must cost one closed
        connection, not a stderr traceback per occurrence — during a
        drain with impatient clients that would flood the log.
        """
        try:
            if isinstance(payload, protocol.ResultPayload):
                if self._accepts_binary():
                    frame = payload.to_frame()
                    if self.owner.faults is not None:
                        # Wire-corruption injection: the client's frame
                        # decoder must catch the damage, not crash on it.
                        frame = self.owner.faults.corrupt_frame(frame)
                    self._send_bytes(
                        status, frame, protocol.BINARY_CONTENT_TYPE
                    )
                else:
                    self._send_json(status, payload.to_json())
            else:
                self._send_json(status, payload)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _read_body(self) -> bytes:
        if self.headers.get("Transfer-Encoding"):
            # Chunked bodies are never consumed by this server, so the
            # same keep-alive desync as an unread Content-Length body
            # applies: refuse and tear the connection down.
            self.close_connection = True
            raise ApiError(
                411, "length_required",
                "Transfer-Encoding is not supported; send Content-Length",
            )
        length = self.headers.get("Content-Length")
        if length is None:
            return b""
        try:
            length = int(length)
        except ValueError:
            # The declared body cannot be skipped, so a keep-alive reuse
            # would parse its bytes as the next request line — tear the
            # connection down with the error response.
            self.close_connection = True
            raise ApiError(400, "invalid_request", "bad Content-Length header")
        if length < 0 or length > MAX_BODY_BYTES:
            self.close_connection = True  # unread body poisons keep-alive
            raise ApiError(
                413, "payload_too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
                {"content_length": length},
            )
        try:
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
        header = self.headers.get(protocol.DEADLINE_HEADER)
        if header is None:
            return
        try:
            budget_ms = float(header)
        except ValueError:
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
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        if content_type == protocol.BINARY_CONTENT_TYPE:
            if not self.owner.binary_wire or path not in protocol.DATA_ENDPOINTS:
                raise ApiError(
                    415, "unsupported_media_type",
                    f"binary frames are not accepted on {path!r} by this server",
                )
            return protocol.decode_frame_body(raw)
        return protocol.parse_json_body(raw)

    # -- routing -------------------------------------------------------
    _GET_ROUTES = {
        protocol.HEALTHZ: EmbeddingServer.handle_healthz,
        protocol.DESCRIBE: EmbeddingServer.handle_describe,
        protocol.METRICS: EmbeddingServer.handle_metrics,
        protocol.TRACES: EmbeddingServer.handle_traces,
        # Dispatched specially (query string in, binary frames out) but
        # listed here so method routing (404/405) treats it uniformly.
        protocol.REPLICATE: EmbeddingServer.handle_replicate,
    }
    _POST_ROUTES = {
        protocol.TOPK: EmbeddingServer.handle_topk,
        protocol.TOPK_BATCH: EmbeddingServer.handle_topk_batch,
        protocol.SIMILAR: EmbeddingServer.handle_similar,
        protocol.UPSERT: EmbeddingServer.handle_upsert,
        protocol.REFRESH: EmbeddingServer.handle_refresh,
        protocol.PROMOTE: EmbeddingServer.handle_promote,
    }

    def do_GET(self) -> None:
        self._dispatch(self._GET_ROUTES, self._POST_ROUTES)

    def do_POST(self) -> None:
        self._dispatch(self._POST_ROUTES, self._GET_ROUTES)

    def do_HEAD(self) -> None:
        # Load balancers commonly probe with HEAD; answer exactly like
        # GET minus the body (_send_json skips the write, the headers
        # still carry the real Content-Length).
        self._dispatch(self._GET_ROUTES, self._POST_ROUTES)

    def _unsupported_method(self) -> None:
        # The contract is JSON envelopes on *every* response — without
        # these handlers the stdlib would answer PUT/DELETE/... with an
        # HTML 501 page.  A body (PUT) may be unread: close after.
        # Runs through the same draining gate and error accounting as
        # routed requests, so a draining server answers 503 uniformly
        # and /metrics error counts do not depend on the verb used.
        owner = self.owner
        self.close_connection = True
        self._assign_request_id()
        if not owner._enter_request():
            self._safe_send(
                503,
                ApiError(
                    503, "draining",
                    "server is draining; retry against another replica",
                    request_id=self._request_id,
                ).body(),
            )
            return
        try:
            owner._count_error("method_not_allowed")
            self._safe_send(
                405,
                ApiError(
                    405, "method_not_allowed",
                    f"{self.command} is not supported by this API",
                    request_id=self._request_id,
                ).body(),
            )
        finally:
            owner._exit_request()

    do_PUT = do_DELETE = do_PATCH = do_OPTIONS = _unsupported_method

    def _assign_request_id(self) -> str:
        """Adopt the caller's ``X-Request-Id`` or mint one."""
        supplied = obs_trace.clean_request_id(
            self.headers.get(protocol.REQUEST_ID_HEADER)
        )
        self._request_id = supplied or obs_trace.new_request_id()
        return self._request_id

    def _accepts_prometheus(self) -> bool:
        """Did ``GET /metrics`` ask for the text exposition format?"""
        accept = self.headers.get("Accept") or ""
        return "text/plain" in accept

    def _dispatch(self, routes: dict, other_method_routes: dict) -> None:
        owner = self.owner
        path = urlsplit(self.path).path
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
                    status="draining",
                    version=owner.service.version,
                    draining=True,
                )
            self._safe_send(503, body)
            return
        start = time.perf_counter()
        # Tracing: only the server that owns the observability surfaces
        # traces its requests (an admin side-channel sharing them via
        # stats_for exposes them without polluting them with probes).
        trace = None
        token = None
        if owner._trace_enabled:
            trace = obs_trace.Trace(request_id, path, method=self.command)
            token = obs_trace.set_current(trace)
        self._status_sent = None
        self._lsn_served = None
        if owner.ingest is not None and path in (
            protocol.TOPK, protocol.TOPK_BATCH, protocol.SIMILAR,
        ):
            try:
                self._lsn_served = owner.ingest.lsn_served()
            except Exception:
                pass  # freshness stamping must never fail a read
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
                route = routes.get(path)
                if route is None:
                    if path in other_method_routes:
                        raise ApiError(
                            405, "method_not_allowed",
                            f"{self.command} is not supported on {path}",
                        )
                    raise ApiError(
                        404, "unknown_endpoint", f"no endpoint at {path!r}"
                    )
                if path == protocol.REPLICATE and self.command in ("GET", "HEAD"):
                    # Replication feed: binary frames, not a JSON
                    # envelope — but errors still go out structured.
                    feed = owner.handle_replicate(urlsplit(self.path).query)
                    with trace_span("serialize"):
                        self._send_bytes(
                            200, feed, protocol.REPLICATION_CONTENT_TYPE
                        )
                elif (
                    path == protocol.METRICS
                    and self.command in ("GET", "HEAD")
                    and (owner.stats_for or owner).registry is not None
                    and self._accepts_prometheus()
                ):
                    # Content negotiation: Accept: text/plain turns the
                    # JSON metrics document into Prometheus exposition.
                    text = (owner.stats_for or owner).prometheus_text()
                    with trace_span("serialize"):
                        self._send_bytes(
                            200,
                            text.encode("utf-8"),
                            obs_metrics.TEXT_CONTENT_TYPE,
                        )
                else:
                    status, payload = route(owner, self._parse_body(raw, path))
                    with trace_span("serialize"):
                        self._safe_send(status, payload)
            except ApiError as error:
                owner._count_error(error.code)
                error.request_id = request_id
                self._safe_send(error.status, error.body())
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
                self._safe_send(
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
