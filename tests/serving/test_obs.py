"""Observability: tracing, the metrics registry, and the event journal.

Unit coverage for ``repro.serving.obs`` plus integration through the
HTTP server: request-id echo, ``/debug/traces`` spans, Prometheus text
negotiation on ``/metrics``, structured slow-query lines, and the
request id stamped into every error envelope.
"""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.request

import pytest

from repro.serving.http import (
    ApiError,
    EmbeddingServer,
    ServingClient,
    protocol,
)
from repro.serving.obs.journal import (
    EventJournal,
    follow_events,
    read_events,
    summarize_events,
)
from repro.serving.obs.metrics import (
    TEXT_CONTENT_TYPE,
    Counter,
    MetricsRegistry,
    family_total,
    merge_dicts,
    mirror_process,
    mirror_wal_counters,
    parse_text,
    process_memory_bytes,
    render_text_from_dict,
)
from repro.serving.obs.trace import (
    REQUEST_ID_HEADER,
    Trace,
    TraceBuffer,
    clean_request_id,
    current_trace,
    new_request_id,
    reset_current,
    set_current,
    trace_span,
)
from repro.serving.service import QueryService, SearchRequest


@pytest.fixture()
def service(store):
    with QueryService(store, backend="exact", n_threads=2) as service:
        yield service


def _wait_for_trace(server, request_id: str, timeout_s: float = 5.0) -> dict:
    """Poll /debug/traces for an id: the buffer add races the response."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        payload = json.loads(_get(server.url + protocol.TRACES)[2])
        for entry in payload["traces"]:
            if entry["request_id"] == request_id:
                return entry
        time.sleep(0.01)
    raise AssertionError(f"trace {request_id!r} never appeared")


def _get(url: str, headers: dict | None = None) -> tuple[int, dict, bytes]:
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


# -- trace primitives ---------------------------------------------------
class TestTrace:
    def test_request_id_hygiene(self):
        assert clean_request_id(None) is None
        assert clean_request_id("  ") is None
        assert clean_request_id("abc-123") == "abc-123"
        assert clean_request_id("x" * 500) == "x" * 128  # bounded
        assert clean_request_id("bad\nheader") is None  # header injection
        generated = new_request_id()
        assert clean_request_id(generated) == generated

    def test_spans_nest_and_annotate(self):
        trace = Trace("rid", "/v1/topk", method="POST")
        token = set_current(trace)
        try:
            with trace_span("select", version="v1") as span:
                assert span is not None
                assert current_trace() is trace
            trace.annotate(lsn=7)
        finally:
            reset_current(token)
        assert current_trace() is None
        entry = trace.as_dict()
        assert entry["request_id"] == "rid"
        assert [s["name"] for s in entry["spans"]] == ["select"]
        assert entry["spans"][0]["meta"] == {"version": "v1"}
        assert entry["annotations"] == {"lsn": 7}

    def test_span_without_active_trace_is_noop(self):
        with trace_span("select") as span:
            assert span is None

    def test_buffer_is_a_ring(self):
        buffer = TraceBuffer(3)
        for n in range(5):
            trace = Trace(f"r{n}", "/x")
            trace.finish(200)
            buffer.add(trace.as_dict())
        entries = buffer.snapshot()
        assert [e["request_id"] for e in entries] == ["r4", "r3", "r2"]
        assert buffer.total_added == 5
        assert buffer.find("r3")["request_id"] == "r3"
        assert buffer.find("r0") is None


# -- metrics registry ---------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "Requests", ("endpoint",))
        requests.inc(endpoint="/a")
        requests.inc(2, endpoint="/b")
        registry.gauge("in_flight", "In flight").set(3)
        latency = registry.histogram("latency_seconds", "Latency")
        latency.observe(0.002)
        latency.observe(10.0)
        text = render_text_from_dict(registry.as_dict())
        parsed = parse_text(text)
        assert parsed["requests_total"]["type"] == "counter"
        assert parsed["in_flight"]["type"] == "gauge"
        assert parsed["latency_seconds"]["type"] == "histogram"
        samples = parsed["requests_total"]["samples"]
        assert samples[("requests_total", (("endpoint", "/a"),))] == 1
        assert samples[("requests_total", (("endpoint", "/b"),))] == 2

    def test_merge_sums_cells_and_buckets(self):
        def build(n):
            registry = MetricsRegistry()
            registry.counter("hits_total", "Hits", ("shard",)).inc(
                n, shard="s0"
            )
            histogram = registry.histogram("lat", "Lat")
            histogram.observe(0.001 * n)
            return registry.as_dict()

        merged = merge_dicts([build(1), build(2), build(4)])
        families = {f["name"]: f for f in merged["families"]}
        assert families["hits_total"]["cells"][0]["value"] == 7
        histogram_cell = families["lat"]["cells"][0]
        assert histogram_cell["count"] == 3
        assert sum(histogram_cell["counts"]) == 3
        # The merged doc still renders as valid exposition.
        parse_text(render_text_from_dict(merged))

    def test_merge_rejects_type_mismatch(self):
        a = MetricsRegistry()
        a.counter("x", "X")
        b = MetricsRegistry()
        b.gauge("x", "X")
        with pytest.raises(ValueError):
            merge_dicts([a.as_dict(), b.as_dict()])

    def test_adopt_exposes_the_owners_object(self):
        owned = Counter("jobs_total", "Jobs", ("kind",))
        registry = MetricsRegistry()
        assert registry.adopt(owned) is owned
        owned.inc(3, kind="a")  # recorded by the owner, after adoption
        assert family_total(registry.as_dict(), "jobs_total", kind="a") == 3
        assert registry.adopt(owned) is owned  # idempotent for the same object
        with pytest.raises(ValueError):
            registry.adopt(Counter("jobs_total", "Jobs", ("kind",)))

    def test_family_total_sums_values_and_histogram_counts(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "Hits", ("shard",))
        hits.inc(2, shard=0)
        hits.inc(5, shard=1)
        registry.histogram("lat", "Lat").observe(0.1)
        snapshot = registry.as_dict()
        assert family_total(snapshot, "hits_total") == 7
        assert family_total(snapshot, "hits_total", shard=1) == 5
        assert family_total(snapshot, "lat") == 1
        assert family_total(snapshot, "absent_total") == 0

    def test_parse_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_text("this is not { prometheus\n")


# -- event journal ------------------------------------------------------
class TestJournal:
    def test_emit_read_filter(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.emit("publish", version="v1", lsn=3)
        journal.emit("gc", deleted=["v0"])
        events = list(read_events(tmp_path))
        assert [e["kind"] for e in events] == ["publish", "gc"]
        assert all("ts" in e and "pid" in e for e in events)
        only = list(read_events(tmp_path, kinds=["gc"]))
        assert [e["kind"] for e in only] == ["gc"]
        assert list(read_events(tmp_path, since=time.time() + 60)) == []

    def test_rotation_keeps_recent_events(self, tmp_path):
        journal = EventJournal(tmp_path, max_bytes=4096, keep=2)
        for n in range(400):
            journal.emit("tick", n=n)
        events = list(read_events(tmp_path))
        # Oldest generations were dropped, order survives, tail intact.
        assert 0 < len(events) < 400
        assert events[-1]["n"] == 399
        assert [e["n"] for e in events] == sorted(e["n"] for e in events)
        assert journal.dropped == 0

    def test_follow_streams_new_events(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.emit("old", n=0)
        stop = threading.Event()
        seen: list[dict] = []

        def tail():
            for event in follow_events(
                tmp_path, stop=stop, poll_s=0.02, replay=True
            ):
                seen.append(event)
                if event["kind"] == "new":
                    stop.set()

        thread = threading.Thread(target=tail, daemon=True)
        thread.start()
        time.sleep(0.1)
        journal.emit("new", n=1)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [e["kind"] for e in seen] == ["old", "new"]

    def test_summarize(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.emit("publish", version="v1")
        journal.emit("publish", version="v2")
        journal.emit("drain")
        summary = summarize_events(tmp_path)
        assert summary["events"] == 3
        assert summary["kinds"] == {"publish": 2, "drain": 1}
        assert summary["last_by_kind"]["publish"]["version"] == "v2"


# -- server integration -------------------------------------------------
class TestServerTracing:
    def test_request_id_generated_and_echoed(self, service):
        with EmbeddingServer(service) as server:
            status, headers, _ = _get(server.url + protocol.DESCRIBE)
            assert status == 200
            assert clean_request_id(headers.get(REQUEST_ID_HEADER))

    def test_request_id_caller_supplied_wins(self, service):
        with EmbeddingServer(service) as server:
            status, headers, body = _get(
                server.url + protocol.DESCRIBE,
                headers={REQUEST_ID_HEADER: "my-req-1"},
            )
            assert status == 200
            assert headers.get(REQUEST_ID_HEADER) == "my-req-1"
            entry = _wait_for_trace(server, "my-req-1")
            assert entry["endpoint"] == protocol.DESCRIBE

    def test_debug_traces_spans(self, service):
        with EmbeddingServer(service) as server:
            client = ServingClient(server.url, retries=0)
            client.top_k(0, 5)

            def find_topk():
                payload = json.loads(_get(server.url + protocol.TRACES)[2])
                assert payload["enabled"] is True
                for entry in payload["traces"]:
                    if entry["endpoint"] == protocol.TOPK:
                        return entry
                return None

            deadline = time.monotonic() + 5.0
            topk = find_topk()
            while topk is None and time.monotonic() < deadline:
                time.sleep(0.01)
                topk = find_topk()
            assert topk is not None
            names = [s["name"] for s in topk["spans"]]
            assert "parse" in names
            assert "select" in names
            # Encoding and the socket write are separate spans, so a
            # slow peer is never charged to the encoder.
            assert "encode" in names and "write" in names
            assert names.index("encode") < names.index("write")
            assert topk["status"] == 200
            assert topk["duration_ms"] > 0
            client.close()

    def test_queued_trace_records_admit_wait(self, store, monkeypatch):
        """Two requests queued behind a held engine slot: both traces
        carry ``admit_wait``, and the one handed the slot carries the
        ``select`` span of the batch it answered for both."""
        with QueryService(store, backend="exact", cache_size=0) as service:
            search = service.backend.search
            entered, release = threading.Event(), threading.Event()

            def held(queries, k, **kwargs):
                if not entered.is_set():
                    entered.set()
                    assert release.wait(30)
                return search(queries, k, **kwargs)

            monkeypatch.setattr(service.backend, "search", held)
            service._free_slots = 1
            with EmbeddingServer(service) as server:

                def post(node: int, request_id: str) -> None:
                    request = urllib.request.Request(
                        server.url + protocol.TOPK,
                        data=json.dumps({"node": node, "k": 4}).encode(),
                        headers={REQUEST_ID_HEADER: request_id},
                        method="POST",
                    )
                    with urllib.request.urlopen(request, timeout=30) as response:
                        assert response.status == 200

                holder = threading.Thread(target=post, args=(0, "holder"))
                holder.start()
                assert entered.wait(30)
                queued = [
                    threading.Thread(target=post, args=(node, f"queued-{node}"))
                    for node in (1, 2)
                ]
                for thread in queued:
                    thread.start()
                deadline = time.monotonic() + 30
                while len(service._queue) < 2 and time.monotonic() < deadline:
                    time.sleep(0.001)
                release.set()
                for thread in (holder, *queued):
                    thread.join(timeout=30)
                holder_spans = _wait_for_trace(server, "holder")["spans"]
                assert "admit_wait" not in [s["name"] for s in holder_spans]
                batches = []
                for node in (1, 2):
                    spans = _wait_for_trace(server, f"queued-{node}")["spans"]
                    assert "admit_wait" in [s["name"] for s in spans]
                    batches += [
                        s["meta"]["batch"] for s in spans if s["name"] == "select"
                    ]
                assert batches == [2]  # one drain answered both

    def test_slow_query_log_line(self, service):
        log = io.StringIO()
        with EmbeddingServer(
            service, slow_query_ms=0.0001, slow_log=log
        ) as server:
            client = ServingClient(server.url, retries=0)
            client.top_k(0, 5)
            client.close()
        lines = [line for line in log.getvalue().splitlines() if line]
        assert lines
        record = json.loads(lines[0])["slow_query"]
        assert record["request_id"]
        assert record["threshold_ms"] == 0.0001
        assert any(s["name"] == "select" for s in record["spans"])

    def test_obs_disabled_server_still_serves(self, service):
        with EmbeddingServer(service, obs=False) as server:
            client = ServingClient(server.url, retries=0)
            client.top_k(0, 5)
            payload = json.loads(_get(server.url + protocol.TRACES)[2])
            assert payload["enabled"] is False
            status, headers, _ = _get(
                server.url + protocol.METRICS,
                headers={"Accept": "text/plain"},
            )
            # No registry: negotiation falls back to the JSON payload.
            assert status == 200
            assert "json" in headers.get("Content-Type", "")
            client.close()

    def test_upsert_trace_records_lsn(self, tmp_path):
        from repro.graph.generators import attributed_sbm
        from repro.serving.store import EmbeddingStore
        from repro.serving.wal.compactor import IngestPipeline

        graph = attributed_sbm(n_nodes=40, n_attributes=12, seed=5)
        store = EmbeddingStore(tmp_path / "store")
        pipeline = IngestPipeline(tmp_path / "wal", store)
        pipeline.bootstrap(graph, k=8, update_sweeps=1)
        try:
            with QueryService(store, backend="exact") as service:
                pipeline.bind_service(service)
                with EmbeddingServer(service, ingest=pipeline) as server:
                    client = ServingClient(server.url, retries=0)
                    result = client.upsert(add_edges=[[0, 1]])

                    def find_upsert():
                        payload = json.loads(
                            _get(server.url + protocol.TRACES)[2]
                        )
                        for entry in payload["traces"]:
                            if entry["endpoint"] == protocol.UPSERT:
                                return entry
                        return None

                    deadline = time.monotonic() + 5.0
                    upsert = find_upsert()
                    while upsert is None and time.monotonic() < deadline:
                        time.sleep(0.01)
                        upsert = find_upsert()
                    assert upsert is not None
                    assert upsert["annotations"]["lsn"] == result["lsn"]
                    assert any(
                        s["name"] == "append" for s in upsert["spans"]
                    )
                    client.close()
        finally:
            pipeline.close()


class TestErrorEnvelopeRequestId:
    def test_404_and_405_carry_request_id(self, service):
        with EmbeddingServer(service) as server:
            for path, expected in (
                ("/v1/nope", 404),
                (protocol.TOPK, 405),
            ):
                status, headers, body = _get(
                    server.url + path,
                    headers={REQUEST_ID_HEADER: f"err-{expected}"},
                )
                assert status == expected
                envelope = json.loads(body)
                assert envelope["error"]["request_id"] == f"err-{expected}"
                assert headers.get(REQUEST_ID_HEADER) == f"err-{expected}"

    def test_503_draining_carries_request_id(self, service):
        server = EmbeddingServer(service).start()
        server._draining = True
        try:
            status, headers, body = _get(
                server.url + protocol.HEALTHZ,
                headers={REQUEST_ID_HEADER: "drain-1"},
            )
            assert status == 503
            envelope = json.loads(body)
            assert envelope["error"]["code"] == "draining"
            assert envelope["error"]["request_id"] == "drain-1"
            assert headers.get(REQUEST_ID_HEADER) == "drain-1"
        finally:
            server._draining = False
            assert server.close() is True

    def test_409_store_corrupt_carries_request_id(
        self, store, trained_embedding
    ):
        with QueryService(store, backend="exact") as service:
            with EmbeddingServer(service) as server:
                v2 = store.publish(trained_embedding)
                rows = store.root / "versions" / v2 / "x_forward.npy"
                with open(rows, "r+b") as handle:
                    handle.truncate(16)
                client = ServingClient(server.url, retries=0)
                with pytest.raises(ApiError) as excinfo:
                    client.refresh()
                assert excinfo.value.status == 409
                assert excinfo.value.code == "store_corrupt"
                assert clean_request_id(excinfo.value.request_id)
                client.close()


class TestPrometheusExposition:
    def test_metrics_negotiates_text(self, service):
        with EmbeddingServer(service) as server:
            client = ServingClient(server.url, retries=0)
            client.top_k(0, 5)
            client.top_k(0, 5)
            # The counter is bumped after the response is written, so the
            # scrape can overtake the second request's accounting: poll.
            deadline = time.monotonic() + 5.0
            while True:
                status, headers, body = _get(
                    server.url + protocol.METRICS,
                    headers={"Accept": "text/plain"},
                )
                assert status == 200
                assert headers.get("Content-Type") == TEXT_CONTENT_TYPE
                parsed = parse_text(body.decode("utf-8"))
                requests_total = parsed["http_requests_total"]
                assert requests_total["type"] == "counter"
                topk = requests_total["samples"][
                    ("http_requests_total", (("endpoint", protocol.TOPK),))
                ]
                if topk >= 2 or time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
            assert topk >= 2
            assert parsed["cache_lookups_total"]["type"] == "counter"
            assert parsed["http_request_seconds"]["type"] == "histogram"
            client.close()

    def test_json_metrics_carries_registry(self, service):
        with EmbeddingServer(service) as server:
            client = ServingClient(server.url, retries=0)
            client.top_k(0, 5)
            metrics = client.metrics()
            families = {
                f["name"]: f for f in metrics["registry"]["families"]
            }
            assert "http_requests_total" in families
            assert "service_queries_total" in families
            client.close()


class TestOneInstrument:
    """One record per event, owned by the layer that does the work."""

    def test_registry_holds_the_service_and_router_objects(
        self, tmp_path, trained_embedding
    ):
        from repro.serving.store import EmbeddingStore

        sharded = EmbeddingStore(tmp_path / "sharded", n_shards=2)
        sharded.publish(trained_embedding)
        with QueryService(sharded, backend="exact") as service:
            server = EmbeddingServer(service)  # never started
            try:
                # adopt() hands back its argument only when the registry
                # already holds that very object (a copy would raise).
                owned = (
                    *service.instruments,
                    service.backend.search_seconds,
                    server.errors_total,
                )
                assert service.cache_lookups_total in owned
                for metric in owned:
                    assert server.registry.adopt(metric) is metric
                # Written by the layers, read by the scrape: no hook copies.
                service.search(SearchRequest(nodes=[0, 1, 2], k=3))
                registry = server.registry.as_dict()
                assert family_total(registry, "service_queries_total") == 3
                assert family_total(registry, "service_query_seconds") == 1
                assert family_total(registry, "shard_search_seconds") == 2
                # A version swap builds a new router; the adopted series
                # keeps counting.
                sharded.publish(trained_embedding)
                service.refresh_to_latest()
                service.search(SearchRequest(node=5, k=3))
                assert (
                    family_total(
                        server.registry.as_dict(), "shard_search_seconds", shard=1
                    )
                    == 2
                )
            finally:
                server.close()

    def test_no_scrape_writes_error_or_cache_counts(self, service, monkeypatch):
        """``http_errors_total`` and ``cache_lookups_total`` are written only
        where the error or the lookup happens: no collect hook touches
        them and nothing calls ``set_total`` on them."""
        owned = ("http_errors_total", "cache_lookups_total")
        mirrored = []
        real_set_total = Counter.set_total

        def set_total(self, value, **labels):
            if self.name in owned:
                mirrored.append(self.name)
            real_set_total(self, value, **labels)

        monkeypatch.setattr(Counter, "set_total", set_total)
        with EmbeddingServer(service) as server:
            client = ServingClient(server.url, retries=0)
            client.top_k(0, 5)
            client.top_k(0, 5)
            with pytest.raises(ApiError):
                client.top_k(10_000, 5)
            client.close()
            counters = (server.errors_total, service.cache_lookups_total)
            frozen = [metric._cell_dicts() for metric in counters]
            registry = server.registry.as_dict()  # runs every collect hook
            assert [metric._cell_dicts() for metric in counters] == frozen
        assert mirrored == []
        assert family_total(registry, "http_errors_total", code="node_not_found") == 1
        assert family_total(registry, "cache_lookups_total", outcome="hit") == 1
        assert family_total(registry, "cache_lookups_total", outcome="miss") == 1

    def test_near_ties_show_in_the_rescore_counter(self, tmp_path):
        """A corpus of duplicates widens the certified band: the rows it
        rescores show in ``index_rescored_rows_total``, across a swap, and
        ``describe()`` reports each shard's resident selection copy."""
        from repro.core.embedding import PANEEmbedding
        from repro.serving.store import EmbeddingStore
        from repro.serving.synth import synthetic_embedding

        base = synthetic_embedding(300, 8, seed=0)
        x_forward, x_backward = base.x_forward.copy(), base.x_backward.copy()
        x_forward[:150], x_backward[:150] = x_forward[0], x_backward[0]
        duplicated = PANEEmbedding(
            x_forward=x_forward, x_backward=x_backward, y=base.y, config=base.config
        )
        store = EmbeddingStore(tmp_path / "store", n_shards=2)
        store.publish(base)
        with QueryService(store, backend="exact") as service:
            server = EmbeddingServer(service)  # never started
            try:
                assert service.describe()["memory"]["select_resident_bytes"] == [
                    150 * 8 * 4,
                    150 * 8 * 4,
                ]
                service.search(SearchRequest(node=0, k=5))
                distinct = family_total(
                    server.registry.as_dict(), "index_rescored_rows_total"
                )
                assert 5 <= distinct < 20
                store.publish(duplicated)
                service.refresh_to_latest()
                service.search(SearchRequest(node=0, k=5))
                # The 149 twins of node 0 all tie at the k-th score.
                total = family_total(
                    server.registry.as_dict(), "index_rescored_rows_total"
                )
                assert total - distinct >= 149
            finally:
                server.close()

    def test_one_topk_is_one_http_and_one_service_record(self, service):
        with EmbeddingServer(service) as server:
            client = ServingClient(server.url, retries=0)
            client.top_k(3, 5)
            registry = client.metrics()["registry"]  # same keep-alive thread
            client.close()
        for family in ("http_request_seconds", "http_requests_total"):
            assert family_total(registry, family, endpoint=protocol.TOPK) == 1
        assert family_total(registry, "service_query_seconds") == 1
        assert family_total(registry, "service_queries_total") == 1

    def test_two_workers_merge_to_exact_fleet_totals(self, store):
        """merge_dicts alone turns per-worker /metrics into fleet totals."""
        registries = []
        for n_requests in (3, 5):
            with QueryService(store, backend="exact") as worker_service:
                with EmbeddingServer(worker_service) as server:
                    client = ServingClient(server.url, retries=0)
                    for node in range(n_requests):
                        client.top_k(node, 4)
                    client.batch_top_k([0, 50], 4)
                    registries.append(client.metrics()["registry"])
                    client.close()
        fleet = merge_dicts(registries)
        assert family_total(fleet, "http_requests_total", endpoint=protocol.TOPK) == 8
        assert family_total(fleet, "http_request_seconds", endpoint=protocol.TOPK) == 8
        assert family_total(fleet, "service_queries_total") == 8 + 4
        assert family_total(fleet, "service_query_seconds") == 8 + 2
        families = {f["name"]: f for f in fleet["families"]}
        for name in ("http_request_seconds", "service_query_seconds"):
            parts = [
                {f["name"]: f for f in registry["families"]}[name]
                for registry in registries
            ]
            for cell in families[name]["cells"]:
                matching = [
                    c for part in parts for c in part["cells"]
                    if c["labels"] == cell["labels"]
                ]
                assert cell["counts"] == [
                    sum(column) for column in zip(*(c["counts"] for c in matching))
                ]
                assert cell["sum"] == pytest.approx(sum(c["sum"] for c in matching))
        parse_text(render_text_from_dict(fleet))


def _cells(registry: dict, name: str) -> dict[str, float]:
    """``{worker label: value}`` of one ``process_*`` family."""
    family = next(f for f in registry["families"] if f["name"] == name)
    assert family["type"] == "gauge" and family["labels"] == ["worker"]
    return {cell["labels"]["worker"]: cell["value"] for cell in family["cells"]}


class TestProcessFootprint:
    """RSS, peak RSS and module count are readable from ``/metrics``."""

    FAMILIES = (
        "process_resident_memory_bytes",
        "process_peak_resident_memory_bytes",
        "process_modules_loaded",
    )

    def test_scrape_mirrors_the_process(self, service):
        import importlib
        import sys

        with EmbeddingServer(service) as server:
            client = ServingClient(server.url, retries=0)
            client.top_k(0, 5)
            first = client.metrics()["registry"]
            resident = _cells(first, "process_resident_memory_bytes")["0"]
            peak = _cells(first, "process_peak_resident_memory_bytes")["0"]
            assert 0 < resident <= peak
            # The server runs in this process: same kernel counters.
            assert peak == pytest.approx(process_memory_bytes()[1], rel=0.25)
            modules = _cells(first, "process_modules_loaded")["0"]
            assert modules == pytest.approx(len(sys.modules), abs=16)
            # Read at scrape time, not at boot: a module loaded since
            # shows in the next scrape.
            sys.modules.pop("colorsys", None)
            importlib.import_module("colorsys")
            assert _cells(client.metrics()["registry"], "process_modules_loaded")[
                "0"
            ] >= modules + 1
            text = _get(
                server.url + protocol.METRICS, headers={"Accept": "text/plain"}
            )[2].decode("utf-8")
            parsed = parse_text(text)
            for name in self.FAMILIES:
                assert parsed[name]["type"] == "gauge"
                assert (name, (("worker", "0"),)) in parsed[name]["samples"]
            client.close()

    def test_fleet_merge_keeps_one_cell_per_worker(self):
        registries = []
        for worker in (0, 1):
            registry = MetricsRegistry()
            mirror_process(registry, worker=worker)
            registries.append(registry.as_dict())
        fleet = merge_dicts(registries)
        for name in self.FAMILIES:
            cells = _cells(fleet, name)
            assert set(cells) == {"0", "1"}
            for worker, registry in enumerate(registries):
                assert cells[str(worker)] == _cells(registry, name)[str(worker)]

    def test_stat_prints_the_footprint(self, service, store, capsys):
        from repro.cli import main

        with EmbeddingServer(service) as server:
            code = main(
                ["stat", "--store", str(store.root), "--url", server.url]
            )
        assert code == 0
        line = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("process: worker 0 ")
        )
        assert "rss=" in line and "peak=" in line and "modules=" in line


class TestWalMirror:
    """One definition of the ``wal_*`` families for server and supervisor."""

    def test_server_registry_carries_the_shared_families(self, tmp_path):
        import numpy as np

        from repro.dynamic.delta import GraphDelta
        from repro.graph.generators import attributed_sbm
        from repro.serving.store import EmbeddingStore
        from repro.serving.wal.compactor import IngestPipeline

        graph = attributed_sbm(n_nodes=40, n_attributes=12, seed=5)
        store = EmbeddingStore(tmp_path / "store")
        pipeline = IngestPipeline(tmp_path / "wal", store)
        pipeline.bootstrap(graph, k=8, update_sweeps=1)
        try:
            pipeline.append(GraphDelta(add_edges=np.array([[0, 1]])))
            reference = MetricsRegistry()
            mirror_wal_counters(reference, pipeline)
            expected = {
                f["name"]: (f["type"], f["help"], f["cells"])
                for f in reference.as_dict()["families"]
            }
            assert set(expected) == {
                "wal_appends_total", "wal_events_total", "wal_compactions_total",
                "wal_records_folded_total", "wal_checkpoints_total",
                "wal_log_full_total", "wal_fsyncs_total",
                "wal_fsynced_bytes_total", "wal_log_bytes",
            }
            assert expected["wal_appends_total"][2][0]["value"] == 1
            assert expected["wal_fsyncs_total"][2][0]["value"] >= 1
            assert expected["wal_log_bytes"][2][0]["value"] > 0
            with QueryService(store, backend="exact") as service:
                server = EmbeddingServer(service, ingest=pipeline)  # never started
                try:
                    served = {
                        f["name"]: (f["type"], f["help"], f["cells"])
                        for f in server.registry.as_dict()["families"]
                    }
                finally:
                    server.close()
            assert {name: served[name] for name in expected} == expected
        finally:
            pipeline.close()


class TestClientTraceRing:
    def test_same_request_id_across_retry_attempts(self, service):
        with EmbeddingServer(service) as server:
            # First replica is a dead port: the request must fail over,
            # re-sending the SAME request id on the second attempt.
            client = ServingClient(
                ["http://127.0.0.1:9", server.url],
                retries=2,
                backoff_s=0.0,
            )
            client.describe()
            entry = client.request_trace()[0]
            assert entry["path"] == protocol.DESCRIBE
            attempts = entry["attempts"]
            assert len(attempts) >= 2
            assert attempts[-1]["status"] == 200
            assert attempts[0].get("error")
            # One id for the whole logical request: the server saw the
            # same id the client logged for attempt 1 and attempt 2.
            _wait_for_trace(server, entry["request_id"])
            client.close()


class TestFsckJournal:
    def test_repair_emits_fsck_event(self, tmp_path, trained_embedding):
        from repro.serving.fsck import fsck
        from repro.serving.store import EmbeddingStore

        root = tmp_path / "store"
        store = EmbeddingStore(root)
        store.publish(trained_embedding)
        v2 = store.publish(trained_embedding)
        with open(root / "versions" / v2 / "x_forward.npy", "r+b") as handle:
            handle.truncate(16)
        journal = EventJournal(root)
        report = fsck(root, repair=True, journal=journal)
        assert report.actions
        events = list(read_events(root, kinds=["fsck_repair"]))
        assert len(events) == 1
        assert events[0]["sweep"] == "store"
        assert events[0]["actions"] == report.actions
