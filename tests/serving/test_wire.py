"""Tests for the request path: binary frames, content-type negotiation,
client keep-alive reuse, engine admission of concurrent single queries,
and cache counters.

The HTTP basics (endpoints, validation, drain, replicas) live in
``test_http.py``; everything here is the wire/admission layer added on
top — including the compatibility matrix the negotiation must uphold:
binary-preferring clients against JSON-only servers and JSON clients
against binary-capable servers.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.search.knn import NodeFilter
from repro.serving.http import ApiError, EmbeddingServer, ServingClient, run_load
from repro.serving.http import protocol
from repro.serving.service import QueryService, SearchRequest


@pytest.fixture()
def service(store):
    with QueryService(store, backend="exact", n_threads=2) as service:
        yield service


@pytest.fixture()
def server(service):
    with EmbeddingServer(service) as server:
        yield server


class TestFrameCodec:
    def test_round_trip_scalars_and_arrays(self):
        header = {"version": "v00000001", "latency_s": 0.25, "cached": False}
        arrays = {
            "ids": np.array([3, 1, 4], dtype=np.intp),
            "scores": np.array([0.9, 0.5, -np.inf]),
        }
        decoded_header, decoded = protocol.decode_frame(
            protocol.encode_frame(header, arrays)
        )
        assert decoded_header == header
        assert np.array_equal(decoded["ids"], arrays["ids"])
        # Raw float64 bytes: -inf needs no null mapping, bits are exact.
        assert decoded["scores"].tobytes() == arrays["scores"].tobytes()

    def test_round_trip_2d(self):
        arrays = {"ids": np.arange(12, dtype=np.int64).reshape(3, 4)}
        _, decoded = protocol.decode_frame(protocol.encode_frame({}, arrays))
        assert decoded["ids"].shape == (3, 4)
        assert np.array_equal(decoded["ids"], arrays["ids"])

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"junk",
            b"RPF1",  # magic but no header length
            b"RPF1" + (99999).to_bytes(4, "little"),  # header past the end
            b"RPF1" + (2).to_bytes(4, "little") + b"[]",  # header not a dict
            protocol.encode_frame({}, {"x": np.zeros(4)})[:-8],  # truncated
            protocol.encode_frame({}, {"x": np.zeros(4)}) + b"zz",  # trailing
        ],
    )
    def test_malformed_frames_raise_invalid_frame(self, raw):
        with pytest.raises(ApiError) as excinfo:
            protocol.decode_frame_body(raw)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_frame"

    def test_header_array_name_collision_refused(self):
        frame = protocol.encode_frame({"nodes": 1}, {"nodes": np.zeros(2)})
        with pytest.raises(ApiError) as excinfo:
            protocol.decode_frame_body(frame)
        assert excinfo.value.code == "invalid_frame"

    def test_malformed_frame_error_envelope_over_http(self, server):
        """Regression pin: garbage with the binary content type must get
        the structured 400 envelope with code ``invalid_frame``."""
        import http.client
        import json

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST", protocol.TOPK, body=b"definitely not a frame",
                headers={"Content-Type": protocol.BINARY_CONTENT_TYPE},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert set(body["error"]) == {
                "code", "message", "details", "request_id"
            }
            assert body["error"]["code"] == "invalid_frame"
            assert body["error"]["request_id"]
        finally:
            connection.close()


class TestNegotiation:
    def test_json_client_against_new_server(self, server, service):
        """The JSON wire must be untouched: same answers, JSON only."""
        client = ServingClient(server.url, wire="json")
        local = service.search(SearchRequest(node=0, k=5))
        remote = client.top_k(0, 5)
        assert np.array_equal(remote.ids, local.ids)
        assert remote.scores.tobytes() == local.scores.tobytes()
        assert not client.replicas[0].binary_seen

    def test_binary_client_bit_identical(self, server, service):
        client = ServingClient(server.url, wire="binary")
        for node in (0, 7, 42):
            remote = client.top_k(node, 6)
            local = service.search(SearchRequest(node=node, k=6))
            assert np.array_equal(remote.ids, local.ids)
            assert remote.scores.tobytes() == local.scores.tobytes()
        assert client.replicas[0].binary_seen

    def test_auto_upgrades_after_first_response(self, server):
        client = ServingClient(server.url, wire="auto")
        assert not client.replicas[0].binary_seen
        client.top_k(0, 5)  # JSON body, binary-accepting → binary response
        assert client.replicas[0].binary_seen
        client.top_k(1, 5)  # now speaks binary bodies too
        assert client.replicas[0].binary_seen

    def test_binary_preferring_client_against_json_only_server(self, service):
        """A server that predates the binary wire ignores the Accept
        preference; the auto client must quietly stay on JSON."""
        with EmbeddingServer(service, binary=False) as old:
            client = ServingClient(old.url, wire="auto")
            for node in (0, 3):
                remote = client.top_k(node, 5)
                local = service.search(SearchRequest(node=node, k=5))
                assert np.array_equal(remote.ids, local.ids)
                assert remote.scores.tobytes() == local.scores.tobytes()
            assert not client.replicas[0].binary_seen
            assert client.describe()["wire_formats"] == ["json"]

    def test_binary_body_to_json_only_server_is_415(self, service):
        with EmbeddingServer(service, binary=False) as old:
            client = ServingClient(old.url, wire="binary", retries=0)
            with pytest.raises(ApiError) as excinfo:
                client.batch_top_k([0, 1], 5)
            assert excinfo.value.status == 415
            assert excinfo.value.code == "unsupported_media_type"

    def test_binary_batch_and_vector_round_trip(self, server, service, trained_embedding):
        client = ServingClient(server.url, wire="binary")
        nodes = [3, 1, 4, 1, 5]
        remote = client.batch_top_k(nodes, 5)
        local = service.search(SearchRequest(nodes=nodes, k=5))
        assert np.array_equal(remote.ids, local.ids)
        assert remote.scores.tobytes() == local.scores.tobytes()
        assert remote.queries == len(nodes)
        assert remote.per_query_latency_s == pytest.approx(
            remote.latency_s / len(nodes)
        )
        vector = trained_embedding.node_embeddings()[11]
        remote = client.similar_by_vector(vector, 5)
        local = service.search(SearchRequest(vector=vector, k=5))
        assert np.array_equal(remote.ids, local.ids)
        assert remote.scores.tobytes() == local.scores.tobytes()

    def test_binary_padding_needs_no_null(self, store):
        """-inf padding (a filter allowing fewer than k rows) crosses the
        binary wire as raw float64 bits."""
        node_filter = NodeFilter(allow=[3, 7, 9])
        with QueryService(store, backend="exact") as service:
            with EmbeddingServer(service) as server:
                client = ServingClient(server.url, wire="binary")
                remote = client.top_k(0, 5, filter=node_filter)
                local = service.search(SearchRequest(node=0, k=5, filter=node_filter))
                assert list(local.ids[3:]) == [-1, -1]
                assert np.array_equal(remote.ids, local.ids)
                assert remote.scores.tobytes() == local.scores.tobytes()

    def test_describe_advertises_capabilities(self, server):
        info = ServingClient(server.url).describe()
        assert info["wire_formats"] == ["json", "binary"]
        assert "coalescing" not in info

    def test_nan_vector_rejected_in_binary_frame(self, server):
        """The frame path must enforce the same finiteness contract as
        the JSON validators (400, not raw NaN into the backend)."""
        import http.client
        import json

        frame = protocol.encode_frame(
            {"k": 3}, {"vector": np.array([np.nan, 1.0])}
        )
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST", protocol.SIMILAR, body=frame,
                headers={"Content-Type": protocol.BINARY_CONTENT_TYPE},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "invalid_request"
            assert "finite" in body["error"]["message"]
        finally:
            connection.close()


class TestKeepAlive:
    def test_connections_are_reused(self, server):
        client = ServingClient(server.url)
        replica = client.replicas[0]
        for node in range(4):
            client.top_k(node, 5)
        # All sequential requests rode one pooled connection.
        assert len(replica._idle) == 1
        client.close()
        assert len(replica._idle) == 0

    def test_draining_close_header_drops_connection(self, service):
        server = EmbeddingServer(service).start()
        client = ServingClient(server.url, retries=0)
        client.top_k(0, 5)
        assert len(client.replicas[0]._idle) == 1
        server._draining = True
        try:
            with pytest.raises(ApiError):
                client.healthz()  # 503 + Connection: close
            assert len(client.replicas[0]._idle) == 0
        finally:
            server._draining = False
            assert server.close() is True


def _batched_select_spans(url: str) -> int:
    """``select`` spans in ``/debug/traces`` that answered more than one query."""
    with urllib.request.urlopen(url + protocol.TRACES, timeout=30) as response:
        traces = json.loads(response.read())["traces"]
    return sum(
        1
        for trace in traces
        for span in trace["spans"]
        if span["name"] == "select" and span.get("meta", {}).get("batch", 1) > 1
    )


class TestAdmission:
    def test_concurrent_singles_bit_identical(self, store, trained_embedding):
        from repro.search.knn import top_k_similar

        with QueryService(store, backend="exact", cache_size=0) as service:
            with EmbeddingServer(service) as server:
                client = ServingClient(server.url)
                results: dict[int, object] = {}

                def fire(node: int) -> None:
                    results[node] = client.top_k(node, 4)

                threads = [
                    threading.Thread(target=fire, args=(node,)) for node in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert {r.version for r in results.values()} == {"v00000001"}
                features = trained_embedding.node_embeddings()
                for node, result in results.items():
                    expected_ids, expected_scores = top_k_similar(features, node, 4)
                    assert np.array_equal(result.ids, expected_ids)
                    assert result.scores.tobytes() == expected_scores.tobytes()

    def test_cache_hits_bypass_admission(self, store):
        with QueryService(store, backend="exact") as service:
            with EmbeddingServer(service) as server:
                client = ServingClient(server.url)
                cold = client.top_k(9, 4)
                slots, service._free_slots = service._free_slots, 0
                # With no free slot a request entering admission would hang.
                warm = client.top_k(9, 4, timeout_s=10.0)
                service._free_slots = slots
                assert not cold.cached and warm.cached
                assert np.array_equal(cold.ids, warm.ids)
                assert cold.scores.tobytes() == warm.scores.tobytes()

    def test_single_answer_carries_no_group(self, server):
        """A single answer names its own version; neither wire carries a
        batch id beside it."""
        for wire in ("json", "binary"):
            with ServingClient(server.url, wire=wire) as client:
                payload = client._request("POST", protocol.TOPK, {"node": 0, "k": 3})
            assert "group" not in payload, wire
            assert payload["version"] == "v00000001"
        result = server.service.search(SearchRequest(node=0, k=3))
        assert set(protocol.encode_result(result)) == {
            "version", "ids", "scores", "cached", "latency_s"
        }

    def test_version_flip_stress_answers_match_named_version(
        self, store, trained_embedding
    ):
        """Eight single-query clients race ``/admin/refresh`` flips
        between two versions with different rows: every answer is
        bit-identical to ``exact_top_k`` over the rows of the version it
        names, and some answers were batched (not vacuous)."""
        from repro.search.knn import exact_top_k

        rng = np.random.default_rng(99)
        permutation = rng.permutation(trained_embedding.n_nodes)
        v2 = store.publish(
            type(trained_embedding)(
                x_forward=trained_embedding.x_forward[permutation],
                x_backward=trained_embedding.x_backward[permutation],
                y=trained_embedding.y,
                config=trained_embedding.config,
            )
        )
        versions = ("v00000001", v2)
        k, n = 4, trained_embedding.n_nodes
        expected = {}
        for version in versions:
            features = np.asarray(store.open(version).features)
            ids, scores = exact_top_k(
                features, features, k, assume_normalized=True, exclude=np.arange(n)
            )
            expected[version] = (ids, scores)
        assert not np.array_equal(expected[versions[0]][0], expected[v2][0])
        with QueryService(
            store, backend="exact", version=versions[0], cache_size=0
        ) as service:
            service._free_slots = 1  # one slot: concurrent misses must queue
            with EmbeddingServer(service) as server:
                observed: list[tuple[int, object]] = []
                lock = threading.Lock()
                stop = threading.Event()

                def read(seed: int) -> None:
                    client = ServingClient(server.url, timeout_s=30.0)
                    rng = np.random.default_rng(seed)
                    while not stop.is_set():
                        node = int(rng.integers(n))
                        result = client.top_k(node, k)
                        with lock:
                            observed.append((node, result))
                    client.close()

                readers = [
                    threading.Thread(target=read, args=(seed,), daemon=True)
                    for seed in range(8)
                ]
                for reader in readers:
                    reader.start()
                admin = ServingClient(server.url, timeout_s=30.0)
                batched, flips = 0, 0
                deadline = time.monotonic() + 60.0
                while (flips < 20 or not batched) and time.monotonic() < deadline:
                    admin.refresh(version=versions[flips % 2 == 0])
                    flips += 1
                    batched += _batched_select_spans(server.url)
                stop.set()
                for reader in readers:
                    reader.join(timeout=30)
                assert batched > 0, "no select span ever answered a batch"
                assert {result.version for _, result in observed} == set(versions)
                for node, result in observed:
                    ids, scores = expected[result.version]
                    assert np.array_equal(result.ids, ids[node]), (node, result)
                    assert result.scores.tobytes() == scores[node].tobytes()


class TestCacheCounters:
    def test_cache_info_counts_hits_and_misses(self, service):
        before = service.cache_info()
        service.search(SearchRequest(node=0, k=5))  # miss
        service.search(SearchRequest(node=0, k=5))  # hit
        service.search(SearchRequest(node=1, k=5))  # miss
        info = service.cache_info()
        assert info["hits"] - before["hits"] == 1
        assert info["misses"] - before["misses"] == 2
        assert 0.0 < info["hit_rate"] < 1.0
        assert info["entries"] >= 2
        assert info["capacity"] == 4096

    def test_disabled_cache_records_nothing(self, store):
        with QueryService(store, backend="exact", cache_size=0) as service:
            service.search(SearchRequest(node=0, k=5))
            info = service.cache_info()
            assert info == {
                "entries": 0, "capacity": 0,
                "hits": 0, "misses": 0, "hit_rate": 0.0,
            }

    def test_describe_and_metrics_expose_cache(self, server, service):
        """The cache is a /metrics document; describe() carries no count."""
        client = ServingClient(server.url)
        client.top_k(0, 5)
        client.top_k(0, 5)
        assert "cache" not in service.describe()
        metrics = client.metrics()
        assert metrics["cache"]["hits"] >= 1
        assert metrics["cache"]["misses"] >= 1
        assert metrics["cache"]["entries"] >= 1


class TestLoadgenPerQuery:
    def test_batch_reports_per_query_latency(self, server):
        report = run_load(
            server.url,
            n_nodes=120,
            requests=8,
            concurrency=2,
            k=5,
            batch=16,
            seed=3,
        )
        assert report.errors == 0
        assert report.per_query_p50_ms == pytest.approx(report.p50_ms / 16)
        assert report.per_query_mean_ms == pytest.approx(report.mean_ms / 16)
        assert report.as_dict()["per_query_p99_ms"] > 0

    def test_single_per_query_equals_per_request(self, server):
        report = run_load(
            server.url, n_nodes=120, requests=8, concurrency=2, k=5, seed=4
        )
        assert report.per_query_p50_ms == pytest.approx(report.p50_ms)

    @pytest.mark.parametrize("wire", ["json", "binary", "auto"])
    def test_wire_selection(self, server, wire):
        report = run_load(
            server.url,
            n_nodes=120,
            requests=6,
            concurrency=2,
            k=5,
            seed=5,
            wire=wire,
        )
        assert report.errors == 0
        assert report.as_dict()["wire"] == wire


class TestPoolHazards:
    """Review-round regressions: stale sockets, close finality."""

    def test_stale_pooled_connections_do_not_consume_retries(self, server):
        """Dead sockets in the pool (server idle-timeout, restart) must be
        chewed through by free redials — even with retries=0, and even
        with *several* stale sockets queued up."""
        client = ServingClient(server.url, retries=0)
        replica = client.replicas[0]
        client.top_k(0, 5)
        # Stuff the pool with connections whose sockets are already dead.
        for _ in range(3):
            connection, _ = replica._acquire(5.0, True)
            connection.sock.close()
            replica._idle.append(connection)
        assert len(replica._idle) >= 3
        result = client.top_k(1, 5)  # one attempt, several stale sockets
        assert result.ids.shape == (5,)

    def test_close_is_final_for_in_flight_releases(self, server):
        client = ServingClient(server.url)
        replica = client.replicas[0]
        connection, pooled = replica._acquire(5.0, False)
        assert not pooled
        client.close()
        replica._release(connection)  # in-flight request finishing late
        assert replica._idle == []
        assert connection.sock is None  # closed, not resurrected
