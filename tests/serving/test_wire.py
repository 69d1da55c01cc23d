"""Tests for PR 5's request-path overhaul: binary frames, content-type
negotiation, client keep-alive reuse, the server-side admission
coalescer, and cache counters.

The HTTP basics (endpoints, validation, drain, replicas) live in
``test_http.py``; everything here is the wire/coalescing layer added on
top — including the compatibility matrix the negotiation must uphold:
binary-preferring clients against JSON-only servers and JSON clients
against binary-capable servers.
"""

import threading

import numpy as np
import pytest

from repro.serving.http import ApiError, EmbeddingServer, ServingClient, run_load
from repro.serving.http import protocol
from repro.serving.service import QueryService, SearchParams, SearchRequest


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
        """IVF -inf padding crosses the binary wire as raw float64 bits."""
        with QueryService(store, backend="ivf", nlist=8, nprobe=1) as service:
            with EmbeddingServer(service) as server:
                client = ServingClient(server.url, wire="binary")
                remote = client.top_k(0, 60, params={"nprobe": 1})
                local = service.search(
                    SearchRequest(node=0, k=60, params=SearchParams(nprobe=1))
                )
                assert np.array_equal(remote.ids, local.ids)
                assert remote.scores.tobytes() == local.scores.tobytes()

    def test_describe_advertises_capabilities(self, server):
        info = ServingClient(server.url).describe()
        assert info["wire_formats"] == ["json", "binary"]
        assert info["coalescing"]["enabled"] is False

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


class TestCoalescing:
    def test_concurrent_singles_share_group_and_version(self, store, trained_embedding):
        with QueryService(store, backend="exact", cache_size=0) as service:
            with EmbeddingServer(service, coalesce_window_s=0.01) as server:
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
                groups = {r.group for r in results.values()}
                versions = {r.version for r in results.values()}
                assert None not in groups  # every answer was coalesced
                assert len(versions) == 1
                # Correctness: same answers as the uncoalesced engine.
                from repro.search.knn import top_k_similar

                features = trained_embedding.node_embeddings()
                for node, result in results.items():
                    expected_ids, expected_scores = top_k_similar(features, node, 4)
                    assert np.array_equal(result.ids, expected_ids)
                    assert result.scores.tobytes() == expected_scores.tobytes()

    def test_max_batch_wakes_leader_early(self, store):
        """With max_batch=1 every request is its own group — the leader
        must not sleep out the (deliberately huge) window."""
        import time

        with QueryService(store, backend="exact", cache_size=0) as service:
            with EmbeddingServer(
                service, coalesce_window_s=30.0, coalesce_max_batch=1
            ) as server:
                client = ServingClient(server.url)
                start = time.perf_counter()
                result = client.top_k(0, 4)
                assert time.perf_counter() - start < 5.0
                assert result.group is not None

    def test_single_member_group_well_formed(self, store):
        """A coalesced group of size 1 (no concurrency) stays correct."""
        with QueryService(store, backend="exact", cache_size=0) as service:
            with EmbeddingServer(service, coalesce_window_s=0.001) as server:
                client = ServingClient(server.url)
                first = client.top_k(5, 4)
                second = client.top_k(5, 4)
                assert first.group is not None and second.group is not None
                assert first.group != second.group  # two drains, two groups
                assert np.array_equal(first.ids, second.ids)
                assert first.scores.tobytes() == second.scores.tobytes()
                assert service.latency_info()["queries"] >= 2

    def test_cache_hits_bypass_coalescer(self, store):
        with QueryService(store, backend="exact") as service:
            with EmbeddingServer(service, coalesce_window_s=0.001) as server:
                client = ServingClient(server.url)
                cold = client.top_k(9, 4)
                warm = client.top_k(9, 4)
                assert cold.group is not None
                assert warm.cached and warm.group is None

    def test_no_mixed_versions_inside_a_group_under_refresh_race(
        self, store, trained_embedding
    ):
        """The PR-5 stress contract: /admin/refresh flips racing
        coalesced single queries never produce a group whose members
        answer from different store versions."""
        version_2 = store.publish(trained_embedding)
        with QueryService(
            store, backend="exact", version="v00000001", cache_size=0
        ) as service:
            with EmbeddingServer(service, coalesce_window_s=0.002) as server:
                observed: list[tuple[int, str]] = []
                lock = threading.Lock()
                stop = threading.Event()

                def read(seed: int) -> None:
                    client = ServingClient(server.url, timeout_s=30.0)
                    rng = np.random.default_rng(seed)
                    while not stop.is_set():
                        result = client.top_k(int(rng.integers(120)), 4)
                        with lock:
                            observed.append((result.group, result.version))

                readers = [
                    threading.Thread(target=read, args=(seed,), daemon=True)
                    for seed in range(4)
                ]
                for reader in readers:
                    reader.start()
                admin = ServingClient(server.url, timeout_s=30.0)
                for flip in range(20):
                    admin.refresh(
                        version="v00000001" if flip % 2 else version_2
                    )
                stop.set()
                for reader in readers:
                    reader.join(timeout=30)
                by_group: dict[int, set[str]] = {}
                for group, version in observed:
                    by_group.setdefault(group, set()).add(version)
                torn = {g: vs for g, vs in by_group.items() if len(vs) > 1}
                assert torn == {}, torn
                assert len(observed) > 0


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
        client = ServingClient(server.url)
        client.top_k(0, 5)
        client.top_k(0, 5)
        assert service.describe()["cache"]["hits"] >= 1
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
    """Review-round regressions: stale sockets, close finality, max_batch."""

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

    def test_max_batch_bounds_executed_group_size(self, store):
        """max_batch is a hard ceiling on the coalesced GEMM, not just an
        early-wake threshold: an oversized drain splits into chunks."""
        from repro.serving.service import QueryService as QS

        with QS(store, backend="exact", cache_size=0) as service:
            sizes: list[int] = []
            original = service._execute_microbatch

            def recording(requests, group_id):
                sizes.append(len(requests))
                original(requests, group_id)

            coalescer = service.make_coalescer(0.05, max_batch=3)
            coalescer._execute = recording
            results: list = []

            def fire(node: int) -> None:
                results.append(
                    service.search(
                        SearchRequest(node=node, k=4), coalescer=coalescer
                    )
                )

            threads = [
                threading.Thread(target=fire, args=(node,)) for node in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 8
            assert sum(sizes) == 8
            assert max(sizes) <= 3
            # Distinct groups per chunk: no two chunks share a group id.
            groups = {r.group for r in results}
            assert len(groups) == len(sizes)
