"""Tests for the HTTP front-end: protocol, server, client, drain, races.

Servers bind ephemeral loopback ports (``port=0``), so tests parallelize
and never collide.  Bit-identity assertions compare raw score bytes —
the wire contract is that JSON floats round-trip exactly.
"""

import http.client
import json
import threading
import time
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.core.pane import PANEEmbedding
from repro.search.knn import NodeFilter, top_k_similar
from repro.serving.http import (
    ApiError,
    EmbeddingServer,
    ServingClient,
    ServingUnavailable,
    run_load,
)
from repro.serving.http import protocol
from repro.serving.http.supervisor import Supervisor, SupervisorConfig
from repro.serving.obs.metrics import family_total
from repro.serving.service import QueryService, SearchRequest
from repro.serving.store import EmbeddingStore


@pytest.fixture()
def service(store):
    with QueryService(store, backend="exact", n_threads=2) as service:
        yield service


@pytest.fixture()
def server(service):
    with EmbeddingServer(service) as server:
        yield server


@pytest.fixture()
def client(server):
    return ServingClient(server.url, retries=0)


class Port(NamedTuple):
    """One HTTP port plus a POST it routes (path, body, expected status)."""

    name: str
    host: str
    port: int
    path: str
    body: dict
    status: int

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=10)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory, trained_embedding):
    """A real one-worker ``--workers`` fleet, for its two admin ports."""
    root = tmp_path_factory.mktemp("fleet") / "store"
    EmbeddingStore(root).publish(trained_embedding)
    config = SupervisorConfig(store=str(root), n_workers=1)
    with Supervisor(config) as supervisor:
        yield supervisor


@pytest.fixture()
def ports(server, fleet) -> list[Port]:
    """Every port built on the shared front-end: the hostile-input cases
    run against the data port, a worker's admin port and the supervisor's
    admin port alike."""
    worker = urlsplit(fleet._slots[0].handle.admin_url)
    admin = urlsplit(fleet.admin_url)
    return [
        Port("data", server.host, server.port, protocol.TOPK, {"node": 5}, 200),
        Port(
            "worker-admin", worker.hostname, worker.port,
            protocol.REFRESH, {}, 200,
        ),
        Port(
            # A read-only fleet: the routed POST is a structured 409.
            "supervisor-admin", admin.hostname, admin.port,
            protocol.UPSERT, {"add_edges": [[0, 1]]}, 409,
        ),
    ]


def permuted_copy(embedding: PANEEmbedding, seed: int = 99) -> PANEEmbedding:
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(embedding.n_nodes)
    return PANEEmbedding(
        x_forward=embedding.x_forward[permutation],
        x_backward=embedding.x_backward[permutation],
        y=embedding.y,
        config=embedding.config,
    )


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == "v00000001"
        assert health["draining"] is False

    def test_describe_matches_service_schema(self, client, service):
        remote = client.describe()
        local = service.describe()
        assert remote["schema"] == protocol.PROTOCOL_SCHEMA
        for key in ("version", "backend_kind", "n_shards", "n_nodes", "n_attributes"):
            assert remote[key] == local[key]
        json.dumps(remote, allow_nan=False)

    def test_metrics_exports_latency_stats(self, client):
        client.top_k(0, 5)
        client.top_k(0, 5)
        metrics = client.metrics()
        assert metrics["schema"] == "repro.serving.http/v3"
        # Every count and latency lives in the registry and nowhere else
        # in the document; one observation per request.
        assert set(metrics) == {"schema", "cache", "registry"}
        registry = metrics["registry"]
        for family in ("http_requests_total", "http_request_seconds"):
            assert family_total(registry, family, endpoint=protocol.TOPK) == 2
        assert family_total(registry, "service_queries_total") == 2
        assert family_total(registry, "service_query_seconds") == 2
        assert family_total(registry, "service_cache_served_total") == 1
        # The cache document reads the very cells of the lookup counter.
        for key, outcome in (("hits", "hit"), ("misses", "miss")):
            assert metrics["cache"][key] == family_total(
                registry, "cache_lookups_total", outcome=outcome
            ) == 1
        json.dumps(metrics, allow_nan=False)

    def test_metrics_includes_shard_merge(self, tmp_path, trained_embedding):
        sharded = EmbeddingStore(tmp_path / "sharded", n_shards=3)
        sharded.publish(trained_embedding)
        with QueryService(sharded, backend="exact") as service:
            with EmbeddingServer(service) as server:
                client = ServingClient(server.url)
                client.top_k(0, 5)
                metrics = client.metrics()
                assert "shards" not in metrics
                # One search per shard, counted only in the registry.
                for shard in range(3):
                    assert family_total(
                        metrics["registry"], "shard_search_seconds", shard=shard
                    ) == 1

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ApiError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_endpoint"

    def test_method_not_allowed_405(self, client):
        with pytest.raises(ApiError) as excinfo:
            client._request("GET", protocol.TOPK)
        assert excinfo.value.status == 405
        assert excinfo.value.code == "method_not_allowed"

    def test_head_healthz_for_lb_probes(self, ports):
        """HEAD answers like GET minus the body (LBs probe with HEAD)."""
        for port in ports:
            connection = port.connect()
            try:
                connection.request("HEAD", protocol.HEALTHZ)
                response = connection.getresponse()
                assert response.status == 200, port.name
                assert int(response.getheader("Content-Length")) > 0
                assert response.read() == b""  # headers only
            finally:
                connection.close()

    def test_unsupported_methods_get_json_envelope(self, ports):
        """PUT/DELETE must answer the JSON envelope, not a stdlib HTML 501."""
        for port in ports:
            for method in ("PUT", "DELETE"):
                connection = port.connect()
                try:
                    connection.request(method, port.path)
                    response = connection.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 405, port.name
                    assert body["error"]["code"] == "method_not_allowed"
                finally:
                    connection.close()

    def test_route_miss_keeps_keepalive_in_sync(self, ports):
        """A 404'd POST must consume its body, or the unread bytes would
        be parsed as the next request on the same keep-alive connection
        (a smuggled ``GET`` in the body would get its own response)."""
        for port in ports:
            connection = port.connect()
            try:
                connection.request(
                    "POST", "/v1/nope", body=b"GET /evil HTTP/1.1\r\n\r\n",
                    headers={protocol.REQUEST_ID_HEADER: "miss-1"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 404, port.name
                assert body["error"]["code"] == "unknown_endpoint"
                # Errors echo the caller's request id, header and envelope.
                assert response.getheader(protocol.REQUEST_ID_HEADER) == "miss-1"
                assert body["error"]["request_id"] == "miss-1"
                # Same connection, now a routed request: it must be
                # answered as JSON with its own id, not by a response to
                # the smuggled bytes or a stdlib HTML 400.
                connection.request(
                    "POST", port.path, body=json.dumps(port.body).encode(),
                    headers={
                        "Content-Type": "application/json",
                        protocol.REQUEST_ID_HEADER: "routed-2",
                    },
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == port.status, (port.name, body)
                assert response.getheader(protocol.REQUEST_ID_HEADER) == "routed-2"
                if port.name == "data":
                    assert body["ids"]
            finally:
                connection.close()


class TestValidation:
    @pytest.mark.parametrize(
        "body, code",
        [
            ({}, "invalid_request"),  # missing node
            ({"node": "zero"}, "invalid_request"),
            ({"node": True}, "invalid_request"),  # bool is not an int
            ({"node": -1}, "invalid_request"),
            ({"node": 0, "k": 0}, "invalid_request"),
            ({"node": 0, "nprobe": 0}, "invalid_request"),
            ({"node": 0, "extra": 1}, "invalid_request"),
        ],
    )
    def test_topk_400s(self, client, body, code):
        with pytest.raises(ApiError) as excinfo:
            client._request("POST", protocol.TOPK, body)
        assert excinfo.value.status == 400
        assert excinfo.value.code == code

    def test_node_out_of_range_is_404(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.top_k(10_000, 5)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "node_not_found"

    def test_batch_validation(self, client):
        for body in ({}, {"nodes": []}, {"nodes": [0, "x"]}, {"nodes": [0, -2]}):
            with pytest.raises(ApiError) as excinfo:
                client._request("POST", protocol.TOPK_BATCH, body)
            assert excinfo.value.status == 400

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_batch_sends_node_ids_as_given(self, server, wire):
        """``[0.7, 1]`` is not the batch ``[0, 1]``: the server's validator rejects it."""
        client = ServingClient(server.url, retries=0, wire=wire)
        for nodes in ([0.7, 1], [1.0, 2.0]):
            with pytest.raises(ApiError) as excinfo:
                client.batch_top_k(nodes, 3)
            assert excinfo.value.status == 400
            assert excinfo.value.code == "invalid_request"
        assert client.batch_top_k(np.array([0, 1], dtype=np.int32), 3).ids.shape == (2, 3)

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_scalars_sent_as_given(self, server, trained_embedding, wire):
        """``top_k(0.7)`` is not node 0: a fractional or bool node or ``k``
        is the server's 400, while a numpy integer is the plain int."""
        client = ServingClient(server.url, retries=0, wire=wire)
        vector = trained_embedding.node_embeddings()[11]
        sends = [
            lambda value: client.top_k(value),
            lambda value: client.top_k(3, value),
            lambda value: client.batch_top_k([3, 5], value),
            lambda value: client.similar_by_vector(vector, value),
        ]
        for send in sends:
            for value in (0.7, 2.5, True):
                with pytest.raises(ApiError) as excinfo:
                    send(value)
                assert (excinfo.value.status, excinfo.value.code) == (400, "invalid_request")
            got, expected = send(np.int64(3)), send(3)
            assert np.array_equal(got.ids, expected.ids)
            assert got.scores.tobytes() == expected.scores.tobytes()

    def test_vector_validation(self, client):
        for body in (
            {},
            {"vector": []},
            {"vector": ["x"]},
            {"vector": [1.0], "k": 0},
        ):
            with pytest.raises(ApiError) as excinfo:
                client._request("POST", protocol.SIMILAR, body)
            assert excinfo.value.status == 400

    def test_nan_vector_rejected(self, server):
        """A NaN element is a 400, not a 500 from allow_nan=False dumping.

        Sent raw: python's json emits the non-standard ``NaN`` token
        (which a plain ``json.loads`` would accept), while the client's
        own dump_json would refuse to serialize it.
        """
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST", protocol.SIMILAR,
                body=b'{"vector": [NaN, 1.0], "k": 3}',
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "invalid_request"
            assert "finite" in body["error"]["message"]
        finally:
            connection.close()
        # A non-finite scalar would be echoed into the 400's details,
        # which allow_nan=False cannot write: the server must answer
        # anyway, and keep answering.  An integer past float range is
        # no vector element either.
        for path, raw in (
            (protocol.TOPK, b'{"node": 0, "k": NaN}'),
            (protocol.TOPK, b'{"node": Infinity}'),
            (protocol.TOPK, b'{"node": 0, "k": -Infinity}'),
            (protocol.TOPK, b'{"node": 0, "k": 1e400}'),
            (protocol.SIMILAR, b'{"vector": [1' + b"0" * 400 + b'], "k": 3}'),
        ):
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                connection.request(
                    "POST", path, body=raw,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 400, raw
                assert body["error"]["code"] == "invalid_request"
                assert "finite" in body["error"]["message"]
                connection.request(
                    "POST", protocol.TOPK, body=b'{"node": 0, "k": 3}',
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                assert len(json.loads(response.read())["ids"]) == 3
            finally:
                connection.close()

    def test_chunked_body_rejected_with_close(self, ports):
        """Transfer-Encoding is refused (411) and the connection closed —
        an unconsumed chunked body would desync keep-alive framing."""
        for port in ports:
            connection = port.connect()
            try:
                connection.putrequest("POST", port.path)
                connection.putheader("Transfer-Encoding", "chunked")
                connection.endheaders()
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 411, port.name
                assert body["error"]["code"] == "length_required"
                assert response.getheader("Connection") == "close"
            finally:
                connection.close()

    def test_vector_wrong_dim_400(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.similar_by_vector(np.ones(3), 5)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_request"

    def test_malformed_json_400(self, ports):
        for port in ports:
            connection = port.connect()
            try:
                connection.request(
                    "POST", port.path, body=b"{not json",
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 400, port.name
                assert body["error"]["code"] == "invalid_json"
            finally:
                connection.close()

    def test_oversized_body_413(self, ports):
        """A declared body the server will not read — too large, or a
        length that is not one — is refused and the connection torn
        down: a keep-alive reuse would parse the leftover bytes as the
        next request line (and a negative length must not pin the
        handler thread on a read that never returns)."""
        for port in ports:
            for declared, status, code in (
                (str(64 << 20), 413, "payload_too_large"),
                ("abc", 400, "invalid_request"),
                ("-1", 400, "invalid_request"),
            ):
                connection = port.connect()
                try:
                    connection.putrequest("POST", port.path)
                    connection.putheader("Content-Length", declared)
                    connection.endheaders()
                    response = connection.getresponse()
                    body = json.loads(response.read())
                    assert response.status == status, (port.name, declared)
                    assert body["error"]["code"] == code
                    assert response.getheader("Connection") == "close"
                    assert body["error"]["request_id"] == response.getheader(
                        protocol.REQUEST_ID_HEADER
                    )
                finally:
                    connection.close()


class TestBitIdentity:
    def test_topk_bit_identical(self, client, service):
        for node in (0, 7, 42, 119):
            remote = client.top_k(node, 6)
            local = service.search(SearchRequest(node=node, k=6))
            assert remote.version == local.version
            assert np.array_equal(remote.ids, local.ids)
            assert remote.scores.tobytes() == local.scores.tobytes()

    def test_batch_bit_identical(self, client, service):
        nodes = [3, 1, 4, 1, 5, 9, 2, 6]
        remote = client.batch_top_k(nodes, 5)
        local = service.search(SearchRequest(nodes=nodes, k=5))
        assert remote.ids.shape == (len(nodes), 5)
        assert np.array_equal(remote.ids, local.ids)
        assert remote.scores.tobytes() == local.scores.tobytes()

    def test_similar_by_vector_bit_identical(self, client, service, trained_embedding):
        vector = trained_embedding.node_embeddings()[11]
        remote = client.similar_by_vector(vector, 5)
        local = service.search(SearchRequest(vector=vector, k=5))
        assert np.array_equal(remote.ids, local.ids)
        assert remote.scores.tobytes() == local.scores.tobytes()
        assert remote.ids[0] == 11

    def test_padding_null_roundtrip(self, store):
        """-inf padding (a filter allowing fewer than k rows) crosses the
        JSON wire as null and comes back -inf."""
        node_filter = NodeFilter(allow=[3, 7, 9])
        with QueryService(store, backend="exact") as service:
            with EmbeddingServer(service) as server:
                client = ServingClient(server.url, wire="json")
                raw = client._request(
                    "POST", protocol.TOPK,
                    {"node": 0, "k": 5, "filter": node_filter.to_json()},
                )
                assert raw["scores"][3:] == [None, None]
                remote = client.top_k(0, 5, filter=node_filter)
                local = service.search(SearchRequest(node=0, k=5, filter=node_filter))
                assert list(local.ids[3:]) == [-1, -1]
                assert np.array_equal(remote.ids, local.ids)
                assert remote.scores.tobytes() == local.scores.tobytes()
                assert (remote.scores[3:] == -np.inf).all()


class TestRefresh:
    def test_refresh_follows_latest(self, client, store, trained_embedding):
        assert client.refresh() == {
            "previous_version": "v00000001",
            "version": "v00000001",
            "swapped": False,
        }
        store.publish(permuted_copy(trained_embedding))
        report = client.refresh()
        assert report["swapped"] and report["version"] == "v00000002"
        assert client.healthz()["version"] == "v00000002"

    def test_refresh_pins_version(self, client, store, trained_embedding):
        store.publish(permuted_copy(trained_embedding))
        client.refresh()
        report = client.refresh(version="v00000001")
        assert report["version"] == "v00000001" and report["swapped"]

    def test_refresh_unknown_version_404(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.refresh(version="v99999999")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "version_not_found"

    def test_refresh_version_and_delta_conflict(self, client):
        with pytest.raises(ApiError) as excinfo:
            client._request(
                "POST", protocol.REFRESH, {"version": "v00000001", "delta": {}}
            )
        assert excinfo.value.status == 400

    def test_delta_body_rejected_400(self, client):
        """/admin/refresh is not a write path: deltas go through /v1/upsert."""
        with pytest.raises(ApiError) as excinfo:
            client._request(
                "POST", protocol.REFRESH, {"delta": {"add_edges": [[0, 1]]}}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_request"
        assert excinfo.value.details["unknown"] == ["delta"]
        assert client.healthz()["version"] == "v00000001"

    def test_concurrent_refresh_409(self, server, client):
        assert server._refresh_lock.acquire(blocking=False)
        try:
            with pytest.raises(ApiError) as excinfo:
                client.refresh()
            assert excinfo.value.status == 409
            assert excinfo.value.code == "refresh_in_progress"
        finally:
            server._refresh_lock.release()


class TestDrainAndLifecycle:
    def test_close_idempotent_and_drained(self, service):
        server = EmbeddingServer(service).start()
        client = ServingClient(server.url)
        client.top_k(0, 5)
        assert server.close() is True
        assert server.close() is True  # second close is a no-op

    def test_draining_rejects_with_503(self, service):
        server = EmbeddingServer(service).start()
        client = ServingClient(server.url, retries=0)
        client.top_k(0, 5)
        # Flag drain without closing the listener so the 503 path (rather
        # than a connection refusal) is what the client observes.
        server._draining = True
        try:
            with pytest.raises(ApiError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            assert excinfo.value.code == "draining"
            # The health body itself still reports drain state on the 503,
            # so an LB can tell "draining" from "dead".
            import http.client as http_client

            connection = http_client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                connection.request("GET", protocol.HEALTHZ)
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 503
                assert body["status"] == "draining"
                assert body["draining"] is True
                assert body["version"] == "v00000001"
                assert body["error"]["code"] == "draining"
            finally:
                connection.close()
        finally:
            server._draining = False
            assert server.close() is True

    def test_in_flight_request_completes_during_close(self, store):
        """close() waits for executing requests — they finish with 200."""
        with QueryService(store, backend="exact", cache_size=0) as service:
            server = EmbeddingServer(service, drain_timeout_s=30.0).start()
            client = ServingClient(server.url, retries=0, timeout_s=30.0)
            results: list = []

            def fire() -> None:
                nodes = list(range(100)) * 5
                try:
                    results.append(client.batch_top_k(nodes, 10))
                except BaseException as error:
                    results.append(error)

            threads = [
                threading.Thread(target=fire, daemon=True) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while server.in_flight == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert server.close() is True
            for thread in threads:
                thread.join(timeout=30)
            assert len(results) == 4
            for outcome in results:
                if isinstance(outcome, ApiError):
                    assert outcome.status == 503, outcome
                else:
                    assert not isinstance(outcome, BaseException), outcome
                    assert outcome.ids.shape == (500, 10)


class TestServingClient:
    def test_retry_fails_over_to_healthy_replica(self, server):
        # First replica refuses connections; the read retries onto the
        # live one.
        client = ServingClient(
            ["http://127.0.0.1:1", server.url], retries=2, backoff_s=0.0
        )
        result = client.top_k(0, 5)
        assert result.ids.shape == (5,)

    def test_no_replica_available(self):
        client = ServingClient(
            ["http://127.0.0.1:1", "http://127.0.0.1:2"],
            retries=1,
            backoff_s=0.0,
            timeout_s=0.5,
        )
        with pytest.raises(ServingUnavailable):
            client.healthz()

    def test_refresh_not_retried(self, server):
        client = ServingClient(
            ["http://127.0.0.1:1", server.url], retries=3, backoff_s=0.0
        )
        with pytest.raises(ServingUnavailable):
            client.refresh()  # one attempt, on the dead preferred replica

    def test_batch_fans_across_replicas(self, store):
        with QueryService(store, backend="exact") as service_a:
            with QueryService(store, backend="exact") as service_b:
                with EmbeddingServer(service_a) as a, EmbeddingServer(service_b) as b:
                    client = ServingClient([a.url, b.url])
                    nodes = list(range(40))
                    remote = client.batch_top_k(nodes, 5)
                    # Both replicas actually served a chunk.
                    for replica_service in (service_a, service_b):
                        assert replica_service.queries_total.value() == 20
                    local = service_a.search(SearchRequest(nodes=nodes, k=5))
                    assert np.array_equal(remote.ids, local.ids)
                    assert remote.scores.tobytes() == local.scores.tobytes()

    def test_batch_version_skew_rejected(self, store, trained_embedding):
        store.publish(permuted_copy(trained_embedding))
        with QueryService(store, backend="exact", version="v00000001") as old:
            with QueryService(store, backend="exact", version="v00000002") as new:
                with EmbeddingServer(old) as a, EmbeddingServer(new) as b:
                    client = ServingClient([a.url, b.url], retries=0)
                    with pytest.raises(ApiError) as excinfo:
                        client.batch_top_k(list(range(20)), 5)
                    assert excinfo.value.code == "replica_version_skew"

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            ServingClient("https://example.com:443")
        with pytest.raises(ValueError):
            ServingClient([])


class TestLoadGenerator:
    def test_loadgen_single_and_batch(self, server):
        for batch in (0, 8):
            report = run_load(
                server.url,
                n_nodes=120,
                requests=24,
                concurrency=3,
                k=5,
                batch=batch,
                seed=1,
            )
            assert report.errors == 0, report.error_messages
            assert report.requests == 24
            assert report.queries == (24 * batch if batch else 24)
            assert report.qps > 0
            assert report.p99_ms >= report.p50_ms


class TestConcurrentSwapOverHTTP:
    def test_no_torn_results_through_http_layer(self, store, trained_embedding):
        """The in-process no-torn-reads property, re-asserted end to end.

        Reader threads hammer ``POST /v1/topk`` through real sockets while
        another client flips the active version via ``/admin/refresh``.
        Every response must match the pinned in-process ground truth for
        the version it claims — ids equal and score bytes equal, so a
        half-swapped snapshot or a cross-version cache hit would fail.
        """
        permuted = permuted_copy(trained_embedding)
        version_2 = store.publish(permuted)
        n_nodes = trained_embedding.n_nodes
        truth = {}
        for version, embedding in (
            ("v00000001", trained_embedding),
            (version_2, permuted),
        ):
            features = embedding.node_embeddings()
            truth[version] = {
                node: top_k_similar(features, node, 5)
                for node in range(n_nodes)
            }
        with QueryService(store, backend="exact", version="v00000001") as service:
            with EmbeddingServer(service) as server:
                stop = threading.Event()
                torn: list[str] = []
                served = [0] * 4

                def read(worker: int) -> None:
                    client = ServingClient(server.url, retries=0, timeout_s=30.0)
                    rng = np.random.default_rng(worker)
                    while not stop.is_set():
                        node = int(rng.integers(n_nodes))
                        result = client.top_k(node, 5)
                        expected_ids, expected_scores = truth[result.version][node]
                        if not (
                            np.array_equal(result.ids, expected_ids)
                            and result.scores.tobytes()
                            == expected_scores.tobytes()
                        ):
                            torn.append(
                                f"node {node} @ {result.version}: "
                                f"{result.ids} != {expected_ids}"
                            )
                            stop.set()
                        served[worker] += 1

                readers = [
                    threading.Thread(target=read, args=(w,), daemon=True)
                    for w in range(4)
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
                assert torn == [], torn[:3]
                assert sum(served) > 0
