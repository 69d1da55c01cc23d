"""Deadline propagation: client budgets, X-Deadline-Ms, server-side shedding."""

from __future__ import annotations

import http.client
import json
import time

import numpy as np
import pytest

from repro.serving.faults import FaultInjector, FaultPlan
from repro.serving.http import protocol
from repro.serving.http.client import DeadlineExceeded, ServingClient
from repro.serving.http.server import EmbeddingServer
from repro.serving.service import QueryService


@pytest.fixture()
def service(store):
    with QueryService(store, backend="exact") as service:
        yield service


def _raw_post(url: str, path: str, body: dict, headers: dict) -> tuple[int, dict]:
    host, port = url.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=5.0)
    try:
        payload = json.dumps(body).encode()
        connection.request(
            "POST", path, body=payload,
            headers={"Content-Type": "application/json", **headers},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestServerShedding:
    def test_expired_deadline_sheds_503(self, service):
        with EmbeddingServer(service) as server:
            status, payload = _raw_post(
                server.url, protocol.TOPK, {"node": 0, "k": 5},
                {protocol.DEADLINE_HEADER: "0.000001"},
            )
            assert status == 503
            assert payload["error"]["code"] == "deadline_exceeded"
            assert "budget_ms" in payload["error"]["details"]
            assert server.errors_total.value(code="deadline_exceeded") == 1

    def test_generous_deadline_executes(self, service):
        with EmbeddingServer(service) as server:
            status, payload = _raw_post(
                server.url, protocol.TOPK, {"node": 0, "k": 5},
                {protocol.DEADLINE_HEADER: "30000"},
            )
            assert status == 200
            assert len(payload["ids"]) == 5

    def test_bad_deadline_header_is_400(self, service):
        # nan never compares as spent and inf never runs out; -inf would
        # be echoed into a 503 that allow_nan=False cannot write.
        with EmbeddingServer(service) as server:
            for header in ("soon", "nan", "inf", "-inf", "Infinity"):
                status, payload = _raw_post(
                    server.url, protocol.TOPK, {"node": 0, "k": 5},
                    {protocol.DEADLINE_HEADER: header},
                )
                assert status == 400, header
                assert payload["error"]["code"] == "invalid_request"
                status, payload = _raw_post(
                    server.url, protocol.TOPK, {"node": 1, "k": 5}, {}
                )
                assert status == 200
                assert len(payload["ids"]) == 5

    def test_upsert_shed_before_fsync(self, tmp_path, store):
        """An already-dead upsert is refused *before* the append: the
        log must not grow, so the shed write can be safely re-sent."""
        from repro.graph.generators import attributed_sbm
        from repro.serving.store import EmbeddingStore
        from repro.serving.wal import IngestPipeline

        pipeline = IngestPipeline(
            tmp_path / "wal", EmbeddingStore(tmp_path / "wal-store")
        )
        pipeline.bootstrap(
            attributed_sbm(n_nodes=40, n_attributes=10, seed=2),
            k=8,
            update_sweeps=1,
        )
        with QueryService(pipeline.store, backend="exact") as service:
            pipeline.bind_service(service)
            with EmbeddingServer(service, ingest=pipeline) as server:
                before = pipeline.log.last_lsn
                fsyncs_before = pipeline.log.fsyncs
                status, payload = _raw_post(
                    server.url, protocol.UPSERT,
                    {"add_edges": [[0, 5]]},
                    {protocol.DEADLINE_HEADER: "0.000001"},
                )
                assert status == 503
                assert payload["error"]["code"] == "deadline_exceeded"
                assert pipeline.log.last_lsn == before
                assert pipeline.log.fsyncs == fsyncs_before
                # A live deadline sails through and fsyncs.
                status, payload = _raw_post(
                    server.url, protocol.UPSERT,
                    {"add_edges": [[0, 5]]},
                    {protocol.DEADLINE_HEADER: "30000"},
                )
                assert status == 200
                assert payload["durable"] is True
                assert pipeline.log.last_lsn == before + 1
        pipeline.close()

    def test_non_data_endpoints_ignore_deadline(self, service):
        with EmbeddingServer(service) as server:
            client = ServingClient(server.url)
            # healthz/metrics never shed — the supervisor's probes must
            # keep answering whatever header a proxy forwards.
            status, payload = _raw_post(
                server.url, protocol.REFRESH, {},
                {protocol.DEADLINE_HEADER: "0.000001"},
            )
            assert status == 200
            assert client.healthz()["status"] == "ok"
            client.close()


class TestClientBudget:
    def test_budget_spent_raises_deadline_exceeded(self, service):
        # Every data request stalls 600 ms; a 60 ms total budget must fail
        # fast with DeadlineExceeded — not burn timeout_s × retries.
        faults = FaultInjector(FaultPlan(stall_ms=600.0), hard=False)
        with EmbeddingServer(service, faults=faults) as server:
            client = ServingClient(server.url, retries=3, backoff_s=0.05)
            start = time.perf_counter()
            with pytest.raises(DeadlineExceeded) as excinfo:
                client.top_k(0, k=5, timeout_s=0.06)
            elapsed = time.perf_counter() - start
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"
            # One budget-capped attempt ≈ 60 ms; four full stalled
            # attempts would be ≈ 2.4 s+.  The bound sits far above
            # scheduler noise (a loaded box has shown 0.6 s for the
            # 60 ms path) but far below the unbudgeted retry loop.
            assert elapsed < 1.5
            client.close()

    def test_no_budget_keeps_legacy_behavior(self, service):
        with EmbeddingServer(service) as server:
            client = ServingClient(server.url, retries=0)
            result = client.top_k(0, k=5)
            assert len(result.ids) == 5
            client.close()

    def test_budget_larger_than_work_succeeds(self, service, store):
        with EmbeddingServer(service) as server:
            client = ServingClient(server.url, retries=0)
            result = client.top_k(0, k=5, timeout_s=30.0)
            assert len(result.ids) == 5
            result = client.batch_top_k([0, 1, 2], k=4, timeout_s=30.0)
            assert result.ids.shape == (3, 4)
            dim = store.open().features.shape[1]
            result = client.similar_by_vector(
                np.full(dim, 0.1), k=3, timeout_s=30.0
            )
            assert len(result.ids) == 3
            client.close()

    def test_server_sheds_when_client_abandons(self, service):
        # The client's socket timeout fires mid-stall; by the time the
        # handler resumes, the propagated deadline is spent and the server
        # sheds instead of running the query.
        faults = FaultInjector(FaultPlan(stall_ms=120.0), hard=False)
        with EmbeddingServer(service, faults=faults) as server:
            client = ServingClient(server.url, retries=0, backoff_s=0.0)
            with pytest.raises(DeadlineExceeded):
                client.top_k(0, k=5, timeout_s=0.08)
            deadline = time.perf_counter() + 2.0
            while (
                server.errors_total.value(code="deadline_exceeded") == 0
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)
            assert server.errors_total.value(code="deadline_exceeded") >= 1
            client.close()
