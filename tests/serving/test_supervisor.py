"""Multi-process supervisor: boot, aggregation, crash recovery, drain, breaker.

These tests spawn real worker subprocesses over a shared listen socket,
so they lean on small supervision intervals to stay fast.  Everything
asserts through the public surfaces: the shared data port, the
supervisor's aggregated admin endpoints, and process exit codes.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.serving.faults import FAULTS_ENV, INJECTED_KILL_EXIT, FaultPlan
from repro.serving.http import protocol
from repro.serving.http.client import ServingClient
from repro.serving.http.supervisor import Supervisor, SupervisorConfig
from repro.serving.obs.metrics import family_total
from repro.serving.service import QueryService, SearchRequest
from repro.serving.store import EmbeddingStore


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, trained_embedding):
    root = tmp_path_factory.mktemp("supervised") / "store"
    EmbeddingStore(root).publish(trained_embedding)
    return root


def make_config(store_root, **overrides) -> SupervisorConfig:
    base = dict(
        store=str(store_root),
        n_workers=2,
        backend="exact",
        health_interval_s=0.15,
        health_timeout_s=1.0,
        hang_checks=3,
        backoff_base_s=0.05,
        backoff_max_s=0.4,
        max_restarts=5,
        restart_window_s=30.0,
        drain_timeout_s=5.0,
    )
    base.update(overrides)
    return SupervisorConfig(**base)


def wait_until(predicate, *, timeout_s=20.0, interval_s=0.05, message="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError(f"timed out waiting for {message}")


class TestLifecycle:
    def test_boot_serve_and_aggregate(self, store_root, trained_embedding):
        """Happy path: N workers serve one port, admin endpoints fan in."""
        with Supervisor(make_config(store_root)) as supervisor:
            client = ServingClient(supervisor.url, retries=2)
            admin = ServingClient(supervisor.admin_url, retries=2)

            # HTTP answers through the shared socket are bit-identical to
            # the in-process canonical answer, whichever worker replies.
            reference = QueryService(
                EmbeddingStore(store_root), backend="exact"
            )
            expected = reference.search(SearchRequest(node=3, k=8))
            n_requests = 10
            for _ in range(n_requests):
                result = client.top_k(3, k=8)
                assert result.version == expected.version
                np.testing.assert_array_equal(result.ids, expected.ids)
                assert result.scores.tolist() == expected.scores.tolist()

            health = admin.healthz()
            assert health["status"] == "ok"
            assert health["n_live"] == health["n_workers"] == 2
            assert health["version_skew"] is False
            assert {w["worker"] for w in health["workers"]} == {0, 1}
            assert all(w["alive"] for w in health["workers"])
            assert all(isinstance(w["pid"], int) for w in health["workers"])

            info = admin.describe()
            assert info["version"] == expected.version
            assert info["supervisor"]["n_workers"] == 2
            assert info["supervisor"]["version_skew"] is False
            assert "worker" not in info  # supervisor view, not one worker's

            # The fleet view is the merged registry and nothing else: its
            # totals equal the sum over the per-worker registries (poll
            # briefly: the request counter bumps after the response).
            def summed_matches():
                metrics = admin.metrics()
                assert "aggregate" not in metrics
                per_worker = [
                    family_total(
                        worker["registry"], "http_requests_total",
                        endpoint=protocol.TOPK,
                    )
                    for worker in metrics["workers"].values()
                ]
                fleet = metrics["registry"]
                return (
                    metrics["supervisor"]["n_reporting"] == 2
                    and family_total(
                        fleet, "http_requests_total", endpoint=protocol.TOPK
                    )
                    == sum(per_worker)
                    == n_requests
                    and family_total(fleet, "service_queries_total") == n_requests
                    and family_total(fleet, "service_query_seconds") == n_requests
                )

            wait_until(summed_matches, timeout_s=5.0, message="metric fan-in")
            reference.close()
            client.close()
            admin.close()

    def test_sigkill_restart_restores_capacity(self, store_root):
        with Supervisor(make_config(store_root)) as supervisor:
            admin = ServingClient(supervisor.admin_url, retries=2)
            client = ServingClient(supervisor.url, retries=4, backoff_s=0.05)
            health = admin.healthz()
            victim = health["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)

            # Surviving worker keeps the port answering throughout.
            for node in range(20):
                client.top_k(node % 5, k=4)

            def recovered():
                probe = admin.healthz()
                return probe["n_live"] == 2 and probe["restarts_total"] >= 1

            wait_until(recovered, message="worker restart")
            probe = admin.healthz()
            pids = {w["pid"] for w in probe["workers"]}
            assert victim not in pids  # a fresh process took the slot
            assert any(
                "exited" in (w.get("last_exit") or "") for w in probe["workers"]
            )
            client.top_k(0, k=4)
            client.close()
            admin.close()

    def test_hung_worker_is_killed_and_replaced(self, store_root):
        with Supervisor(make_config(store_root, n_workers=1)) as supervisor:
            admin = ServingClient(supervisor.admin_url, retries=2)
            pid = admin.healthz()["workers"][0]["pid"]
            os.kill(pid, signal.SIGSTOP)  # alive but unresponsive

            def replaced():
                try:
                    probe = admin.healthz()
                except protocol.ApiError:
                    return False  # aggregate answers 503 while 0 live
                return (
                    probe["n_live"] == 1
                    and probe["workers"][0]["pid"] != pid
                )

            wait_until(replaced, message="hang detection + restart")
            assert "hung" in admin.healthz()["workers"][0]["last_exit"]
            admin.close()

    def test_rolling_drain_completes_in_flight_requests(
        self, store_root, monkeypatch
    ):
        # Every data request stalls 300 ms inside the worker, so the
        # request below is guaranteed to be mid-flight when SIGTERM-style
        # shutdown begins; the drain must let it finish with a real 200.
        monkeypatch.setenv(FAULTS_ENV, FaultPlan(stall_ms=300.0).to_env())
        supervisor = Supervisor(make_config(store_root, n_workers=1)).start()
        client = ServingClient(supervisor.url, retries=0, backoff_s=0.0)
        outcome: dict = {}

        def issue():
            try:
                outcome["result"] = client.top_k(1, k=6)
            except Exception as error:  # pragma: no cover - failure detail
                outcome["error"] = error

        thread = threading.Thread(target=issue)
        thread.start()
        time.sleep(0.1)  # let the request reach the stalled handler
        supervisor.shutdown()
        thread.join(timeout=10.0)
        assert "error" not in outcome, outcome.get("error")
        assert len(outcome["result"].ids) == 6
        # The worker drained cleanly (exit 0), not via the kill fallback.
        handle = supervisor._slots[0].handle
        assert handle is not None and handle.process.returncode == 0
        client.close()

    def test_breaker_trips_on_crash_loop(self, tmp_path):
        # A store root with no published version: every worker dies at
        # boot, restarts burn through the window, the breaker gives up.
        config = make_config(
            tmp_path / "hollow-store",
            n_workers=1,
            max_restarts=2,
            backoff_base_s=0.02,
            backoff_max_s=0.05,
        )
        supervisor = Supervisor(config).start()
        try:
            code = supervisor.wait(signals=False)
            assert code == Supervisor.BREAKER_EXIT
            assert "crash loop" in supervisor.failed
        finally:
            supervisor.shutdown()


class TestChaos:
    def test_zero_client_visible_5xx_on_injected_worker_kill(
        self, store_root, monkeypatch
    ):
        """The availability acceptance: kill a worker under load, no 5xx.

        Worker 0 is armed to hard-crash (``os._exit``) after its 5th data
        request.  With 2 workers and a retrying client, every request in
        the burst must still succeed — torn connections fail over — and
        the supervisor must restore full capacity afterwards.
        """
        plan = FaultPlan(kill_after_requests=5, worker=0)
        monkeypatch.setenv(FAULTS_ENV, plan.to_env())
        # Every replacement in slot 0 inherits the armed env and crashes
        # again after its own 5th request, so the breaker ceiling must sit
        # above any crash count the burst can produce — this test is about
        # availability, not the breaker (test_breaker_trips_on_crash_loop).
        with Supervisor(make_config(store_root, max_restarts=50)) as supervisor:
            admin = ServingClient(supervisor.admin_url, retries=2)
            failures = []

            def drive(who, n_requests):
                # Each call owns a *fresh* keep-alive connection.  A
                # single sequential connection can be accepted by the
                # unarmed worker and starve slot 0 of data requests
                # forever (accept(2) wakes the most recently blocked
                # listener) — concurrent and repeated fresh connections
                # are what guarantee the armed slot eventually serves
                # its 5th request and pulls the trigger.
                burst_client = ServingClient(
                    supervisor.url, retries=4, backoff_s=0.05
                )
                try:
                    for request in range(n_requests):
                        try:
                            result = burst_client.top_k(request % 7, k=5)
                            assert len(result.ids) == 5
                        except Exception as error:
                            failures.append((who, request, error))
                finally:
                    burst_client.close()

            threads = [
                threading.Thread(target=drive, args=(worker, 15))
                for worker in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []

            def crashed_and_recovered():
                probe = admin.healthz()
                if probe["restarts_total"] >= 1 and probe["n_live"] == 2:
                    return True
                drive("poke", 3)  # keep feeding the armed slot
                return False

            wait_until(
                crashed_and_recovered, timeout_s=30.0, message="kill + recovery"
            )
            assert failures == [], f"recovery pokes leaked failures: {failures}"
            probe = admin.healthz()
            assert any(
                f"code {INJECTED_KILL_EXIT}" in (w.get("last_exit") or "")
                for w in probe["workers"]
            )
            # Post-recovery throughput: the restored fleet still answers.
            drive("after", 10)
            assert failures == []
            admin.close()


class TestWritePath:
    """Supervisor-owned WAL: upserts on the admin URL, fleet lsn fields."""

    def post_upsert(
        self, admin_url: str, body: dict, request_id: str = "test-upsert"
    ) -> tuple[int, dict]:
        import json
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            admin_url + protocol.UPSERT,
            data=json.dumps(body).encode("utf-8"),
            headers={
                "Content-Type": protocol.JSON_CONTENT_TYPE,
                protocol.REQUEST_ID_HEADER: request_id,
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_upsert_compacts_and_pokes_every_worker(self, tmp_path):
        from repro.graph.generators import attributed_sbm
        from repro.graph.io import save_npz

        graph = attributed_sbm(n_nodes=60, n_attributes=15, seed=9)
        graph_path = tmp_path / "graph.npz"
        save_npz(graph, graph_path)
        config = make_config(
            tmp_path / "store",
            wal_dir=str(tmp_path / "wal"),
            graph=str(graph_path),
            bootstrap_k=8,
            compact_interval_s=0.1,
            gc_keep=2,
        )
        with Supervisor(config) as supervisor:
            admin = ServingClient(supervisor.admin_url, retries=2)
            data = ServingClient(supervisor.url, retries=2)
            try:
                health = admin.healthz()
                assert health["n_live"] == 2
                assert (health["lsn_durable"], health["lsn_served"]) == (0, 0)

                status, ack = self.post_upsert(
                    supervisor.admin_url,
                    {"add_edges": [[0, 7], [3, 11]], "add_associations": [[1, 2, 1.0]]},
                    request_id="fleet-upsert-1",
                )
                assert status == 200
                assert ack["durable"] is True
                assert (ack["first_lsn"], ack["lsn"]) == (1, 3)

                # The admin port is the same front-end as the data port:
                # the upsert is traced under the caller's request id with
                # its acked LSN, and counted in the fleet's http_* series.
                def find_upsert_trace():
                    traces = admin._request("GET", protocol.TRACES)["traces"]
                    return next(
                        (t for t in traces if t["request_id"] == "fleet-upsert-1"),
                        None,
                    )

                wait_until(
                    lambda: find_upsert_trace() is not None,
                    timeout_s=5.0,
                    message="the upsert's trace on the admin port",
                )
                trace = find_upsert_trace()
                assert trace["endpoint"] == protocol.UPSERT
                assert trace["status"] == 200
                assert trace["annotations"]["lsn"] == ack["lsn"]
                assert "append" in [span["name"] for span in trace["spans"]]

                # compaction + worker pokes converge the whole fleet
                wait_until(
                    lambda: admin.healthz().get("lsn_served", 0) >= 3,
                    message="fleet lsn_served to reach the ack",
                )
                health = admin.healthz()
                assert health["lsn_durable"] == 3
                assert health["freshness_lag"] == 0

                describe = admin.describe()
                assert describe["lsn_served"] == 3
                assert describe["ingest"]["lag"] == 0
                metrics = admin.metrics()
                assert metrics["ingest"]["counters"]["appends"] == 1
                assert metrics["ingest"]["compactor"]["alive"] is True
                assert family_total(
                    metrics["registry"], "http_requests_total",
                    endpoint=protocol.UPSERT,
                ) == 1
                assert family_total(metrics["registry"], "compactor_alive") == 1
                # The same wal_* mirror a single-process server runs.
                assert family_total(metrics["registry"], "wal_appends_total") == 1
                assert family_total(metrics["registry"], "wal_fsyncs_total") >= 1
                assert family_total(metrics["registry"], "wal_log_bytes") > 0

                # reads on the shared data socket serve the compacted version
                result = data.top_k(0, k=5)
                assert len(result.ids) == 5

                # malformed writes map to the same structured 400
                status, body = self.post_upsert(
                    supervisor.admin_url, {"add_edges": [[0, 9999]]}
                )
                assert status == 400
                assert body["error"]["code"] == "invalid_request"
            finally:
                admin.close()
                data.close()

    def test_in_flight_upsert_completes_before_the_log_closes(self, tmp_path):
        """Shutdown drains the admin port before closing the log under it."""
        from repro.graph.generators import attributed_sbm
        from repro.graph.io import save_npz
        from repro.serving.wal.log import LogReader

        graph_path = tmp_path / "graph.npz"
        save_npz(attributed_sbm(n_nodes=60, n_attributes=15, seed=9), graph_path)
        config = make_config(
            tmp_path / "store",
            n_workers=1,
            wal_dir=str(tmp_path / "wal"),
            graph=str(graph_path),
            bootstrap_k=8,
        )
        supervisor = Supervisor(config).start()
        try:
            pipeline = supervisor.write_path.pipeline
            append = pipeline.append

            def append_once_draining(delta):
                # Reach the log only after the admin port began to drain:
                # were the log closed first, this append would fail.
                wait_until(
                    lambda: supervisor._admin.draining, message="admin drain"
                )
                return append(delta)

            pipeline.append = append_once_draining
            outcome: dict = {}

            def issue():
                outcome["status"], outcome["body"] = self.post_upsert(
                    supervisor.admin_url, {"add_edges": [[0, 7]]}
                )

            thread = threading.Thread(target=issue)
            thread.start()
            wait_until(
                lambda: supervisor._admin.in_flight == 1,
                message="the upsert to reach its handler",
            )
        finally:
            supervisor.shutdown()
        thread.join(timeout=10.0)
        assert outcome["status"] == 200, outcome
        assert outcome["body"]["durable"] is True
        assert [r.lsn for r in LogReader(tmp_path / "wal").records()] == [1]

    def test_read_only_supervisor_rejects_upserts(self, store_root):
        with Supervisor(make_config(store_root)) as supervisor:
            status, body = self.post_upsert(
                supervisor.admin_url, {"add_edges": [[0, 1]]}
            )
            assert status == 409
            assert body["error"]["code"] == "no_write_path"


class TestObservability:
    """Fleet metrics fan-in, Prometheus exposition, journal, tracing."""

    def scrape_text(self, admin_url: str) -> str:
        import urllib.request

        request = urllib.request.Request(
            admin_url + protocol.METRICS,
            headers={"Accept": "text/plain"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers.get("Content-Type").startswith(
                "text/plain; version=0.0.4"
            )
            return response.read().decode("utf-8")

    def test_fleet_registry_sums_worker_cells(self, store_root):
        """Fleet cells equal the sum of worker cells, JSON and text."""
        from repro.serving.obs.metrics import parse_text

        with Supervisor(make_config(store_root)) as supervisor:
            client = ServingClient(supervisor.url, retries=2)
            admin = ServingClient(supervisor.admin_url, retries=2)
            try:
                n_requests = 12
                for n in range(n_requests):
                    client.top_k(n % 5, k=4)

                def fleet_counts_all():
                    metrics = admin.metrics()
                    families = {
                        f["name"]: f
                        for f in metrics["registry"]["families"]
                    }
                    fleet = sum(
                        cell["value"]
                        for cell in families["http_requests_total"]["cells"]
                        if cell["labels"].get("endpoint") == protocol.TOPK
                    )
                    per_worker = sum(
                        cell["value"]
                        for worker in metrics["workers"].values()
                        for family in worker["registry"]["families"]
                        if family["name"] == "http_requests_total"
                        for cell in family["cells"]
                        if cell["labels"].get("endpoint") == protocol.TOPK
                    )
                    return fleet == per_worker == n_requests

                wait_until(
                    fleet_counts_all, timeout_s=5.0, message="registry fan-in"
                )

                # Histogram cells merged too: count equals the counter.
                metrics = admin.metrics()
                families = {
                    f["name"]: f for f in metrics["registry"]["families"]
                }
                histogram = next(
                    cell
                    for cell in families["http_request_seconds"]["cells"]
                    if cell["labels"].get("endpoint") == protocol.TOPK
                )
                assert histogram["count"] == n_requests
                assert sum(histogram["counts"]) == n_requests

                # Footprint gauges carry a worker label, so the merge
                # keeps each worker's own reading instead of a sum.
                assert set(metrics["workers"]) == {"0", "1"}
                for name in (
                    "process_resident_memory_bytes",
                    "process_peak_resident_memory_bytes",
                    "process_modules_loaded",
                ):
                    for worker, payload in metrics["workers"].items():
                        own = family_total(payload["registry"], name, worker=worker)
                        assert own > 0
                        assert own == family_total(
                            metrics["registry"], name, worker=worker
                        )

                # The same snapshot renders as valid Prometheus text.
                parsed = parse_text(self.scrape_text(supervisor.admin_url))
                sample = parsed["http_requests_total"]["samples"][
                    (
                        "http_requests_total",
                        (("endpoint", protocol.TOPK),),
                    )
                ]
                assert sample == n_requests
                assert parsed["supervisor_workers_live"]["type"] == "gauge"
                assert parsed["http_request_seconds"]["type"] == "histogram"
            finally:
                client.close()
                admin.close()

    def test_fleet_counters_monotonic_across_worker_churn(self, store_root):
        """Satellite: kill a worker between scrapes; totals never regress."""
        from repro.serving.obs.metrics import parse_text

        with Supervisor(make_config(store_root)) as supervisor:
            client = ServingClient(supervisor.url, retries=4, backoff_s=0.05)
            admin = ServingClient(supervisor.admin_url, retries=2)
            try:
                def topk_total():
                    metrics = admin.metrics()
                    families = {
                        f["name"]: f
                        for f in metrics["registry"]["families"]
                    }
                    return sum(
                        cell["value"]
                        for cell in families["http_requests_total"]["cells"]
                        if cell["labels"].get("endpoint") == protocol.TOPK
                    )

                for n in range(10):
                    client.top_k(n % 5, k=4)
                wait_until(
                    lambda: topk_total() >= 10,
                    timeout_s=5.0,
                    message="pre-churn scrape to see all requests",
                )
                before = topk_total()

                victim = admin.healthz()["workers"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                # Scrape continuously through the churn window: every
                # snapshot must stay well-formed and monotonic even while
                # one worker is dead and its last scrape is being folded.
                deadline = time.monotonic() + 20.0
                low_water = before
                while time.monotonic() < deadline:
                    total = topk_total()
                    assert total >= low_water, "fleet counter regressed"
                    low_water = total
                    parse_text(self.scrape_text(supervisor.admin_url))
                    probe = admin.healthz()
                    if probe["n_live"] == 2 and probe["restarts_total"] >= 1:
                        break
                    time.sleep(0.05)
                else:
                    raise AssertionError("worker never restarted")

                for n in range(5):
                    client.top_k(n % 5, k=4)
                wait_until(
                    lambda: topk_total() >= before + 5,
                    timeout_s=5.0,
                    message="post-restart requests to land in the fleet view",
                )
                # Counters outlive the dead incarnation; its gauges do
                # not — the restarted worker's footprint is its own, not
                # its own plus its predecessor's.
                metrics = admin.metrics()
                assert len(metrics["workers"]) == 2
                for worker, payload in metrics["workers"].items():
                    assert family_total(
                        metrics["registry"], "process_modules_loaded", worker=worker
                    ) == family_total(
                        payload["registry"], "process_modules_loaded", worker=worker
                    )
            finally:
                client.close()
                admin.close()

    def test_journal_records_fleet_lifecycle(self, tmp_path, trained_embedding):
        """Boot → kill → restart → drain all land in events.jsonl."""
        from repro.serving.obs.journal import read_events
        from repro.serving.store import EmbeddingStore

        root = tmp_path / "store"
        EmbeddingStore(root).publish(trained_embedding)
        with Supervisor(make_config(root)) as supervisor:
            admin = ServingClient(supervisor.admin_url, retries=2)
            victim = admin.healthz()["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            wait_until(
                lambda: admin.healthz()["restarts_total"] >= 1,
                message="restart after SIGKILL",
            )
            admin.close()
        events = list(read_events(root))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "supervisor_start"
        assert kinds[-1] == "supervisor_stop"
        assert kinds.count("worker_start") >= 3  # 2 boot + >=1 respawn
        assert "drain" in kinds
        exit_event = next(e for e in events if e["kind"] == "worker_exit")
        assert exit_event["worker_pid"] == victim
        assert exit_event["exit"] == -signal.SIGKILL
        assert all("pid" in event and "ts" in event for event in events)
        restart = next(e for e in events if e["kind"] == "worker_restart")
        assert restart["restarts"] >= 1

    def test_request_follows_through_fleet(self, store_root):
        """Acceptance: one request id, client attempt log → worker spans."""
        import urllib.request

        with Supervisor(make_config(store_root)) as supervisor:
            client = ServingClient(supervisor.url, retries=2)
            try:
                client.top_k(3, k=4)
                entry = client.request_trace()[0]
                request_id = entry["request_id"]
                assert entry["attempts"][-1]["status"] == 200

                # Any worker may answer /debug/traces; poll until the
                # worker that handled the request serves its buffer.
                def find_trace():
                    request = urllib.request.Request(
                        supervisor.url + protocol.TRACES
                    )
                    with urllib.request.urlopen(request, timeout=10) as resp:
                        assert resp.headers.get("X-Request-Id")
                        payload = json.loads(resp.read())
                    for trace in payload["traces"]:
                        if trace["request_id"] == request_id:
                            return trace
                    return None

                deadline = time.monotonic() + 10.0
                trace = find_trace()
                while trace is None and time.monotonic() < deadline:
                    time.sleep(0.05)
                    trace = find_trace()
                assert trace is not None, "request trace never surfaced"
                names = [span["name"] for span in trace["spans"]]
                assert "parse" in names and "select" in names
                assert trace["status"] == 200
            finally:
                client.close()
