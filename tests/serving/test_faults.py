"""Fault-injection harness: plan parsing, injector behavior, soft-mode blast radius."""

from __future__ import annotations

import json
import time

import pytest

from repro.serving.faults import (
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    InjectedFault,
)
from repro.serving.http.client import ServingClient, ServingUnavailable
from repro.serving.http.protocol import ApiError
from repro.serving.http.server import EmbeddingServer
from repro.serving.service import QueryService, SearchRequest


class TestFaultPlan:
    def test_from_env_unset_is_none(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({FAULTS_ENV: ""}) is None

    def test_from_env_parses_fields(self):
        plan = FaultPlan.from_env(
            {FAULTS_ENV: '{"kill_after_requests": 5, "worker": 1, "seed": 7}'}
        )
        assert plan.kill_after_requests == 5
        assert plan.worker == 1
        assert plan.seed == 7

    def test_from_env_malformed_json_raises(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_env({FAULTS_ENV: "{nope"})

    def test_from_env_non_object_raises(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_env({FAULTS_ENV: "[1, 2]"})

    def test_unknown_fields_raise(self):
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_spec({"kill_after": 3})

    def test_validation(self):
        with pytest.raises(ValueError, match="kill_after_requests"):
            FaultPlan(kill_after_requests=0)
        with pytest.raises(ValueError, match="stall_ms"):
            FaultPlan(stall_ms=-1.0)
        with pytest.raises(ValueError, match="torn_publish_step"):
            FaultPlan(torn_publish_step="rename")

    def test_stall_defaults_to_every_request(self):
        assert FaultPlan(stall_ms=5.0).stall_every == 1

    def test_to_env_round_trips(self):
        plan = FaultPlan(
            kill_after_requests=3, stall_ms=2.0, torn_publish_step="manifest",
            worker=0, seed=9,
        )
        parsed = FaultPlan.from_env({FAULTS_ENV: plan.to_env()})
        assert parsed == plan
        # The encoding stays minimal: defaults are not serialized.
        assert json.loads(FaultPlan(worker=2).to_env()) == {"worker": 2}

    def test_worker_scoping(self):
        scoped = FaultPlan(kill_after_requests=1, worker=1)
        assert scoped.applies_to_worker(1)
        assert not scoped.applies_to_worker(0)
        assert FaultPlan(kill_after_requests=1).applies_to_worker(None)
        assert (
            FaultInjector.from_env(
                worker_id=0, environ={FAULTS_ENV: scoped.to_env()}
            )
            is None
        )
        armed = FaultInjector.from_env(
            worker_id=1, environ={FAULTS_ENV: scoped.to_env()}
        )
        assert armed is not None and armed.plan == scoped


class TestFaultInjector:
    def test_soft_kill_after_n_requests(self):
        injector = FaultInjector(FaultPlan(kill_after_requests=3), hard=False)
        injector.on_request()
        injector.on_request()
        with pytest.raises(InjectedFault, match="after 3 requests"):
            injector.on_request()
        assert injector.counters()["requests"] == 3

    def test_torn_publish_step(self):
        injector = FaultInjector(
            FaultPlan(torn_publish_step="manifest"), hard=False
        )
        injector.on_publish_step("arrays")  # not the armed step
        with pytest.raises(InjectedFault, match="manifest"):
            injector.on_publish_step("manifest")

    def test_stall_cadence(self):
        injector = FaultInjector(
            FaultPlan(stall_ms=40.0, stall_every=2), hard=False
        )
        start = time.perf_counter()
        injector.on_request()
        fast = time.perf_counter() - start
        start = time.perf_counter()
        injector.on_request()
        slow = time.perf_counter() - start
        assert fast < 0.02
        assert slow >= 0.03

    def test_corrupt_frame_every_and_determinism(self):
        frame = bytes(range(64)) * 4
        first = FaultInjector(FaultPlan(corrupt_frame_every=2, seed=5), hard=False)
        second = FaultInjector(FaultPlan(corrupt_frame_every=2, seed=5), hard=False)
        assert first.corrupt_frame(frame) == frame  # 1st frame passes
        damaged = first.corrupt_frame(frame)
        assert damaged != frame
        diff = [i for i, (a, b) in enumerate(zip(frame, damaged)) if a != b]
        assert len(diff) == 1
        assert damaged[diff[0]] == frame[diff[0]] ^ 0xFF
        # Same plan + same sequence → same corrupted byte.
        second.corrupt_frame(frame)
        assert second.corrupt_frame(frame) == damaged
        assert first.counters()["corrupted_frames"] == 1

    def test_corrupt_frame_disabled_and_empty(self):
        inert = FaultInjector(FaultPlan(), hard=False)
        assert inert.corrupt_frame(b"abc") == b"abc"
        armed = FaultInjector(FaultPlan(corrupt_frame_every=1), hard=False)
        assert armed.corrupt_frame(b"") == b""


class TestServerIntegration:
    """Soft-mode faults flowing through a live in-process server."""

    def test_injected_kill_tears_connection_without_500(self, store):
        plan = FaultPlan(kill_after_requests=3)
        with QueryService(store, backend="exact") as service:
            server = EmbeddingServer(
                service, faults=FaultInjector(plan, hard=False)
            )
            with server:
                client = ServingClient(server.url, retries=0, backoff_s=0.0)
                client.top_k(0, k=5)
                client.top_k(1, k=5)
                # The third data request dies mid-flight: the client sees a
                # torn connection, never an HTTP error response.
                with pytest.raises(ServingUnavailable):
                    client.top_k(2, k=5)
                client.close()
            # The crash is a crash, not a handled 500 — and health probes
            # never advance the kill counter.
            assert "internal" not in server.error_counts

    def test_health_probes_never_trigger_kills(self, store):
        plan = FaultPlan(kill_after_requests=1)
        with QueryService(store, backend="exact") as service:
            server = EmbeddingServer(
                service, faults=FaultInjector(plan, hard=False)
            )
            with server:
                client = ServingClient(server.url, retries=0, backoff_s=0.0)
                for _ in range(5):
                    assert client.healthz()["status"] == "ok"
                assert client.metrics()["schema"]
                # Probes did not advance the counter: the *first* data
                # request is still request #1, and dies.
                with pytest.raises(ServingUnavailable):
                    client.top_k(0, k=5)
                client.close()

    def test_corrupted_frame_is_client_visible(self, store):
        plan = FaultPlan(corrupt_frame_every=2, seed=3)
        with QueryService(store, backend="exact") as service:
            server = EmbeddingServer(
                service, faults=FaultInjector(plan, hard=False)
            )
            reference = service.search(SearchRequest(node=1, k=5))
            with server:
                client = ServingClient(server.url, wire="binary", retries=0)
                client.top_k(0, k=5)  # 1st frame passes clean
                # The 2nd frame carries exactly one XORed byte.  A header
                # byte flip breaks UTF-8/magic and raises; an array byte
                # flip must change the ids or scores — never a silent
                # bit-identical answer.
                try:
                    damaged = client.top_k(1, k=5)
                except ApiError:
                    pass  # frame decoder caught structural damage
                else:
                    same = (
                        damaged.ids.tolist() == reference.ids.tolist()
                        and damaged.scores.tolist() == reference.scores.tolist()
                    )
                    assert not same
                client.close()
