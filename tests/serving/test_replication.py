"""Streaming WAL replication: wire codec, fencing, standby, failover.

The end-to-end tests run a real primary and standby
:class:`EmbeddingServer` pair on loopback with a background
:class:`StandbyReplicator` thread — the same wiring ``repro serve
--standby-of`` builds — and assert the replication contract: every
acked LSN is present bit-identically on the standby, promotion fences
the old term, and a diverged tail is quarantined without losing
replicated records.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.dynamic.incremental import GraphDelta
from repro.graph.generators import attributed_sbm
from repro.serving.fsck import fsck_wal
from repro.serving.http import ApiError, EmbeddingServer, ServingClient
from repro.serving.http import protocol
from repro.serving.http.write_path import WritePath
from repro.serving.service import QueryService
from repro.serving.store import EmbeddingStore
from repro.serving.wal import IngestPipeline
from repro.serving.wal.log import DeltaLog, EpochFenced, LogReader
from repro.serving.wal.replication import (
    FRAME_HEARTBEAT,
    FRAME_HELLO,
    FRAME_RECORDS,
    FeedRejected,
    ReplicationHub,
    ReplicationWireError,
    StandbyReplicator,
    build_feed,
    check_feed_request,
    decode_frames,
    encode_frame,
    read_diverged_marker,
)


def delta(*, add_edges=None, add_assocs=None):
    return GraphDelta(
        add_edges=None
        if add_edges is None
        else np.asarray(add_edges, dtype=np.int64),
        remove_edges=None,
        add_associations=None
        if add_assocs is None
        else np.asarray(add_assocs, dtype=np.float64),
        remove_associations=None,
    )


# ---------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------
class TestWire:
    def test_frame_round_trip(self):
        body = (
            encode_frame(FRAME_HELLO, 3, 17, b'{"x":1}')
            + encode_frame(FRAME_RECORDS, 3, 18, b"abc")
            + encode_frame(FRAME_HEARTBEAT, 3, 17)
        )
        frames = decode_frames(body)
        assert [(f.type, f.epoch, f.arg) for f in frames] == [
            (FRAME_HELLO, 3, 17),
            (FRAME_RECORDS, 3, 18),
            (FRAME_HEARTBEAT, 3, 17),
        ]
        assert frames[0].payload == b'{"x":1}'
        assert frames[2].payload == b""

    def test_corrupt_crc_rejected(self):
        body = bytearray(encode_frame(FRAME_RECORDS, 1, 5, b"payload"))
        body[-6] ^= 0xFF  # flip a payload byte under the trailing CRC
        with pytest.raises(ReplicationWireError):
            decode_frames(bytes(body))

    def test_truncated_body_rejected(self):
        body = encode_frame(FRAME_HELLO, 1, 1, b"{}")
        with pytest.raises(ReplicationWireError):
            decode_frames(body[:-3])

    def test_empty_body_rejected(self):
        with pytest.raises(ReplicationWireError):
            decode_frames(b"")


# ---------------------------------------------------------------------
# Feed + fencing gate
# ---------------------------------------------------------------------
class TestFeed:
    def test_feed_carries_records_and_hello(self, tmp_path):
        with DeltaLog(tmp_path / "wal") as log:
            log.append_delta(delta(add_edges=[[1, 2], [3, 4]]))
            frames = decode_frames(build_feed(log, 0))
            assert frames[0].type == FRAME_HELLO
            assert frames[0].arg == 2  # primary durable LSN
            records = [f for f in frames if f.type == FRAME_RECORDS]
            assert records and records[0].arg == 1  # first LSN shipped

    def test_caught_up_poll_gets_heartbeat(self, tmp_path):
        with DeltaLog(tmp_path / "wal") as log:
            log.append_delta(delta(add_edges=[[1, 2]]))
            frames = decode_frames(build_feed(log, log.last_lsn))
            assert [f.type for f in frames] == [FRAME_HELLO, FRAME_HEARTBEAT]
            assert frames[1].arg == log.last_lsn

    def test_stale_epoch_requester_with_clean_prefix_is_served(self, tmp_path):
        with DeltaLog(tmp_path / "wal") as log:
            log.append_delta(delta(add_edges=[[1, 2]]))
            log.bump_epoch()
            log.append_delta(delta(add_edges=[[3, 4]]))
            # Held-records prefix entirely below the new term's start:
            # the standby can be caught up (it adopts epoch 2 in-stream).
            check_feed_request(log, 1, 1)
            frames = decode_frames(build_feed(log, 1, requester_epoch=1))
            records = [f for f in frames if f.type == FRAME_RECORDS]
            assert records[0].epoch == 2

    def test_diverged_tail_rejected(self, tmp_path):
        with DeltaLog(tmp_path / "wal") as log:
            log.append_delta(delta(add_edges=[[1, 2]]))
            log.bump_epoch()
            log.append_delta(delta(add_edges=[[3, 4]]))
            # Requester claims LSN 2 under epoch 1, but LSN 2 here
            # belongs to epoch 2: its tail diverged.
            with pytest.raises(FeedRejected) as excinfo:
                check_feed_request(log, 2, 1)
            assert excinfo.value.code == "diverged_tail"
            assert excinfo.value.details["first_diverged_lsn"] == 2

    def test_future_epoch_requester_rejected(self, tmp_path):
        with DeltaLog(tmp_path / "wal") as log:
            log.append_delta(delta(add_edges=[[1, 2]]))
            with pytest.raises(FeedRejected) as excinfo:
                check_feed_request(log, 1, 7)
            assert excinfo.value.code == "stale_epoch"

    def test_pruned_log_rejected(self, tmp_path):
        with DeltaLog(tmp_path / "wal", segment_bytes=1024) as log:
            for i in range(80):
                log.append_delta(delta(add_edges=[[i, i + 1]]))
            log.prune_through(60)
            with pytest.raises(FeedRejected) as excinfo:
                check_feed_request(log, 0, 1)
            assert excinfo.value.code == "log_pruned"
            assert excinfo.value.details["first_lsn_available"] > 1


class TestHub:
    def test_wait_replicated_unblocks_on_ack(self):
        hub = ReplicationHub()
        assert not hub.wait_replicated(5, timeout_s=0.05)
        hub.note_poll("sb", 5, durable_lsn=5)
        assert hub.wait_replicated(5, timeout_s=0.05)
        assert hub.acked(5) and not hub.acked(6)

    def test_status_reports_min_ack(self):
        hub = ReplicationHub()
        hub.note_poll("a", 9, durable_lsn=10)
        hub.note_poll("b", 4, durable_lsn=10)
        status = hub.status()
        assert status["n_standbys"] == 2
        assert status["min_ack_lsn"] == 4


# ---------------------------------------------------------------------
# End-to-end pair: replicate, promote, fence
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def base_graph():
    return attributed_sbm(n_nodes=80, n_attributes=20, seed=5)


class _Node:
    """One serving node: store + pipeline + service + HTTP server."""

    def __init__(self, root, graph, **ack_settings):
        self.store = EmbeddingStore(root / "store")
        self.pipeline = IngestPipeline(root / "wal", self.store)
        self.pipeline.bootstrap(graph, k=8, update_sweeps=1)
        self.service = QueryService(self.store, backend="exact")
        self.pipeline.bind_service(self.service)
        self.write_path = WritePath(self.pipeline, **ack_settings)
        self.server = EmbeddingServer(self.service, ingest=self.write_path)
        self.server.__enter__()

    @property
    def url(self):
        return self.server.url

    @property
    def log(self):
        return self.pipeline.log

    def close(self):
        self.server.__exit__(None, None, None)
        self.service.close()
        self.pipeline.close()


def _wait_caught_up(replicator, timeout_s=5.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        status = replicator.status()
        if status["state"] == "caught_up" and status["lag"] == 0:
            return status
        time.sleep(0.02)
    raise AssertionError(f"standby never caught up: {replicator.status()}")


@pytest.fixture()
def pair(tmp_path, base_graph):
    primary = _Node(
        tmp_path / "primary", base_graph, ack_replicas=1, ack_timeout_s=5.0
    )
    standby = _Node(tmp_path / "standby", base_graph)
    replicator = StandbyReplicator(
        primary.url,
        standby.log,
        standby_id="sb-test",
        wait_s=0.3,
    )
    standby.write_path.replicator = replicator
    replicator.start()
    try:
        yield primary, standby, replicator
    finally:
        replicator.stop(timeout_s=2.0)
        standby.close()
        primary.close()


class TestEndToEnd:
    def test_acked_records_bit_identical_on_standby(self, pair):
        primary, standby, replicator = pair
        client = ServingClient(primary.url, retries=0)
        acked = []
        for i in range(5):
            ack = client.upsert(add_edges=[[i, i + 6]])
            assert ack["durable"] and ack["epoch"] == 1
            acked.append(ack["lsn"])
        status = _wait_caught_up(replicator)
        assert status["records_replicated"] >= 5
        ours = [
            (r.lsn, r.kind, r.a, r.b, r.weight)
            for r in LogReader(primary.pipeline.wal_dir).records()
        ]
        theirs = [
            (r.lsn, r.kind, r.a, r.b, r.weight)
            for r in LogReader(standby.pipeline.wal_dir).records()
        ]
        assert ours == theirs
        assert max(acked) <= standby.log.last_lsn

    def test_feed_polls_share_one_keepalive_connection(self, pair):
        """The standby long-polls over one kept-alive connection, not a
        dial per round."""
        _, _, replicator = pair

        def rounds_after(floor: int) -> int:
            deadline = time.time() + 5.0
            while replicator.status()["rounds"] <= floor and time.time() < deadline:
                time.sleep(0.05)
            return replicator.status()["rounds"]

        first = rounds_after(0)
        connection = replicator._connection
        assert rounds_after(first + 2) > first + 2
        assert replicator._connection is connection
        assert connection.sock is not None

    def test_standby_refuses_writes(self, pair):
        _, standby, _ = pair
        client = ServingClient(standby.url, retries=0)
        with pytest.raises(ApiError) as excinfo:
            client.upsert(add_edges=[[0, 7]])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "not_primary"

    def test_replication_lag_in_observability(self, pair):
        primary, standby, replicator = pair
        ServingClient(primary.url).upsert(add_edges=[[2, 9]])
        _wait_caught_up(replicator)
        health = ServingClient(standby.url).healthz()
        assert health["role"] == "standby"
        assert health["replication"]["lag"] == 0
        metrics = ServingClient(standby.url).metrics()
        assert metrics["replication"]["standby"]["state"] == "caught_up"
        primary_health = ServingClient(primary.url).healthz()
        assert primary_health["role"] == "primary"
        assert primary_health["replication"]["min_ack_lsn"] is not None

    def test_promote_fences_old_primary(self, pair):
        primary, standby, replicator = pair
        client = ServingClient([primary.url, standby.url], retries=1)
        ack = client.upsert(add_edges=[[1, 8]])
        _wait_caught_up(replicator)
        promoted = client.promote(prefer=1)
        assert promoted == {
            "role": "primary",
            "previous_role": "standby",
            "epoch": 2,
            "lsn_durable": ack["lsn"],
        }
        assert client.max_epoch_seen == 2
        # New primary acks at the new term.
        ack2 = ServingClient(standby.url).upsert(add_edges=[[2, 10]])
        assert ack2["epoch"] == 2
        # The old primary still answers at epoch 1 (hub empty now, so
        # disable semi-sync to get a 200 back): the client's fencing
        # token refuses it.
        primary.write_path.ack_replicas = 0
        with pytest.raises(ApiError) as excinfo:
            client.upsert(add_edges=[[3, 11]])
        assert excinfo.value.code == "stale_epoch"

    def test_revived_primary_rejoins_and_diverges(self, pair, tmp_path):
        primary, standby, replicator = pair
        client = ServingClient(primary.url, retries=0)
        client.upsert(add_edges=[[4, 12]])
        _wait_caught_up(replicator)
        ServingClient(standby.url).promote()
        # The old primary writes one more record its term has no right
        # to (semi-sync off so the append lands without standby acks).
        primary.write_path.ack_replicas = 0
        client.upsert(add_edges=[[5, 13]])
        diverged_at = primary.log.last_lsn
        # Rejoin the old primary as a standby of the new one: the feed
        # rejects its tail, and the marker records where to cut.
        rejoin = StandbyReplicator(
            standby.url,
            primary.log,
            standby_id="old-primary",
            wait_s=0.2,
        )
        rejoin.start()
        deadline = time.time() + 5
        while time.time() < deadline and rejoin.status()["state"] != "diverged":
            time.sleep(0.02)
        assert rejoin.status()["state"] == "diverged"
        rejoin.stop(timeout_s=2.0)
        marker = read_diverged_marker(primary.pipeline.wal_dir)
        assert marker["first_diverged_lsn"] == diverged_at
        assert (marker["local_epoch"], marker["primary_epoch"]) == (1, 2)

    def test_min_lsn_read_your_writes(self, pair):
        primary, _, _ = pair
        client = ServingClient(primary.url, retries=1, backoff_s=0.01)
        ack = client.upsert(add_edges=[[6, 14]])
        with pytest.raises(ApiError) as excinfo:
            client.top_k(0, 5, min_lsn=ack["lsn"], timeout_s=0.5)
        assert excinfo.value.code == "stale_read"
        assert excinfo.value.details["required_min_lsn"] == ack["lsn"]
        primary.pipeline.compact_once()
        result = client.top_k(0, 5, min_lsn=ack["lsn"])
        assert result.ids.size > 0


class TestSemiSync:
    def test_ack_withheld_without_standby(self, tmp_path, base_graph):
        node = _Node(
            tmp_path / "solo", base_graph, ack_replicas=1, ack_timeout_s=0.1
        )
        try:
            client = ServingClient(node.url, retries=0)
            with pytest.raises(ApiError) as excinfo:
                client.upsert(add_edges=[[0, 9]])
            assert excinfo.value.code == "replication_timeout"
            # Durable locally, NOT acked — zero-acked-loss by construction.
            assert excinfo.value.details["lsn"] == node.log.last_lsn
        finally:
            node.close()

    def test_diverged_poll_does_not_count_as_ack(self, tmp_path):
        """Regression: a fenced peer's from_lsn must never satisfy
        semi-sync — it does not actually hold records of this term."""
        from types import SimpleNamespace

        with DeltaLog(tmp_path / "wal") as log:
            log.append_delta(delta(add_edges=[[1, 2]]))
            log.bump_epoch()
            log.append_delta(delta(add_edges=[[3, 4]]))
            write_path = WritePath(SimpleNamespace(log=log))
            with pytest.raises(ApiError) as excinfo:
                write_path.replicate(
                    {"from_lsn": "2", "epoch": "1", "standby_id": "zombie"}
                )
            assert excinfo.value.code == "diverged_tail"
            assert write_path.hub.status()["n_standbys"] == 0


# ---------------------------------------------------------------------
# Epoch plumbing in the log
# ---------------------------------------------------------------------
class TestEpochs:
    def test_bump_epoch_persists_across_reopen(self, tmp_path):
        with DeltaLog(tmp_path / "wal") as log:
            log.append_delta(delta(add_edges=[[1, 2]]))
            assert log.bump_epoch() == 2
            log.append_delta(delta(add_edges=[[3, 4]]))
        with DeltaLog(tmp_path / "wal") as log:
            assert log.epoch == 2
            assert log.epoch_start_lsn == 2
            assert log.epoch_history() == [
                {"epoch": 1, "start_lsn": 1},
                {"epoch": 2, "start_lsn": 2},
            ]

    def test_append_replicated_fenced_below_own_epoch(self, tmp_path):
        with DeltaLog(tmp_path / "wal") as log:
            log.bump_epoch(3)
            from repro.serving.wal.log import LogRecord, KIND_ADD_EDGE

            record = LogRecord(
                lsn=1, kind=KIND_ADD_EDGE, a=1, b=2, weight=1.0
            )
            with pytest.raises(EpochFenced):
                log.append_replicated([record], 2)


# ---------------------------------------------------------------------
# fsck: diverged tails and epoch regressions
# ---------------------------------------------------------------------
class TestFsckReplication:
    def _feed_standby(self, tmp_path, n=6, segment_bytes=1024):
        """A primary log streamed into a standby log, both on disk."""
        primary = DeltaLog(tmp_path / "primary", segment_bytes=segment_bytes)
        for i in range(n):
            primary.append_delta(delta(add_edges=[[i, i + 1]]))
        standby = DeltaLog(tmp_path / "standby", segment_bytes=segment_bytes)
        from repro.serving.wal.log import parse_records

        frames = decode_frames(build_feed(primary, 0, max_records=10_000))
        for frame in frames:
            if frame.type == FRAME_RECORDS:
                standby.append_replicated(
                    parse_records(frame.payload), frame.epoch
                )
        return primary, standby

    def test_torn_tail_at_replication_boundary_repairs(self, tmp_path):
        """Satellite contract: SIGKILL mid-append on a catching-up
        standby leaves a torn tail; fsck --wal --repair must cut the
        torn bytes and keep every fully replicated record."""
        primary, standby = self._feed_standby(tmp_path)
        replicated = [r.lsn for r in standby.records()]
        standby.close()
        segments = sorted((tmp_path / "standby").glob("*.wal"))
        with open(segments[-1], "ab") as handle:
            handle.write(b"\x07\x00\x00")  # torn mid-header append
        report = fsck_wal(tmp_path / "standby", repair=True)
        assert any(issue.code == "torn_segment" for issue in report.issues)
        assert report.repaired
        with DeltaLog(tmp_path / "standby") as reopened:
            assert [r.lsn for r in reopened.records()] == replicated
        assert fsck_wal(tmp_path / "standby").clean
        primary.close()

    def test_diverged_tail_repair_quarantines_suffix(self, tmp_path):
        primary, standby = self._feed_standby(tmp_path, n=3)
        # Standby forks: local writes the new term will never contain.
        standby.append_delta(delta(add_edges=[[90, 91]]))
        boundary = standby.last_lsn
        standby.append_delta(delta(add_edges=[[92, 93]]))
        from repro.serving.wal.replication import write_diverged_marker

        write_diverged_marker(
            tmp_path / "standby",
            first_diverged_lsn=boundary,
            local_epoch=1,
            primary_epoch=2,
        )
        standby.close()
        report = fsck_wal(tmp_path / "standby", repair=True)
        assert any(issue.code == "diverged_tail" for issue in report.issues)
        assert report.repaired
        assert read_diverged_marker(tmp_path / "standby") is None
        # Replicated records below the boundary survive bit-identically;
        # the diverged suffix is preserved under quarantine/.
        with DeltaLog(tmp_path / "standby") as reopened:
            assert [r.lsn for r in reopened.records()] == list(
                range(1, boundary)
            )
        quarantined = list((tmp_path / "standby" / "quarantine").iterdir())
        assert quarantined
        primary.close()

    def test_epoch_regression_detected_and_quarantined(self, tmp_path):
        import shutil

        root = tmp_path / "wal"
        with DeltaLog(root, segment_bytes=1024) as log:
            for i in range(120):
                log.append_delta(delta(add_edges=[[i, i + 1]]))
        segments = sorted(root.glob("*.wal"))
        assert len(segments) >= 3
        # Re-stamp a later segment with a *lower* epoch than an earlier
        # one: first bump an early segment's header epoch up.
        import struct

        header = struct.Struct("<4sIQQ")
        data = bytearray(segments[0].read_bytes())
        magic, version, first_lsn, _ = header.unpack_from(data, 0)
        header.pack_into(data, 0, magic, version, first_lsn, 5)
        segments[0].write_bytes(bytes(data))
        report = fsck_wal(root)
        assert any(
            issue.code == "epoch_regression" for issue in report.issues
        )
        report = fsck_wal(root, repair=True)
        assert report.repaired
        assert (root / "quarantine").is_dir()


# ---------------------------------------------------------------------
# Client: retry_after_s pacing + safe upsert retries
# ---------------------------------------------------------------------
class TestClientBackoff:
    def test_retry_after_hint_paces_upsert_retry(
        self, tmp_path, base_graph, monkeypatch
    ):
        node = _Node(tmp_path / "node", base_graph)
        try:
            # Shrink the log ceiling so the next append 503s log_full
            # with retry_after_s; the client must sleep that hint, then
            # the retry (ceiling restored) succeeds.
            client = ServingClient(node.url, retries=1, backoff_s=7.0)
            sleeps = []
            real_sleep = time.sleep

            def spy_sleep(seconds):
                sleeps.append(seconds)
                if node.log.max_bytes:  # restore before the retry
                    node.log.max_bytes = original
                real_sleep(min(seconds, 0.05))

            import repro.serving.http.client as client_module

            monkeypatch.setattr(client_module.time, "sleep", spy_sleep)
            original = node.log.max_bytes
            node.log.max_bytes = 1  # any append now exceeds the ceiling
            ack = client.upsert(add_edges=[[0, 5]])
            assert ack["durable"]
            # The 1.0s server hint was used, not the 7.0s client default.
            assert sleeps and sleeps[0] == pytest.approx(1.0)
        finally:
            node.close()

    def test_unsafe_503_never_retried_for_upsert(
        self, tmp_path, base_graph
    ):
        node = _Node(
            tmp_path / "node", base_graph, ack_replicas=1, ack_timeout_s=0.05
        )
        try:
            client = ServingClient(node.url, retries=3, backoff_s=0.01)
            before = node.log.last_lsn
            with pytest.raises(ApiError) as excinfo:
                client.upsert(add_edges=[[0, 5]])
            assert excinfo.value.code == "replication_timeout"
            # One attempt only: a retry could have double-applied.
            assert node.log.last_lsn == before + 1
        finally:
            node.close()
