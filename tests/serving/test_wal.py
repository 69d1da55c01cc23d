"""Tests for the write path: delta log, compactor, GC, fsck, HTTP upsert.

The durability contract under test: an acked append survives any crash
(torn tails are truncated, never replayed wrong), replaying the same log
suffix is idempotent (LSN gating), and a compacted version is
bit-identical to folding the same records into one ``GraphDelta`` and
applying it through ``OnlineRefresher`` directly.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.dynamic.incremental import GraphDelta, IncrementalPANE, apply_delta
from repro.graph.generators import attributed_sbm
from repro.serving.faults import FaultInjector, FaultPlan, InjectedFault
from repro.serving.fsck import fsck_wal
from repro.serving.gc import collect_versions
from repro.serving.http import ApiError, EmbeddingServer, ServingClient, protocol
from repro.serving.refresh import OnlineRefresher
from repro.serving.service import QueryService
from repro.serving.store import EmbeddingStore
from repro.serving.wal import (
    Compactor,
    DeltaLog,
    IngestPipeline,
    LogCorruption,
    LogFull,
    LogWriteError,
    fold_records,
    scan_segment,
)


@pytest.fixture()
def graph():
    return attributed_sbm(n_nodes=80, n_attributes=20, seed=5)


@pytest.fixture()
def log(tmp_path):
    with DeltaLog(tmp_path / "wal") as log:
        yield log


def delta(*, add_edges=None, remove_edges=None, add_assocs=None, remove_assocs=None):
    return GraphDelta(
        add_edges=None if add_edges is None else np.asarray(add_edges, dtype=np.int64),
        remove_edges=None
        if remove_edges is None
        else np.asarray(remove_edges, dtype=np.int64),
        add_associations=None
        if add_assocs is None
        else np.asarray(add_assocs, dtype=np.float64),
        remove_associations=None
        if remove_assocs is None
        else np.asarray(remove_assocs, dtype=np.int64),
    )


# ---------------------------------------------------------------------
# DeltaLog
# ---------------------------------------------------------------------
class TestDeltaLog:
    def test_append_assigns_consecutive_lsns(self, log):
        first, last = log.append_delta(delta(add_edges=[[0, 1], [2, 3]]))
        assert (first, last) == (1, 2)
        first, last = log.append_delta(delta(add_assocs=[[1, 2, 0.5]]))
        assert (first, last) == (3, 3)
        records = list(log.records())
        assert [r.lsn for r in records] == [1, 2, 3]
        assert records[0].kind_name == "add_edge"
        assert records[2].kind_name == "add_assoc"
        assert records[2].weight == 0.5

    def test_records_survive_reopen(self, tmp_path):
        with DeltaLog(tmp_path / "wal") as log:
            log.append_delta(delta(add_edges=[[4, 5]], remove_edges=[[1, 2]]))
        with DeltaLog(tmp_path / "wal") as log:
            records = list(log.records())
            assert [(r.kind_name, r.a, r.b) for r in records] == [
                ("add_edge", 4, 5),
                ("remove_edge", 1, 2),
            ]
            assert log.last_lsn == 2

    def test_rotation_splits_segments_and_replay_spans_them(self, tmp_path):
        with DeltaLog(tmp_path / "wal", segment_bytes=1024) as log:
            for i in range(70):
                log.append_delta(delta(add_edges=[[i, i + 1]]))
            assert len(log.inspect()["segments"]) > 1
            assert [r.lsn for r in log.records()] == list(range(1, 71))
            # start_lsn skips whole segments but still lands mid-stream
            assert [r.lsn for r in log.records(start_lsn=40)] == list(range(41, 71))

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        root = tmp_path / "wal"
        with DeltaLog(root) as log:
            log.append_delta(delta(add_edges=[[0, 1], [1, 2], [2, 3]]))
            segment = log.root / log.inspect()["segments"][-1]["segment"]
        with open(segment, "ab") as handle:
            handle.write(b"\x07garbage-partial-record")
        with DeltaLog(root) as log:
            assert log.last_lsn == 3
            assert log.recovered  # the truncation was recorded
            assert [r.lsn for r in log.records()] == [1, 2, 3]
        # and the file itself was cut back to the valid prefix
        _, info = scan_segment(segment)
        assert info.error is None

    def test_mid_log_corruption_refuses_to_open(self, tmp_path):
        root = tmp_path / "wal"
        with DeltaLog(root, segment_bytes=1024) as log:
            for i in range(70):
                log.append_delta(delta(add_edges=[[i, i + 1]]))
            segments = [log.root / s["segment"] for s in log.inspect()["segments"]]
        assert len(segments) > 2
        with open(segments[0], "r+b") as handle:
            handle.seek(-4, os.SEEK_END)
            handle.write(b"\xde\xad\xbe\xef")  # corrupt a sealed segment's crc
        with pytest.raises(LogCorruption):
            DeltaLog(root)

    def test_log_full_backpressure(self, tmp_path):
        with DeltaLog(tmp_path / "wal", segment_bytes=1024, max_bytes=1024) as log:
            with pytest.raises(LogFull) as excinfo:
                while True:
                    log.append_delta(delta(add_edges=[[0, 1]]))
            assert excinfo.value.max_bytes == 1024
            durable = log.last_lsn
            # the refused batch was never assigned LSNs
            assert [r.lsn for r in log.records()] == list(range(1, durable + 1))

    def test_fsync_failure_rolls_back_unacked_bytes(self, tmp_path):
        plan = FaultPlan(fsync_fail_every=2)
        injector = FaultInjector(plan, hard=False)
        with DeltaLog(tmp_path / "wal", faults=injector) as log:
            log.append_delta(delta(add_edges=[[0, 1]]))  # fsync #1: fine
            with pytest.raises(LogWriteError):
                log.append_delta(delta(add_edges=[[1, 2]]))  # fsync #2: fails
            # the failed batch must not leave bytes or burn LSNs
            first, last = log.append_delta(delta(add_edges=[[2, 3]]))
            assert (first, last) == (2, 2)
            assert [(r.a, r.b) for r in log.records()] == [(0, 1), (2, 3)]

    def test_torn_tail_fault_then_recovery_loses_only_unacked(self, tmp_path):
        root = tmp_path / "wal"
        injector = FaultInjector(FaultPlan(torn_wal_tail=2), hard=False)
        with DeltaLog(root, faults=injector) as log:
            log.append_delta(delta(add_edges=[[0, 1]]))  # acked
            with pytest.raises(InjectedFault):
                log.append_delta(delta(add_edges=[[1, 2]]))  # torn mid-write
        with DeltaLog(root) as log:  # crash recovery
            assert log.last_lsn == 1  # acked write survives, torn one gone
            assert [(r.a, r.b) for r in log.records()] == [(0, 1)]

    def test_crash_after_append_is_durable(self, tmp_path):
        root = tmp_path / "wal"
        injector = FaultInjector(FaultPlan(crash_after_append=1), hard=False)
        with DeltaLog(root, faults=injector) as log:
            with pytest.raises(InjectedFault):
                log.append_delta(delta(add_edges=[[0, 1]]))
        with DeltaLog(root) as log:
            # died before the ack, but *after* fsync: the record is there
            assert [(r.a, r.b) for r in log.records()] == [(0, 1)]

    def test_prune_through_keeps_active_segment(self, tmp_path):
        with DeltaLog(tmp_path / "wal", segment_bytes=1024) as log:
            for i in range(70):
                log.append_delta(delta(add_edges=[[i, i + 1]]))
            before = len(log.inspect()["segments"])
            assert before > 2
            log.prune_through(log.last_lsn)
            after = log.inspect()["segments"]
            assert len(after) < before
            assert log.last_lsn == 70  # tail segment survives pruning


class TestFoldRecords:
    def test_last_event_wins_per_cell(self, log):
        log.append_delta(delta(add_edges=[[0, 1]]))
        log.append_delta(delta(remove_edges=[[0, 1]]))
        log.append_delta(delta(add_assocs=[[2, 3, 1.0]]))
        log.append_delta(delta(add_assocs=[[2, 3, 7.5]]))
        folded = fold_records(list(log.records()))
        assert folded.add_edges is None
        assert folded.remove_edges.tolist() == [[0, 1]]
        assert folded.add_associations.tolist() == [[2.0, 3.0, 7.5]]

    def test_undirected_fold_canonicalizes_mirrored_edges(self, log):
        # remove(5,2) then add(2,5): on an undirected graph both touch the
        # same logical edge; a naive keyed fold would emit both and the
        # apply order (adds before removes) would delete the edge.
        log.append_delta(delta(remove_edges=[[5, 2]]))
        log.append_delta(delta(add_edges=[[2, 5]]))
        folded = fold_records(list(log.records()), directed=False)
        assert folded.remove_edges is None
        assert folded.add_edges.tolist() == [[2, 5]]


# ---------------------------------------------------------------------
# IngestPipeline + Compactor
# ---------------------------------------------------------------------
def make_pipeline(tmp_path, graph, **kwargs):
    store = EmbeddingStore(tmp_path / "store")
    pipeline = IngestPipeline(tmp_path / "wal", store, **kwargs)
    pipeline.bootstrap(graph, k=8, update_sweeps=1)
    return pipeline


class TestIngestPipeline:
    def test_bootstrap_publishes_v1_at_lsn_zero(self, tmp_path, graph):
        pipeline = make_pipeline(tmp_path, graph)
        try:
            assert pipeline.store.latest() == "v00000001"
            manifest = pipeline.store.manifest("v00000001")
            assert manifest["metadata"]["applied_lsn"] == 0
            assert pipeline.freshness() == {
                "lsn_durable": 0,
                "lsn_applied": 0,
                "lsn_served": 0,
                "lag": 0,
            }
        finally:
            pipeline.close()

    def test_compact_publishes_and_stamps_applied_lsn(self, tmp_path, graph):
        pipeline = make_pipeline(tmp_path, graph)
        try:
            pipeline.append(delta(add_edges=[[0, 5], [3, 9]]))
            report = pipeline.compact_once()
            assert report["version"] == "v00000002"
            assert report["applied_lsn"] == 2
            assert report["records"] == 2
            manifest = pipeline.store.manifest("v00000002")
            assert manifest["metadata"]["applied_lsn"] == 2
            assert pipeline.freshness()["lag"] == 0
        finally:
            pipeline.close()

    def test_compact_is_lsn_gated(self, tmp_path, graph):
        pipeline = make_pipeline(tmp_path, graph)
        try:
            pipeline.append(delta(add_edges=[[0, 5]]))
            assert pipeline.compact_once() is not None
            # nothing new: no fold, no publish, no version churn
            assert pipeline.compact_once() is None
            assert pipeline.store.versions() == ["v00000001", "v00000002"]
        finally:
            pipeline.close()

    def test_validation_rejects_out_of_range_and_bad_weights(self, tmp_path, graph):
        pipeline = make_pipeline(tmp_path, graph)
        try:
            with pytest.raises(ValueError, match="node index out of range"):
                pipeline.append(delta(add_edges=[[0, 10_000]]))
            with pytest.raises(ValueError, match="attribute index out of range"):
                pipeline.append(delta(add_assocs=[[0, 10_000, 1.0]]))
            with pytest.raises(ValueError, match="finite"):
                pipeline.append(delta(add_assocs=[[0, 1, float("nan")]]))
            with pytest.raises(ValueError, match="no events"):
                pipeline.append(delta())
            assert pipeline.lsn_durable == 0  # nothing slipped through
        finally:
            pipeline.close()

    def test_recover_resumes_exactly(self, tmp_path, graph):
        pipeline = make_pipeline(tmp_path, graph)
        pipeline.append(delta(add_edges=[[0, 5]]))
        pipeline.compact_once()
        pipeline.append(delta(add_edges=[[7, 11]], add_assocs=[[2, 4, 1.0]]))
        durable = pipeline.lsn_durable
        pipeline.close()  # "crash": applied < durable

        store = EmbeddingStore(tmp_path / "store")
        recovered = IngestPipeline(tmp_path / "wal", store)
        try:
            version = recovered.recover()
            assert version == "v00000002"
            assert recovered.lsn_applied == 1
            assert recovered.lsn_durable == durable
            report = recovered.compact_once()  # replay the unapplied suffix
            assert report["applied_lsn"] == durable
            assert store.manifest(report["version"])["metadata"]["applied_lsn"] == durable
        finally:
            recovered.close()

    def test_checkpoint_prunes_sealed_segments(self, tmp_path, graph):
        store = EmbeddingStore(tmp_path / "store")
        pipeline = IngestPipeline(tmp_path / "wal", store, segment_bytes=1024)
        try:
            pipeline.bootstrap(graph, k=8, update_sweeps=1)
            for i in range(60):
                pipeline.append(delta(add_edges=[[i % 40, 40 + (i % 39)]]))
            pipeline.compact_once()
            before = len(pipeline.log.inspect()["segments"])
            report = pipeline.checkpoint()
            assert report["lsn"] == 60
            assert len(report["pruned_segments"]) > 0
            assert len(pipeline.log.inspect()["segments"]) < before
        finally:
            pipeline.close()

        # recovery works from the checkpoint alone (the pruned records
        # are baked into the snapshot graph)
        recovered = IngestPipeline(tmp_path / "wal", EmbeddingStore(tmp_path / "store"))
        try:
            recovered.recover()
            assert recovered.lsn_applied == 60
            assert recovered.compact_once() is None
        finally:
            recovered.close()

    def test_attach_upgrades_read_only_store(self, tmp_path, graph):
        # a pre-WAL deployment: version published straight by a refresher
        store = EmbeddingStore(tmp_path / "store")
        model = IncrementalPANE(k=8, seed=0, update_sweeps=1)
        OnlineRefresher(model, store).bootstrap(graph)

        pipeline = IngestPipeline(tmp_path / "wal", store)
        try:
            version = pipeline.attach(graph)
            assert version == "v00000001"
            assert pipeline.lsn_applied == 0
            pipeline.append(delta(add_edges=[[1, 6]]))
            report = pipeline.compact_once()
            assert report["version"] == "v00000002"
        finally:
            pipeline.close()

    def test_ensure_ready_dispatches(self, tmp_path, graph):
        from repro.graph.io import save_npz
        from repro.serving.wal.compactor import RecoveryError

        graph_path = tmp_path / "graph.npz"
        save_npz(graph, graph_path)
        store_root = tmp_path / "store"

        # no checkpoint, no graph: refuses
        pipeline = IngestPipeline(tmp_path / "wal", EmbeddingStore(store_root))
        with pytest.raises(RecoveryError):
            pipeline.ensure_ready()
        # cold bootstrap
        assert pipeline.ensure_ready(graph_path, k=8, update_sweeps=1) == "v00000001"
        pipeline.append(delta(add_edges=[[0, 9]]))
        pipeline.compact_once()
        pipeline.close()
        # checkpoint exists now: recovers instead of refitting
        pipeline = IngestPipeline(tmp_path / "wal", EmbeddingStore(store_root))
        assert pipeline.ensure_ready(graph_path) == "v00000002"
        pipeline.close()

    def test_background_compactor_publishes_and_gcs(self, tmp_path, graph):
        store = EmbeddingStore(tmp_path / "store")
        pipeline = IngestPipeline(tmp_path / "wal", store)
        pipeline.bootstrap(graph, k=8, update_sweeps=1)
        published = []
        compactor = Compactor(
            pipeline,
            interval_s=0.05,
            keep_versions=2,
            on_publish=published.append,
        )
        compactor.start()
        try:
            import time

            for i in range(3):
                pipeline.append(delta(add_edges=[[i, i + 20]]))
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if pipeline.lsn_applied >= i + 1:
                        break
                    time.sleep(0.02)
            assert pipeline.lsn_applied == 3
            # lsn_applied moves at publish, GC runs after it in the same
            # iteration: join the thread so the retention asserts cannot
            # land between the two.
            compactor.stop(timeout_s=30)
            assert not compactor.is_alive()
            assert published  # the hook saw every publish
            assert compactor.last_error is None
            assert len(store.versions()) <= 2  # retention ran
            assert store.latest() in store.versions()
        finally:
            compactor.stop()
            pipeline.close()


# ---------------------------------------------------------------------
# Replay idempotence + bit-identity (the acceptance properties)
# ---------------------------------------------------------------------
class TestReplaySemantics:
    def test_same_suffix_twice_is_bit_identical_to_once(self, tmp_path, graph):
        """Replaying one log suffix from the same checkpoint twice — in two
        independent recoveries — lands on bit-identical store versions."""
        import shutil

        pipeline = make_pipeline(tmp_path, graph)
        pipeline.append(delta(add_edges=[[0, 5], [3, 9]], add_assocs=[[1, 2, 2.0]]))
        pipeline.close()

        arrays = []
        for replica in ("a", "b"):  # two independent replays of one state
            shutil.copytree(tmp_path / "wal", tmp_path / replica / "wal")
            shutil.copytree(tmp_path / "store", tmp_path / replica / "store")
            recovered = IngestPipeline(
                tmp_path / replica / "wal",
                EmbeddingStore(tmp_path / replica / "store"),
            )
            recovered.recover()
            report = recovered.compact_once()
            assert report["applied_lsn"] == 3
            stored = recovered.store.open(report["version"])
            arrays.append(
                (
                    np.array(stored.x_forward),
                    np.array(stored.x_backward),
                    np.array(stored.y),
                )
            )
            recovered.close()
        for once, twice in zip(*arrays):
            assert once.tobytes() == twice.tobytes()
        # and replaying an already-applied suffix is a no-op (LSN gating)
        recovered = IngestPipeline(
            tmp_path / "a" / "wal", EmbeddingStore(tmp_path / "a" / "store")
        )
        recovered.recover()
        assert recovered.compact_once() is None
        recovered.close()

    def test_compaction_matches_one_batch_delta_through_refresher(
        self, tmp_path, graph
    ):
        """The whole pipeline (log → fold → update → publish) must equal
        handing the folded delta to an OnlineRefresher directly."""
        pipeline = make_pipeline(tmp_path, graph)
        pipeline.append(delta(add_edges=[[0, 5], [3, 9]]))
        pipeline.append(delta(remove_edges=[[3, 9]], add_assocs=[[1, 2, 2.0]]))
        folded, _ = pipeline.log.replay(directed=graph.directed)
        report = pipeline.compact_once()
        via_pipeline = pipeline.store.open(report["version"])

        reference_store = EmbeddingStore(tmp_path / "reference")
        model = IncrementalPANE(k=8, seed=0, update_sweeps=1)
        refresher = OnlineRefresher(model, reference_store)
        refresher.bootstrap(graph)
        refresher.apply(folded)
        via_refresher = reference_store.open(reference_store.latest())

        for name in ("x_forward", "x_backward", "y"):
            ours = np.array(getattr(via_pipeline, name))
            theirs = np.array(getattr(via_refresher, name))
            assert ours.tobytes() == theirs.tobytes(), name
        pipeline.close()

    def test_fold_matches_sequential_apply(self, graph, log):
        """Folding the log equals applying each record's delta in order."""
        deltas = [
            delta(add_edges=[[0, 5], [1, 6]]),
            delta(remove_edges=[[0, 5]], add_assocs=[[2, 3, 1.5]]),
            delta(add_edges=[[0, 5]], remove_assocs=[[2, 3]]),
        ]
        sequential = graph
        for d in deltas:
            log.append_delta(d)
            sequential = apply_delta(sequential, d)
        folded, last = log.replay(directed=graph.directed)
        assert last == log.last_lsn
        replayed = apply_delta(graph, folded)
        assert (
            sequential.adjacency != replayed.adjacency
        ).nnz == 0
        assert (
            sequential.attributes != replayed.attributes
        ).nnz == 0


# ---------------------------------------------------------------------
# Version GC
# ---------------------------------------------------------------------
class TestCollectVersions:
    def publish_n(self, store, embedding, n):
        for _ in range(n):
            store.publish(embedding)

    def test_keeps_newest_and_latest(self, store, trained_embedding, tmp_path):
        self.publish_n(store, trained_embedding, 3)  # v1..v4, LATEST=v4
        result = collect_versions(store, keep=2)
        assert result["deleted"] == ["v00000001", "v00000002"]
        assert store.versions() == ["v00000003", "v00000004"]
        assert result["reclaimed_bytes"] > 0
        assert store.open(store.latest()) is not None

    def test_protect_pins_a_served_version(self, store, trained_embedding):
        self.publish_n(store, trained_embedding, 3)
        result = collect_versions(store, keep=1, protect={"v00000002"})
        assert "v00000002" not in result["deleted"]
        assert set(store.versions()) == {"v00000002", "v00000004"}

    def test_dry_run_touches_nothing(self, store, trained_embedding):
        self.publish_n(store, trained_embedding, 2)
        before = store.versions()
        result = collect_versions(store, keep=1, dry_run=True)
        assert result["dry_run"] is True
        assert result["deleted"] == ["v00000001", "v00000002"]
        assert store.versions() == before

    def test_keep_must_be_positive(self, store):
        with pytest.raises(ValueError):
            collect_versions(store, keep=0)


# ---------------------------------------------------------------------
# fsck --wal
# ---------------------------------------------------------------------
class TestFsckWal:
    def seed_log(self, root, n=6, segment_bytes=1 << 20):
        with DeltaLog(root, segment_bytes=segment_bytes) as log:
            for i in range(n):
                log.append_delta(delta(add_edges=[[i, i + 1]]))
            return [log.root / s["segment"] for s in log.inspect()["segments"]]

    def test_clean_log(self, tmp_path):
        self.seed_log(tmp_path / "wal")
        report = fsck_wal(tmp_path / "wal")
        assert report.clean
        assert report.exit_code() == 0
        assert report.latest == "lsn=6"

    def test_not_a_wal(self, tmp_path):
        report = fsck_wal(tmp_path / "empty")
        assert report.exit_code() == 2
        assert report.issues[0].code == "not_a_wal"

    def test_torn_tail_detected_and_repaired(self, tmp_path):
        root = tmp_path / "wal"
        (segment,) = self.seed_log(root, n=3)
        clean_bytes = open(segment, "rb").read()
        with open(segment, "ab") as handle:
            handle.write(b"\x09torn-partial-append")
        report = fsck_wal(root)
        assert report.exit_code() == 1
        assert report.issues[0].code in ("torn_segment", "bad_lsn")

        report = fsck_wal(root, repair=True)
        assert report.repaired
        assert open(segment, "rb").read() == clean_bytes
        assert fsck_wal(root).exit_code() == 0
        with DeltaLog(root) as log:  # and the log opens clean again
            assert log.last_lsn == 3

    def test_bad_header_quarantined_and_chain_cut(self, tmp_path):
        root = tmp_path / "wal"
        segments = self.seed_log(root, n=70, segment_bytes=1024)
        assert len(segments) >= 3
        from pathlib import Path

        middle = Path(segments[1])
        middle.write_bytes(b"NOPE" + b"\x00" * 32)
        report = fsck_wal(root)
        codes = {issue.code for issue in report.issues}
        assert "bad_header" in codes
        assert "bad_lsn" in codes  # successors are unreachable
        report = fsck_wal(root, repair=True)
        assert (root / "quarantine").is_dir()
        assert not middle.exists()
        # after repair the surviving prefix is a clean, openable log
        assert fsck_wal(root).exit_code() == 0
        with DeltaLog(root) as log:
            assert log.last_lsn >= 1

    def test_lsn_gap_between_segments_is_unrecoverable(self, tmp_path):
        root = tmp_path / "wal"
        segments = self.seed_log(root, n=70, segment_bytes=1024)
        assert len(segments) >= 3
        os.unlink(segments[1])  # records vanish from the middle
        report = fsck_wal(root)
        assert report.exit_code() == 2
        assert any(
            issue.code == "bad_lsn" and not issue.repairable
            for issue in report.issues
        )


# ---------------------------------------------------------------------
# HTTP write front-end
# ---------------------------------------------------------------------
class TestHttpUpsert:
    @pytest.fixture()
    def serving(self, tmp_path, graph):
        pipeline = make_pipeline(tmp_path, graph)
        with QueryService(pipeline.store, backend="exact") as service:
            pipeline.bind_service(service)
            with EmbeddingServer(service, ingest=pipeline) as server:
                yield pipeline, server, ServingClient(server.url, retries=2)
        pipeline.close()

    def test_upsert_acks_after_fsync_with_lsns(self, serving):
        pipeline, _, client = serving
        ack = client.upsert(add_edges=[[0, 5], [3, 9]], add_associations=[[1, 2, 1.0]])
        assert ack == {
            "first_lsn": 1,
            "lsn": 3,
            "events": 3,
            "durable": True,
            "lsn_served": 0,
            "epoch": 1,
        }
        assert pipeline.lsn_durable == 3
        # durable on disk right now, before any compaction
        assert [r.lsn for r in pipeline.log.records()] == [1, 2, 3]

    def test_freshness_visible_after_compaction(self, serving):
        pipeline, _, client = serving
        client.upsert(add_edges=[[0, 5]])
        health = client.healthz()
        assert health["lsn_durable"] == 1
        assert health["lsn_served"] == 0
        assert health["freshness_lag"] == 1
        pipeline.compact_once()
        health = client.healthz()
        assert (health["lsn_served"], health["freshness_lag"]) == (1, 0)
        describe = client.describe()
        assert describe["lsn_served"] == 1
        assert describe["ingest"]["lag"] == 0
        metrics = client.metrics()
        assert metrics["ingest"]["counters"]["appends"] == 1
        assert metrics["ingest"]["lsn_served"] == 1

    def test_upsert_validation_maps_to_400(self, serving):
        _, _, client = serving
        with pytest.raises(ApiError) as excinfo:
            client.upsert(add_edges=[[0, 10_000]])
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_request"

    def test_malformed_upsert_body_400(self, serving):
        pipeline, _, client = serving
        for body in (
            {"add_edges": [[0, 1, 2]]},  # wrong width
            {"add_edges": "nope"},
            {"bogus": []},
            {"delta": {"add_edges": [[0, 1]]}},  # the fields are top-level
        ):
            with pytest.raises(ApiError) as excinfo:
                client._request("POST", protocol.UPSERT, body)
            assert excinfo.value.status == 400
            assert excinfo.value.code == "invalid_request"
        assert pipeline.lsn_durable == 0  # rejected before the log

    def test_upsert_requires_a_payload(self, serving):
        _, _, client = serving
        with pytest.raises(ValueError):
            client.upsert()

    def test_log_full_maps_to_structured_503(self, tmp_path, graph):
        store = EmbeddingStore(tmp_path / "store")
        pipeline = IngestPipeline(
            tmp_path / "wal", store, segment_bytes=1024, max_bytes=1024
        )
        pipeline.bootstrap(graph, k=8, update_sweeps=1)
        try:
            with QueryService(store, backend="exact") as service:
                with EmbeddingServer(service, ingest=pipeline) as server:
                    client = ServingClient(server.url, retries=0)
                    with pytest.raises(ApiError) as excinfo:
                        for i in range(100):
                            client.upsert(add_edges=[[i % 50, (i + 1) % 50]])
                    assert excinfo.value.status == 503
                    assert excinfo.value.code == "log_full"
                    assert excinfo.value.details["max_bytes"] == 1024
                    assert excinfo.value.details["retry_after_s"] > 0
        finally:
            pipeline.close()

    def test_read_only_server_rejects_upserts(self, store):
        with QueryService(store, backend="exact") as service:
            with EmbeddingServer(service) as server:
                client = ServingClient(server.url, retries=0)
                with pytest.raises(ApiError) as excinfo:
                    client.upsert(add_edges=[[0, 1]])
                assert excinfo.value.status == 409
                assert excinfo.value.code == "no_write_path"

    def test_upsert_never_retries(self, serving, monkeypatch):
        """A retried non-idempotent append would double-write; the client
        must make exactly one attempt even with retries configured."""
        from repro.serving.http import protocol

        _, _, client = serving
        assert protocol.UPSERT not in protocol.READ_ENDPOINTS
        attempts = []
        original = client._request

        def counting(method, path, body, **kwargs):
            attempts.append(path)
            return original(method, path, body, **kwargs)

        monkeypatch.setattr(client, "_request", counting)
        client.upsert(add_edges=[[0, 5]])
        assert attempts == [protocol.UPSERT]


class TestFaultPlanWalFields:
    def test_round_trips_through_env(self):
        plan = FaultPlan(torn_wal_tail=3, fsync_fail_every=2, crash_after_append=5)
        restored = FaultPlan.from_env({"REPRO_FAULTS": plan.to_env()})
        assert restored == plan

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FaultPlan(torn_wal_tail=-1)


# ---------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------
class TestCli:
    def run(self, *argv, capsys):
        from repro.cli import main

        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def seeded_wal(self, tmp_path):
        with DeltaLog(tmp_path / "wal") as log:
            log.append_delta(delta(add_edges=[[0, 1], [1, 2]]))
        return tmp_path / "wal"

    def test_log_inspects_read_only(self, tmp_path, capsys):
        wal = self.seeded_wal(tmp_path)
        code, out, _ = self.run(
            "log", "--wal-dir", str(wal), "--replay", "--json", capsys=capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_records"] == 2
        assert payload["last_lsn"] == 2
        assert payload["replay"]["add_edges"] == 2

    def test_log_flags_damage_without_touching_it(self, tmp_path, capsys):
        wal = self.seeded_wal(tmp_path)
        segment = next(wal.glob("*.wal"))
        damaged = segment.read_bytes() + b"\x05torn"
        segment.write_bytes(damaged)
        code, out, _ = self.run("log", "--wal-dir", str(wal), capsys=capsys)
        assert code == 1
        assert segment.read_bytes() == damaged  # read-only: no repair

    def test_fsck_wal_repairs(self, tmp_path, capsys):
        wal = self.seeded_wal(tmp_path)
        segment = next(wal.glob("*.wal"))
        segment.write_bytes(segment.read_bytes() + b"\x05torn")
        code, _, _ = self.run("fsck", "--wal", str(wal), capsys=capsys)
        assert code == 1
        code, _, _ = self.run("fsck", "--wal", str(wal), "--repair", capsys=capsys)
        assert code == 1  # found-and-repaired, same contract as store fsck
        code, _, _ = self.run("fsck", "--wal", str(wal), capsys=capsys)
        assert code == 0

    def test_fsck_requires_a_target(self, capsys):
        code, _, err = self.run("fsck", capsys=capsys)
        assert code == 2
        assert "--store and/or --wal" in err

    def test_gc_cli(self, store, trained_embedding, capsys):
        store.publish(trained_embedding)
        store.publish(trained_embedding)
        code, out, _ = self.run(
            "gc", "--store", str(store.root), "--keep", "1", "--json", capsys=capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["deleted"] == ["v00000001", "v00000002"]
        assert store.versions() == ["v00000003"]
