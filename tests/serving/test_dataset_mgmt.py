"""Named datasets: registry, WAL-derived version diffs, retention, fsck."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic.incremental import GraphDelta
from repro.serving.datasets import (
    DatasetError,
    DatasetRegistry,
    applied_lsn,
    diff_versions,
    retain,
)
from repro.serving.fsck import fsck
from repro.serving.store import EmbeddingStore
from repro.serving.wal.log import DeltaLog, LogReader


@pytest.fixture()
def wal(tmp_path):
    log = DeltaLog(tmp_path / "wal", fsync=False)
    yield log
    log.close()


def _publish(store, embedding, lsn):
    return store.publish(embedding, metadata={"applied_lsn": lsn})


class TestRegistry:
    def test_assign_resolve_list_remove(self, store):
        version = store.latest()
        registry = DatasetRegistry(store)
        registry.assign("prod", version, note="first")
        assert registry.resolve("prod") == version
        assert registry.resolve(version) == version  # raw ids pass through
        rows = registry.list_rows()
        assert rows[0]["name"] == "prod" and rows[0]["is_latest"]
        assert rows[0]["exists"] and rows[0]["note"] == "first"
        entry = registry.remove("prod")
        assert entry["version"] == version
        assert registry.list_rows() == []

    def test_reassign_keeps_created_at(self, store):
        registry = DatasetRegistry(store)
        first = registry.assign("prod", store.latest())
        second = registry.assign("prod", store.latest(), note="bump")
        assert second["created_at"] == first["created_at"]
        assert second["note"] == "bump"

    def test_rejects_bad_names_and_missing_versions(self, store):
        registry = DatasetRegistry(store)
        with pytest.raises(DatasetError):
            registry.assign("has space", store.latest())
        with pytest.raises(DatasetError):
            registry.assign("v00000042", store.latest())  # shadows a version id
        with pytest.raises(DatasetError):
            registry.assign("ok", "v00000099")
        with pytest.raises(DatasetError):
            registry.remove("missing")
        with pytest.raises(DatasetError):
            registry.resolve("missing")

    def test_protected_versions(self, store, trained_embedding):
        v2 = store.publish(trained_embedding)
        registry = DatasetRegistry(store)
        registry.assign("a", "v00000001")
        registry.assign("b", v2)
        registry.assign("also-b", v2)
        assert registry.protected_versions() == {"v00000001", v2}


class TestDiff:
    def test_diff_round_trips_upsert_set_through_wal(
        self, store, trained_embedding, wal
    ):
        # v1 (the fixture's publish) predates the WAL: applied_lsn 0.
        assert applied_lsn(store, "v00000001") == 0
        delta = GraphDelta(
            add_edges=np.array([[1, 2], [3, 4]], dtype=np.int64),
            remove_edges=np.array([[5, 6]], dtype=np.int64),
            add_associations=np.array([[7.0, 2.0, 0.5]]),
            remove_associations=np.array([[8, 3]], dtype=np.int64),
        )
        _, last = wal.append_delta(delta)
        v2 = _publish(store, trained_embedding, last)
        report, folded = diff_versions(store, wal, "v00000001", v2)
        assert report["lsn_range"] == [1, last]
        assert report["events"] == {
            "add_edges": 2,
            "remove_edges": 1,
            "add_associations": 1,
            "remove_associations": 1,
        }
        assert report["changed_nodes"] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert sorted(map(tuple, folded.add_edges.tolist())) == [(1, 2), (3, 4)]
        assert folded.add_associations.tolist() == [[7.0, 2.0, 0.5]]

    def test_diff_accepts_dataset_names(self, store, trained_embedding, wal):
        wal.append_delta(GraphDelta(add_edges=np.array([[0, 1]], dtype=np.int64)))
        v2 = _publish(store, trained_embedding, wal.last_lsn)
        registry = DatasetRegistry(store)
        registry.assign("old", "v00000001")
        registry.assign("new", v2)
        report, _ = diff_versions(store, wal, "old", "new")
        assert report["from"]["version"] == "v00000001"
        assert report["to"]["version"] == v2
        assert report["events"]["add_edges"] == 1

    def test_same_version_diff_is_empty(self, store, wal):
        report, folded = diff_versions(store, wal, "v00000001", "v00000001")
        assert report["lsn_range"] == []
        assert report["n_changed_nodes"] == 0
        assert folded.add_edges is None

    def test_reversed_order_refuses(self, store, trained_embedding, wal):
        wal.append_delta(GraphDelta(add_edges=np.array([[0, 1]], dtype=np.int64)))
        v2 = _publish(store, trained_embedding, wal.last_lsn)
        with pytest.raises(DatasetError, match="old -> new"):
            diff_versions(store, wal, v2, "v00000001")

    def test_pruned_range_refuses_instead_of_under_reporting(
        self, store, trained_embedding, tmp_path
    ):
        log = DeltaLog(tmp_path / "wal2", fsync=False, segment_bytes=1024)
        edges = np.array([[i, i + 1] for i in range(40)], dtype=np.int64)
        for row in edges:  # many batches -> several sealed segments
            log.append_delta(GraphDelta(add_edges=row[np.newaxis]))
        v2 = _publish(store, trained_embedding, log.last_lsn)
        log.prune_through(log.last_lsn)
        assert log.inspect()["n_segments"] < 3  # pruning actually happened
        with pytest.raises(DatasetError, match="does not cover"):
            diff_versions(store, log, "v00000001", v2)
        log.close()

    def test_log_reader_is_read_only_equivalent(self, store, trained_embedding, wal):
        wal.append_delta(GraphDelta(add_edges=np.array([[2, 3]], dtype=np.int64)))
        v2 = _publish(store, trained_embedding, wal.last_lsn)
        reader = LogReader(wal.root)
        report, _ = diff_versions(store, reader, "v00000001", v2)
        assert report["events"]["add_edges"] == 1


class TestRetention:
    def test_dataset_pinned_versions_survive_gc(self, store, trained_embedding):
        versions = [store.latest()]
        for _ in range(3):
            versions.append(store.publish(trained_embedding))
        DatasetRegistry(store).assign("keepme", versions[0])
        result = retain(store, keep=1)
        assert versions[0] in result["kept"]  # pinned by the dataset
        assert versions[-1] in result["kept"]  # newest
        assert result["protected"] == [versions[0]]
        assert set(result["deleted"]) == set(versions[1:-1])
        assert store.versions() == [versions[0], versions[-1]]

    def test_dry_run_touches_nothing(self, store, trained_embedding):
        store.publish(trained_embedding)
        before = store.versions()
        result = retain(store, keep=1, dry_run=True)
        assert result["dry_run"] and store.versions() == before


class TestFsckIntegration:
    def test_dangling_dataset_detected_and_repaired(
        self, store, trained_embedding, tmp_path
    ):
        import shutil

        v2 = store.publish(trained_embedding)
        registry = DatasetRegistry(store)
        registry.assign("stale", "v00000001")
        registry.assign("fine", v2)
        shutil.rmtree(store.root / "versions" / "v00000001")
        report = fsck(store.root)
        assert any(issue.code == "dataset_dangling" for issue in report.issues)
        report = fsck(store.root, repair=True)
        assert any("stale" in action for action in report.actions)
        datasets = DatasetRegistry(store).load()
        assert "stale" not in datasets and "fine" in datasets
        assert fsck(store.root).clean

    def test_unreadable_registry_quarantined(self, store):
        (store.root / "datasets.json").write_text("{broken")
        report = fsck(store.root)
        assert any(issue.code == "bad_datasets" for issue in report.issues)
        fsck(store.root, repair=True)
        assert not (store.root / "datasets.json").exists()
        assert (store.root / "quarantine" / "datasets.json").exists()
        assert fsck(store.root).clean
