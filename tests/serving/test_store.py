"""Tests for the versioned mmap embedding store."""

import json

import numpy as np
import pytest

from repro.core.config import PANEConfig
from repro.core.pane import PANEEmbedding
from repro.serving.store import EmbeddingStore, SearchRows, search_features


class TestPublishOpen:
    def test_first_version_name(self, store):
        assert store.versions() == ["v00000001"]
        assert store.latest() == "v00000001"

    def test_arrays_round_trip(self, store, trained_embedding):
        stored = store.open()
        assert np.array_equal(stored.x_forward, trained_embedding.x_forward)
        assert np.array_equal(stored.x_backward, trained_embedding.x_backward)
        assert np.array_equal(stored.y, trained_embedding.y)

    def test_arrays_are_memory_mapped(self, store):
        stored = store.open()
        for array in (stored.x_forward, stored.x_backward, stored.y):
            assert isinstance(array, np.memmap)
        # Search rows are derived from Xf / Xb on read, not mapped.
        assert isinstance(stored.features, SearchRows)

    def test_features_are_unit_rows(self, store):
        stored = store.open()
        norms = np.linalg.norm(stored.features, axis=1)
        assert np.allclose(norms, 1.0)

    def test_features_match_helper(self, store, trained_embedding):
        stored = store.open()
        assert np.array_equal(stored.features, search_features(trained_embedding))

    def test_config_round_trip(self, store, trained_embedding):
        assert store.open().config == trained_embedding.config

    def test_to_embedding_materializes(self, store, trained_embedding):
        embedding = store.open().to_embedding()
        assert isinstance(embedding, PANEEmbedding)
        assert not isinstance(embedding.x_forward, np.memmap)
        assert np.array_equal(embedding.y, trained_embedding.y)

    def test_manifest_contents(self, store, trained_embedding):
        manifest = store.manifest("v00000001")
        assert manifest["n_nodes"] == trained_embedding.n_nodes
        assert manifest["k"] == trained_embedding.config.k
        assert sorted(manifest["arrays"]) == ["x_backward", "x_forward", "y"]
        assert manifest["arrays"]["x_forward"]["shape"] == [
            trained_embedding.n_nodes,
            trained_embedding.config.k // 2,
        ]

    def test_metadata_persisted(self, store, trained_embedding):
        version = store.publish(trained_embedding, metadata={"note": "retrain"})
        assert store.manifest(version)["metadata"] == {"note": "retrain"}

    def test_no_staging_left_behind(self, store):
        stray = [p for p in store.root.iterdir() if p.name.startswith(".staging")]
        assert stray == []

    def test_open_missing_version(self, store):
        with pytest.raises(FileNotFoundError):
            store.open("v99999999")

    def test_open_empty_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EmbeddingStore(tmp_path / "empty").open()

    @pytest.mark.parametrize("name", ["x_forward", "x_backward", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_arrays_refused(self, tmp_path, trained_embedding, name, value):
        """A NaN or infinite entry would score NaN against every query;
        publish refuses it, as graph construction refuses NaN adjacency."""
        arrays = {
            field: np.array(getattr(trained_embedding, field))
            for field in ("x_forward", "x_backward", "y")
        }
        arrays[name][3, 1] = value
        store = EmbeddingStore(tmp_path / "store")
        with pytest.raises(ValueError, match=f"non-finite {name}"):
            store.publish(PANEEmbedding(config=trained_embedding.config, **arrays))
        assert store.versions() == []


class TestVersioning:
    def test_versions_increment(self, store, trained_embedding):
        v2 = store.publish(trained_embedding)
        assert v2 == "v00000002"
        assert store.versions() == ["v00000001", "v00000002"]
        assert store.latest() == "v00000002"

    def test_publish_without_latest_swap(self, store, trained_embedding):
        version = store.publish(trained_embedding, set_latest=False)
        assert store.latest() == "v00000001"
        assert version in store.versions()

    def test_open_pinned_version(self, store, trained_embedding):
        store.publish(trained_embedding)
        assert store.open("v00000001").version == "v00000001"
        assert store.open().version == "v00000002"

    def test_rollback_default_previous(self, store, trained_embedding):
        store.publish(trained_embedding)
        assert store.rollback() == "v00000001"
        assert store.latest() == "v00000001"
        # versions are never deleted; roll forward again
        store.set_latest("v00000002")
        assert store.latest() == "v00000002"

    def test_rollback_explicit_target(self, store, trained_embedding):
        store.publish(trained_embedding)
        store.publish(trained_embedding)
        assert store.rollback(to="v00000001") == "v00000001"

    def test_rollback_oldest_rejected(self, store):
        with pytest.raises(ValueError):
            store.rollback()

    def test_set_latest_unknown_rejected(self, store):
        with pytest.raises(FileNotFoundError):
            store.set_latest("v00000042")

    def test_publish_retries_on_version_collision(
        self, store, trained_embedding, monkeypatch
    ):
        """A stale versions() read must not crash publish: the rename
        collides with the concurrently-claimed id and retries the next."""
        monkeypatch.setattr(store, "versions", lambda: [])  # stale: v1 exists
        version = store.publish(trained_embedding)
        assert version == "v00000002"
        assert store.latest() == "v00000002"
        assert store.manifest("v00000002")["version"] == "v00000002"

    def test_set_latest_failure_leaves_no_temp(self, store, monkeypatch):
        """A failed pointer swap must not orphan .LATEST.* staging files."""
        import repro.serving.store as store_module

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "replace", boom)
        with pytest.raises(OSError):
            store.set_latest("v00000001")
        leftovers = [p.name for p in store.root.iterdir() if p.name.startswith(".LATEST")]
        assert leftovers == []

    def test_latest_pointer_is_plain_text(self, store):
        # the pointer must stay trivially inspectable for operators
        assert (store.root / "LATEST").read_text().strip() == "v00000001"

    def test_manifest_is_valid_json(self, store):
        raw = (store.root / "versions" / "v00000001" / "manifest.json").read_text()
        assert json.loads(raw)["version"] == "v00000001"

    def test_published_artifacts_keep_default_modes(self, store, tmp_path):
        """Staging via mkstemp/mkdtemp must not leak 0600/0700 modes.

        A serving process under another uid has to be able to resolve
        LATEST and read a published version; compare against what plain
        open()/mkdir would have created under the current umask.
        """
        control_file = tmp_path / "control.txt"
        control_file.write_text("x")
        file_mode = control_file.stat().st_mode & 0o777
        control_dir = tmp_path / "control.dir"
        control_dir.mkdir()
        dir_mode = control_dir.stat().st_mode & 0o777

        assert (store.root / "LATEST").stat().st_mode & 0o777 == file_mode
        version_dir = store.root / "versions" / "v00000001"
        assert version_dir.stat().st_mode & 0o777 == dir_mode


class TestConfigCompat:
    def test_unknown_config_keys_ignored(self, store, trained_embedding, tmp_path):
        # Simulate a version written by a newer release with extra config
        # fields: loading must not crash.
        version = store.publish(trained_embedding)
        path = store.root / "versions" / version / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["brand_new_knob"] = 7
        path.write_text(json.dumps(manifest))
        stored = store.open(version)
        assert isinstance(stored.config, PANEConfig)

    def test_manifest_without_shard_table_is_one_shard(self, store, trained_embedding):
        # Versions published before stores could shard record neither a
        # partitioner nor a shard table: they still verify and open as
        # the 1-shard case, with the same arrays.
        path = store.root / "versions" / "v00000001" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["partitioner"], manifest["shards"]
        path.write_text(json.dumps(manifest))
        assert store.verify() == []
        stored = store.open()
        assert stored.n_shards == 1
        assert stored.partitioner.n_nodes == trained_embedding.n_nodes
        assert np.array_equal(stored.features, search_features(trained_embedding))

    def test_a_stored_features_copy_is_never_served(self, tmp_path, capsys):
        """A version in the older layout — ``features.npy`` beside the
        arrays and a ``features`` entry in the manifest — with one byte
        of that file flipped: fsck is clean, every answer is the one the
        same embedding gets in the current layout, and ``repro gc``
        reclaims the whole directory (ROADMAP item 20)."""
        from repro.cli import main
        from repro.serving.fsck import fsck
        from repro.serving.service import QueryService, SearchRequest
        from repro.serving.synth import synthetic_embedding

        embedding = synthetic_embedding(500, 16, seed=3)
        current = EmbeddingStore(tmp_path / "current")
        current.publish(embedding)
        older = EmbeddingStore(tmp_path / "older")
        version = older.publish(embedding)
        directory = older.root / "versions" / version
        features = search_features(embedding)
        np.save(directory / "features.npy", features)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["arrays"]["features"] = {
            "shape": list(features.shape), "dtype": str(features.dtype),
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
        # Node 7's first element, exponent byte: the row becomes ~1e300.
        offset = np.load(directory / "features.npy", mmap_mode="r").offset
        with open(directory / "features.npy", "r+b") as handle:
            handle.seek(offset + 7 * features.shape[1] * 8 + 7)
            byte = handle.read(1)[0]
            handle.seek(-1, 1)
            handle.write(bytes([byte ^ 0x40]))

        report = fsck(older.root)
        assert report.clean and report.exit_code() == 0

        nodes = np.concatenate([[7], np.random.default_rng(0).choice(500, 40)])
        with QueryService(older, backend="exact") as served, QueryService(
            current, backend="exact"
        ) as reference:
            for request in [SearchRequest(node=int(node), k=10) for node in nodes] + [
                SearchRequest(nodes=nodes, k=10)
            ]:
                got, want = served.search(request), reference.search(request)
                assert np.array_equal(got.ids, want.ids)
                assert got.scores.tobytes() == want.scores.tobytes()

        size = sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())
        older.publish(embedding)
        capsys.readouterr()
        assert main(["gc", "--store", str(older.root), "--keep", "1", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["deleted"] == [version]
        assert result["reclaimed_bytes"] == size
        assert not directory.exists()
