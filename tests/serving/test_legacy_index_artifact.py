"""Stores written with an IVF index artifact still serve.

Releases that had an approximate IVF backend persisted its trained
quantizer as ``index_ivf.npz`` in every shard directory of a version.
Nothing reads that file any more; a store that holds one — intact or
torn — must still activate and answer exactly, check clean under
``fsck``, boot an HTTP server, and give the file's bytes back to ``gc``.
"""

from __future__ import annotations

import json
import signal
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.search.knn import exact_top_k, normalize_rows
from repro.serving.fsck import fsck
from repro.serving.service import QueryService, SearchRequest
from repro.serving.store import EmbeddingStore, search_features, shard_dir
from repro.utils.fs import atomic_write

LEGACY_ARTIFACT = "index_ivf.npz"


def _write_legacy_artifacts(store: EmbeddingStore, version: str) -> list:
    """One ``index_ivf.npz`` per shard, laid out as the IVF backend saved
    it: unit centroids, each row's cell, and the default probe width."""
    stored = store.open(version)
    rng = np.random.default_rng(7)
    paths = []
    for shard in stored.shards:
        features = np.asarray(shard.features)
        nlist = max(1, min(4, features.shape[0]))
        centroids = normalize_rows(rng.standard_normal((nlist, features.shape[1])))
        arrays = {
            "centroids": centroids,
            "assignments": np.argmax(features @ centroids.T, axis=1).astype(np.intp),
            "nprobe": np.array(min(8, nlist), dtype=np.int64),
        }
        path = shard_dir(store.root / "versions" / version, shard.shard,
                         store.n_shards) / LEGACY_ARTIFACT
        atomic_write(path, lambda handle: np.savez(handle, **arrays))
        paths.append(path)
    return paths


@pytest.fixture(params=[1, 2], ids=["unsharded", "2-shard"])
def legacy_store(request, tmp_path, trained_embedding):
    store = EmbeddingStore(tmp_path / "store", n_shards=request.param)
    version = store.publish(trained_embedding)
    paths = _write_legacy_artifacts(store, version)
    assert all(path.is_file() for path in paths)
    return store, version, paths


def _expected(trained_embedding, nodes, k):
    features = search_features(trained_embedding)
    return exact_top_k(
        features, features[nodes], k, assume_normalized=True, exclude=nodes
    )


def test_activates_and_answers_exactly(legacy_store, trained_embedding):
    store, version, _ = legacy_store
    nodes = np.arange(0, trained_embedding.n_nodes, 9)
    want_ids, want_scores = _expected(trained_embedding, nodes, 6)
    with QueryService(store, cache_size=0) as service:
        assert service.version == version
        batch = service.search(SearchRequest(nodes=nodes, k=6))
        assert np.array_equal(batch.ids, want_ids)
        assert batch.scores.tobytes() == want_scores.tobytes()
        one = service.search(SearchRequest(node=int(nodes[1]), k=6))
        assert np.array_equal(one.ids, want_ids[1])
        assert one.scores.tobytes() == want_scores[1].tobytes()


def test_fsck_reports_clean(legacy_store, capsys):
    store, version, paths = legacy_store
    report = fsck(store.root)
    assert report.issues == []
    assert report.clean_versions == [version]
    assert main(["fsck", "--store", str(store.root)]) == 0
    capsys.readouterr()
    assert all(path.is_file() for path in paths)  # left alone


def test_torn_artifact_leaves_fsck_clean(legacy_store, capsys):
    """A torn archive is data no reader can trip on: fsck (repair or not)
    reports nothing, leaves the file, and the version still activates."""
    store, version, paths = legacy_store
    for path in paths:
        path.write_bytes(b"not a zip archive")
    for repair in (False, True):
        report = fsck(store.root, repair=repair)
        assert report.issues == [] and report.actions == []
        assert report.exit_code() == 0
        assert report.clean_versions == [version]
    assert main(["fsck", "--store", str(store.root)]) == 0
    capsys.readouterr()
    assert all(path.read_bytes() == b"not a zip archive" for path in paths)
    with QueryService(store, cache_size=0) as service:
        assert service.version == version
        assert service.search(SearchRequest(node=0, k=3)).ids.shape == (3,)


def test_http_server_boots(legacy_store, trained_embedding):
    from repro.serving.http import ServingClient
    from repro.serving.http.loadgen import spawn_cli_server

    store, version, _ = legacy_store
    process, url = spawn_cli_server(store.root)
    try:
        with urllib.request.urlopen(f"{url}/healthz", timeout=10) as response:
            assert json.loads(response.read())["version"] == version
        remote = ServingClient(url).top_k(4, 5)
        want_ids, want_scores = _expected(trained_embedding, np.array([4]), 5)
        assert np.array_equal(remote.ids, want_ids[0])
        assert remote.scores.tobytes() == want_scores[0].tobytes()
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


def test_gc_reclaims_the_artifact_bytes(legacy_store, trained_embedding, capsys):
    store, version, paths = legacy_store
    directory = store.root / "versions" / version
    size = sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
    assert size > sum(path.stat().st_size for path in paths) > 0
    store.publish(trained_embedding)
    capsys.readouterr()
    assert main(["gc", "--store", str(store.root), "--keep", "1", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["deleted"] == [version]
    assert result["reclaimed_bytes"] == size
    assert not directory.exists()
