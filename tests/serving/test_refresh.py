"""Tests for online refresh: delta → republish → incremental swap."""

import numpy as np
import pytest

from repro.dynamic.incremental import GraphDelta, IncrementalPANE
from repro.graph.generators import attributed_sbm
from repro.serving.index import IVFIndex
from repro.serving.refresh import OnlineRefresher
from repro.serving.service import QueryService, SearchParams, SearchRequest
from repro.serving.store import EmbeddingStore


@pytest.fixture()
def graph():
    return attributed_sbm(n_nodes=90, n_attributes=24, seed=5)


@pytest.fixture()
def rig(tmp_path, graph):
    """Model + store + IVF service wired through an OnlineRefresher."""
    store = EmbeddingStore(tmp_path / "store")
    model = IncrementalPANE(k=16, seed=0, update_sweeps=2)
    refresher = OnlineRefresher(model, store)
    refresher.bootstrap(graph)
    service = QueryService(store, backend="ivf", nlist=9, nprobe=9, seed=0)
    refresher.service = service
    yield refresher, store, service
    service.close()


def _delta() -> GraphDelta:
    return GraphDelta(
        add_edges=np.array([[0, 45], [1, 60], [2, 80]]),
        add_associations=np.array([[0, 3, 1.0], [5, 7, 1.0]]),
    )


class TestBootstrap:
    def test_bootstrap_publishes_v1(self, tmp_path, graph):
        store = EmbeddingStore(tmp_path / "s")
        refresher = OnlineRefresher(IncrementalPANE(k=16, seed=0), store)
        version = refresher.bootstrap(graph)
        assert version == "v00000001"
        assert store.latest() == "v00000001"

    def test_bootstrap_activates_service(self, rig):
        _, _, service = rig
        assert service.version == "v00000001"


class TestApply:
    def test_apply_publishes_and_swaps(self, rig):
        refresher, store, service = rig
        report = refresher.apply(_delta())
        assert report.version == "v00000002"
        assert store.latest() == "v00000002"
        assert service.version == "v00000002"
        assert set(report.timings) == {"update", "publish", "index", "swap"}

    def test_incremental_index_reuses_quantizer(self, rig):
        refresher, _, service = rig
        old_backend = service.backend
        assert isinstance(old_backend, IVFIndex)
        report = refresher.apply(_delta())
        new_backend = service.backend
        assert isinstance(new_backend, IVFIndex)
        assert new_backend is not old_backend
        assert np.array_equal(new_backend.centroids, old_backend.centroids)
        assert report.n_lists_total == old_backend.nlist
        assert report.n_lists_rebuilt <= report.n_lists_total

    def test_small_delta_rebuilds_few_lists(self, rig):
        refresher, _, _ = rig
        report = refresher.apply(_delta())
        # a 3-edge delta with 2 warm sweeps should not move most vectors
        assert report.n_moved < report.n_nodes / 2

    def test_queries_reflect_new_embedding(self, rig):
        refresher, _, service = rig
        refresher.apply(_delta())
        result = service.search(
            SearchRequest(node=0, k=5, params=SearchParams(nprobe=9))
        )
        expected = refresher.model.embedding
        from repro.search.knn import top_k_similar

        knn_ids, _ = top_k_similar(expected.node_embeddings(), 0, 5)
        assert np.array_equal(result.ids, knn_ids)

    def test_rollback_after_refresh(self, rig):
        refresher, store, service = rig
        before = service.search(
            SearchRequest(node=3, k=5, params=SearchParams(nprobe=9))
        )
        refresher.apply(_delta())
        store.rollback()
        service.refresh_to_latest()
        restored = service.search(
            SearchRequest(node=3, k=5, params=SearchParams(nprobe=9))
        )
        assert restored.version == "v00000001"
        assert np.array_equal(restored.ids, before.ids)

    def test_exact_service_refreshes_without_index(self, tmp_path, graph):
        store = EmbeddingStore(tmp_path / "s")
        model = IncrementalPANE(k=16, seed=0)
        refresher = OnlineRefresher(model, store)
        refresher.bootstrap(graph)
        with QueryService(store, backend="exact") as service:
            refresher.service = service
            report = refresher.apply(_delta())
            assert report.n_lists_total == 0  # no IVF bookkeeping
            assert service.version == "v00000002"

    def test_refresher_without_service(self, tmp_path, graph):
        store = EmbeddingStore(tmp_path / "s")
        model = IncrementalPANE(k=16, seed=0)
        refresher = OnlineRefresher(model, store)
        refresher.bootstrap(graph)
        report = refresher.apply(_delta())
        assert report.version == "v00000002"
        assert store.latest() == "v00000002"


class TestShardedApply:
    """Per-shard refresh through a ShardedEmbeddingStore + ShardRouter."""

    @pytest.fixture()
    def sharded_rig(self, tmp_path, graph):
        from repro.serving.sharding import ShardedEmbeddingStore

        store = ShardedEmbeddingStore(tmp_path / "store", n_shards=3)
        model = IncrementalPANE(k=16, seed=0, update_sweeps=2)
        refresher = OnlineRefresher(model, store)
        refresher.bootstrap(graph)
        service = QueryService(store, backend="ivf", nlist=5, nprobe=5, seed=0)
        refresher.service = service
        yield refresher, store, service
        service.close()

    def test_sharded_apply_publishes_and_swaps(self, sharded_rig):
        from repro.serving.sharding import ShardRouter

        refresher, store, service = sharded_rig
        assert isinstance(service.backend, ShardRouter)
        report = refresher.apply(_delta())
        assert report.version == "v00000002"
        assert store.latest() == "v00000002"
        assert service.version == "v00000002"

    def test_sharded_refresh_keeps_per_shard_quantizers(self, sharded_rig):
        refresher, _, service = sharded_rig
        old_router = service.backend
        report = refresher.apply(_delta())
        new_router = service.backend
        assert new_router is not old_router
        for old, new in zip(old_router.backends, new_router.backends):
            assert isinstance(old, IVFIndex) and isinstance(new, IVFIndex)
            assert np.array_equal(new.centroids, old.centroids)
        # Aggregated rebuild accounting spans all shards' lists.
        assert report.n_lists_total == sum(
            backend.nlist for backend in old_router.backends
        )
        assert report.n_lists_rebuilt <= report.n_lists_total

    def test_sharded_queries_reflect_new_embedding(self, sharded_rig):
        refresher, _, service = sharded_rig
        refresher.apply(_delta())
        result = service.search(
            SearchRequest(node=0, k=5, params=SearchParams(nprobe=5))
        )
        expected = refresher.model.embedding
        from repro.search.knn import top_k_similar

        knn_ids, _ = top_k_similar(expected.node_embeddings(), 0, 5)
        assert np.array_equal(result.ids, knn_ids)

    def test_sharded_rollback_after_refresh(self, sharded_rig):
        refresher, store, service = sharded_rig
        before = service.search(
            SearchRequest(node=3, k=5, params=SearchParams(nprobe=5))
        )
        refresher.apply(_delta())
        store.rollback()
        service.refresh_to_latest()
        restored = service.search(
            SearchRequest(node=3, k=5, params=SearchParams(nprobe=5))
        )
        assert restored.version == "v00000001"
        assert np.array_equal(restored.ids, before.ids)
