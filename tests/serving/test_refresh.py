"""Tests for online refresh: delta → republish → atomic swap."""

import numpy as np
import pytest

from repro.dynamic.incremental import GraphDelta, IncrementalPANE
from repro.graph.generators import attributed_sbm
from repro.serving.refresh import OnlineRefresher
from repro.serving.service import QueryService, SearchRequest
from repro.serving.store import EmbeddingStore


@pytest.fixture()
def graph():
    return attributed_sbm(n_nodes=90, n_attributes=24, seed=5)


@pytest.fixture()
def rig(tmp_path, graph):
    """Model + store + service wired through an OnlineRefresher."""
    store = EmbeddingStore(tmp_path / "store")
    model = IncrementalPANE(k=16, seed=0, update_sweeps=2)
    refresher = OnlineRefresher(model, store)
    refresher.bootstrap(graph)
    service = QueryService(store)
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
        assert set(report.timings) == {"update", "publish", "swap"}

    def test_queries_reflect_new_embedding(self, rig):
        refresher, _, service = rig
        refresher.apply(_delta())
        result = service.search(
            SearchRequest(node=0, k=5)
        )
        expected = refresher.model.embedding
        from repro.search.knn import top_k_similar

        knn_ids, _ = top_k_similar(expected.node_embeddings(), 0, 5)
        assert np.array_equal(result.ids, knn_ids)

    def test_rollback_after_refresh(self, rig):
        refresher, store, service = rig
        before = service.search(
            SearchRequest(node=3, k=5)
        )
        refresher.apply(_delta())
        store.rollback()
        service.refresh_to_latest()
        restored = service.search(
            SearchRequest(node=3, k=5)
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
            assert not hasattr(report, "n_lists_total")  # no index bookkeeping
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
    """Per-shard refresh through a sharded EmbeddingStore + ShardRouter."""

    @pytest.fixture()
    def sharded_rig(self, tmp_path, graph):
        from repro.serving.store import EmbeddingStore

        store = EmbeddingStore(tmp_path / "store", n_shards=3)
        model = IncrementalPANE(k=16, seed=0, update_sweeps=2)
        refresher = OnlineRefresher(model, store)
        refresher.bootstrap(graph)
        service = QueryService(store)
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

    def test_sharded_queries_reflect_new_embedding(self, sharded_rig):
        refresher, _, service = sharded_rig
        refresher.apply(_delta())
        result = service.search(
            SearchRequest(node=0, k=5)
        )
        expected = refresher.model.embedding
        from repro.search.knn import top_k_similar

        knn_ids, _ = top_k_similar(expected.node_embeddings(), 0, 5)
        assert np.array_equal(result.ids, knn_ids)

    def test_sharded_rollback_after_refresh(self, sharded_rig):
        refresher, store, service = sharded_rig
        before = service.search(
            SearchRequest(node=3, k=5)
        )
        refresher.apply(_delta())
        store.rollback()
        service.refresh_to_latest()
        restored = service.search(
            SearchRequest(node=3, k=5)
        )
        assert restored.version == "v00000001"
        assert np.array_equal(restored.ids, before.ids)
