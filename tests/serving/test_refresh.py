"""Online refresh through the ingest pipeline: delta → fold → republish → swap.

The pipeline's compaction step warm-updates the model, publishes the
version and activates it on the bound query service; in-flight queries
finish on the old snapshot and nothing is deleted, so a rollback undoes
a bad refresh.
"""

import numpy as np
import pytest

from repro.dynamic.incremental import GraphDelta, IncrementalPANE
from repro.graph.generators import attributed_sbm
from repro.search.knn import top_k_similar
from repro.serving.service import QueryService, SearchRequest
from repro.serving.store import EmbeddingStore
from repro.serving.wal import IngestPipeline


@pytest.fixture()
def graph():
    return attributed_sbm(n_nodes=90, n_attributes=24, seed=5)


def _pipeline(root, graph, *, n_shards=1):
    store = EmbeddingStore(root / "store", n_shards=n_shards)
    pipeline = IngestPipeline(root / "wal", store)
    pipeline.bootstrap(graph, k=16, update_sweeps=2)
    return pipeline


@pytest.fixture()
def rig(tmp_path, graph):
    """A bootstrapped pipeline whose versions a live service follows."""
    pipeline = _pipeline(tmp_path, graph)
    service = QueryService(pipeline.store)
    pipeline.bind_service(service)
    yield pipeline, pipeline.store, service
    service.close()
    pipeline.close()


def _delta() -> GraphDelta:
    return GraphDelta(
        add_edges=np.array([[0, 45], [1, 60], [2, 80]]),
        add_associations=np.array([[0, 3, 1.0], [5, 7, 1.0]]),
    )


def _fold(pipeline) -> dict:
    """Append the delta durably and run the compaction step over it."""
    pipeline.append(_delta())
    return pipeline.compact_once()


def _assert_answers_from(service, store, version):
    """Queries are answered from ``version``'s embedding."""
    result = service.search(SearchRequest(node=0, k=5))
    expected = store.open(version).to_embedding()
    knn_ids, _ = top_k_similar(expected.node_embeddings(), 0, 5)
    assert result.version == version
    assert np.array_equal(result.ids, knn_ids)


class TestBootstrap:
    def test_bootstrap_publishes_v1(self, tmp_path, graph):
        pipeline = _pipeline(tmp_path, graph)
        try:
            assert pipeline.store.latest() == "v00000001"
            assert pipeline.store.manifest("v00000001")["metadata"]["applied_lsn"] == 0
        finally:
            pipeline.close()

    def test_bootstrap_activates_service(self, tmp_path, graph):
        store = EmbeddingStore(tmp_path / "store")
        store.publish(IncrementalPANE(k=16, seed=1).fit(graph))
        pipeline = IngestPipeline(tmp_path / "wal", store)
        try:
            with QueryService(store) as service:
                assert service.version == "v00000001"
                pipeline.bind_service(service)
                assert pipeline.bootstrap(graph, k=16) == "v00000002"
                assert service.version == "v00000002"
        finally:
            pipeline.close()


class TestApply:
    def test_apply_publishes_and_swaps(self, rig):
        pipeline, store, service = rig
        report = _fold(pipeline)
        assert report["version"] == "v00000002"
        assert store.latest() == "v00000002"
        assert service.version == "v00000002"
        assert set(report["timings"]) == {"update", "publish", "swap"}

    def test_queries_reflect_new_embedding(self, rig):
        pipeline, store, service = rig
        report = _fold(pipeline)
        _assert_answers_from(service, store, report["version"])

    def test_rollback_after_refresh(self, rig):
        pipeline, store, service = rig
        before = service.search(SearchRequest(node=3, k=5))
        _fold(pipeline)
        store.rollback()
        service.refresh_to_latest()
        restored = service.search(SearchRequest(node=3, k=5))
        assert restored.version == "v00000001"
        assert np.array_equal(restored.ids, before.ids)

    def test_exact_service_refreshes_without_index(self, tmp_path, graph):
        pipeline = _pipeline(tmp_path, graph)
        try:
            with QueryService(pipeline.store, backend="exact") as service:
                pipeline.bind_service(service)
                report = _fold(pipeline)
                # No index bookkeeping in the summary.
                assert set(report) == {
                    "version", "applied_lsn", "records", "seconds", "timings",
                }
                assert service.version == "v00000002"
        finally:
            pipeline.close()

    def test_refresher_without_service(self, tmp_path, graph):
        pipeline = _pipeline(tmp_path, graph)
        try:
            report = _fold(pipeline)
            assert report["version"] == "v00000002"
            assert pipeline.store.latest() == "v00000002"
            assert set(report["timings"]) == {"update", "publish"}
        finally:
            pipeline.close()


class TestShardedApply:
    """The same refresh through a sharded EmbeddingStore + ShardRouter."""

    @pytest.fixture()
    def sharded_rig(self, tmp_path, graph):
        pipeline = _pipeline(tmp_path, graph, n_shards=3)
        service = QueryService(pipeline.store)
        pipeline.bind_service(service)
        yield pipeline, pipeline.store, service
        service.close()
        pipeline.close()

    def test_sharded_apply_publishes_and_swaps(self, sharded_rig):
        from repro.serving.sharding import ShardRouter

        pipeline, store, service = sharded_rig
        assert isinstance(service.backend, ShardRouter)
        report = _fold(pipeline)
        assert report["version"] == "v00000002"
        assert store.latest() == "v00000002"
        assert service.version == "v00000002"

    def test_sharded_queries_reflect_new_embedding(self, sharded_rig):
        pipeline, store, service = sharded_rig
        report = _fold(pipeline)
        _assert_answers_from(service, store, report["version"])

    def test_sharded_rollback_after_refresh(self, sharded_rig):
        pipeline, store, service = sharded_rig
        before = service.search(SearchRequest(node=3, k=5))
        _fold(pipeline)
        store.rollback()
        service.refresh_to_latest()
        restored = service.search(SearchRequest(node=3, k=5))
        assert restored.version == "v00000001"
        assert np.array_equal(restored.ids, before.ids)
