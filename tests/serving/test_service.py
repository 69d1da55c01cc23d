"""Tests for the QueryService: caching, batching, swap atomicity."""

import json
import threading

import numpy as np
import pytest

from repro.core.pane import PANEEmbedding
from repro.parallel.pool import WorkerPool
from repro.search.knn import top_k_similar
from repro.serving.index import ExactBackend, IVFIndex
from repro.serving.service import QueryService, SearchRequest
from repro.serving.store import EmbeddingStore


@pytest.fixture()
def service(store):
    with QueryService(store, backend="exact", n_threads=2) as service:
        yield service


class TestTopK:
    def test_matches_knn_search(self, service, trained_embedding):
        result = service.search(SearchRequest(node=0, k=5))
        knn_ids, knn_scores = top_k_similar(trained_embedding.node_embeddings(), 0, 5)
        assert np.array_equal(result.ids, knn_ids)
        assert np.allclose(result.scores, knn_scores)

    def test_result_carries_version(self, service):
        assert service.search(SearchRequest(node=0, k=3)).version == "v00000001"

    def test_self_excluded(self, service):
        assert 7 not in service.search(SearchRequest(node=7, k=10)).ids

    def test_out_of_range_rejected(self, service):
        with pytest.raises(IndexError):
            service.search(SearchRequest(node=10_000, k=3))

    def test_latency_recorded(self, service):
        service.search(SearchRequest(node=1, k=3))
        info = service.latency_info()
        assert info["queries"] == info["calls"] == 1
        assert info["total_seconds"] > 0
        assert service.describe()["latency"] == info


class TestCache:
    def test_second_call_cached(self, service):
        first = service.search(SearchRequest(node=2, k=4))
        second = service.search(SearchRequest(node=2, k=4))
        assert not first.cached
        assert second.cached
        assert np.array_equal(first.ids, second.ids)
        assert np.array_equal(first.scores, second.scores)

    def test_cache_keyed_by_k(self, service):
        service.search(SearchRequest(node=2, k=4))
        assert not service.search(SearchRequest(node=2, k=5)).cached

    def test_caller_mutation_cannot_poison_cache(self, service):
        first = service.search(SearchRequest(node=2, k=4))
        expected = first.ids.copy()
        first.ids[:] = -99  # caller scribbles on its own result
        second = service.search(SearchRequest(node=2, k=4))
        assert second.cached
        assert np.array_equal(second.ids, expected)

    def test_batch_rows_cannot_poison_cache(self, service):
        batch = service.search(SearchRequest(nodes=[4, 5], k=3))
        expected = batch.ids.copy()
        batch.ids[:] = -99  # cached rows were views into this matrix
        hit = service.search(SearchRequest(node=4, k=3))
        assert hit.cached
        assert np.array_equal(hit.ids, expected[0])

    def test_cache_hit_counted(self, service):
        """A hit is one cache-served query and one record — not two."""
        service.search(SearchRequest(node=3, k=4))
        service.search(SearchRequest(node=3, k=4))
        assert service.cache_served_total.value() == 1
        assert service.queries_total.value() == 2
        assert service.query_seconds.cell()["count"] == 2
        assert service.latency_info()["cache_hits"] == 1

    def test_cache_disabled(self, store):
        with QueryService(store, backend="exact", cache_size=0) as service:
            service.search(SearchRequest(node=1, k=3))
            assert not service.search(SearchRequest(node=1, k=3)).cached

    def test_lru_eviction(self, store):
        with QueryService(store, backend="exact", cache_size=2) as service:
            service.search(SearchRequest(node=0, k=3))
            service.search(SearchRequest(node=1, k=3))
            service.search(SearchRequest(node=2, k=3))  # evicts node 0
            assert not service.search(SearchRequest(node=0, k=3)).cached

    def test_cache_invalidated_by_version(self, store, trained_embedding, service):
        service.search(SearchRequest(node=0, k=3))
        store.publish(trained_embedding)
        service.refresh_to_latest()
        result = service.search(SearchRequest(node=0, k=3))
        assert not result.cached
        assert result.version == "v00000002"


class TestBatch:
    def test_batch_matches_singles(self, service):
        nodes = [0, 5, 9, 33]
        batch = service.search(SearchRequest(nodes=nodes, k=4))
        assert batch.ids.shape == (4, 4)
        for row, node in enumerate(nodes):
            single = service.search(SearchRequest(node=node, k=4))
            assert np.array_equal(batch.ids[row], single.ids)

    def test_batch_fills_cache(self, service):
        service.search(SearchRequest(nodes=[11, 12], k=4))
        assert service.search(SearchRequest(node=11, k=4)).cached

    def test_batch_counts_members_and_observes_once(self, service):
        """q nodes are q queries but one timed call (one histogram sample)."""
        service.search(SearchRequest(nodes=[3, 4, 5, 6, 7], k=4))
        assert service.queries_total.value() == 5
        assert service.query_seconds.cell()["count"] == 1
        assert service.cache_served_total.value() == 0
        assert service.latency_info()["calls"] == 1

    def test_empty_batch_rejected(self, service):
        with pytest.raises(ValueError):
            service.search(SearchRequest(nodes=[], k=4))

    def test_batch_through_larger_pool(self, store):
        with QueryService(store, backend="exact", n_threads=4) as service:
            batch = service.search(SearchRequest(nodes=list(range(40)), k=3))
            assert batch.ids.shape == (40, 3)
            for row in (0, 17, 39):
                single = service.search(SearchRequest(node=row, k=3))
                assert np.array_equal(batch.ids[row], single.ids)


class TestVectorAndAttributeQueries:
    def test_similar_by_vector_finds_node(self, service, trained_embedding):
        vector = trained_embedding.node_embeddings()[4]
        result = service.search(SearchRequest(vector=vector, k=3))
        assert result.ids[0] == 4
        assert result.scores[0] == pytest.approx(1.0)

    def test_similar_by_vector_wrong_dim(self, service):
        with pytest.raises(ValueError):
            service.search(SearchRequest(vector=np.ones(3), k=3))

    def test_top_attributes_match_eq21(self, service, trained_embedding):
        result = service.top_attributes(6, 5)
        scores = trained_embedding.y @ (
            trained_embedding.x_forward[6] + trained_embedding.x_backward[6]
        )
        expected = np.argsort(-scores, kind="stable")[:5]
        assert np.array_equal(np.sort(result.ids), np.sort(expected))
        assert np.all(np.diff(result.scores) <= 1e-12)

    def test_top_nodes_for_attribute_match_eq21(self, service, trained_embedding):
        result = service.top_nodes_for_attribute(2, 5)
        scores = (
            trained_embedding.x_forward + trained_embedding.x_backward
        ) @ trained_embedding.y[2]
        expected = np.argsort(-scores, kind="stable")[:5]
        assert np.array_equal(np.sort(result.ids), np.sort(expected))

    def test_bad_attribute_rejected(self, service):
        with pytest.raises(IndexError):
            service.top_nodes_for_attribute(10_000, 3)


class TestMicroBatching:
    def test_concurrent_calls_coalesce_correctly(self, store, trained_embedding):
        with QueryService(store, backend="exact") as service:
            coalescer = service.make_coalescer(0.01)
            expected = {
                node: top_k_similar(trained_embedding.node_embeddings(), node, 4)[0]
                for node in range(8)
            }
            results: dict[int, np.ndarray] = {}
            errors: list[BaseException] = []

            def query(node: int) -> None:
                try:
                    results[node] = service.search(
                        SearchRequest(node=node, k=4), coalescer=coalescer
                    ).ids
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=query, args=(node,)) for node in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for node in range(8):
                assert np.array_equal(results[node], expected[node])

    def test_coalesced_threads_share_one_group_and_version(self, store):
        """search(req, coalescer=c) from 4 threads: one group, one version."""
        with QueryService(store, backend="exact") as service:
            # A long window that max_batch=4 cuts short: all four callers
            # are queued before the leader drains, whatever the scheduling.
            coalescer = service.make_coalescer(5.0, max_batch=4)
            results: list = []
            barrier = threading.Barrier(4)

            def query(node: int) -> None:
                barrier.wait(timeout=10)
                results.append(
                    service.search(SearchRequest(node=node, k=4), coalescer=coalescer)
                )

            threads = [threading.Thread(target=query, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 4
            assert {r.group for r in results} == {0}
            assert {r.version for r in results} == {"v00000001"}
            # Each member is one query and one timed call of its own.
            assert service.queries_total.value() == 4
            assert service.query_seconds.cell()["count"] == 4
            assert coalescer.info()["groups"] == 1

    def test_microbatch_fills_cache(self, store):
        with QueryService(store, backend="exact") as service:
            coalescer = service.make_coalescer(0.005)
            service.search(SearchRequest(node=0, k=4), coalescer=coalescer)
            assert service.search(SearchRequest(node=0, k=4)).cached

    def test_batched_latency_includes_window(self, store):
        """Reported latency is what the caller experienced, window included."""
        with QueryService(store, backend="exact") as service:
            result = service.search(
                SearchRequest(node=0, k=4), coalescer=service.make_coalescer(0.02)
            )
            assert result.latency_s >= 0.02
            assert service.latency_info()["total_seconds"] >= 0.02

    def test_stale_node_fails_alone_in_microbatch(self, service):
        """A node invalidated by a swap fails its own request, not the batch."""
        from repro.serving.service import _BatchRequest

        bad = _BatchRequest(node=10_000, k=3, search=SearchRequest(node=10_000, k=3))
        good = _BatchRequest(node=0, k=3, search=SearchRequest(node=0, k=3))
        service._execute_microbatch([bad, good], 0)
        assert isinstance(bad.error, IndexError) and bad.event.is_set()
        assert good.error is None and good.result is not None

    def test_execute_failure_frees_leader_slot(self):
        """A failing leader must not wedge the batcher for later callers."""
        from repro.serving.service import _MicroBatcher

        attempts: list[int] = []

        def execute(batch, group_id) -> None:
            attempts.append(len(batch))
            raise RuntimeError("boom")

        batcher = _MicroBatcher(0.001, execute)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                batcher.submit(0, 5, SearchRequest(node=0, k=5))
        # The second submit became leader again (slot was released) instead
        # of blocking forever as a follower of a dead leader.
        assert attempts == [1, 1]
        assert batcher._has_leader is False
        assert batcher._pending == []


class TestVersionSwap:
    def _publish_permuted(self, store: EmbeddingStore, embedding: PANEEmbedding):
        """A second version whose neighbor structure is visibly different."""
        rng = np.random.default_rng(99)
        permutation = rng.permutation(embedding.n_nodes)
        permuted = PANEEmbedding(
            x_forward=embedding.x_forward[permutation],
            x_backward=embedding.x_backward[permutation],
            y=embedding.y,
            config=embedding.config,
        )
        return store.publish(permuted), permuted

    def test_activate_swaps_results(self, store, trained_embedding, service):
        before = service.search(SearchRequest(node=0, k=5))
        self._publish_permuted(store, trained_embedding)
        service.activate()
        after = service.search(SearchRequest(node=0, k=5))
        assert after.version == "v00000002"
        assert not np.array_equal(before.ids, after.ids)

    def test_rollback_restores_old_answers(self, store, trained_embedding, service):
        before = service.search(SearchRequest(node=0, k=5))
        self._publish_permuted(store, trained_embedding)
        service.activate()
        store.rollback()
        service.refresh_to_latest()
        restored = service.search(SearchRequest(node=0, k=5))
        assert restored.version == "v00000001"
        assert np.array_equal(restored.ids, before.ids)

    def test_no_torn_results_under_concurrent_swaps(self, store, trained_embedding):
        """Acceptance: a swap mid-traffic never serves a torn result.

        Queries hammer the service from a persistent WorkerPool while the
        main thread flips the active version back and forth.  Every result
        must *exactly* match the ground truth of the version it claims to
        be from — an id from one version paired with the other version's
        matrix (or a half-swapped backend) would fail the equality.
        """
        version_2, permuted = self._publish_permuted(store, trained_embedding)
        with QueryService(store, backend="exact", cache_size=0) as service:
            nodes = np.arange(20)
            truth = {
                "v00000001": {
                    int(node): top_k_similar(
                        trained_embedding.node_embeddings(), int(node), 5
                    )
                    for node in nodes
                },
                version_2: {
                    int(node): top_k_similar(
                        permuted.node_embeddings(), int(node), 5
                    )
                    for node in nodes
                },
            }
            stop = threading.Event()
            torn: list[str] = []

            def hammer(worker: int, _: int) -> int:
                rng = np.random.default_rng(worker)
                served = 0
                while not stop.is_set():
                    node = int(rng.integers(20))
                    result = service.search(SearchRequest(node=node, k=5))
                    expected_ids, expected_scores = truth[result.version][node]
                    if not (
                        np.array_equal(result.ids, expected_ids)
                        and np.array_equal(result.scores, expected_scores)
                    ):
                        torn.append(
                            f"node {node} version {result.version}: "
                            f"{result.ids} != {expected_ids}"
                        )
                        stop.set()
                    served += 1
                return served

            with WorkerPool(4) as pool:
                swapper_done = threading.Event()

                def swap_loop() -> None:
                    for flip in range(30):
                        service.activate(
                            "v00000001" if flip % 2 else version_2
                        )
                    swapper_done.set()
                    stop.set()

                swapper = threading.Thread(target=swap_loop)
                swapper.start()
                served = pool.run_blocks(hammer, list(range(4)))
                swapper.join()
            assert swapper_done.is_set()
            assert torn == [], torn[:3]
            assert sum(served) > 0


class TestDescribe:
    def test_describe_exact(self, service):
        info = service.describe()
        assert info["backend"] == "ExactBackend"
        assert info["backend_kind"] == "exact"
        assert info["n_shards"] == 1
        assert info["version"] == "v00000001"
        assert info["n_nodes"] == 120

    def test_describe_ivf(self, store):
        with QueryService(store, backend="ivf", nlist=8, nprobe=3) as service:
            info = service.describe()
            assert info["backend"] == "IVFIndex"
            assert info["backend_kind"] == "ivf"
            assert info["ivf"] == {"nlist": 8, "nprobe": 3}

    @staticmethod
    def _assert_plain_types(value, path="describe()"):
        """No numpy scalars anywhere — the wire schema is plain JSON types."""
        if isinstance(value, dict):
            for key, item in value.items():
                assert type(key) is str, f"{path} key {key!r}"
                TestDescribe._assert_plain_types(item, f"{path}.{key}")
        elif isinstance(value, list):
            for index, item in enumerate(value):
                TestDescribe._assert_plain_types(item, f"{path}[{index}]")
        else:
            assert value is None or type(value) in (str, int, float, bool), (
                f"{path} leaked {type(value).__name__}: {value!r}"
            )

    def test_describe_json_serializable_exact(self, service):
        service.search(SearchRequest(node=0, k=5))  # populate the latency document
        info = service.describe()
        self._assert_plain_types(info)
        json.loads(json.dumps(info, allow_nan=False))

    def test_describe_json_serializable_all_backends(self, store):
        for backend in ("ivf", "pq", "ivfpq"):
            with QueryService(store, backend=backend, nlist=4) as service:
                service.search(SearchRequest(node=0, k=5))
                info = service.describe()
                assert info["backend_kind"] == backend
                self._assert_plain_types(info)
                json.loads(json.dumps(info, allow_nan=False))

    def test_describe_json_serializable_sharded(self, tmp_path, trained_embedding):
        from repro.serving.sharding.store import ShardedEmbeddingStore

        store = ShardedEmbeddingStore(tmp_path / "sharded", n_shards=3)
        store.publish(trained_embedding)
        with QueryService(store, backend="exact") as service:
            service.search(SearchRequest(nodes=[0, 1, 2], k=4))
            info = service.describe()
            assert info["backend_kind"] == "sharded"
            assert info["n_shards"] == 3
            assert [s["kind"] for s in info["sharding"]["per_shard"]] == [
                "exact"
            ] * 3
            self._assert_plain_types(info)
            json.loads(json.dumps(info, allow_nan=False))

    def test_pinned_version(self, store, trained_embedding):
        store.publish(trained_embedding)
        with QueryService(store, backend="exact", version="v00000001") as service:
            assert service.version == "v00000001"


class TestPinnedView:
    def test_pinned_view_survives_swap(self, store, trained_embedding, service):
        """A pinned view keeps answering from its snapshot across activate()."""
        view = service.pin()
        before = view.search(SearchRequest(node=0, k=5))
        rng = np.random.default_rng(5)
        permutation = rng.permutation(trained_embedding.n_nodes)
        store.publish(
            PANEEmbedding(
                x_forward=trained_embedding.x_forward[permutation],
                x_backward=trained_embedding.x_backward[permutation],
                y=trained_embedding.y,
                config=trained_embedding.config,
            )
        )
        service.activate()
        assert service.version == "v00000002"
        assert view.version == "v00000001"
        pinned = view.search(SearchRequest(nodes=[0, 1], k=5))
        assert pinned.version == "v00000001"
        assert np.array_equal(pinned.ids[0], before.ids)
        assert service.search(SearchRequest(node=0, k=5)).version == "v00000002"

    def test_pinned_view_shares_cache(self, service):
        view = service.pin()
        view.search(SearchRequest(node=3, k=4))
        assert service.search(SearchRequest(node=3, k=4)).cached

    def test_pinned_similar_by_vector(self, service, trained_embedding):
        view = service.pin()
        vector = trained_embedding.node_embeddings()[7]
        result = view.search(SearchRequest(vector=vector, k=3))
        assert result.version == "v00000001"
        assert result.ids[0] == 7

    def test_pinned_validates_against_snapshot(self, service):
        view = service.pin()
        with pytest.raises(IndexError):
            view.search(SearchRequest(node=10_000, k=5))


class TestBackendSelection:
    def test_auto_small_store_uses_exact(self, store):
        with QueryService(store, backend="auto") as service:
            assert isinstance(service.backend, ExactBackend)

    def test_explicit_ivf(self, store):
        with QueryService(store, backend="ivf", nlist=6, nprobe=6) as service:
            assert isinstance(service.backend, IVFIndex)
            result = service.search(SearchRequest(node=0, k=5))
            assert result.ids.shape == (5,)
