"""Tests for the QueryService: caching, batching, swap atomicity."""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.pane import PANEEmbedding
from repro.parallel.pool import WorkerPool
from repro.search.knn import top_k_similar
from repro.serving.index import ExactBackend
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
        cell = service.query_seconds.cell()
        assert service.queries_total.value() == cell["count"] == 1
        assert cell["sum"] > 0
        assert "latency" not in service.describe()


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
        assert service.cache_lookups_total.value(outcome="hit") == 1
        assert service.cache_lookups_total.value(outcome="miss") == 1

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


class _Gate:
    """Wraps backends' ``search``: the first call waits for ``release``.

    Holding that call holds the engine slot it runs in, so requests made
    meanwhile queue up behind it deterministically.  Records the batch
    size of every call; ``fail_on`` makes the call with that index raise.
    """

    def __init__(self, monkeypatch, *backends, fail_on: int | None = None) -> None:
        self._fail_on = fail_on
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sizes: list[int] = []
        for backend in backends:
            monkeypatch.setattr(backend, "search", self._wrap(backend.search))

    def _wrap(self, search):
        def gated(queries, k, **kwargs):
            self.sizes.append(len(queries))
            if len(self.sizes) == 1:
                self.entered.set()
                assert self.release.wait(30)
            if len(self.sizes) - 1 == self._fail_on:
                raise RuntimeError("boom")
            return search(queries, k, **kwargs)

        return gated


def _queue_behind(service, gate, first, rest, *, hold_s: float = 0.0) -> list:
    """Run ``first`` on the only engine slot, queue ``rest`` behind it.

    Each entry is a zero-argument call; returns its result (or the
    exception it raised), in argument order.
    """
    service._free_slots = 1
    calls = [first, *rest]
    outcomes: list = [None] * len(calls)

    def run(index: int) -> None:
        try:
            outcomes[index] = calls[index]()
        except BaseException as error:
            outcomes[index] = error

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    threads[0].start()
    assert gate.entered.wait(30)
    for thread in threads[1:]:
        thread.start()
    deadline = time.monotonic() + 30
    while len(service._queue) < len(rest) and time.monotonic() < deadline:
        time.sleep(0.001)
    assert len(service._queue) == len(rest)
    time.sleep(hold_s)
    gate.release.set()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes


class TestMicroBatching:
    """Single-node misses through the engine slots (QueryService._admit)."""

    def test_concurrent_calls_coalesce_correctly(self, store):
        with QueryService(store, backend="exact", cache_size=0) as service:
            serial = {
                node: service.search(SearchRequest(node=node, k=4))
                for node in range(16)
            }
            service._free_slots = 1  # force queueing behind one slot
            results: dict[int, object] = {}

            def query(nodes) -> None:
                for node in nodes:
                    results[node] = service.search(SearchRequest(node=node, k=4))

            threads = [
                threading.Thread(target=query, args=(range(i, 16, 8),))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            for node in range(16):
                assert np.array_equal(results[node].ids, serial[node].ids)
                assert results[node].scores.tobytes() == serial[node].scores.tobytes()
            assert service._free_slots == 1 and not service._queue

    def test_queued_members_answer_from_own_snapshot(
        self, store, trained_embedding, monkeypatch
    ):
        """Members pinned to two versions drain as two groups, each
        answered from the snapshot its own view pinned."""
        with QueryService(store, backend="exact", cache_size=0) as service:
            old = service.pin()
            TestVersionSwap._publish_permuted(store, trained_embedding)
            service.activate()
            new = service.pin()
            expected = {
                (view.version, node): view.search(SearchRequest(node=node, k=4))
                for view in (old, new)
                for node in range(3)
            }
            gate = _Gate(monkeypatch, service.backend, old._active.backend)
            queued = [(view, node) for node in range(3) for view in (old, new)]
            outcomes = _queue_behind(
                service,
                gate,
                lambda: new.search(SearchRequest(node=5, k=4)),
                [
                    lambda view=view, node=node: view.search(
                        SearchRequest(node=node, k=4)
                    )
                    for view, node in queued
                ],
            )
            assert gate.sizes == [1, 3, 3]  # one backend call per snapshot
            for (view, node), result in zip(queued, outcomes[1:]):
                want = expected[(view.version, node)]
                assert result.version == view.version
                assert np.array_equal(result.ids, want.ids)
                assert result.scores.tobytes() == want.scores.tobytes()
            # Each member is one query and one timed call of its own.
            assert service.queries_total.value() == 6 + 7
            assert service.query_seconds.cell()["count"] == 6 + 7

    def test_microbatch_fills_cache(self, store, monkeypatch):
        with QueryService(store, backend="exact") as service:
            gate = _Gate(monkeypatch, service.backend)
            _queue_behind(
                service,
                gate,
                lambda: service.search(SearchRequest(node=0, k=4)),
                [
                    lambda node=node: service.search(SearchRequest(node=node, k=4))
                    for node in (1, 2, 3)
                ],
            )
            assert gate.sizes == [1, 3]
            for node in range(4):
                assert service.search(SearchRequest(node=node, k=4)).cached

    def test_latency_includes_admission_wait(self, store, monkeypatch):
        """Reported latency is what the caller experienced, queueing included."""
        with QueryService(store, backend="exact", cache_size=0) as service:
            gate = _Gate(monkeypatch, service.backend)
            _, queued = _queue_behind(
                service,
                gate,
                lambda: service.search(SearchRequest(node=0, k=4)),
                [lambda: service.search(SearchRequest(node=1, k=4))],
                hold_s=0.05,
            )
            assert queued.latency_s >= 0.05
            assert service.query_seconds.cell()["sum"] >= 0.05

    def test_failing_group_fails_alone(self, store, monkeypatch):
        """A member whose filter cannot compile fails its own group only."""
        from repro.search.knn import NodeFilter

        with QueryService(store, backend="exact", cache_size=0) as service:
            expected = service.search(SearchRequest(node=1, k=4))
            gate = _Gate(monkeypatch, service.backend)
            bad = NodeFilter(attributes=[(10_000, 0.0)])  # no such attribute
            first, failed, good = _queue_behind(
                service,
                gate,
                lambda: service.search(SearchRequest(node=0, k=4)),
                [
                    lambda: service.search(SearchRequest(node=2, k=4, filter=bad)),
                    lambda: service.search(SearchRequest(node=1, k=4)),
                ],
            )
            assert isinstance(failed, ValueError)
            assert np.array_equal(good.ids, expected.ids)
            assert good.scores.tobytes() == expected.scores.tobytes()
            assert service._free_slots == 1 and not service._queue

    def test_drain_error_reaches_every_member_and_frees_slot(
        self, store, monkeypatch
    ):
        """An exception inside the drain wakes every queued member with
        it, returns the slot, and the next request succeeds."""
        with QueryService(store, backend="exact", cache_size=0) as service:
            gate = _Gate(monkeypatch, service.backend, fail_on=1)
            outcomes = _queue_behind(
                service,
                gate,
                lambda: service.search(SearchRequest(node=0, k=4)),
                [
                    lambda node=node: service.search(SearchRequest(node=node, k=4))
                    for node in (1, 2, 3)
                ],
            )
            assert gate.sizes == [1, 3]
            assert not isinstance(outcomes[0], BaseException)
            assert all(isinstance(o, RuntimeError) for o in outcomes[1:])
            assert service._free_slots == 1 and not service._queue
            assert service.search(SearchRequest(node=4, k=4)).ids.shape == (4,)

    def test_cache_hit_skips_admission(self, store, monkeypatch):
        """A hit answers while the only slot is held; it never queues."""
        with QueryService(store, backend="exact") as service:
            warm = service.search(SearchRequest(node=7, k=4))
            gate = _Gate(monkeypatch, service.backend)
            service._free_slots = 1
            holder = threading.Thread(
                target=service.search, args=(SearchRequest(node=0, k=4),)
            )
            holder.start()
            try:
                assert gate.entered.wait(30)
                hit = service.search(SearchRequest(node=7, k=4))
                assert hit.cached and not service._queue
                assert np.array_equal(hit.ids, warm.ids)
            finally:
                gate.release.set()
                holder.join(timeout=30)
            assert gate.sizes == [1]


class TestVersionSwap:
    @staticmethod
    def _publish_permuted(store: EmbeddingStore, embedding: PANEEmbedding):
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
        service.search(SearchRequest(node=0, k=5))
        info = service.describe()
        # No count and no latency: those live only in the instruments.
        assert set(info) == {
            "version", "backend_kind", "n_shards", "n_nodes", "n_attributes",
            "filters", "memory",
        }
        assert info["backend_kind"] == "exact"
        assert info["n_shards"] == 1
        assert info["version"] == "v00000001"
        assert info["n_nodes"] == 120

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

    def test_describe_json_serializable_sharded(self, tmp_path, trained_embedding):
        store = EmbeddingStore(tmp_path / "sharded", n_shards=3)
        store.publish(trained_embedding)
        with QueryService(store, backend="exact") as service:
            service.search(SearchRequest(nodes=[0, 1, 2], k=4))
            info = service.describe()
            assert info["backend_kind"] == "sharded"
            assert info["n_shards"] == 3
            assert [sorted(s) for s in info["sharding"]["per_shard"]] == [
                ["n_nodes", "shard"]
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
    def test_exact_is_the_default_and_only_backend(self, store):
        for kwargs in ({}, {"backend": "exact"}):
            with QueryService(store, **kwargs) as service:
                assert isinstance(service.backend, ExactBackend)
                assert service.describe()["backend_kind"] == "exact"

    @pytest.mark.parametrize("backend", ["ivf", "auto"])
    def test_removed_backend_kinds_refused(self, store, backend):
        with pytest.raises(ValueError, match="inverted-file backend was removed"):
            QueryService(store, backend=backend)
