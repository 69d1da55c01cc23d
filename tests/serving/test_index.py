"""Tests for the SearchBackend interface: exact and IVF implementations.

Includes the IVF acceptance properties: recall@10 ≥ 0.9 against the exact
backend at the default ``nprobe`` on a seeded random-projection dataset,
and bit-for-bit agreement with the exact backend at ``nprobe = nlist``.
"""

import numpy as np
import pytest

from repro.search.knn import (
    batch_top_k,
    canonical_scores,
    normalize_rows,
    top_k_similar,
)
from repro.serving.index import (
    AUTO_EXACT_THRESHOLD,
    ExactBackend,
    IVFIndex,
    make_backend,
)

@pytest.fixture(scope="module")
def dataset(clustered_unit_vectors) -> np.ndarray:
    return clustered_unit_vectors(3000, 24, 40, seed=11)


@pytest.fixture(scope="module")
def ivf(dataset) -> IVFIndex:
    return IVFIndex(dataset, nlist=48, nprobe=8, seed=0)


@pytest.fixture(scope="module")
def exact(dataset) -> ExactBackend:
    return ExactBackend(dataset)


class TestExactBackend:
    def test_matches_knn_module(self, dataset, exact):
        ids, scores = exact.search(dataset[5], 7, exclude=np.array([5]))
        knn_ids, knn_scores = top_k_similar(dataset, 5, 7, assume_normalized=True)
        assert np.array_equal(ids, knn_ids)
        assert np.array_equal(scores, knn_scores)

    def test_batch_matches_singles(self, dataset, exact):
        queries = dataset[:6]
        ids, scores = exact.search(queries, 4, exclude=np.arange(6))
        for row in range(6):
            one_ids, one_scores = exact.search(
                queries[row], 4, exclude=np.array([row])
            )
            assert np.array_equal(ids[row], one_ids)
            assert np.allclose(scores[row], one_scores)

    def test_descending_scores(self, exact, dataset):
        _, scores = exact.search(dataset[0], 10)
        assert np.all(np.diff(scores) <= 1e-12)

    def test_no_exclusion_returns_self_first(self, exact, dataset):
        ids, scores = exact.search(dataset[3], 1)
        assert ids[0] == 3
        assert scores[0] == pytest.approx(1.0)

    def test_exclude_minus_one_keeps_last_neighbor(self, exact, dataset):
        """An explicit -1 entry must behave exactly like no exclusion."""
        n = dataset.shape[0]
        plain_ids, _ = exact.search(dataset[3], n)
        ids, scores = exact.search(dataset[3], n, exclude=np.array([-1]))
        assert np.array_equal(ids, plain_ids)
        assert np.all(np.isfinite(scores))


class TestIVFConstruction:
    def test_default_nlist_near_sqrt_n(self, dataset):
        index = IVFIndex(dataset, seed=0)
        assert index.nlist == int(round(np.sqrt(dataset.shape[0])))

    def test_lists_partition_all_vectors(self, ivf, dataset):
        concatenated = np.sort(np.concatenate(ivf.lists))
        assert np.array_equal(concatenated, np.arange(dataset.shape[0]))

    def test_lists_sorted(self, ivf):
        for lst in ivf.lists:
            assert np.all(np.diff(lst) > 0) or lst.shape[0] <= 1

    def test_deterministic_given_seed(self, dataset):
        a = IVFIndex(dataset, nlist=16, seed=5)
        b = IVFIndex(dataset, nlist=16, seed=5)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            IVFIndex(np.empty((0, 8)))

    def test_bad_nlist_rejected(self, dataset):
        with pytest.raises(ValueError):
            IVFIndex(dataset, nlist=dataset.shape[0] + 1)

    def test_nlist_above_train_size_builds(self, dataset):
        """train_size is raised to nlist instead of crashing in rng.choice."""
        index = IVFIndex(dataset, nlist=100, seed=0, train_size=64)
        assert index.nlist == 100
        concatenated = np.sort(np.concatenate(index.lists))
        assert np.array_equal(concatenated, np.arange(dataset.shape[0]))


class TestIVFRecall:
    def test_recall_at_10_at_default_nprobe(self, dataset, ivf, exact):
        """Acceptance: recall@10 ≥ 0.9 vs exact at the default nprobe."""
        n_queries = 200
        queries = dataset[:n_queries]
        exclude = np.arange(n_queries)
        exact_ids, _ = exact.search(queries, 10, exclude=exclude)
        ivf_ids, _ = ivf.search(queries, 10, exclude=exclude)
        hits = sum(
            np.intersect1d(exact_ids[row], ivf_ids[row]).shape[0]
            for row in range(n_queries)
        )
        recall = hits / (n_queries * 10)
        assert recall >= 0.9, f"recall@10 = {recall:.3f} < 0.9"

    def test_recall_improves_with_nprobe(self, dataset, ivf, exact):
        queries = dataset[:100]
        exclude = np.arange(100)
        exact_ids, _ = exact.search(queries, 10, exclude=exclude)

        def recall(nprobe: int) -> float:
            ids, _ = ivf.search(queries, 10, exclude=exclude, nprobe=nprobe)
            hits = sum(
                np.intersect1d(exact_ids[row], ids[row]).shape[0]
                for row in range(100)
            )
            return hits / 1000

        assert recall(1) <= recall(8) <= recall(48) == 1.0


class TestIVFExhaustiveIsExact:
    def test_nprobe_nlist_bit_for_bit(self, dataset, ivf, exact):
        """Acceptance: nprobe = nlist reproduces exact results bit-for-bit."""
        for node in (0, 17, 123, 1999, 2999):
            exact_ids, exact_scores = exact.search(
                dataset[node], 10, exclude=np.array([node])
            )
            ivf_ids, ivf_scores = ivf.search(
                dataset[node], 10, exclude=np.array([node]), nprobe=ivf.nlist
            )
            assert np.array_equal(exact_ids, ivf_ids)
            assert np.array_equal(exact_scores, ivf_scores)  # bitwise

    def test_oversized_nprobe_clamped(self, dataset, ivf, exact):
        exact_ids, _ = exact.search(dataset[1], 5, exclude=np.array([1]))
        ivf_ids, _ = ivf.search(dataset[1], 5, exclude=np.array([1]), nprobe=10_000)
        assert np.array_equal(exact_ids, ivf_ids)

    def test_batch_bit_for_bit(self, dataset, ivf, exact):
        """The exhaustive guarantee holds for batch queries, not just 1-D."""
        queries = dataset[:64]
        exclude = np.arange(64)
        exact_ids, exact_scores = exact.search(queries, 10, exclude=exclude)
        ivf_ids, ivf_scores = ivf.search(
            queries, 10, exclude=exclude, nprobe=ivf.nlist
        )
        assert np.array_equal(exact_ids, ivf_ids)
        assert np.array_equal(exact_scores, ivf_scores)  # bitwise


class TestIVFSearchSemantics:
    def test_self_excluded(self, ivf, dataset):
        ids, _ = ivf.search(dataset[42], 10, exclude=np.array([42]))
        assert 42 not in ids

    def test_rescore_false_ranks_by_centroid(self, ivf, dataset):
        ids, scores = ivf.search(dataset[0], 5, rescore=False)
        # scores are centroid similarities: every candidate from the same
        # list shares one, so values are drawn from at most nprobe distinct
        assert np.unique(scores).shape[0] <= ivf.nprobe
        assert ids.shape == (5,)

    def test_padding_when_candidates_short(self, dataset):
        # nprobe=1 over many lists can yield fewer than k candidates
        index = IVFIndex(dataset, nlist=100, nprobe=1, seed=0)
        sizes = index.list_sizes()
        smallest = int(np.argmin(sizes))
        if sizes[smallest] >= 60:
            pytest.skip("no sparse enough list in this build")
        query = np.asarray(dataset[index.lists[smallest][0]])
        ids, scores = index.search(query, 60, nprobe=1)
        assert ids.shape == (60,)
        assert np.all(ids[int(sizes[smallest]):] == -1)
        assert np.all(np.isneginf(scores[int(sizes[smallest]):]))

    def test_batch_shape(self, ivf, dataset):
        ids, scores = ivf.search(dataset[:7], 3)
        assert ids.shape == (7, 3)
        assert scores.shape == (7, 3)


class TestIVFRefresh:
    def test_unchanged_lists_shared(self, dataset):
        index = IVFIndex(dataset, nlist=32, nprobe=8, seed=0)
        perturbed = dataset.copy()
        # nudge a handful of vectors toward another cell's centroid
        moved_nodes = [3, 44, 500]
        target_cells = [(index.assignments[v] + 1) % index.nlist for v in moved_nodes]
        for node, cell in zip(moved_nodes, target_cells):
            perturbed[node] = index.centroids[cell]
        refreshed = index.refresh(perturbed)

        assert refreshed.last_rebuild is not None
        assert refreshed.last_rebuild.n_moved >= len(moved_nodes)
        assert refreshed.last_rebuild.n_lists_rebuilt < index.nlist
        touched = {
            int(index.assignments[v]) for v in moved_nodes
        } | {int(refreshed.assignments[v]) for v in moved_nodes}
        for cell in range(index.nlist):
            if cell not in touched:
                # untouched inverted lists are the *same arrays*, not copies
                assert refreshed.lists[cell] is index.lists[cell]

    def test_refresh_partition_still_complete(self, dataset):
        index = IVFIndex(dataset, nlist=32, seed=0)
        rng = np.random.default_rng(7)
        perturbed = normalize_rows(
            dataset + 0.05 * rng.standard_normal(dataset.shape)
        )
        refreshed = index.refresh(perturbed)
        concatenated = np.sort(np.concatenate(refreshed.lists))
        assert np.array_equal(concatenated, np.arange(dataset.shape[0]))
        assert np.array_equal(refreshed.centroids, index.centroids)

    def test_identical_features_rebuilds_nothing(self, dataset):
        index = IVFIndex(dataset, nlist=16, seed=0)
        refreshed = index.refresh(dataset.copy())
        assert refreshed.last_rebuild.n_moved == 0
        assert refreshed.last_rebuild.n_lists_rebuilt == 0

    def test_shape_change_rejected(self, dataset):
        index = IVFIndex(dataset, nlist=16, seed=0)
        with pytest.raises(ValueError):
            index.refresh(dataset[:-1])


class TestFactory:
    def test_auto_small_is_exact(self, clustered_unit_vectors):
        features = clustered_unit_vectors(64, 8, 4, seed=0)
        assert isinstance(make_backend(features, "auto"), ExactBackend)

    def test_auto_threshold_documented(self, dataset):
        assert dataset.shape[0] < AUTO_EXACT_THRESHOLD
        assert isinstance(make_backend(dataset, "auto"), ExactBackend)

    def test_explicit_kinds(self, dataset):
        assert isinstance(make_backend(dataset, "exact"), ExactBackend)
        assert isinstance(make_backend(dataset, "ivf", nlist=8), IVFIndex)

    def test_unknown_kind_rejected(self, dataset):
        for kind in ("annoy", "pq", "ivfpq"):
            with pytest.raises(ValueError, match="exact/ivf/auto"):
                make_backend(dataset, kind)


class TestKnnBatchConsistency:
    def test_batch_top_k_matches_backend(self, dataset):
        backend = ExactBackend(dataset)
        ids, scores = batch_top_k(dataset, np.arange(8), 5, assume_normalized=True)
        backend_ids, backend_scores = backend.search(
            dataset[:8], 5, exclude=np.arange(8)
        )
        assert np.array_equal(ids, backend_ids)
        assert np.allclose(scores, backend_scores)


class TestIVFFloat32Selection:
    """What replaced the float32 candidate selector: one certified band.

    IVF's rescoring selectors go through
    :func:`repro.search.knn.select_band`, so a probed search equals the
    canonical ranking of exactly the rows it probed — boundary near-ties
    included — and no precision knob is left.
    """

    @pytest.fixture()
    def corpus(self, clustered_unit_vectors):
        return clustered_unit_vectors(3000, 24, 32, seed=11)

    @staticmethod
    def _probed_oracle(index, queries, k, nprobe, exclude):
        """Canonical ranking, ties by id, of each query's probed rows."""
        ids = np.full((queries.shape[0], k), -1, dtype=np.intp)
        scores = np.full((queries.shape[0], k), -np.inf)
        # The index's own probe choice: same batch GEMM, same argpartition.
        sims = queries @ index.centroids.T
        probes = np.argpartition(-sims, nprobe - 1, axis=1)[:, :nprobe]
        for row, query in enumerate(queries):
            candidates = np.sort(np.concatenate([index.lists[j] for j in probes[row]]))
            candidates = candidates[candidates != exclude[row]]
            canon = canonical_scores(index.features, candidates, query)
            order = np.lexsort((candidates, -canon))[:k]
            ids[row, : order.size] = candidates[order]
            scores[row, : order.size] = canon[order]
        return ids, scores

    def test_results_match_float64_selector(self, corpus):
        """Probed search == the canonical ranking of the probed rows, with
        ten twins of row 5 straddling the k-th rank."""
        features = corpus.copy()
        features[1000:1010] = features[5]
        index = IVFIndex(features, nlist=32, nprobe=6, seed=0)
        queries = features[:48]
        exclude = np.r_[-1, np.arange(1, 48)]
        ids, scores = index.search(queries, 4, exclude=exclude)
        ref_ids, ref_scores = self._probed_oracle(index, queries, 4, 6, exclude)
        assert np.array_equal(ids, ref_ids)
        assert scores.tobytes() == ref_scores.tobytes()
        assert list(ids[5]) == [1000, 1001, 1002, 1003]

    def test_exhaustive_nprobe_stays_bit_identical_to_exact(self, corpus):
        """nprobe >= nlist delegates to the exact engine bit for bit."""
        exact = ExactBackend(corpus)
        index = IVFIndex(corpus, nlist=16, nprobe=4, seed=0)
        queries = corpus[:16]
        exclude = np.arange(16)
        a_ids, a_scores = exact.search(queries, 7, exclude=exclude)
        b_ids, b_scores = index.search(queries, 7, exclude=exclude, nprobe=16)
        assert np.array_equal(a_ids, b_ids)
        assert a_scores.tobytes() == b_scores.tobytes()

    def test_set_select_dtype_toggles(self, corpus):
        """The precision knob is gone from the index and the factory."""
        index = IVFIndex(corpus, nlist=16, seed=0)
        assert not hasattr(index, "set_select_dtype")
        with pytest.raises(TypeError):
            IVFIndex(corpus, nlist=16, seed=0, select_dtype="float32")
        with pytest.raises(TypeError):
            make_backend(corpus, "ivf", nlist=16, select_dtype="float32")

    def test_refresh_carries_select_dtype(self, corpus):
        """A refreshed index ranks its new rows canonically; like any
        backend it counts rescored rows only once a service activates it."""
        index = IVFIndex(corpus, nlist=16, nprobe=4, seed=0)
        moved = corpus.copy()
        moved[5] = moved[100]
        refreshed = index.refresh(moved)
        assert refreshed.rescored_rows is None
        queries = moved[:8]
        no_exclusion = np.full(8, -1)
        ids, scores = refreshed.search(queries, 5)
        ref_ids, ref_scores = self._probed_oracle(refreshed, queries, 5, 4, no_exclusion)
        assert np.array_equal(ids, ref_ids)
        assert scores.tobytes() == ref_scores.tobytes()

    def test_from_arrays_reloads_float64(self, corpus):
        index = IVFIndex(corpus, nlist=16, seed=0)
        reloaded = IVFIndex.from_arrays(corpus, index.save_arrays())
        queries = corpus[:8]
        a = index.search(queries, 5)
        b = reloaded.search(queries, 5)
        assert np.array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()

    def test_service_applies_select_dtype_to_cached_index(self, tmp_path):
        """A reloaded index artifact answers like the one that was trained,
        and describe() carries no precision field."""
        from repro.serving.service import QueryService, SearchRequest
        from repro.serving.store import EmbeddingStore
        from repro.serving.synth import synthetic_embedding

        store = EmbeddingStore(tmp_path / "store")
        store.publish(synthetic_embedding(600, 12, seed=3))
        with QueryService(
            store, backend="ivf", nlist=8, index_cache=True
        ) as trainer:
            baseline = trainer.search(SearchRequest(node=0, k=5))
        with QueryService(
            store, backend="ivf", nlist=8, index_cache=True
        ) as service:
            assert "select_dtype" not in service.describe()
            result = service.search(SearchRequest(node=0, k=5))
            assert np.array_equal(result.ids, baseline.ids)
            assert result.scores.tobytes() == baseline.scores.tobytes()


class TestIndexArtifact:
    """The persisted ``index_ivf.npz``: derived data, reloaded or rebuilt."""

    def test_store_load_missing_index_returns_none(self, store):
        stored = store.open()
        assert store.load_index(stored.version, stored.features) is None

    def test_service_index_cache_skips_retraining(self, store, monkeypatch):
        from repro.serving import index as index_module
        from repro.serving.service import QueryService, SearchRequest

        with QueryService(store, backend="ivf", nlist=4, index_cache=True) as service:
            first = service.search(SearchRequest(node=0, k=5))

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("quantizer retrained despite a persisted artifact")

        # The second service must load the artifact, not retrain k-means.
        monkeypatch.setattr(index_module, "_train_spherical_kmeans", boom)
        with QueryService(store, backend="ivf", nlist=4, index_cache=True) as service:
            again = service.search(SearchRequest(node=0, k=5))
        assert np.array_equal(first.ids, again.ids)
        assert first.scores.tobytes() == again.scores.tobytes()

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_corrupt_artifact_is_rebuilt(self, store, damage):
        """An unreadable archive is a cache miss: activation rebuilds the
        index, answers like a fresh one, and rewrites a valid file."""
        import zipfile

        from repro.serving.service import QueryService, SearchRequest

        stored = store.open()
        path = store.index_path(stored.version)
        with QueryService(store, backend="ivf", nlist=4, index_cache=True):
            pass
        if damage == "garbage":
            path.write_bytes(b"not a zip archive")
        else:
            path.write_bytes(path.read_bytes()[:200])
        with QueryService(store, backend="ivf", nlist=4, index_cache=True) as service:
            result = service.search(SearchRequest(nodes=[0, 1, 2], k=5))
        fresh = IVFIndex(stored.features, nlist=4, seed=0)
        ids, scores = fresh.search(
            np.asarray(stored.features[[0, 1, 2]]), 5, exclude=np.array([0, 1, 2])
        )
        assert np.array_equal(result.ids, ids)
        assert result.scores.tobytes() == scores.tobytes()
        assert zipfile.is_zipfile(path)
