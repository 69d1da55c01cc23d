"""Tests for the SearchBackend interface: exact and IVF implementations.

Includes the IVF acceptance properties: recall@10 ≥ 0.9 against the exact
backend at the default ``nprobe`` on a seeded random-projection dataset,
and bit-for-bit agreement with the exact backend at ``nprobe = nlist``.
"""

import numpy as np
import pytest

from repro.search.knn import batch_top_k, normalize_rows, top_k_similar
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
        with pytest.raises(ValueError):
            make_backend(dataset, "annoy")


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
    """The float32 candidate selector: same answers, half the gather bytes."""

    @pytest.fixture()
    def corpus(self, clustered_unit_vectors):
        return clustered_unit_vectors(3000, 24, 32, seed=11)

    def test_results_match_float64_selector(self, corpus):
        queries = corpus[:48]
        exclude = np.arange(48)
        f64 = IVFIndex(corpus, nlist=32, nprobe=6, seed=0)
        f32 = IVFIndex(corpus, nlist=32, nprobe=6, seed=0, select_dtype="float32")
        a_ids, a_scores = f64.search(queries, 10, exclude=exclude)
        b_ids, b_scores = f32.search(queries, 10, exclude=exclude)
        assert np.array_equal(a_ids, b_ids)
        assert a_scores.tobytes() == b_scores.tobytes()

    def test_exhaustive_nprobe_stays_bit_identical_to_exact(self, corpus):
        """nprobe >= nlist delegates to the exact engine; the float32
        opt-in must preserve that bit-for-bit guarantee."""
        exact = ExactBackend(corpus)
        f32 = IVFIndex(corpus, nlist=16, nprobe=4, seed=0, select_dtype="float32")
        queries = corpus[:16]
        exclude = np.arange(16)
        a_ids, a_scores = exact.search(queries, 7, exclude=exclude)
        b_ids, b_scores = f32.search(queries, 7, exclude=exclude, nprobe=16)
        assert np.array_equal(a_ids, b_ids)
        assert a_scores.tobytes() == b_scores.tobytes()

    def test_set_select_dtype_toggles(self, corpus):
        index = IVFIndex(corpus, nlist=16, seed=0)
        assert index.select_dtype == "float64" and index._select32 is None
        index.set_select_dtype("float32")
        assert index._select32 is not None
        assert index._select32.dtype == np.float32
        index.set_select_dtype("float64")
        assert index._select32 is None
        with pytest.raises(ValueError):
            index.set_select_dtype("bfloat16")

    def test_refresh_carries_select_dtype(self, corpus):
        index = IVFIndex(corpus, nlist=16, seed=0, select_dtype="float32")
        moved = corpus.copy()
        moved[5] = moved[100]
        refreshed = index.refresh(moved)
        assert refreshed.select_dtype == "float32"
        # The float32 copy must come from the *new* features.
        assert np.array_equal(
            refreshed._select32, np.asarray(moved, dtype=np.float32)
        )

    def test_from_arrays_reloads_float64(self, corpus):
        index = IVFIndex(corpus, nlist=16, seed=0, select_dtype="float32")
        reloaded = IVFIndex.from_arrays(corpus, index.save_arrays())
        assert reloaded.select_dtype == "float64"
        reloaded.set_select_dtype("float32")
        queries = corpus[:8]
        a = index.search(queries, 5)
        b = reloaded.search(queries, 5)
        assert np.array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()

    def test_service_applies_select_dtype_to_cached_index(self, tmp_path):
        """QueryService(index_cache=True, select_dtype=float32): the
        persisted-artifact reload path must re-apply the opt-in."""
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
            store, backend="ivf", nlist=8, index_cache=True,
            select_dtype="float32",
        ) as service:
            assert service.backend.select_dtype == "float32"
            assert service.describe()["select_dtype"] == "float32"
            result = service.search(SearchRequest(node=0, k=5))
            assert np.array_equal(result.ids, baseline.ids)
            assert result.scores.tobytes() == baseline.scores.tobytes()
