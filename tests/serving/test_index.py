"""Tests for the SearchBackend interface and its one engine, ExactBackend."""

import numpy as np
import pytest

from repro.search.knn import batch_top_k, top_k_similar
from repro.serving.index import ExactBackend, make_backend


@pytest.fixture(scope="module")
def dataset(clustered_unit_vectors) -> np.ndarray:
    return clustered_unit_vectors(3000, 24, 40, seed=11)


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


class TestFactory:
    def test_explicit_kinds(self, dataset):
        assert isinstance(make_backend(dataset, "exact"), ExactBackend)
        assert isinstance(make_backend(dataset), ExactBackend)

    def test_unknown_kind_rejected(self, dataset):
        """Every kind but exact is refused, naming the removed IVF backend."""
        for kind in ("ivf", "auto", "annoy", "pq", "ivfpq"):
            with pytest.raises(ValueError, match="inverted-file backend was removed"):
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
