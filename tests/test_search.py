"""Tests for the similarity-search utilities.

Contract: The select_band property test and tests/test_search.py guard the
exact engine's selection: its band must equal the full-partition reference's
mask (float32/float64, heavy ties, zero rows, -inf masks), and one query may
run no partition wider than m // 8 and no np.nonzero over a 2-D mask (a
whole-row partition creeping back fails here), while non-finite rows and
queries raise.
"""

import numpy as np
import pytest

from repro.search.knn import (
    batch_top_k,
    exact_top_k,
    normalize_rows,
    pairwise_cosine,
    top_k_similar,
)

pytestmark = pytest.mark.contract


@pytest.fixture()
def features():
    # three tight groups along distinct axes
    return np.array(
        [
            [1.0, 0.0], [0.9, 0.1],   # group A
            [0.0, 1.0], [0.1, 0.9],   # group B
            [-1.0, 0.0],              # lone
        ]
    )


class TestTopK:
    def test_nearest_is_groupmate(self, features):
        neighbors, sims = top_k_similar(features, 0, k=1)
        assert neighbors[0] == 1
        assert sims[0] > 0.9

    def test_self_excluded(self, features):
        neighbors, _ = top_k_similar(features, 2, k=4)
        assert 2 not in neighbors

    def test_sorted_descending(self, features):
        _, sims = top_k_similar(features, 0, k=4)
        assert np.all(np.diff(sims) <= 1e-12)

    def test_k_clamped_to_population(self, features):
        neighbors, _ = top_k_similar(features, 0, k=100)
        assert len(neighbors) == features.shape[0] - 1

    def test_bad_node_rejected(self, features):
        with pytest.raises(IndexError):
            top_k_similar(features, 99, k=1)

    def test_bad_k_rejected(self, features):
        with pytest.raises(ValueError):
            top_k_similar(features, 0, k=0)

    def test_single_row_matrix_returns_empty(self):
        """A one-node matrix has no neighbors — empty result, not an error."""
        ids, sims = top_k_similar(np.array([[1.0, 0.0]]), 0, 5)
        assert ids.shape == (0,) and sims.shape == (0,)
        batch_ids, batch_sims = batch_top_k(np.array([[1.0, 0.0]]), [0], 5)
        assert batch_ids.shape == (1, 0) and batch_sims.shape == (1, 0)


class TestPairwiseCosine:
    def test_diagonal_ones(self, features):
        sims = pairwise_cosine(features)
        assert np.allclose(np.diag(sims), 1.0)

    def test_symmetric(self, features):
        sims = pairwise_cosine(features)
        assert np.allclose(sims, sims.T)

    def test_opposite_vectors(self, features):
        sims = pairwise_cosine(features)
        assert sims[0, 4] == pytest.approx(-1.0)

    def test_zero_row_safe(self):
        sims = pairwise_cosine(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.all(np.isfinite(sims))

    def test_size_guard_refuses_large(self):
        big = np.ones((100, 2))
        with pytest.raises(ValueError, match="max_elements"):
            pairwise_cosine(big, max_elements=100 * 100 - 1)

    def test_size_guard_override(self):
        big = np.ones((100, 2))
        sims = pairwise_cosine(big, max_elements=None)
        assert sims.shape == (100, 100)


class TestBatchTopK:
    def test_shapes(self, features):
        indices, sims = batch_top_k(features, np.array([0, 2]), k=2)
        assert indices.shape == (2, 2)
        assert sims.shape == (2, 2)

    def test_matches_single(self, features):
        indices, _ = batch_top_k(features, np.array([0]), k=3)
        single, _ = top_k_similar(features, 0, k=3)
        assert np.array_equal(indices[0], single)

    def test_self_excluded_per_query(self, features):
        indices, _ = batch_top_k(features, np.arange(5), k=3)
        for row in range(5):
            assert row not in indices[row]

    def test_bad_query_node_rejected(self, features):
        with pytest.raises(IndexError):
            batch_top_k(features, np.array([0, 99]), k=2)

    def test_small_tile_size_consistent(self, features):
        direct, _ = batch_top_k(features, np.arange(5), k=2)
        tiled, _ = batch_top_k(features, np.arange(5), k=2, tile_size=2)
        assert np.array_equal(direct, tiled)


class TestNormalizedInputs:
    """`assume_normalized=True` skips re-normalization without changing results."""

    def test_top_k_matches(self, features):
        normalized = normalize_rows(features)
        default_ids, default_sims = top_k_similar(features, 0, k=3)
        fast_ids, fast_sims = top_k_similar(normalized, 0, k=3, assume_normalized=True)
        assert np.array_equal(default_ids, fast_ids)
        assert np.allclose(default_sims, fast_sims)

    def test_batch_matches(self, features):
        normalized = normalize_rows(features)
        default_ids, _ = batch_top_k(features, np.arange(4), k=2)
        fast_ids, _ = batch_top_k(
            normalized, np.arange(4), k=2, assume_normalized=True
        )
        assert np.array_equal(default_ids, fast_ids)

    def test_normalize_rows_unit_norm(self, features):
        norms = np.linalg.norm(normalize_rows(features), axis=1)
        assert np.allclose(norms, 1.0)

    def test_normalize_rows_zero_row(self):
        normalized = normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.array_equal(normalized[0], [0.0, 0.0])


class TestExactTopK:
    """The vector-query engine shared with the serving backends."""

    def test_single_vector_query(self, features):
        normalized = normalize_rows(features)
        ids, sims = exact_top_k(normalized, normalized[0], 2, assume_normalized=True)
        assert ids[0] == 0  # no exclusion: self comes back first
        assert sims[0] == pytest.approx(1.0)

    def test_exclusion_masks_one_row_per_query(self, features):
        normalized = normalize_rows(features)
        ids, _ = exact_top_k(
            normalized,
            normalized[:3],
            3,
            assume_normalized=True,
            exclude=np.array([0, 1, 2]),
        )
        for row in range(3):
            assert row not in ids[row]

    def test_unnormalized_inputs_normalized(self, features):
        ids, sims = exact_top_k(features, features[0] * 7.0, 2)
        assert ids[0] == 0
        assert sims[0] == pytest.approx(1.0)

    def test_bad_k_rejected(self, features):
        with pytest.raises(ValueError):
            exact_top_k(features, features[0], 0)

    def test_bad_exclude_shape_rejected(self, features):
        with pytest.raises(ValueError):
            exact_top_k(features, features[:2], 2, exclude=np.array([0]))

    def test_exclude_minus_one_keeps_full_population(self, features):
        """``exclude=-1`` means no exclusion: all n results stay reachable."""
        n = features.shape[0]
        normalized = normalize_rows(features)
        ids, sims = exact_top_k(
            normalized, normalized[0], n, assume_normalized=True,
            exclude=np.array([-1]),
        )
        assert sorted(ids) == list(range(n))
        assert np.all(np.isfinite(sims))

    def test_mixed_exclude_pads_excluded_row_only(self, features):
        """k = n with exclude [-1, 3]: row 0 is full, row 1 pads its tail."""
        n = features.shape[0]
        normalized = normalize_rows(features)
        ids, sims = exact_top_k(
            normalized, normalized[:2], n, assume_normalized=True,
            exclude=np.array([-1, 3]),
        )
        assert sorted(ids[0]) == list(range(n))
        assert ids[1, -1] == -1 and sims[1, -1] == -np.inf
        assert 3 not in ids[1]
        assert sorted(ids[1, :-1]) == sorted(set(range(n)) - {3})

    def test_tile_size_must_be_positive(self, features):
        for tile_size in (0, -3):
            with pytest.raises(ValueError, match="tile_size"):
                exact_top_k(features, features[:2], 2, tile_size=tile_size)
            with pytest.raises(ValueError, match="tile_size"):
                batch_top_k(features, np.arange(2), k=2, tile_size=tile_size)

    def test_nan_corpus_row_raises_instead_of_borrowing_an_answer(self):
        """A NaN row leaves query 0's band one candidate short; reading
        ``k`` from it used to return the zero query's row 0 as query 0's
        third answer, with no error."""
        corpus = normalize_rows(np.random.default_rng(0).standard_normal((500, 8)))
        queries = np.vstack([corpus[0], np.zeros(8)])
        ids, _ = exact_top_k(corpus, queries, 3, assume_normalized=True)
        assert list(ids[0]) == [0, 136, 44]
        corpus[7] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            exact_top_k(corpus, queries, 3, assume_normalized=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, features, value):
        query = normalize_rows(features)[0].copy()
        query[1] = value
        with pytest.raises(ValueError, match="queries must be finite"):
            exact_top_k(normalize_rows(features), query, 2, assume_normalized=True)

    def test_selection_reads_no_full_row_partition_and_no_2d_nonzero(
        self, monkeypatch
    ):
        """One query's band is found from the strided group maxima and read
        by flat index: no partition spans the row, and no ``q × m`` mask is
        split into coordinates by ``np.nonzero``."""
        n, k = 20_000, 10
        rng = np.random.default_rng(3)
        corpus = normalize_rows(rng.standard_normal((n, 16)))
        query = normalize_rows(rng.standard_normal((1, 16)))[0]
        widths, nonzero_dims = [], []
        partition, nonzero = np.partition, np.nonzero

        def spy_partition(a, *args, **kwargs):
            widths.append(np.shape(a)[-1])
            return partition(a, *args, **kwargs)

        def spy_nonzero(a):
            nonzero_dims.append(np.ndim(a))
            return nonzero(a)

        monkeypatch.setattr(np, "partition", spy_partition)
        monkeypatch.setattr(np, "nonzero", spy_nonzero)
        ids, _ = exact_top_k(corpus, query, k, assume_normalized=True)
        monkeypatch.undo()
        assert list(ids) == list(np.lexsort((np.arange(n), -(corpus @ query)))[:k])
        assert widths and max(widths) <= n // 8
        assert nonzero_dims and max(nonzero_dims) == 1


class TestFloat32Selection:
    """Selection over a float32 copy, canonical rescore from the float64 rows.

    The serving backend's engine: bit-identical to the float64 engine
    because every row that can still rank sits in the certified band.
    """

    def _corpus(self, n=4096, dim=32, seed=0):
        rng = np.random.default_rng(seed)
        return normalize_rows(rng.standard_normal((n, dim)))

    @staticmethod
    def _float32(feats, queries, k, **kwargs):
        return exact_top_k(
            feats.astype(np.float32), queries, k,
            assume_normalized=True, rows=feats, **kwargs,
        )

    def test_batch_bit_identical_to_float64(self):
        feats = self._corpus()
        queries = feats[:64]
        exclude = np.arange(64)
        ids64, s64 = exact_top_k(
            feats, queries, 10, assume_normalized=True, exclude=exclude
        )
        ids32, s32 = self._float32(feats, queries, 10, exclude=exclude)
        assert np.array_equal(ids64, ids32)
        assert s64.tobytes() == s32.tobytes()

    def test_single_query_bit_identical(self):
        feats = self._corpus(n=512, dim=16, seed=1)
        for node in (0, 100, 511):
            a = exact_top_k(
                feats, feats[node], 5, assume_normalized=True,
                exclude=np.array([node]),
            )
            b = self._float32(feats, feats[node], 5, exclude=np.array([node]))
            assert np.array_equal(a[0], b[0])
            assert a[1].tobytes() == b[1].tobytes()

    def test_duplicate_rows_tie_identically(self):
        """Exact ties (duplicate rows) must break by ascending id in both
        paths — the straddle case that once broke sharded bit-identity."""
        base = self._corpus(n=16, dim=8, seed=2)
        feats = np.tile(base, (4, 1))  # every row appears 4x
        a = exact_top_k(feats, feats[:8], 9, assume_normalized=True)
        b = self._float32(feats, feats[:8], 9)
        assert np.array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()

    def test_k_equals_n_with_exclusion_pads(self):
        feats = self._corpus(n=6, dim=4, seed=3)
        a = exact_top_k(
            feats, feats[:2], 6, assume_normalized=True, exclude=np.array([0, -1])
        )
        b = self._float32(feats, feats[:2], 6, exclude=np.array([0, -1]))
        assert np.array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()
        assert a[0][0, -1] == -1 and a[1][0, -1] == -np.inf

    def test_precomputed_select_features(self, tmp_path):
        """The backend's resident copy is the float32 cast, whether cast
        from an array or derived chunk by chunk from a store's Xf / Xb."""
        from repro.serving.index import ExactBackend
        from repro.serving.store import EmbeddingStore, RowReader, SearchRows
        from repro.serving.synth import synthetic_embedding

        feats = self._corpus(n=256, dim=8, seed=4)
        in_memory = ExactBackend(feats)
        assert in_memory.features is feats
        assert np.array_equal(in_memory.select, feats.astype(np.float32))

        store = EmbeddingStore(tmp_path / "store")
        store.publish(synthetic_embedding(300, 8, seed=4))
        mapped = np.asarray(store.open().features)
        backend = ExactBackend(store.open().features)
        assert isinstance(backend.features, SearchRows)
        assert all(isinstance(half, RowReader) for half in backend.features._halves)
        assert np.array_equal(backend.select, mapped.astype(np.float32))
        assert np.array_equal(
            backend.features[[5, 2, 5, 299]], mapped[[5, 2, 5, 299]]
        )
        assert np.array_equal(backend.features[7], mapped[7])
        a = backend.search(mapped[:4], 7, exclude=np.arange(4))
        b = exact_top_k(mapped, mapped[:4], 7, assume_normalized=True,
                        exclude=np.arange(4))
        assert np.array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()

    def test_select_features_shape_mismatch_rejected(self):
        feats = self._corpus(n=64, dim=8, seed=5)
        with pytest.raises(ValueError):
            exact_top_k(
                feats.astype(np.float32), feats[0], 3, assume_normalized=True,
                rows=np.zeros((3, 8)),
            )
        with pytest.raises(ValueError):  # rows are read as given: unit rows
            exact_top_k(feats, feats[0], 3, rows=feats)

    def test_unknown_select_dtype_rejected(self):
        """The band is certified for float32 and float64 selection only."""
        feats = self._corpus(n=8, dim=4, seed=6)
        with pytest.raises(ValueError):
            exact_top_k(
                feats.astype(np.float16), feats[0], 2, assume_normalized=True,
                rows=feats,
            )

    def test_default_unchanged(self, canonical_scores):
        """The float64 path equals a full canonical ranking."""
        feats = self._corpus(n=128, dim=8, seed=7)
        ids, scores = exact_top_k(feats, feats[:4], 5, assume_normalized=True)
        everyone = np.arange(128)
        for row in range(4):
            full = canonical_scores(feats, everyone, feats[row])
            order = np.lexsort((everyone, -full))[:5]
            assert np.array_equal(ids[row], order)
            assert scores[row].tobytes() == full[order].tobytes()

    def test_backend_and_service_opt_in(self):
        """No opt-in is left: the exact backend *is* float32 selection."""
        from repro.serving.index import ExactBackend, make_backend

        feats = self._corpus(n=300, dim=8, seed=8)
        backend = make_backend(feats, "exact")
        assert isinstance(backend, ExactBackend)
        assert backend.resident_bytes == feats.size * 4
        a = exact_top_k(
            feats, feats[:6], 9, assume_normalized=True, exclude=np.arange(6)
        )
        b = backend.search(feats[:6], 9, exclude=np.arange(6))
        assert np.array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()
        with pytest.raises(TypeError):
            make_backend(feats, "exact", select_dtype="float32")

    def test_backend_rejects_unknown_dtype(self):
        from repro.serving.index import ExactBackend

        with pytest.raises(ValueError):
            ExactBackend(self._corpus(n=8, dim=4).astype(np.float32))
