"""Tests for product quantization: codec, flat PQ, and IVF-PQ backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.index import ExactBackend, make_backend
from repro.serving.sharding.pq import IVFPQBackend, PQBackend, PQCodec


def _recall(truth_ids: np.ndarray, test_ids: np.ndarray) -> float:
    hits = sum(
        np.intersect1d(truth_ids[row], test_ids[row]).shape[0]
        for row in range(truth_ids.shape[0])
    )
    return hits / truth_ids.size


@pytest.fixture(scope="module")
def dataset():
    from repro.serving.synth import clustered_unit_vectors

    features = clustered_unit_vectors(3000, 32, 48, seed=7)
    rng = np.random.default_rng(11)
    query_nodes = np.sort(rng.choice(3000, size=96, replace=False))
    return features, query_nodes


class TestPQCodec:
    def test_encode_shapes_and_dtype(self, dataset):
        features, _ = dataset
        codec = PQCodec.fit(features, n_subspaces=4, seed=0)
        codes = codec.encode(features)
        assert codes.shape == (3000, 4)
        assert codes.dtype == np.uint8
        assert codec.ksub == 256
        assert codec.dim == 32

    def test_decode_round_trip_shape(self, dataset):
        features, _ = dataset
        codec = PQCodec.fit(features, n_subspaces=4, seed=0)
        decoded = codec.decode(codec.encode(features[:10]))
        assert decoded.shape == (10, 32)

    def test_reconstruction_error_is_small_on_clustered_data(self, dataset):
        features, _ = dataset
        codec = PQCodec.fit(features, n_subspaces=4, seed=0)
        error = codec.reconstruction_error(features)
        # Unit rows: squared norm is 1, so MSE ≪ 1 means the codebooks
        # capture most of the energy.
        assert error < 0.05

    def test_more_subspaces_reduce_error(self, dataset):
        features, _ = dataset
        coarse = PQCodec.fit(features, n_subspaces=2, seed=0)
        fine = PQCodec.fit(features, n_subspaces=8, seed=0)
        assert fine.reconstruction_error(features) < coarse.reconstruction_error(
            features
        )

    def test_adc_tables_match_decoded_inner_products(self, dataset):
        features, _ = dataset
        codec = PQCodec.fit(features, n_subspaces=4, seed=0)
        codes = codec.encode(features[:50])
        query = features[123]
        tables = codec.adc_tables(query)
        adc = np.zeros(50)
        for j, table in enumerate(tables):
            adc += table[0][codes[:, j]]
        want = codec.decode(codes) @ query
        assert np.allclose(adc, want)

    def test_uneven_subspace_split(self, dataset):
        features, _ = dataset
        codec = PQCodec.fit(features, n_subspaces=5, seed=0)  # 32 = 7+7+6+6+6
        assert codec.n_subspaces == 5
        assert int(codec.boundaries[-1]) == 32
        codes = codec.encode(features[:8])
        assert codec.decode(codes).shape == (8, 32)

    def test_save_load_round_trip(self, dataset):
        features, _ = dataset
        codec = PQCodec.fit(features, n_subspaces=4, n_bits=6, seed=0)
        again = PQCodec.from_arrays(codec.save_arrays())
        assert again.n_bits == 6
        assert again.ksub == 64
        assert np.array_equal(again.encode(features[:20]), codec.encode(features[:20]))

    def test_rejects_bad_bits(self, dataset):
        features, _ = dataset
        with pytest.raises(ValueError, match="n_bits"):
            PQCodec.fit(features, n_bits=9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            PQCodec.fit(np.empty((0, 8)))


class TestPQBackend:
    def test_recall_floor_with_rescoring(self, dataset):
        """The acceptance-shaped property at test scale: recall@10 ≥ 0.9."""
        features, query_nodes = dataset
        queries = np.ascontiguousarray(features[query_nodes])
        truth_ids, _ = ExactBackend(features).search(
            queries, 10, exclude=query_nodes
        )
        backend = PQBackend(features, PQCodec.fit(features, n_subspaces=4, seed=0))
        got_ids, _ = backend.search(queries, 10, exclude=query_nodes)
        assert _recall(truth_ids, got_ids) >= 0.9

    def test_compression_ratio_floor(self, dataset):
        features, _ = dataset
        backend = PQBackend(features, PQCodec.fit(features, n_subspaces=4, seed=0))
        info = backend.memory_info()
        assert info["compression_ratio"] >= 8.0
        assert info["code_bytes"] == 3000 * 4
        assert info["float_bytes"] == 3000 * 32 * 8

    def test_rescored_scores_are_canonical(self, dataset):
        """Recalled rows carry the exact engine's bits, not ADC estimates."""
        features, query_nodes = dataset
        queries = np.ascontiguousarray(features[query_nodes[:8]])
        exclude = query_nodes[:8]
        truth_ids, truth_scores = ExactBackend(features).search(
            queries, 10, exclude=exclude
        )
        backend = PQBackend(features, PQCodec.fit(features, n_subspaces=4, seed=0))
        got_ids, got_scores = backend.search(queries, 10, exclude=exclude)
        for row in range(8):
            common, truth_pos, got_pos = np.intersect1d(
                truth_ids[row], got_ids[row], return_indices=True
            )
            assert common.size > 0
            assert np.array_equal(
                truth_scores[row][truth_pos], got_scores[row][got_pos]
            )

    def test_exclude_is_respected(self, dataset):
        features, _ = dataset
        backend = PQBackend(features, PQCodec.fit(features, n_subspaces=4, seed=0))
        ids, _ = backend.search(
            features[:4], 5, exclude=np.arange(4, dtype=np.intp)
        )
        for row in range(4):
            assert row not in ids[row]

    def test_single_query_shape(self, dataset):
        features, _ = dataset
        backend = PQBackend(features, PQCodec.fit(features, n_subspaces=4, seed=0))
        ids, scores = backend.search(features[0], 5)
        assert ids.shape == (5,)
        assert scores.shape == (5,)

    def test_save_load_round_trip(self, dataset):
        features, query_nodes = dataset
        backend = PQBackend(features, PQCodec.fit(features, n_subspaces=4, seed=0))
        again = PQBackend.from_arrays(features, backend.save_arrays())
        queries = np.ascontiguousarray(features[query_nodes[:6]])
        a = backend.search(queries, 8)
        b = again.search(queries, 8)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_from_arrays_rejects_mismatched_rows(self, dataset):
        features, _ = dataset
        backend = PQBackend(features, PQCodec.fit(features, n_subspaces=4, seed=0))
        with pytest.raises(ValueError, match="saved codes"):
            PQBackend.from_arrays(features[:100], backend.save_arrays())

    def test_rescore_factor_trades_recall(self, dataset):
        features, query_nodes = dataset
        queries = np.ascontiguousarray(features[query_nodes])
        truth_ids, _ = ExactBackend(features).search(queries, 10, exclude=query_nodes)
        codec = PQCodec.fit(features, n_subspaces=2, seed=0)  # coarse on purpose
        # Pin min_rescore down so the knob under test drives the shortlist.
        narrow = PQBackend(features, codec, rescore_factor=1, min_rescore=1)
        wide = PQBackend(features, codec, rescore_factor=16, min_rescore=1)
        recall_narrow = _recall(truth_ids, narrow.search(queries, 10, exclude=query_nodes)[0])
        recall_wide = _recall(truth_ids, wide.search(queries, 10, exclude=query_nodes)[0])
        assert recall_wide >= recall_narrow

    def test_min_rescore_floor_recovers_clustered_recall(self, dataset):
        """The shortlist floor covers a whole cluster when rf*k cannot."""
        features, query_nodes = dataset
        queries = np.ascontiguousarray(features[query_nodes])
        truth_ids, _ = ExactBackend(features).search(queries, 10, exclude=query_nodes)
        codec = PQCodec.fit(features, n_subspaces=2, seed=0)
        starved = PQBackend(features, codec, rescore_factor=1, min_rescore=1)
        floored = PQBackend(features, codec, rescore_factor=1, min_rescore=512)
        recall_starved = _recall(
            truth_ids, starved.search(queries, 10, exclude=query_nodes)[0]
        )
        recall_floored = _recall(
            truth_ids, floored.search(queries, 10, exclude=query_nodes)[0]
        )
        assert recall_floored >= recall_starved
        assert recall_floored >= 0.9


class TestIVFPQBackend:
    def test_recall_floor(self, dataset):
        features, query_nodes = dataset
        queries = np.ascontiguousarray(features[query_nodes])
        truth_ids, _ = ExactBackend(features).search(queries, 10, exclude=query_nodes)
        backend = IVFPQBackend(
            features,
            PQCodec.fit(features, n_subspaces=4, seed=0),
            nlist=32,
            nprobe=16,
            seed=0,
        )
        got_ids, _ = backend.search(queries, 10, exclude=query_nodes)
        assert _recall(truth_ids, got_ids) >= 0.9

    def test_nprobe_knob_widens_recall(self, dataset):
        features, query_nodes = dataset
        queries = np.ascontiguousarray(features[query_nodes])
        truth_ids, _ = ExactBackend(features).search(queries, 10, exclude=query_nodes)
        backend = IVFPQBackend(
            features,
            PQCodec.fit(features, n_subspaces=4, seed=0),
            nlist=32,
            nprobe=1,
            seed=0,
        )
        low = _recall(truth_ids, backend.search(queries, 10, exclude=query_nodes)[0])
        high = _recall(
            truth_ids,
            backend.search(queries, 10, exclude=query_nodes, nprobe=32)[0],
        )
        assert high >= low
        assert high >= 0.9

    def test_tie_order_matches_exact_engine(self):
        """Equal scores order by ascending id, like the exact engine —
        triplicated rows are bit-equal so every backend sees exact ties."""
        rng = np.random.default_rng(3)
        distinct = rng.standard_normal((20, 8))
        distinct /= np.linalg.norm(distinct, axis=1, keepdims=True)
        features = np.ascontiguousarray(np.tile(distinct, (3, 1)))
        codec = PQCodec.fit(features, n_subspaces=4, seed=0)
        truth_ids, truth_scores = ExactBackend(features).search(features[0], 9)
        for backend in (
            PQBackend(features, codec),
            IVFPQBackend(features, codec, nlist=4, nprobe=4, seed=0),
        ):
            ids, scores = backend.search(features[0], 9)
            assert np.array_equal(ids, truth_ids), type(backend).__name__
            assert np.array_equal(scores, truth_scores), type(backend).__name__

    def test_refresh_keeps_codec_and_quantizer(self, dataset):
        features, _ = dataset
        codec = PQCodec.fit(features, n_subspaces=4, seed=0)
        flat = PQBackend(features, codec)
        refreshed = flat.refresh(features)
        assert isinstance(refreshed, PQBackend)
        assert refreshed.codec is codec
        assert np.array_equal(refreshed.codes, flat.codes)
        ivfpq = IVFPQBackend(features, codec, nlist=16, nprobe=4, seed=0)
        refreshed = ivfpq.refresh(features)
        assert isinstance(refreshed, IVFPQBackend)
        assert refreshed.centroids is ivfpq.centroids
        with pytest.raises(ValueError, match="full rebuild"):
            flat.refresh(features[:10])

    def test_save_load_round_trip(self, dataset):
        features, query_nodes = dataset
        backend = IVFPQBackend(
            features,
            PQCodec.fit(features, n_subspaces=4, seed=0),
            nlist=16,
            nprobe=4,
            seed=0,
        )
        again = IVFPQBackend.from_arrays(features, backend.save_arrays())
        assert again.nlist == 16
        assert again.nprobe == 4
        queries = np.ascontiguousarray(features[query_nodes[:6]])
        a = backend.search(queries, 8)
        b = again.search(queries, 8)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestFactoryAndPersistence:
    def test_make_backend_pq_kinds(self, dataset):
        features, _ = dataset
        assert isinstance(
            make_backend(features, "pq", pq_subspaces=4), PQBackend
        )
        assert isinstance(
            make_backend(features, "ivfpq", nlist=16, pq_subspaces=4),
            IVFPQBackend,
        )

    def test_store_persists_and_loads_pq(self, store):
        stored = store.open()
        backend = PQBackend(
            stored.features, PQCodec.fit(stored.features, n_subspaces=4, seed=0)
        )
        path = store.save_index(stored.version, backend)
        assert path is not None and path.is_file()
        loaded = store.load_index(stored.version, "pq", stored.features)
        assert isinstance(loaded, PQBackend)
        a = backend.search(np.asarray(stored.features[:5]), 4)
        b = loaded.search(np.asarray(stored.features[:5]), 4)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_store_load_missing_index_returns_none(self, store):
        stored = store.open()
        assert store.load_index(stored.version, "pq", stored.features) is None

    def test_service_index_cache_skips_retraining(self, store, monkeypatch):
        from repro.serving.service import QueryService, SearchRequest

        with QueryService(
            store, backend="pq", pq_subspaces=4, index_cache=True
        ) as service:
            first = service.search(SearchRequest(node=0, k=5))
        # Second service must load the artifact, not refit the codec.
        import repro.serving.sharding.pq as pq_module

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("codec was refit despite a persisted artifact")

        monkeypatch.setattr(pq_module.PQCodec, "fit", boom)
        with QueryService(
            store, backend="pq", pq_subspaces=4, index_cache=True
        ) as service:
            again = service.search(SearchRequest(node=0, k=5))
        assert np.array_equal(first.ids, again.ids)
        assert np.array_equal(first.scores, again.scores)
