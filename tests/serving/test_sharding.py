"""Tests for the sharded store, partitioner, and scatter-gather router."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.pool import WorkerPool
from repro.serving.index import ExactBackend, IVFIndex
from repro.serving.service import QueryService, SearchRequest
from repro.serving.sharding import (
    Partitioner,
    ShardedEmbeddingStore,
    ShardRouter,
)
from repro.serving.store import EmbeddingStore


def _shard_backends(features: np.ndarray, partitioner: Partitioner):
    return [
        ExactBackend(np.ascontiguousarray(features[partitioner.shard_members(s)]))
        for s in range(partitioner.n_shards)
    ]


class TestPartitioner:
    @pytest.mark.parametrize("kind", ["range", "hash"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_members_partition_the_ids(self, kind, n_shards):
        partitioner = Partitioner.build(kind, n_shards, 53)
        members = [partitioner.shard_members(s) for s in range(n_shards)]
        assert sum(m.shape[0] for m in members) == 53
        assert np.array_equal(
            np.sort(np.concatenate(members)), np.arange(53)
        )
        for shard, m in enumerate(members):
            assert m.shape[0] == partitioner.shard_size(shard)

    @pytest.mark.parametrize("kind", ["range", "hash"])
    def test_round_trip_global_local_global(self, kind):
        partitioner = Partitioner.build(kind, 4, 101)
        ids = np.arange(101)
        shards, locals_ = partitioner.shard_and_local(ids)
        for shard in range(4):
            mask = shards == shard
            back = partitioner.to_global(shard, locals_[mask])
            assert np.array_equal(back, ids[mask])

    def test_manifest_round_trip(self):
        partitioner = Partitioner.build("range", 3, 10)
        again = Partitioner.from_manifest(partitioner.to_manifest())
        assert again == partitioner

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="range/hash"):
            Partitioner.build("modulo", 2, 10)


class TestShardedStore:
    @pytest.mark.parametrize("kind", ["range", "hash"])
    def test_publish_open_round_trip(self, tmp_path, trained_embedding, kind):
        store = ShardedEmbeddingStore(
            tmp_path / "s", n_shards=3, partition=kind
        )
        version = store.publish(trained_embedding)
        assert version == "v00000001"
        stored = store.open()
        assert stored.n_nodes == trained_embedding.n_nodes
        assert stored.n_shards == 3
        assert sum(seg.n_nodes for seg in stored.shards) == stored.n_nodes

    def test_gather_views_match_plain_store(self, tmp_path, trained_embedding):
        plain = EmbeddingStore(tmp_path / "plain")
        plain.publish(trained_embedding)
        reference = plain.open()
        store = ShardedEmbeddingStore(tmp_path / "s", n_shards=3, partition="hash")
        store.publish(trained_embedding)
        stored = store.open()
        ids = np.array([0, 17, 61, 119, 5])
        for name in ("features", "x_forward", "x_backward"):
            want = np.asarray(getattr(reference, name)[ids])
            assert np.array_equal(getattr(stored, name)[ids], want)
            single = np.asarray(getattr(reference, name)[61])
            assert np.array_equal(getattr(stored, name)[61], single)
        assert np.array_equal(np.asarray(stored.y), np.asarray(reference.y))

    def test_virtual_matmul_scatters_to_global_order(
        self, tmp_path, trained_embedding
    ):
        store = ShardedEmbeddingStore(tmp_path / "s", n_shards=4, partition="hash")
        store.publish(trained_embedding)
        stored = store.open()
        y_row = np.asarray(stored.y[3], dtype=np.float64)
        got = stored.x_forward @ y_row
        want = trained_embedding.x_forward @ y_row
        assert np.allclose(got, want)

    def test_latest_rollback_and_versions(self, tmp_path, trained_embedding):
        store = ShardedEmbeddingStore(tmp_path / "s", n_shards=2)
        v1 = store.publish(trained_embedding)
        v2 = store.publish(trained_embedding)
        assert store.versions() == [v1, v2]
        assert store.latest() == v2
        assert store.rollback() == v1
        assert store.latest() == v1
        with pytest.raises(ValueError, match="oldest"):
            store.rollback()

    def test_manifest_names_segment_versions(self, tmp_path, trained_embedding):
        store = ShardedEmbeddingStore(tmp_path / "s", n_shards=2)
        version = store.publish(trained_embedding)
        manifest = store.manifest(version)
        assert [entry["shard"] for entry in manifest["shards"]] == [0, 1]
        for entry in manifest["shards"]:
            segment = store.segment_store(entry["shard"])
            assert entry["version"] in segment.versions()

    def test_is_sharded_root_detection(self, tmp_path, trained_embedding):
        store = ShardedEmbeddingStore(tmp_path / "s", n_shards=2)
        plain = EmbeddingStore(tmp_path / "plain")
        assert ShardedEmbeddingStore.is_sharded_root(store.root)
        assert not ShardedEmbeddingStore.is_sharded_root(plain.root)

    def test_reopen_uses_recorded_layout(self, tmp_path, trained_embedding):
        ShardedEmbeddingStore(tmp_path / "s", n_shards=3, partition="hash")
        again = ShardedEmbeddingStore(tmp_path / "s")
        assert again.n_shards == 3
        assert again.partition == "hash"

    def test_reopen_with_conflicting_shards_raises(self, tmp_path):
        ShardedEmbeddingStore(tmp_path / "s", n_shards=3)
        with pytest.raises(ValueError, match="cannot reopen"):
            ShardedEmbeddingStore(tmp_path / "s", n_shards=5)

    def test_open_missing_version_raises(self, tmp_path, trained_embedding):
        store = ShardedEmbeddingStore(tmp_path / "s", n_shards=2)
        with pytest.raises(FileNotFoundError):
            store.open()
        store.publish(trained_embedding)
        with pytest.raises(FileNotFoundError):
            store.open("v00000099")

    def test_partial_manifest_never_published(self, tmp_path, trained_embedding):
        """Segment versions land before the logical manifest names them."""
        store = ShardedEmbeddingStore(tmp_path / "s", n_shards=2)
        version = store.publish(trained_embedding)
        manifest = store.manifest(version)
        # Every segment version the manifest names must be openable.
        for entry in manifest["shards"]:
            stored = store.segment_store(entry["shard"]).open(entry["version"])
            assert stored.n_nodes == entry["n_nodes"]

    def test_concurrent_version_name_claim(self, tmp_path, trained_embedding):
        """A clashing logical version file pushes publish to the next id."""
        store = ShardedEmbeddingStore(tmp_path / "s", n_shards=2)
        v1 = store.publish(trained_embedding)
        # Simulate a concurrent publisher claiming v00000002 already.
        squatter = store.root / "versions" / "v00000002.json"
        squatter.write_text(json.dumps({"squatter": True}))
        v2 = store.publish(trained_embedding)
        assert v2 == "v00000003"
        assert json.loads(squatter.read_text()) == {"squatter": True}
        assert store.latest() == v2
        assert v1 == "v00000001"


class TestShardRouterBitIdentity:
    """The acceptance property: sharded exact == unsharded exact, bitwise."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 400),
        dim=st.integers(2, 48),
        n_shards=st.integers(1, 8),
        k=st.integers(1, 16),
        kind=st.sampled_from(["range", "hash"]),
        with_exclude=st.booleans(),
    )
    def test_router_equals_unsharded_exact(
        self, seed, n, dim, n_shards, k, kind, with_exclude
    ):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, dim))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        n_queries = int(rng.integers(1, 9))
        query_nodes = rng.choice(n, size=min(n_queries, n), replace=False)
        queries = np.ascontiguousarray(features[query_nodes])
        exclude = query_nodes if with_exclude else None

        truth_ids, truth_scores = ExactBackend(features).search(
            queries, k, exclude=exclude
        )
        partitioner = Partitioner.build(kind, n_shards, n)
        router = ShardRouter(_shard_backends(features, partitioner), partitioner)
        got_ids, got_scores = router.search(queries, k, exclude=exclude)

        assert np.array_equal(got_ids, truth_ids)
        assert np.array_equal(got_scores, truth_scores)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_distinct=st.integers(2, 40),
        copies=st.integers(2, 6),
        n_shards=st.integers(1, 6),
        k=st.integers(1, 24),
        kind=st.sampled_from(["range", "hash"]),
    )
    def test_bit_identity_with_duplicate_rows(
        self, seed, n_distinct, copies, n_shards, k, kind
    ):
        """Exact score ties straddling the selection boundary must resolve
        identically (ascending id) in sharded and unsharded search —
        duplicate rows are the realistic tie source (e.g. zero-feature
        isolated nodes all normalize to the same row)."""
        rng = np.random.default_rng(seed)
        distinct = rng.standard_normal((n_distinct, 8))
        distinct /= np.linalg.norm(distinct, axis=1, keepdims=True)
        features = np.ascontiguousarray(
            distinct[rng.integers(n_distinct, size=n_distinct * copies)]
        )
        n = features.shape[0]
        queries = np.ascontiguousarray(features[: min(4, n)])
        truth_ids, truth_scores = ExactBackend(features).search(queries, k)
        partitioner = Partitioner.build(kind, n_shards, n)
        router = ShardRouter(_shard_backends(features, partitioner), partitioner)
        got_ids, got_scores = router.search(queries, k)
        assert np.array_equal(got_ids, truth_ids)
        assert np.array_equal(got_scores, truth_scores)

    def test_bit_identity_on_clustered_data_with_pool(
        self, clustered_unit_vectors
    ):
        features = clustered_unit_vectors(4096, 32, 64, seed=5)
        query_nodes = np.arange(0, 4096, 37)
        queries = np.ascontiguousarray(features[query_nodes])
        truth = ExactBackend(features).search(queries, 10, exclude=query_nodes)
        partitioner = Partitioner.build("range", 5, 4096)
        with WorkerPool(3) as pool:
            router = ShardRouter(
                _shard_backends(features, partitioner), partitioner, pool=pool
            )
            got = router.search(queries, 10, exclude=query_nodes)
        assert np.array_equal(got[0], truth[0])
        assert np.array_equal(got[1], truth[1])

    def test_single_query_vector_shape(self, clustered_unit_vectors):
        features = clustered_unit_vectors(200, 16, 8, seed=1)
        partitioner = Partitioner.build("hash", 3, 200)
        router = ShardRouter(_shard_backends(features, partitioner), partitioner)
        ids, scores = router.search(features[0], 5)
        assert ids.shape == (5,) and scores.shape == (5,)
        truth = ExactBackend(features).search(features[0], 5)
        assert np.array_equal(ids, truth[0])
        assert np.array_equal(scores, truth[1])

    def test_k_larger_than_corpus_pads_like_exact(self, clustered_unit_vectors):
        features = clustered_unit_vectors(7, 8, 2, seed=2)
        partitioner = Partitioner.build("range", 3, 7)
        router = ShardRouter(_shard_backends(features, partitioner), partitioner)
        ids, scores = router.search(features[:2], 20, exclude=np.array([0, 1]))
        truth_ids, truth_scores = ExactBackend(features).search(
            features[:2], 20, exclude=np.array([0, 1])
        )
        assert np.array_equal(ids, truth_ids)
        assert np.array_equal(scores, truth_scores)

    def test_mismatched_backend_count_raises(self, clustered_unit_vectors):
        features = clustered_unit_vectors(64, 8, 4, seed=0)
        partitioner = Partitioner.build("range", 2, 64)
        with pytest.raises(ValueError, match="backends"):
            ShardRouter([ExactBackend(features)], partitioner)

    def test_ivf_shards_accept_nprobe(self, clustered_unit_vectors):
        features = clustered_unit_vectors(600, 16, 16, seed=3)
        partitioner = Partitioner.build("range", 2, 600)
        backends = [
            IVFIndex(
                np.ascontiguousarray(features[partitioner.shard_members(s)]),
                nlist=8,
                nprobe=2,
                seed=0,
            )
            for s in range(2)
        ]
        router = ShardRouter(backends, partitioner)
        # nprobe >= nlist per shard delegates to exact → global exact.
        ids, scores = router.search(features[:4], 5, nprobe=8)
        truth = ExactBackend(features).search(features[:4], 5)
        assert np.array_equal(ids, truth[0])
        assert np.array_equal(scores, truth[1])

    def test_refresh_preserves_pq_shard_kind(self, tmp_path, trained_embedding):
        """Router refresh must keep PQ shards compressed, not downgrade
        them to full-precision exact backends."""
        from repro.serving.sharding.pq import PQBackend, PQCodec

        store = ShardedEmbeddingStore(tmp_path / "s", n_shards=2)
        store.publish(trained_embedding)
        stored = store.open()
        backends = [
            PQBackend(seg.features, PQCodec.fit(seg.features, n_subspaces=4, seed=0))
            for seg in stored.shards
        ]
        router = ShardRouter(backends, stored.partitioner)
        store.publish(trained_embedding)
        refreshed = router.refresh(store.open())
        for old, new in zip(backends, refreshed.backends):
            assert isinstance(new, PQBackend)
            assert new.codec is old.codec  # codebooks reused, not retrained

    def test_per_shard_stats_record_disjoint_streams(
        self, clustered_unit_vectors
    ):
        features = clustered_unit_vectors(100, 8, 4, seed=4)
        partitioner = Partitioner.build("range", 2, 100)
        router = ShardRouter(_shard_backends(features, partitioner), partitioner)
        router.search(features[:6], 3)
        router.search(features[0], 3)
        # One observation per shard per scatter, whatever the batch size.
        for shard in range(2):
            assert router.search_seconds.cell(shard=shard)["count"] == 2
        info = router.latency_info()
        assert info["searches"] == 4
        assert [entry["searches"] for entry in info["per_shard"]] == [2, 2]


class TestShardedService:
    """QueryService over a ShardedEmbeddingStore behaves like the plain one."""

    @pytest.fixture()
    def stores(self, tmp_path, trained_embedding):
        plain = EmbeddingStore(tmp_path / "plain")
        plain.publish(trained_embedding)
        sharded = ShardedEmbeddingStore(
            tmp_path / "sharded", n_shards=3, partition="hash"
        )
        sharded.publish(trained_embedding)
        return plain, sharded

    def test_top_k_and_batch_parity(self, stores):
        plain, sharded = stores
        with QueryService(plain, backend="exact") as reference, QueryService(
            sharded, backend="exact", n_threads=2
        ) as service:
            for node in (0, 7, 119):
                want = reference.search(SearchRequest(node=node, k=5))
                got = service.search(SearchRequest(node=node, k=5))
                assert np.array_equal(got.ids, want.ids)
                assert np.array_equal(got.scores, want.scores)
            want = reference.search(SearchRequest(nodes=[3, 50, 99], k=6))
            got = service.search(SearchRequest(nodes=[3, 50, 99], k=6))
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.scores, want.scores)

    def test_attribute_queries_parity(self, stores):
        plain, sharded = stores
        with QueryService(plain, backend="exact") as reference, QueryService(
            sharded, backend="exact"
        ) as service:
            want = reference.top_attributes(4, 5)
            got = service.top_attributes(4, 5)
            assert np.array_equal(got.ids, want.ids)
            want = reference.top_nodes_for_attribute(2, 5)
            got = service.top_nodes_for_attribute(2, 5)
            assert np.array_equal(got.ids, want.ids)

    def test_describe_reports_sharding_and_memory(self, stores):
        _, sharded = stores
        with QueryService(sharded, backend="exact") as service:
            service.search(SearchRequest(node=0, k=3))
            info = service.describe()
        assert info["backend"] == "ShardRouter"
        assert info["sharding"]["n_shards"] == 3
        assert info["sharding"]["partition"] == "hash"
        assert len(info["sharding"]["per_shard"]) == 3
        assert len(info["memory"]["per_shard_bytes"]) == 3
        assert info["memory"]["total_mapped_bytes"] > 0
        # The two memory views must agree: mapped_bytes counts every
        # replica of Y, like the per-shard sums do.
        assert info["memory"]["total_mapped_bytes"] == sum(
            info["memory"]["per_shard_bytes"]
        )
        # Shard latency counts per-shard searches: each uncached call is
        # scattered to all 3 shards and observed once per shard.
        assert info["sharding"]["latency"]["searches"] == 3 * info["latency"]["calls"]

    def test_version_swap_over_sharded_store(self, stores, trained_embedding):
        _, sharded = stores
        with QueryService(sharded, backend="exact") as service:
            assert service.version == "v00000001"
            series = service.backend.search_seconds
            service.search(SearchRequest(node=1, k=3))
            sharded.publish(trained_embedding)
            assert service.refresh_to_latest() == "v00000002"
            result = service.search(SearchRequest(node=0, k=3))
            assert result.version == "v00000002"
            # The new version's router keeps recording into the same
            # per-shard series: a swap must not reset (or orphan) it.
            assert service.backend.search_seconds is series
            assert series.cell(shard=0)["count"] == 2

    def test_out_of_range_node_raises(self, stores):
        _, sharded = stores
        with QueryService(sharded, backend="exact") as service:
            with pytest.raises(IndexError):
                service.search(SearchRequest(node=10_000, k=3))

    def test_sharded_index_cache_round_trip(self, stores):
        _, sharded = stores
        with QueryService(
            sharded, backend="ivf", nlist=4, index_cache=True
        ) as service:
            first = service.search(SearchRequest(node=1, k=4))
        stored = sharded.open()
        for entry in stored.manifest["shards"]:
            segment = sharded.segment_store(entry["shard"])
            assert segment.index_path(entry["version"], "ivf").is_file()
        with QueryService(
            sharded, backend="ivf", nlist=4, index_cache=True
        ) as service:
            again = service.search(SearchRequest(node=1, k=4))
        assert np.array_equal(first.ids, again.ids)
        assert np.array_equal(first.scores, again.scores)
