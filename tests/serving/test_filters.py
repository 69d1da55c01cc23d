"""Predicate-filtered search: NodeFilter, every backend, pinned identity.

Three layers of guarantees under test:

- :class:`NodeFilter` / :class:`CompiledFilter` semantics — validation,
  wire round-trip, stable keys, mask compilation with attribute and
  partition resolvers.
- Every backend honors a filter natively and, where the backend is
  exact-rescoring, matches the brute-force mask-then-rank reference
  bit for bit on the rows it returns.
- The **unfiltered path is bit-identical to the pre-filter engine**:
  the pinned SHA-256 hashes below were recorded on the repo state
  before filtered search existed, so any drift in the default path
  fails loudly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.search.knn import (
    CompiledFilter,
    FilterError,
    NodeFilter,
    exact_top_k,
    normalize_rows,
)
from repro.serving.index import ExactBackend
from repro.serving.sharding.router import Partitioner, ShardRouter

# Recorded before the filtered-search change (see module docstring):
# sha256(ids.int64.tobytes() + scores.f64.tobytes()) over the fixed
# corpus/queries/exclude below.
PINNED_EXACT = "c7112b365da4e7a335ac0d4ae56d2eae85d3addc6669cb8ade442de02b76740f"


def _pinned_corpus():
    rng = np.random.default_rng(20260808)
    features = normalize_rows(rng.standard_normal((512, 48)))
    features[100] = features[7]  # boundary-tie duplicates
    features[300] = features[7]
    queries = normalize_rows(rng.standard_normal((17, 48)))
    exclude = np.array(
        [-1, 3, 511, -1, 7, 100, 300, -1, 0, 1, 2, -1, -1, 42, 99, 100, -1],
        dtype=np.intp,
    )
    return features, queries, exclude


def _digest(ids, scores):
    return hashlib.sha256(
        np.asarray(ids).astype(np.int64).tobytes() + np.asarray(scores).tobytes()
    ).hexdigest()


def brute_force_filtered(canonical_scores, features, queries, k, mask, exclude=None):
    """Mask, rank every allowed row, tie-break ascending id.

    Scores come from ``canonical_scores`` (``tests/conftest.py``) — the
    fixed-order einsum every backend rescores with — so a passing
    comparison means *bit* equality, not just the same ranking.
    """
    n = features.shape[0]
    width = min(k, n)
    all_ids = np.arange(n)
    ids = np.empty((queries.shape[0], width), dtype=np.intp)
    out = np.empty((queries.shape[0], width), dtype=np.float64)
    for row in range(queries.shape[0]):
        full = canonical_scores(features, all_ids, queries[row])
        full = np.where(mask, full, -np.inf)
        if exclude is not None and exclude[row] >= 0:
            full[exclude[row]] = -np.inf
        order = np.lexsort((all_ids, -full))[:width]
        keep = full[order] > -np.inf
        ids[row] = np.where(keep, order, -1)
        out[row] = np.where(keep, full[order], -np.inf)
    return ids, out


class TestNodeFilter:
    def test_normalizes_and_sorts_id_sets(self):
        f = NodeFilter(allow=[5, 1, 5, 3], deny=(9, 2))
        assert f.allow.tolist() == [1, 3, 5]
        assert f.deny.tolist() == [2, 9]
        assert not f.is_noop

    def test_noop_detection(self):
        assert NodeFilter().is_noop
        assert not NodeFilter(allow=[1]).is_noop
        assert not NodeFilter(attributes=[(0, 0.5)]).is_noop
        assert not NodeFilter(partitions=[1]).is_noop

    def test_rejects_negative_and_non_integer_ids(self):
        with pytest.raises(ValueError):
            NodeFilter(allow=[-1])
        with pytest.raises(ValueError):
            NodeFilter(deny=[1.5])

    def test_key_is_stable_and_order_insensitive(self):
        a = NodeFilter(allow=[3, 1], deny=[7])
        b = NodeFilter(allow=[1, 3, 3], deny=[7])
        c = NodeFilter(allow=[1, 3], deny=[8])
        assert a.key() == b.key()
        assert a.key() != c.key()
        assert isinstance(a.key(), str)

    def test_json_round_trip(self):
        f = NodeFilter(
            allow=[1, 2], deny=[9], attributes=[(4, 0.25)], partitions=[0, 2]
        )
        again = NodeFilter.from_json(f.to_json())
        assert again.key() == f.key()

    @pytest.mark.parametrize(
        "obj",
        [
            "not an object",
            {"bogus": [1]},
            {"allow": "nope"},
            {"allow": [True]},
            {"attributes": [{"attribute": 1, "extra": 2}]},
            {"attributes": [{"min_weight": 0.5}]},
            {"partitions": [-1]},
        ],
    )
    def test_from_json_raises_filter_error(self, obj):
        with pytest.raises(FilterError):
            NodeFilter.from_json(obj)

    def test_filter_error_is_a_value_error(self):
        # In-process callers that catch ValueError keep working; the HTTP
        # layer catches the subclass to emit the invalid_filter code.
        assert issubclass(FilterError, ValueError)

    def test_compile_allow_deny(self):
        compiled = NodeFilter(allow=[0, 2, 4, 99], deny=[2]).compile(6)
        assert compiled.mask.tolist() == [True, False, False, False, True, False]
        assert compiled.n_allowed == 2
        assert compiled.allowed_ids().tolist() == [0, 4]
        # out-of-range allow (99) matches nothing; out-of-range deny is inert
        assert NodeFilter(deny=[99]).compile(6).n_allowed == 6

    def test_compile_attributes_need_scorer(self):
        f = NodeFilter(attributes=[(0, 0.5)])
        with pytest.raises(FilterError):
            f.compile(4)
        scores = np.array([0.1, 0.6, 0.5, 0.4])
        compiled = f.compile(4, attribute_scores=lambda a: scores)
        assert compiled.mask.tolist() == [False, True, True, False]

    def test_compile_partitions_need_map(self):
        f = NodeFilter(partitions=[1])
        with pytest.raises(FilterError):
            f.compile(4)
        compiled = f.compile(4, partition_of=np.array([0, 1, 0, 1]))
        assert compiled.mask.tolist() == [False, True, False, True]

    def test_restrict_slices_to_local_rows(self):
        compiled = NodeFilter(allow=[1, 3]).compile(6)
        local = compiled.restrict(np.array([3, 4, 5]))
        assert local.mask.tolist() == [True, False, False]
        assert local.key == compiled.key


class TestFilteredExact:
    @pytest.mark.parametrize("selectivity", ["gather", "mask"])
    def test_matches_brute_force_on_both_strategies(self, selectivity, canonical_scores):
        features, queries, exclude = _pinned_corpus()
        # below vs above the _GATHER_SELECTIVITY=0.125 switch point
        width = 32 if selectivity == "gather" else 400
        mask = np.zeros(512, dtype=bool)
        mask[:width] = True
        compiled = CompiledFilter(mask)
        ids, scores = exact_top_k(
            features, queries, 13,
            assume_normalized=True, exclude=exclude, node_filter=compiled,
        )
        ref_ids, ref_scores = brute_force_filtered(
            canonical_scores, features, queries, 13, mask, exclude
        )
        assert np.array_equal(ids, ref_ids)
        assert scores.tobytes() == ref_scores.tobytes()

    def test_empty_filter_yields_all_padding(self):
        features, queries, _ = _pinned_corpus()
        compiled = CompiledFilter(np.zeros(512, dtype=bool))
        ids, scores = exact_top_k(
            features, queries, 5, assume_normalized=True, node_filter=compiled
        )
        assert (ids == -1).all()
        assert (scores == -np.inf).all()

    def test_filtered_rows_bit_match_unfiltered_when_filter_allows_winners(self):
        # A filter that keeps every unfiltered winner must return the
        # exact same bits: canonical rescore is subset-invariant.
        features, queries, exclude = _pinned_corpus()
        base_ids, base_scores = exact_top_k(
            features, queries, 13, assume_normalized=True, exclude=exclude
        )
        mask = np.zeros(512, dtype=bool)
        mask[base_ids[base_ids >= 0]] = True
        ids, scores = exact_top_k(
            features, queries, 13,
            assume_normalized=True, exclude=exclude,
            node_filter=CompiledFilter(mask),
        )
        assert np.array_equal(ids, base_ids)
        assert scores.tobytes() == base_scores.tobytes()


class TestFilteredRouter:
    def _router(self, features, kind="range", n_shards=4):
        partitioner = Partitioner.build(kind, n_shards, features.shape[0])
        backends = [
            ExactBackend(
                np.ascontiguousarray(features[partitioner.shard_members(s)])
            )
            for s in range(n_shards)
        ]
        return ShardRouter(backends, partitioner)

    @pytest.mark.parametrize("kind", ["range", "hash"])
    def test_sharded_filtered_bit_matches_unsharded(self, kind):
        features, queries, exclude = _pinned_corpus()
        router = self._router(features, kind=kind)
        mask = np.zeros(512, dtype=bool)
        mask[::3] = True
        compiled = CompiledFilter(mask)
        ids, scores = router.search(
            queries, 13, exclude=exclude, node_filter=compiled
        )
        ref_ids, ref_scores = exact_top_k(
            features, queries, 13,
            assume_normalized=True, exclude=exclude, node_filter=compiled,
        )
        assert np.array_equal(ids, ref_ids)
        assert scores.tobytes() == ref_scores.tobytes()

    def test_filter_excluding_whole_shard_still_answers(self):
        features, queries, _ = _pinned_corpus()
        router = self._router(features, kind="range", n_shards=4)
        mask = np.zeros(512, dtype=bool)
        mask[: 512 // 4] = True  # shard 0 only; shards 1-3 fully excluded
        ids, scores = router.search(queries, 7, node_filter=CompiledFilter(mask))
        assert mask[ids[ids >= 0]].all()
        ref_ids, ref_scores = exact_top_k(
            features, queries, 7,
            assume_normalized=True, node_filter=CompiledFilter(mask),
        )
        assert np.array_equal(ids, ref_ids)
        assert scores.tobytes() == ref_scores.tobytes()


class TestUnfilteredPinnedIdentity:
    """The default path answers the exact bytes it did before this change."""

    def test_exact_backend_both_select_dtypes(self):
        """float64 selection, float32 selection, and the backend that
        selects over its resident float32 copy: one answer."""
        features, queries, exclude = _pinned_corpus()
        answers = {
            "float64": exact_top_k(
                features, queries, 13, assume_normalized=True, exclude=exclude
            ),
            "float32": exact_top_k(
                features.astype(np.float32), queries, 13,
                assume_normalized=True, exclude=exclude, rows=features,
            ),
            "backend": ExactBackend(features).search(queries, 13, exclude=exclude),
        }
        for name, (ids, scores) in answers.items():
            assert _digest(ids, scores) == PINNED_EXACT, name
