"""Property test: filtered ``exact_top_k`` == brute-force mask-then-rank.

The reference ranks every allowed row with the same canonical
(fixed-order einsum) scoring the engine rescores with, so the assertion
is *bit* equality on ids and scores — across random corpora, random
allow/deny/selectivity (hitting both the gather and mask strategies),
random per-query excludes, and the degenerate edges: empty allow sets,
filters that deny everything, and k larger than the allowed population.

Two *identical* rows are the hard case: their GEMM selection scores can
differ in the last bit while their canonical scores tie, so when the pair
straddles the k-th rank the engine must still keep the smaller id.  The
seeds below were found by this test (about one run in five drew one);
they are pinned as a regression and as an explicit example.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.search.knn import (
    CompiledFilter,
    canonical_scores,
    exact_top_k,
    normalize_rows,
)


@st.composite
def filtered_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(4, 96))
    dim = draw(st.integers(2, 12))
    n_queries = draw(st.integers(1, 6))
    k = draw(st.integers(1, 24))
    features = normalize_rows(rng.standard_normal((n, dim)))
    if n >= 3 and draw(st.booleans()):
        features[n - 1] = features[0]  # exercise tie repair under filters
    queries = normalize_rows(rng.standard_normal((n_queries, dim)))
    # selectivity spans both strategies (gather at <= 12.5%, mask above)
    keep_fraction = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.7, 1.0]))
    mask = rng.random(n) < keep_fraction
    if draw(st.booleans()):
        exclude = rng.integers(-1, n, size=n_queries).astype(np.intp)
    else:
        exclude = None
    return features, queries, k, mask, exclude


def duplicate_row_problem(seed: int):
    """A corpus whose last row repeats row 0, both allowed by the filter."""
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(4, 97)), int(rng.integers(2, 13))
    n_queries, k = int(rng.integers(1, 7)), int(rng.integers(1, 25))
    features = normalize_rows(rng.standard_normal((n, dim)))
    features[n - 1] = features[0]
    queries = normalize_rows(rng.standard_normal((n_queries, dim)))
    keep_fraction = rng.choice([0.05, 0.1, 0.3, 0.7, 1.0])
    mask = rng.random(n) < keep_fraction
    mask[0] = mask[n - 1] = True
    return features, queries, k, mask, None


# Seeds where the duplicate pair straddles the k-th rank with last-bit
# different selection scores: all rows allowed (unfiltered path), the mask
# strategy, and the gather strategy.
STRADDLING_SEEDS = {13952: "unfiltered", 1082: "mask", 8551: "gather"}


def brute_force(features, queries, k, mask, exclude):
    n = features.shape[0]
    width = min(k, n)
    all_ids = np.arange(n)
    ids = np.empty((queries.shape[0], width), dtype=np.intp)
    scores = np.empty((queries.shape[0], width), dtype=np.float64)
    for row in range(queries.shape[0]):
        full = np.where(mask, canonical_scores(features, all_ids, queries[row]), -np.inf)
        if exclude is not None and exclude[row] >= 0:
            full[exclude[row]] = -np.inf
        order = np.lexsort((all_ids, -full))[:width]
        keep = full[order] > -np.inf
        ids[row] = np.where(keep, order, -1)
        scores[row] = np.where(keep, full[order], -np.inf)
    return ids, scores


class TestFilteredExactEquivalence:
    @given(filtered_problems())
    @example(duplicate_row_problem(13952))
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_mask_then_rank(self, problem):
        features, queries, k, mask, exclude = problem
        got_ids, got_scores = exact_top_k(
            features, queries, k,
            assume_normalized=True, exclude=exclude,
            node_filter=CompiledFilter(mask),
        )
        ref_ids, ref_scores = brute_force(features, queries, k, mask, exclude)
        assert np.array_equal(got_ids, ref_ids)
        assert got_scores.tobytes() == ref_scores.tobytes()

    @given(filtered_problems())
    @settings(max_examples=40, deadline=None)
    def test_noop_mask_matches_unfiltered_bits(self, problem):
        features, queries, k, _, exclude = problem
        base_ids, base_scores = exact_top_k(
            features, queries, k, assume_normalized=True, exclude=exclude
        )
        all_mask = CompiledFilter(np.ones(features.shape[0], dtype=bool))
        ids, scores = exact_top_k(
            features, queries, k,
            assume_normalized=True, exclude=exclude, node_filter=all_mask,
        )
        assert np.array_equal(ids, base_ids)
        assert scores.tobytes() == base_scores.tobytes()

    @pytest.mark.parametrize("seed", sorted(STRADDLING_SEEDS))
    def test_duplicate_rows_straddling_the_kth_rank(self, seed):
        features, queries, k, mask, _ = duplicate_row_problem(seed)
        n = features.shape[0]
        strategy = (
            "unfiltered" if mask.all()
            else "gather" if mask.mean() <= 0.125 else "mask"
        )
        assert strategy == STRADDLING_SEEDS[seed]
        got_ids, got_scores = exact_top_k(
            features, queries, k,
            assume_normalized=True, node_filter=CompiledFilter(mask),
        )
        ref_ids, ref_scores = brute_force(features, queries, k, mask, None)
        # The case is live: some row's answer ends with exactly one of the twins.
        assert any((0 in row) != (n - 1 in row) for row in ref_ids)
        assert np.array_equal(got_ids, ref_ids)
        assert got_scores.tobytes() == ref_scores.tobytes()

    @pytest.mark.parametrize("select_dtype", ["float64", "float32"])
    def test_duplicate_free_matrix_matches_rank_all(self, select_dtype):
        """No duplicates, no ties: the repair must never change an answer."""
        rng = np.random.default_rng(0)
        features = normalize_rows(rng.standard_normal((4096, 32)))
        queries = normalize_rows(rng.standard_normal((64, 32)))
        everything = np.ones(4096, dtype=bool)
        for k in (1, 10, 100):
            ids, scores = exact_top_k(
                features, queries, k,
                assume_normalized=True, select_dtype=select_dtype,
            )
            ref_ids, ref_scores = brute_force(features, queries, k, everything, None)
            assert np.array_equal(ids, ref_ids)
            assert scores.tobytes() == ref_scores.tobytes()
