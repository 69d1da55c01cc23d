"""Tests for APMI and exact affinity (Alg. 2, Eq. 5-7, Lemma 3.1)."""

import math

import numpy as np
import pytest

from repro.core.affinity import apmi, exact_affinity, iterations_for_epsilon


class TestIterationsForEpsilon:
    def test_paper_range_alpha_half(self):
        # Sec. 5.6: with alpha=0.5, eps 0.001 -> t=9 and eps 0.25 -> t=1
        assert iterations_for_epsilon(0.001, 0.5) == 9
        assert iterations_for_epsilon(0.25, 0.5) == 1

    def test_monotone_in_epsilon(self):
        ts = [iterations_for_epsilon(e, 0.5) for e in (0.001, 0.01, 0.1, 0.25)]
        assert ts == sorted(ts, reverse=True)

    def test_at_least_one(self):
        assert iterations_for_epsilon(0.9, 0.9) >= 1

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0])
    def test_invalid_epsilon(self, bad):
        with pytest.raises(ValueError):
            iterations_for_epsilon(bad, 0.5)


class TestApmiStructure:
    def test_shapes(self, sbm_graph):
        pair = apmi(sbm_graph)
        n, d = sbm_graph.n_nodes, sbm_graph.n_attributes
        assert pair.forward.shape == (n, d)
        assert pair.backward.shape == (n, d)

    def test_affinities_non_negative(self, sbm_graph):
        pair = apmi(sbm_graph)
        assert pair.forward.min() >= 0.0
        assert pair.backward.min() >= 0.0

    def test_probabilities_within_unit(self, sbm_graph):
        pair = apmi(sbm_graph)
        assert pair.forward_probabilities.min() >= 0.0
        assert pair.forward_probabilities.max() <= 1.0 + 1e-12

    def test_forward_rows_at_most_one(self, sbm_graph):
        # P_f rows are (sub-)distributions over attributes
        pair = apmi(sbm_graph)
        sums = pair.forward_probabilities.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-9)

    def test_backward_columns_at_most_one(self, sbm_graph):
        pair = apmi(sbm_graph)
        sums = pair.backward_probabilities.sum(axis=0)
        assert np.all(sums <= 1.0 + 1e-9)

    def test_explicit_iterations_override(self, sbm_graph):
        a = apmi(sbm_graph, n_iterations=2)
        b = apmi(sbm_graph, epsilon=0.9, n_iterations=2)
        assert np.array_equal(a.forward, b.forward)


class TestApmiMatchesSeedLoop:
    """The tiled, buffer-reusing APMI returns the bits of the literal Alg. 2."""

    @pytest.mark.parametrize("alpha", [0.5, 0.3])
    def test_bit_identical_to_allocating_loop(self, citation, alpha):
        from repro.graph.matrices import (
            normalized_attribute_matrices,
            random_walk_matrix,
        )
        from repro.utils.sparse import dense_column_normalize, dense_row_normalize

        t = iterations_for_epsilon(0.05, alpha)
        transition = random_walk_matrix(citation)
        rr, rc = normalized_attribute_matrices(citation)

        def seed_loop(matrix, p0):
            p = alpha * p0
            for _ in range(t):
                p = (1.0 - alpha) * np.asarray(matrix @ p) + alpha * p0
            return p

        pf = seed_loop(transition, rr.toarray())
        pb = seed_loop(transition.T.tocsr(), rc.toarray())
        n, d = pf.shape
        pair = apmi(citation, alpha=alpha, epsilon=0.05)
        assert np.array_equal(pair.forward_probabilities, pf)
        assert np.array_equal(pair.backward_probabilities, pb)
        assert np.array_equal(
            pair.forward, np.log2(1.0 + n * dense_column_normalize(pf))
        )
        assert np.array_equal(
            pair.backward, np.log2(1.0 + d * dense_row_normalize(pb))
        )

    def test_normalization_tiles_and_spans_do_not_change_a_bit(self, citation, monkeypatch):
        """7-row tiles (uneven against n and the spans) on 3 threads: same F′, B′."""
        from repro.core import kernels

        expected = apmi(citation, epsilon=0.05)
        monkeypatch.setattr(kernels, "_TILE_BYTES", 7 * 8 * citation.n_attributes)
        produced = apmi(citation, epsilon=0.05, n_threads=3)
        assert np.array_equal(produced.forward, expected.forward)
        assert np.array_equal(produced.backward, expected.backward)

    def test_outputs_do_not_alias(self, sbm_graph):
        """F′ is written into the spare ping-pong buffer, not over P_f."""
        pair = apmi(sbm_graph)
        arrays = [pair.forward, pair.backward,
                  pair.forward_probabilities, pair.backward_probabilities]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestApmiConvergence:
    def test_apmi_approaches_exact_as_epsilon_shrinks(self, sbm_graph):
        exact = exact_affinity(sbm_graph, alpha=0.5)
        errors = []
        for epsilon in (0.25, 0.05, 0.005):
            approx = apmi(sbm_graph, alpha=0.5, epsilon=epsilon)
            errors.append(np.abs(approx.forward - exact.forward).max())
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[-1] < 0.05

    def test_probability_truncation_bounded_by_epsilon(self, sbm_graph):
        # Inequality (9): 0 <= Pf - Pf^(t) <= eps entrywise
        alpha, epsilon = 0.5, 0.05
        exact = exact_affinity(sbm_graph, alpha=alpha)
        approx = apmi(sbm_graph, alpha=alpha, epsilon=epsilon)
        diff = exact.forward_probabilities - approx.forward_probabilities
        assert diff.min() >= -1e-9
        assert diff.max() <= epsilon + 1e-9

    def test_lemma31_bounds(self, sbm_graph):
        """Lemma 3.1 ratio bounds on (2^F' − 1)/(2^F − 1).

        We verify the bounds the lemma's own proof establishes from
        Inequalities (9)+(11): lower ``max(0, 1 − ε/Pf)`` as printed, and
        upper ``Σ_v Pf[v,r] / Σ_v max(0, Pf[v,r] − ε)`` (the printed
        ``1 + ε/Σ…`` form drops the column-deficit factor).
        """
        alpha, epsilon = 0.5, 0.05
        exact = exact_affinity(sbm_graph, alpha=alpha)
        approx = apmi(sbm_graph, alpha=alpha, epsilon=epsilon)

        pf = exact.forward_probabilities
        numer = np.expm1(approx.forward * math.log(2))  # 2^F' - 1
        denom = np.expm1(exact.forward * math.log(2))  # 2^F - 1
        mask = denom > 1e-12
        ratio = numer[mask] / denom[mask]

        lower = np.maximum(0.0, 1.0 - epsilon / np.maximum(pf[mask], 1e-300))
        col_sum = pf.sum(axis=0)
        col_slack = np.maximum(0.0, pf - epsilon).sum(axis=0)
        upper_cols = col_sum / np.maximum(col_slack, 1e-300)
        upper = np.broadcast_to(upper_cols, pf.shape)[mask]
        assert np.all(ratio >= lower - 1e-9)
        assert np.all(ratio <= upper + 1e-9)


class TestExactAffinity:
    def test_matches_apmi_limit(self, toy_graph):
        exact = exact_affinity(toy_graph, alpha=0.3)
        deep = apmi(toy_graph, alpha=0.3, n_iterations=200)
        assert np.allclose(exact.forward, deep.forward, atol=1e-8)
        assert np.allclose(exact.backward, deep.backward, atol=1e-8)

    def test_dangling_node_handled(self, tiny_graph):
        pair = exact_affinity(tiny_graph, alpha=0.5)
        assert np.all(np.isfinite(pair.forward))
        assert np.all(np.isfinite(pair.backward))

    def test_attributeless_node_zero_forward_probability_row(self, tiny_graph):
        # node 3 has no attributes AND no out-edges: its walk never yields
        # an attribute, so its forward probability row is all zero
        pair = exact_affinity(tiny_graph, alpha=0.5)
        assert np.all(pair.forward_probabilities[3] == 0.0)

    def test_self_loop_dangling_policy(self, tiny_graph):
        pair = exact_affinity(tiny_graph, alpha=0.5, dangling="self")
        assert np.all(np.isfinite(pair.forward))
