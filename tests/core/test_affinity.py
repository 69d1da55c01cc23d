"""Tests for APMI and exact affinity (Alg. 2, Eq. 5-7, Lemma 3.1)."""

import math

import numpy as np
import pytest

from repro.core.affinity import (
    apmi,
    apmi_probabilities,
    exact_affinity,
    exact_probabilities,
    iterations_for_epsilon,
)


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
        pf, _ = apmi_probabilities(sbm_graph)
        assert pf.min() >= 0.0
        assert pf.max() <= 1.0 + 1e-12

    def test_forward_rows_at_most_one(self, sbm_graph):
        # P_f rows are (sub-)distributions over attributes
        pf, _ = apmi_probabilities(sbm_graph)
        assert np.all(pf.sum(axis=1) <= 1.0 + 1e-9)

    def test_backward_columns_at_most_one(self, sbm_graph):
        _, pb = apmi_probabilities(sbm_graph)
        assert np.all(pb.sum(axis=0) <= 1.0 + 1e-9)

    def test_explicit_iterations_override(self, sbm_graph):
        a = apmi(sbm_graph, n_iterations=2)
        b = apmi(sbm_graph, epsilon=0.9, n_iterations=2)
        assert np.array_equal(a.forward, b.forward)


class TestApmiMatchesSeedLoop:
    """The blocked, buffer-reusing APMI returns the bits of the literal two-pass Alg. 2."""

    @pytest.mark.parametrize("alpha", [0.5, 0.3])
    def test_bit_identical_to_allocating_loop(self, citation, alpha, hop_references):
        """Equal to the per-hop-allocating two-pass loop in float32, widened; the
        float64 walk within the float32 bound."""
        from repro.graph.matrices import (
            normalized_attribute_matrices,
            random_walk_matrix,
        )
        from repro.utils.sparse import dense_column_normalize, dense_row_normalize

        t = iterations_for_epsilon(0.05, alpha)
        transition = random_walk_matrix(citation)
        rr, rc = (m.astype(np.float32).toarray() for m in normalized_attribute_matrices(citation))
        pf = hop_references.two_pass(transition, alpha * rr, alpha, t)
        pb = hop_references.two_pass(transition.T.tocsr(), alpha * rc, alpha, t)
        n, d = pf.shape
        pair = apmi(citation, alpha=alpha, epsilon=0.05)
        probabilities = apmi_probabilities(citation, alpha=alpha, epsilon=0.05)
        assert np.array_equal(probabilities[0], pf)
        assert np.array_equal(probabilities[1], pb)
        assert np.array_equal(
            pair.forward, np.log2(1.0 + n * dense_column_normalize(pf.astype(np.float64)))
        )
        assert np.array_equal(
            pair.backward, np.log2(1.0 + d * dense_row_normalize(pb.astype(np.float64)))
        )
        hop_references.assert_near_float64(probabilities, citation, alpha, 0.05)

    def test_normalization_tiles_and_spans_do_not_change_a_bit(self, citation, monkeypatch):
        """7-row tiles, 3-column blocks (uneven against n, d and the threads): same F′, B′."""
        from repro.core import affinity, kernels

        expected = apmi(citation, epsilon=0.05)
        monkeypatch.setattr(kernels, "_TILE_BYTES", 7 * 8 * citation.n_attributes)
        monkeypatch.setattr(affinity, "_BLOCK_COLUMNS", 3)
        produced = apmi(citation, epsilon=0.05, n_threads=3)
        assert np.array_equal(produced.forward, expected.forward)
        assert np.array_equal(produced.backward, expected.backward)

    def test_outputs_do_not_alias(self, sbm_graph):
        """F′ and B′ are two arrays, and neither is a view of a block buffer."""
        pair = apmi(sbm_graph)
        assert not np.shares_memory(pair.forward, pair.backward)
        for array in (pair.forward, pair.backward):
            assert array.base is None and array.flags.c_contiguous


class TestApmiConvergence:
    def test_apmi_approaches_exact_as_epsilon_shrinks(self, sbm_graph):
        exact = exact_affinity(sbm_graph, alpha=0.5)
        errors = []
        for epsilon in (0.25, 0.05, 0.005):
            approx = apmi(sbm_graph, alpha=0.5, epsilon=epsilon)
            errors.append(np.abs(approx.forward - exact.forward).max())
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[-1] < 0.05

    def test_probability_truncation_bounded_by_epsilon(self, sbm_graph, hop_references):
        """Inequality (9): 0 <= Pf - Pf^(t) <= eps entrywise, up to the float32
        walk's derived rounding ``β_f·Pf^(t)`` (``hop_references.walk_bounds``)."""
        alpha, epsilon = 0.5, 0.05
        truncated = apmi_probabilities(sbm_graph, alpha=alpha, epsilon=epsilon)[0]
        slack = hop_references.walk_bounds(sbm_graph, alpha, epsilon)[0] * truncated
        diff = exact_probabilities(sbm_graph, alpha=alpha)[0] - truncated
        assert np.all(diff >= -1e-9 - slack)
        assert np.all(diff <= epsilon + 1e-9 + slack)

    def test_lemma31_bounds(self, sbm_graph, hop_references):
        """Lemma 3.1 ratio bounds on (2^F' − 1)/(2^F − 1).

        We verify the bounds the lemma's own proof establishes from
        Inequalities (9)+(11): lower ``max(0, 1 − ε/Pf)`` as printed, and
        upper ``Σ_v Pf[v,r] / Σ_v max(0, Pf[v,r] − ε)`` (the printed
        ``1 + ε/Σ…`` form drops the column-deficit factor).  ``F′`` comes
        from float32 walks: ``Pf^(t)`` and its column sum are each within
        ``β_f`` relative of the float64 walk's, so the ratio takes
        ``2·β_f`` relative slack.
        """
        alpha, epsilon = 0.5, 0.05
        exact = exact_affinity(sbm_graph, alpha=alpha)
        approx = apmi(sbm_graph, alpha=alpha, epsilon=epsilon)

        pf, _ = exact_probabilities(sbm_graph, alpha=alpha)
        numer = np.expm1(approx.forward * math.log(2))  # 2^F' - 1
        denom = np.expm1(exact.forward * math.log(2))  # 2^F - 1
        mask = denom > 1e-12
        ratio = numer[mask] / denom[mask]

        lower = np.maximum(0.0, 1.0 - epsilon / np.maximum(pf[mask], 1e-300))
        col_sum = pf.sum(axis=0)
        col_slack = np.maximum(0.0, pf - epsilon).sum(axis=0)
        upper_cols = col_sum / np.maximum(col_slack, 1e-300)
        upper = np.broadcast_to(upper_cols, pf.shape)[mask]
        slack = 2 * hop_references.walk_bounds(sbm_graph, alpha, epsilon)[0] * ratio
        assert np.all(ratio >= lower - 1e-9 - slack)
        assert np.all(ratio <= upper + 1e-9 + slack)


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
        pf, _ = exact_probabilities(tiny_graph, alpha=0.5)
        assert np.all(pf[3] == 0.0)

    def test_self_loop_dangling_policy(self, tiny_graph):
        pair = exact_affinity(tiny_graph, alpha=0.5, dangling="self")
        assert np.all(np.isfinite(pair.forward))
