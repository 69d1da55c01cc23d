"""Tests validating the Monte-Carlo walk simulator against APMI (Sec. 2.2).

These are the definition-vs-closed-form checks: the empirical forward/
backward pair frequencies from simulated walks must converge to the power
series probabilities that APMI computes.
"""

import numpy as np
import pytest

from repro.core.affinity import exact_probabilities
from repro.graph.random_walks import WalkSimulator
from repro.utils.sparse import dense_row_normalize


class TestSimulatorBasics:
    def test_forward_walk_returns_valid_attribute(self, toy_graph):
        sim = WalkSimulator(toy_graph, alpha=0.5, seed=0)
        for source in range(toy_graph.n_nodes):
            attr = sim.forward_walk(source)
            assert attr is None or 0 <= attr < toy_graph.n_attributes

    def test_backward_walk_returns_valid_node(self, toy_graph):
        sim = WalkSimulator(toy_graph, alpha=0.5, seed=0)
        for attr in range(toy_graph.n_attributes):
            node = sim.backward_walk(attr)
            assert 0 <= node < toy_graph.n_nodes

    def test_backward_walk_unowned_attribute_raises(self, tiny_graph):
        import scipy.sparse as sp

        graph = tiny_graph.with_attributes(
            sp.csr_matrix(([1.0], ([0], [0])), shape=(4, 3))
        )
        sim = WalkSimulator(graph, alpha=0.5, seed=0)
        with pytest.raises(ValueError, match="no associated nodes"):
            sim.backward_walk(2)

    def test_deterministic_for_seed(self, toy_graph):
        walks_a = [WalkSimulator(toy_graph, seed=5).forward_walk(0) for _ in range(1)]
        walks_b = [WalkSimulator(toy_graph, seed=5).forward_walk(0) for _ in range(1)]
        assert walks_a == walks_b


class TestConvergenceToClosedForm:
    """Empirical frequencies ≈ power-series probabilities."""

    def test_forward_probabilities_match(self, toy_graph):
        alpha = 0.3
        sim = WalkSimulator(toy_graph, alpha=alpha, seed=1)
        empirical = sim.forward_probabilities(walks_per_node=3000)
        exact = exact_probabilities(toy_graph, alpha=alpha)[0]
        # footnote-1 restarts renormalize each row over successful outcomes
        expected = dense_row_normalize(exact)
        assert np.allclose(empirical, expected, atol=0.04)

    def test_backward_probabilities_match(self, toy_graph):
        alpha = 0.3
        sim = WalkSimulator(toy_graph, alpha=alpha, seed=2)
        empirical = sim.backward_probabilities(walks_per_attribute=3000)
        exact = exact_probabilities(toy_graph, alpha=alpha)[1]
        # backward walks have no restart; columns are direct distributions
        assert np.allclose(
            empirical.sum(axis=0), exact.sum(axis=0), atol=0.05
        )
        assert np.allclose(empirical, exact, atol=0.04)
