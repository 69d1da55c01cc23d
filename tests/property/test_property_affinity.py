"""Property-based tests on affinity computation over random graphs."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.affinity import (
    apmi,
    apmi_probabilities,
    exact_probabilities,
)
from repro.graph.attributed_graph import AttributedGraph


@st.composite
def small_graphs(draw):
    """Random small attributed graphs, arbitrary topology/attributes."""
    n = draw(st.integers(3, 12))
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    adjacency = (rng.random((n, n)) < 0.3).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    attributes = (rng.random((n, d)) < 0.4).astype(float) * rng.integers(
        1, 4, size=(n, d)
    )
    # ensure at least one association so normalizations are non-degenerate
    attributes[0, 0] = max(attributes[0, 0], 1.0)
    return AttributedGraph(
        adjacency=sp.csr_matrix(adjacency),
        attributes=sp.csr_matrix(attributes),
    )


class TestAffinityInvariants:
    @given(small_graphs(), st.sampled_from([0.2, 0.5, 0.8]))
    @settings(max_examples=40, deadline=None)
    def test_affinities_finite_and_non_negative(self, graph, alpha):
        pair = apmi(graph, alpha=alpha, epsilon=0.05)
        assert np.all(np.isfinite(pair.forward))
        assert np.all(np.isfinite(pair.backward))
        assert pair.forward.min() >= 0.0
        assert pair.backward.min() >= 0.0

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_truncation_never_exceeds_exact(self, hop_references, graph):
        """Inequalities (9)/(10): P^(t) ≤ P entrywise, up to the float32 walk's
        derived rounding ``β·P^(t)`` (``hop_references.walk_bounds``)."""
        exact = exact_probabilities(graph, alpha=0.5)
        approx = apmi_probabilities(graph, alpha=0.5, epsilon=0.1)
        bounds = hop_references.walk_bounds(graph, 0.5, 0.1)
        for truncated, full, bound in zip(approx, exact, bounds):
            assert np.all(truncated <= full + 1e-9 + bound * truncated)

    @given(small_graphs(), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_papmi_equals_apmi(self, graph, n_threads):
        """Lemma 4.1, bitwise, over arbitrary graphs and thread counts."""
        serial = apmi(graph, epsilon=0.1)
        parallel = apmi(graph, epsilon=0.1, n_threads=n_threads)
        assert np.array_equal(serial.forward, parallel.forward)
        assert np.array_equal(serial.backward, parallel.backward)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_forward_probability_rows_subdistributions(self, graph):
        pf, _ = apmi_probabilities(graph, epsilon=0.05)
        row_sums = pf.sum(axis=1)
        assert np.all(row_sums <= 1.0 + 1e-9)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_attribute_weight_scaling_invariance(self, graph):
        """Scaling all attribute weights by a constant leaves Rr/Rc, hence
        affinities, unchanged."""
        scaled = graph.with_attributes(graph.attributes * 3.0)
        original = apmi(graph, epsilon=0.05)
        rescaled = apmi(scaled, epsilon=0.05)
        assert np.allclose(original.forward, rescaled.forward, atol=1e-10)
        assert np.allclose(original.backward, rescaled.backward, atol=1e-10)
