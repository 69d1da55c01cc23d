"""Property test: APMI in attribute blocks returns the full-width two-pass bits.

The oracle (``apmi_reference`` in ``tests/conftest.py``) runs each hop as
the literal per-row loop ``α·r + Σ_j T′_ij·p_j`` in stored order, in
float32 as APMI walks, and widens before SPMI; the float64 walk is within
the bound ``_float32_bound`` there derives, elementwise on the
probabilities.

Contract: The APMI block tests guard the affinity: blocked F'/B' must be
array_equal to the full-width two-pass oracle in tests/conftest.py run on
float32 operands, each hop a literal per-row loop adding (1-alpha) T entries
onto the restart in stored order (dangling nodes, empty attribute columns
and rows, d below/at/past the block width, block widths 2/3/64, 1-3
threads), and its float32 walk probabilities must stay within the derived
rounding bound ((t+1)(D+2)+3) eps32 of the float64 two-pass loop,
elementwise.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import affinity
from repro.core.affinity import _BLOCK_COLUMNS, apmi, apmi_probabilities
from repro.graph.attributed_graph import AttributedGraph

pytestmark = pytest.mark.contract

W = _BLOCK_COLUMNS


@st.composite
def block_graphs(draw):
    """Graphs with dangling nodes, empty attribute columns and attribute-less rows.

    ``d`` is below the block width, equal to it, one past it (a 1-wide tail)
    or not a multiple of it.
    """
    n = draw(st.integers(1, 40))
    d = draw(st.sampled_from([1, 2, W - 1, W, W + 1, 2 * W, 2 * W + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    adjacency = (rng.random((n, n)) < draw(st.sampled_from([0.0, 0.2, 0.5]))).astype(float)
    adjacency[rng.random(n) < 0.3] = 0.0  # dangling nodes
    density = draw(st.sampled_from([0.3, 0.8]))
    attributes = (rng.random((n, d)) < density) * rng.integers(1, 4, size=(n, d)).astype(float)
    attributes[:, rng.random(d) < 0.2] = 0.0  # empty attribute columns
    attributes[rng.random(n) < 0.3] = 0.0  # attribute-less rows
    attributes[0, 0] = max(attributes[0, 0], 1.0)
    return AttributedGraph(
        adjacency=sp.csr_matrix(adjacency), attributes=sp.csr_matrix(attributes)
    )


class TestBlockedApmiBits:
    @given(
        block_graphs(),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(0, 6),
        st.sampled_from(["zero", "self"]),
        st.integers(1, 3),
        st.sampled_from([2, 3, W]),
    )
    @settings(max_examples=100, deadline=None)
    def test_array_equal_to_full_width(
        self, apmi_reference, hop_references, graph, alpha, t, dangling, n_threads, width
    ):
        """Every operation keeps the bits at every block width: no ulp bound is needed."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(affinity, "_BLOCK_COLUMNS", width)
            pair = apmi(graph, alpha, n_iterations=t, dangling=dangling, n_threads=n_threads)
        forward, backward = apmi_reference(
            graph, alpha, n_iterations=t, dangling=dangling
        )
        assert np.array_equal(pair.forward, forward)
        assert np.array_equal(pair.backward, backward)
        probabilities = apmi_probabilities(graph, alpha, n_iterations=t, dangling=dangling)
        hop_references.assert_near_float64(
            probabilities, graph, alpha, n_iterations=t, dangling=dangling
        )

    def test_one_wide_tail_keeps_the_bits(self, apmi_reference, hop_references):
        """``d = w + 1``: a 1-wide last block would sum its column pairwise."""
        rng = np.random.default_rng(0)
        graph = AttributedGraph(
            adjacency=sp.csr_matrix((rng.random((200, 200)) < 0.05).astype(float)),
            attributes=sp.csr_matrix(rng.random((200, W + 1))),
        )
        pair = apmi(graph, 0.5, n_iterations=3)
        forward, backward = apmi_reference(graph, 0.5, n_iterations=3)
        assert np.array_equal(pair.forward, forward)
        assert np.array_equal(pair.backward, backward)
        hop_references.assert_near_float64(
            apmi_probabilities(graph, 0.5, n_iterations=3), graph, 0.5, n_iterations=3
        )
