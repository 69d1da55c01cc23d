"""Edge cases and failure injection across the public API."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.affinity import apmi, apmi_probabilities
from repro.core.pane import PANE
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.generators import attributed_sbm


def _graph(adjacency, attributes, **kwargs):
    return AttributedGraph(
        adjacency=sp.csr_matrix(adjacency),
        attributes=sp.csr_matrix(attributes),
        **kwargs,
    )


class TestDegenerateGraphs:
    def test_edgeless_graph_still_embeds(self):
        """No edges: affinity reduces to the 0-hop attribute distributions."""
        rng = np.random.default_rng(0)
        attributes = (rng.random((30, 10)) < 0.4).astype(float)
        attributes[:, 0] = 1.0  # no empty columns
        graph = _graph(np.zeros((30, 30)), attributes)
        embedding = PANE(k=8, seed=0).fit(graph)
        assert np.all(np.isfinite(embedding.x_forward))
        assert np.all(np.isfinite(embedding.y))

    def test_attributeless_graph_rejected(self):
        """Zero attributes: k/2 > min(n, 0) = 0, a clear error."""
        graph = _graph(np.eye(5, k=1), np.zeros((5, 0)))
        with pytest.raises(ValueError):
            PANE(k=8, seed=0).fit(graph)

    def test_all_zero_attribute_matrix_safe_affinity(self):
        """Attribute matrix with shape but no entries: affinities all zero."""
        graph = _graph(np.eye(6, k=1), np.zeros((6, 4)))
        pair = apmi(graph)
        assert np.all(pair.forward == 0.0)
        assert np.all(pair.backward == 0.0)

    def test_single_node_graph(self):
        graph = _graph(np.zeros((1, 1)), np.array([[1.0, 1.0]]))
        pair = apmi(graph)
        assert pair.forward.shape == (1, 2)
        assert np.all(np.isfinite(pair.forward))

    def test_fully_dangling_graph(self):
        """Every node dangling: walks never move; 0-hop affinity only."""
        attributes = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        graph = _graph(np.zeros((3, 3)), attributes)
        pf, _ = apmi_probabilities(graph, alpha=0.5, epsilon=0.1)
        # forward prob of owning node's attributes is its Rr row (times
        # the truncated restart mass)
        assert pf[0, 0] > 0
        assert pf[0, 1] == 0

    def test_self_loop_only_graph(self):
        adjacency = np.eye(4)
        attributes = np.ones((4, 3))
        graph = _graph(adjacency, attributes)
        embedding = PANE(k=4, seed=0).fit(graph)
        assert np.all(np.isfinite(embedding.node_embeddings()))


class TestCorruptInputs:
    def test_nan_adjacency_rejected(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            _graph(adjacency, np.zeros((3, 2)))

    def test_inf_attribute_rejected(self):
        attributes = np.zeros((3, 2))
        attributes[0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN|infinite"):
            _graph(np.zeros((3, 3)), attributes)

    def test_corrupt_npz_load_fails_loudly(self, tmp_path):
        from repro.graph.io import load_npz

        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a zipfile")
        with pytest.raises(Exception):
            load_npz(path)

    def test_missing_text_files_fail_loudly(self, tmp_path):
        from repro.graph.io import load_text

        with pytest.raises(FileNotFoundError):
            load_text(tmp_path / "nowhere")


class TestBoundaryBudgets:
    def test_k_equals_two(self, sbm_graph):
        embedding = PANE(k=2, seed=0).fit(sbm_graph)
        assert embedding.x_forward.shape[1] == 1

    def test_k_at_attribute_limit(self):
        graph = attributed_sbm(n_nodes=60, n_attributes=8, seed=0)
        embedding = PANE(k=16, seed=0).fit(graph)  # k/2 = 8 = d exactly
        assert embedding.y.shape == (8, 8)

    def test_extreme_alpha_values_stable(self, sbm_graph):
        for alpha in (0.01, 0.99):
            embedding = PANE(k=8, alpha=alpha, seed=0).fit(sbm_graph)
            assert np.all(np.isfinite(embedding.node_embeddings()))

    def test_extreme_epsilon_values_stable(self, sbm_graph):
        for epsilon in (0.9, 1e-6):
            embedding = PANE(k=8, epsilon=epsilon, seed=0).fit(sbm_graph)
            assert np.all(np.isfinite(embedding.node_embeddings()))

    def test_threads_exceed_everything(self, sbm_graph):
        embedding = PANE(k=8, seed=0, n_threads=64).fit(sbm_graph)
        assert np.all(np.isfinite(embedding.node_embeddings()))
