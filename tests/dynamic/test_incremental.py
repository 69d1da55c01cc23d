"""Tests for incremental PANE on evolving graphs."""

import numpy as np
import pytest

from repro.core.pane import PANE
from repro.dynamic.incremental import GraphDelta, IncrementalPANE, apply_delta
from repro.graph.generators import attributed_sbm


@pytest.fixture()
def model_and_graph():
    graph = attributed_sbm(
        n_nodes=120, n_communities=3, n_attributes=30, p_in=0.1, p_out=0.01,
        seed=7,
    )
    model = IncrementalPANE(k=16, seed=0, update_sweeps=2)
    model.fit(graph)
    return model, graph


class TestGraphDelta:
    def test_empty_detection(self):
        assert GraphDelta().is_empty()
        assert not GraphDelta(add_edges=np.array([[0, 1]])).is_empty()

    def test_apply_adds_and_removes_edges(self, sbm_graph):
        existing = sbm_graph.edge_list()[0]
        delta = GraphDelta(
            add_edges=np.array([[0, 1]]),
            remove_edges=np.array([existing]),
        )
        updated = apply_delta(sbm_graph, delta)
        assert updated.has_edge(0, 1)
        assert not updated.has_edge(*existing)

    def test_apply_preserves_original(self, sbm_graph):
        before = sbm_graph.n_edges
        apply_delta(sbm_graph, GraphDelta(add_edges=np.array([[0, 1]])))
        assert sbm_graph.n_edges == before

    def test_apply_attribute_changes(self, sbm_graph):
        coo = sbm_graph.attributes.tocoo()
        existing = (coo.row[0], coo.col[0])
        delta = GraphDelta(
            add_associations=np.array([[0, 0, 2.5]]),
            remove_associations=np.array([existing]),
        )
        updated = apply_delta(sbm_graph, delta)
        assert updated.attributes[0, 0] == 2.5
        assert updated.attributes[existing[0], existing[1]] == 0.0

    def test_undirected_edge_add_symmetric(self, undirected_graph):
        delta = GraphDelta(add_edges=np.array([[0, 1]]))
        updated = apply_delta(undirected_graph, delta)
        assert updated.has_edge(0, 1) and updated.has_edge(1, 0)


class TestDeltaCheck:
    """``GraphDelta.check``: the one validity rule for logging and applying."""

    def test_negative_id_rejected_and_graph_unchanged(self):
        graph = attributed_sbm(n_nodes=60, n_attributes=20, seed=1)
        model = IncrementalPANE(k=16, seed=0)
        model.fit(graph)
        with pytest.raises(ValueError, match="node index out of range"):
            model.update(GraphDelta(add_edges=np.array([[-1, 5]])))
        assert model.graph is graph
        assert not graph.has_edge(59, 5)

    def test_fractional_id_rejected(self, sbm_graph):
        with pytest.raises(ValueError, match="must be integers"):
            apply_delta(sbm_graph, GraphDelta(add_edges=np.array([[0.7, 1.0]])))
        with pytest.raises(ValueError, match="must be integers"):
            apply_delta(
                sbm_graph, GraphDelta(add_associations=np.array([[0.0, 1.5, 1.0]]))
            )

    def test_integral_float_ids_accepted(self, sbm_graph):
        delta = GraphDelta(
            add_edges=np.array([[0.0, 1.0]]),
            add_associations=np.array([[3.0, 2.0, 0.5]]),
        )
        updated = apply_delta(sbm_graph, delta)
        assert updated.has_edge(0, 1)
        assert updated.attributes[3, 2] == 0.5

    @pytest.mark.parametrize(
        "rows, match",
        [
            (dict(add_associations=np.array([[0, 1, -1.0]])), "non-negative"),
            (dict(add_associations=np.array([[0, 1, np.inf]])), "finite"),
            (dict(remove_associations=np.array([[0, 10_000]])), "attribute index"),
            (dict(add_edges=np.array([0, 1])), "rows of 2"),
            (dict(add_edges=np.array([[0.0, np.nan]])), "must be integers"),
        ],
    )
    def test_bad_rows_rejected(self, rows, match):
        with pytest.raises(ValueError, match=match):
            GraphDelta(**rows).check(120, 30)


class TestIncrementalPANE:
    @pytest.mark.parametrize("sweeps", [True, 1.5, 2.0, -1])
    def test_update_sweeps_validated_at_construction(self, sweeps):
        with pytest.raises(ValueError, match="update_sweeps"):
            IncrementalPANE(k=16, update_sweeps=sweeps)

    def test_update_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            IncrementalPANE(k=16).update(GraphDelta())

    def test_empty_delta_returns_same_embedding(self, model_and_graph):
        model, _ = model_and_graph
        before = model.embedding
        after = model.update(GraphDelta())
        assert after is before

    def test_update_changes_embedding(self, model_and_graph):
        model, _ = model_and_graph
        before = model.embedding.x_forward.copy()
        rng = np.random.default_rng(0)
        new_edges = rng.integers(0, 120, size=(20, 2))
        model.update(GraphDelta(add_edges=new_edges))
        assert not np.allclose(model.embedding.x_forward, before)

    def test_warm_update_close_to_cold_refit(self, model_and_graph):
        """After a small delta, warm update ≈ full retrain in objective."""
        model, graph = model_and_graph
        rng = np.random.default_rng(1)
        delta = GraphDelta(add_edges=rng.integers(0, 120, size=(10, 2)))
        warm = model.update(delta)

        from repro.core.affinity import apmi
        from repro.core.svd_ccd import objective_value
        from repro.core.greedy_init import InitState

        cold = PANE(k=16, seed=0).fit(model.graph, compute_objective=True)
        pair = apmi(model.graph, 0.5, 0.015)
        warm_state = InitState(
            warm.x_forward, warm.x_backward, warm.y, pair.forward, pair.backward
        )
        warm_obj = objective_value(pair.forward, pair.backward, warm_state)
        assert warm_obj <= 1.3 * cold.objective

    def test_update_equals_residual_space_sweeps(self, model_and_graph):
        """The refresh as it was before the sweeps stopped carrying residuals:
        ``S = X·Yᵀ − F′`` around the previous embedding, then Alg. 4's rank-1
        steps on ``S`` (the seed sweep, every row of a coordinate at once)."""
        from repro.core.affinity import apmi

        model, graph = model_and_graph
        previous = model.embedding
        rng = np.random.default_rng(3)
        delta = GraphDelta(
            add_edges=rng.integers(0, 120, size=(10, 2)),
            add_associations=np.array([[0, 1, 1.0], [5, 2, 2.0]]),
        )
        produced = model.update(delta)

        pair = apmi(apply_delta(graph, delta), 0.5, 0.015)
        xf, xb, y = (a.copy() for a in (previous.x_forward, previous.x_backward, previous.y))
        sf = xf @ y.T - pair.forward
        sb = xb @ y.T - pair.backward
        for _ in range(model.update_sweeps):
            for l in range(y.shape[1]):
                denom = y[:, l] @ y[:, l]
                for x_half, s_half in ((xf, sf), (xb, sb)):
                    mu = (s_half @ y[:, l]) / denom
                    x_half[:, l] -= mu
                    s_half -= np.outer(mu, y[:, l])
            for l in range(y.shape[1]):
                mu = (xf[:, l] @ sf + xb[:, l] @ sb) / (xf[:, l] @ xf[:, l] + xb[:, l] @ xb[:, l])
                y[:, l] -= mu
                sf -= np.outer(xf[:, l], mu)
                sb -= np.outer(xb[:, l], mu)
        assert np.allclose(produced.x_forward, xf, atol=1e-10)
        assert np.allclose(produced.x_backward, xb, atol=1e-10)
        assert np.allclose(produced.y, y, atol=1e-10)

    def test_update_faster_than_refit(self, model_and_graph):
        """The warm path skips the SVD and most CCD sweeps."""
        import time

        model, _ = model_and_graph
        delta = GraphDelta(add_edges=np.array([[0, 1], [2, 3]]))
        start = time.perf_counter()
        model.update(delta)
        warm_time = time.perf_counter() - start

        start = time.perf_counter()
        PANE(k=16, seed=0).fit(model.graph)
        cold_time = time.perf_counter() - start
        # warm should not be dramatically slower; usually faster
        assert warm_time < 3 * cold_time

    def test_stream_of_updates(self, model_and_graph):
        """Several consecutive deltas keep embeddings finite and useful."""
        model, _ = model_and_graph
        rng = np.random.default_rng(2)
        for _ in range(4):
            delta = GraphDelta(add_edges=rng.integers(0, 120, size=(5, 2)))
            embedding = model.update(delta)
            assert np.all(np.isfinite(embedding.x_forward))
            assert np.all(np.isfinite(embedding.y))

    def test_negative_update_sweeps_rejected(self):
        with pytest.raises(ValueError):
            IncrementalPANE(k=16, update_sweeps=-1)
