"""Incremental PANE for evolving attributed networks.

Rationale: when a small fraction of edges/associations changes, the
affinity matrices move only slightly, so the previous ``Xf, Xb, Y`` are a
far better CCD seed than a fresh SVD — the same observation that motivates
GreedyInit (Sec. 3.2), applied across time steps.  The update path is:

1. apply the delta to the graph (edges and attribute associations);
2. recompute ``F′, B′`` with APMI — O(md·t), the cheap linear phase;
3. pair the *previous* embeddings with the new affinities (the sweeps
   read ``F′, B′`` directly, so there is nothing to rebuild);
4. run a handful of CCD sweeps (typically 1–3 instead of t).

``update()`` returns a fresh :class:`PANEEmbedding`; the wrapped graph and
embedding state advance with each call.
"""

from __future__ import annotations

import numpy as np

from repro.core.affinity import apmi
from repro.core.config import PANEConfig
from repro.core.embedding import PANEEmbedding
from repro.core.greedy_init import InitState
from repro.core.pane import PANE
from repro.core.svd_ccd import refine
from repro.dynamic.delta import GraphDelta
from repro.graph.attributed_graph import AttributedGraph
from repro.utils.timing import Timer


def apply_delta(graph: AttributedGraph, delta: GraphDelta) -> AttributedGraph:
    """Return a new graph with ``delta`` applied (input left untouched)."""
    adjacency = graph.adjacency.tolil(copy=True)
    if delta.add_edges is not None and len(delta.add_edges):
        edges = np.asarray(delta.add_edges, dtype=np.int64)
        adjacency[edges[:, 0], edges[:, 1]] = 1.0
        if not graph.directed:
            adjacency[edges[:, 1], edges[:, 0]] = 1.0
    if delta.remove_edges is not None and len(delta.remove_edges):
        edges = np.asarray(delta.remove_edges, dtype=np.int64)
        adjacency[edges[:, 0], edges[:, 1]] = 0.0
        if not graph.directed:
            adjacency[edges[:, 1], edges[:, 0]] = 0.0

    attributes = graph.attributes.tolil(copy=True)
    if delta.add_associations is not None and len(delta.add_associations):
        triples = np.asarray(delta.add_associations, dtype=np.float64)
        attributes[
            triples[:, 0].astype(np.int64), triples[:, 1].astype(np.int64)
        ] = triples[:, 2]
    if delta.remove_associations is not None and len(delta.remove_associations):
        pairs = np.asarray(delta.remove_associations, dtype=np.int64)
        attributes[pairs[:, 0], pairs[:, 1]] = 0.0

    return AttributedGraph(
        adjacency=adjacency.tocsr(),
        attributes=attributes.tocsr(),
        directed=graph.directed,
        labels=graph.labels,
        node_names=graph.node_names,
        attribute_names=graph.attribute_names,
    )


class IncrementalPANE:
    """PANE with warm-started updates over a stream of graph deltas.

    Parameters
    ----------
    k, alpha, epsilon, seed:
        As in :class:`repro.core.pane.PANE`.
    update_sweeps:
        CCD sweeps per update (1–3 suffice for small deltas).

    Examples
    --------
    >>> from repro.graph import attributed_sbm
    >>> import numpy as np
    >>> model = IncrementalPANE(k=16, seed=0)
    >>> emb0 = model.fit(attributed_sbm(n_nodes=60, n_attributes=20, seed=1))
    >>> delta = GraphDelta(add_edges=np.array([[0, 5]]))
    >>> emb1 = model.update(delta)
    >>> emb1.x_forward.shape == emb0.x_forward.shape
    True
    """

    def __init__(
        self,
        k: int = 128,
        alpha: float = 0.5,
        epsilon: float = 0.015,
        *,
        update_sweeps: int = 2,
        seed: int | None = 0,
    ) -> None:
        if update_sweeps < 0:
            raise ValueError("update_sweeps must be non-negative")
        self.config = PANEConfig(k=k, alpha=alpha, epsilon=epsilon, seed=seed)
        self.update_sweeps = update_sweeps
        self.graph: AttributedGraph | None = None
        self._embedding: PANEEmbedding | None = None

    # ------------------------------------------------------------------
    @property
    def embedding(self) -> PANEEmbedding:
        if self._embedding is None:
            raise RuntimeError("IncrementalPANE is not fitted")
        return self._embedding

    def fit(self, graph: AttributedGraph) -> PANEEmbedding:
        """Full (cold) fit via the standard PANE pipeline."""
        self.graph = graph
        self._embedding = PANE(config=self.config).fit(graph)
        return self._embedding

    def adopt(self, graph: AttributedGraph, embedding: PANEEmbedding) -> None:
        """Warm-start from externally persisted state instead of fitting.

        The warm update path is fully determined by ``(graph, Xf, Xb, Y)``
        — a refresh keeps no other state — so a crashed
        process can resume exactly where it left off by adopting the
        graph it reconstructed (base snapshot + log replay) and the
        embedding arrays of the last published store version.
        """
        n = graph.adjacency.shape[0]
        d = graph.attributes.shape[1]
        if embedding.x_forward.shape[0] != n or embedding.y.shape[0] != d:
            raise ValueError(
                f"embedding is {embedding.x_forward.shape[0]} nodes x "
                f"{embedding.y.shape[0]} attributes but the graph is {n} x {d}"
            )
        self.graph = graph
        self._embedding = embedding

    def update(self, delta: GraphDelta) -> PANEEmbedding:
        """Apply ``delta`` and refresh the embeddings with a warm start."""
        if self.graph is None or self._embedding is None:
            raise RuntimeError("call fit() before update()")
        if delta.is_empty():
            return self._embedding
        self.graph = apply_delta(self.graph, delta)
        return self._refresh()

    def _refresh(self) -> PANEEmbedding:
        cfg = self.config
        previous = self._embedding
        timer = Timer()
        with timer.measure("affinity"):
            pair = apmi(
                self.graph, cfg.alpha, cfg.epsilon, dangling=cfg.dangling
            )
        with timer.measure("warm_ccd"):
            state = InitState(
                x_forward=previous.x_forward.copy(),
                x_backward=previous.x_backward.copy(),
                y=previous.y.copy(),
                forward=pair.forward,
                backward=pair.backward,
            )
            refine(state, self.update_sweeps)
        self._embedding = PANEEmbedding(
            x_forward=state.x_forward,
            x_backward=state.x_backward,
            y=state.y,
            config=cfg,
            timings=dict(timer.laps),
        )
        return self._embedding
