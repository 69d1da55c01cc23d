"""Matrix views of an attributed graph (paper Table 1 and Eq. 1).

Provides the random-walk matrix ``P = D⁻¹A`` and the two normalized
attribute matrices:

- ``Rr`` — *row-stochastic*: ``Rr[v, r] = R[v, r] / Σ_{r'} R[v, r']`` is the
  probability that a forward walk terminating at ``v`` picks attribute ``r``;
- ``Rc`` — *column-stochastic*: ``Rc[v, r] = R[v, r] / Σ_{v'} R[v', r]`` is
  the probability that a backward walk from attribute ``r`` starts at ``v``.

Note: Eq. (1) in the paper as printed swaps the two denominators relative to
its own walk semantics in Sec. 2.2; we implement the semantics (see
DESIGN.md, "Paper typo handled").
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.attributed_graph import AttributedGraph
from repro.utils.sparse import column_normalize, row_normalize
from repro.utils.validation import DANGLING_POLICIES


def random_walk_matrix(
    graph: AttributedGraph, *, dangling: str = "zero"
) -> sp.csr_matrix:
    """Return ``P = D⁻¹A``, the out-degree-normalized transition matrix.

    Parameters
    ----------
    graph:
        The attributed network.
    dangling:
        Policy for zero-out-degree nodes: ``"zero"`` keeps an all-zero row
        (walk mass stops, matching the truncated power series of Eq. 5);
        ``"self"`` adds a self-loop so the row is stochastic.
    """
    if dangling not in DANGLING_POLICIES:
        raise ValueError(f"unknown dangling policy {dangling!r}")
    adjacency = graph.adjacency
    if dangling == "self":
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        dangling_nodes = np.flatnonzero(degrees == 0)
        if dangling_nodes.size:
            loops = sp.csr_matrix(
                (
                    np.ones(dangling_nodes.size),
                    (dangling_nodes, dangling_nodes),
                ),
                shape=adjacency.shape,
            )
            adjacency = adjacency + loops
    return row_normalize(adjacency)


def normalized_attribute_matrices(
    graph: AttributedGraph,
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Return ``(Rr, Rc)``: row- and column-stochastic attribute matrices."""
    attributes = graph.attributes
    return row_normalize(attributes), column_normalize(attributes)


def extended_adjacency(graph: AttributedGraph) -> sp.csr_matrix:
    """Adjacency of the *extended graph* 𝔾 of Sec. 2.1 / Fig. 1.

    The extended graph has ``n + d`` vertices: the original nodes followed by
    one vertex per attribute.  Every association ``(v, r, w)`` becomes a pair
    of opposing edges ``v ↔ r`` with weight ``w``; original edges are kept.
    Used by the walk simulator and by examples that want a single homogeneous
    view of the data.
    """
    n, d = graph.n_nodes, graph.n_attributes
    upper = sp.hstack([graph.adjacency, graph.attributes])
    lower = sp.hstack([graph.attributes.T, sp.csr_matrix((d, d))])
    return sp.vstack([upper, lower]).tocsr()
