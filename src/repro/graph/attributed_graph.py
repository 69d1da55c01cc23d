"""The attributed network ``G = (V, E_V, R, E_R)`` of the paper (Sec. 2.1).

``AttributedGraph`` is the single data structure every algorithm in this
library consumes.  It stores:

- a sparse adjacency matrix ``A`` (``n × n``, CSR, float64, directed);
- a sparse attribute matrix ``R`` (``n × d``, CSR, non-negative weights),
  whose entry ``R[v, r]`` is the weight ``w_{v,r}`` of association
  ``(v, r, w) ∈ E_R``;
- optional node labels (single- or multi-label) used only by the node
  classification task.

Undirected input graphs are symmetrized on construction, matching the
paper's convention of replacing each undirected edge with two directed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


def check_csr(matrix, name: str) -> sp.csr_matrix:
    """Coerce ``matrix`` to CSR with float64 data, validating shape."""
    if not sp.issparse(matrix):
        matrix = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
    matrix = matrix.tocsr()
    if matrix.dtype != np.float64:
        matrix = matrix.astype(np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional")
    if matrix.nnz and not np.all(np.isfinite(matrix.data)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return matrix


@dataclass
class AttributedGraph:
    """An attributed, directed graph.

    Parameters
    ----------
    adjacency:
        ``n × n`` sparse matrix; nonzero ``A[i, j]`` means a directed edge
        ``i → j``.  Binary in the paper; arbitrary positive weights are
        accepted.
    attributes:
        ``n × d`` sparse non-negative matrix of node-attribute weights.
    directed:
        If ``False`` the adjacency is symmetrized (max of ``A`` and ``Aᵀ``).
    labels:
        Optional ``n``-vector of integer class ids, or an ``n × |L|``
        binary indicator matrix for multi-label graphs.
    node_names / attribute_names:
        Optional human-readable identifiers, for examples and reports.
    """

    adjacency: sp.csr_matrix
    attributes: sp.csr_matrix
    directed: bool = True
    labels: np.ndarray | None = None
    node_names: list[str] | None = None
    attribute_names: list[str] | None = None
    _out_degrees: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.adjacency = check_csr(self.adjacency, "adjacency")
        self.attributes = check_csr(self.attributes, "attributes")
        n_adj = self.adjacency.shape[0]
        if self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise ValueError(
                f"adjacency must be square, got shape {self.adjacency.shape}"
            )
        if self.attributes.shape[0] != n_adj:
            raise ValueError(
                f"attributes has {self.attributes.shape[0]} rows "
                f"but the graph has {n_adj} nodes"
            )
        if self.attributes.nnz and self.attributes.data.min() < 0:
            raise ValueError("attribute weights must be non-negative")
        if not self.directed:
            self.adjacency = self.adjacency.maximum(self.adjacency.T).tocsr()
        self.adjacency.eliminate_zeros()
        self.attributes.eliminate_zeros()
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape[0] != n_adj:
                raise ValueError(
                    f"labels has {self.labels.shape[0]} entries "
                    f"but the graph has {n_adj} nodes"
                )

    # ------------------------------------------------------------------
    # basic statistics
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of directed edges ``m`` (each undirected edge counts twice)."""
        return int(self.adjacency.nnz)

    @property
    def n_attributes(self) -> int:
        """Number of attributes ``d``."""
        return self.attributes.shape[1]

    @property
    def n_associations(self) -> int:
        """Number of node-attribute associations ``|E_R|``."""
        return int(self.attributes.nnz)

    @property
    def out_degrees(self) -> np.ndarray:
        """Weighted out-degree of every node (cached)."""
        if self._out_degrees is None:
            self._out_degrees = np.asarray(self.adjacency.sum(axis=1)).ravel()
        return self._out_degrees

    @property
    def n_labels(self) -> int:
        """Number of distinct labels, 0 if the graph is unlabeled."""
        if self.labels is None:
            return 0
        if self.labels.ndim == 2:
            return self.labels.shape[1]
        return int(self.labels.max()) + 1

    @property
    def is_multilabel(self) -> bool:
        """True when labels are stored as an indicator matrix."""
        return self.labels is not None and self.labels.ndim == 2

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def with_adjacency(self, adjacency: sp.spmatrix) -> "AttributedGraph":
        """Return a copy of this graph with a replaced edge set.

        Used by the link-prediction task to build the residual graph after
        removing test edges; attributes and labels are shared (not copied).
        """
        return AttributedGraph(
            adjacency=adjacency,
            attributes=self.attributes,
            directed=self.directed,
            labels=self.labels,
            node_names=self.node_names,
            attribute_names=self.attribute_names,
        )

    def with_attributes(self, attributes: sp.spmatrix) -> "AttributedGraph":
        """Return a copy with a replaced attribute matrix (for E_R splits)."""
        return AttributedGraph(
            adjacency=self.adjacency,
            attributes=attributes,
            directed=self.directed,
            labels=self.labels,
            node_names=self.node_names,
            attribute_names=self.attribute_names,
        )

    def edge_list(self) -> np.ndarray:
        """Return the edges as an ``m × 2`` int array of (source, target)."""
        coo = self.adjacency.tocoo()
        return np.column_stack([coo.row, coo.col]).astype(np.int64)

    def has_edge(self, source: int, target: int) -> bool:
        """True when the directed edge ``source → target`` exists."""
        return bool(self.adjacency[source, target] != 0)

    def out_neighbors(self, node: int) -> np.ndarray:
        """Indices of out-neighbors of ``node``."""
        return self.adjacency.indices[
            self.adjacency.indptr[node] : self.adjacency.indptr[node + 1]
        ]

    def summary(self) -> str:
        """One-line dataset summary in the style of the paper's Table 3."""
        return (
            f"AttributedGraph(n={self.n_nodes}, m={self.n_edges}, "
            f"d={self.n_attributes}, |E_R|={self.n_associations}, "
            f"|L|={self.n_labels}, directed={self.directed})"
        )

    def __repr__(self) -> str:
        return self.summary()
