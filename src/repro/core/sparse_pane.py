"""Memory-lean sparse PANE variant.

The reference pipeline stores the affinity matrices densely — O(n·d)
memory, which is exactly why the paper's MAG run needs a 1TB-RAM server
(59M × 2000 doubles ≈ 0.9TB).  This module provides the natural
memory-constrained alternative:

- ``apmi_sparse`` runs the Eq. (6) propagation on scipy sparse matrices
  (through the shared kernel
  :func:`repro.core.kernels.propagate_recurrence_sparse`), pruning
  entries below ``prune_threshold`` after every hop, so memory tracks
  the *support* of the affinity rather than ``n·d``;
- ``SparsePANE`` embeds from the pruned matrices with GreedyInit only
  (rank-``k/2`` SVD of sparse ``F′`` + ``Xb = B′Y``), skipping the CCD
  refinement.  That used to be forced — Alg. 4's residual caches are
  dense ``n × d`` whatever ``F′`` is — and no longer is: the sweeps in
  :mod:`repro.core.kernels` touch the affinities only through products
  (``F′·Z`` and ``XᵀF′`` per sweep, or the Gram ``F′ᵀF′`` and ``F′·B`` once
  per refinement), which a sparse ``F′`` supports.  Sparse refinement is
  left to a later issue.

Figures 7/8 of the paper show the greedy seed alone already lands close
to the converged quality, which is what makes this trade-off usable; the
accompanying tests quantify the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.affinity import iterations_for_epsilon
from repro.core.config import PANEConfig
from repro.core.kernels import propagate_recurrence_sparse
from repro.core.pane import PANEEmbedding
from repro.core.randsvd import randsvd
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.matrices import normalized_attribute_matrices, random_walk_matrix
from repro.utils.sparse import column_normalize, row_normalize
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class SparseAffinityPair:
    """Pruned sparse affinity matrices and their nonzero budgets."""

    forward: sp.csr_matrix
    backward: sp.csr_matrix
    prune_threshold: float

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to the dense n×d layout."""
        n, d = self.forward.shape
        return (self.forward.nnz + self.backward.nnz) / (2.0 * n * d)


def apmi_sparse(
    graph: AttributedGraph,
    alpha: float = 0.5,
    epsilon: float = 0.015,
    *,
    prune_threshold: float = 1e-4,
    n_iterations: int | None = None,
    dangling: str = "zero",
) -> SparseAffinityPair:
    """APMI with per-hop pruning, fully sparse (Alg. 2 on CSR matrices).

    ``prune_threshold`` bounds the extra entrywise error added on top of
    Lemma 3.1's ϵ bound by roughly ``t · threshold`` (each hop drops at
    most ``threshold`` of probability mass per entry).
    """
    alpha = check_probability(alpha, "alpha")
    if prune_threshold < 0:
        raise ValueError("prune_threshold must be non-negative")
    t = (
        n_iterations
        if n_iterations is not None
        else iterations_for_epsilon(epsilon, alpha)
    )
    transition = random_walk_matrix(graph, dangling=dangling)
    transition_t = transition.T.tocsr()
    rr, rc = normalized_attribute_matrices(graph)

    # Same Eq. (6) recurrence as APMI/PAPMI, via the shared sparse kernel.
    pf = propagate_recurrence_sparse(
        transition, (alpha * rr).tocsr(), alpha, t, prune_threshold=prune_threshold
    )
    pb = propagate_recurrence_sparse(
        transition_t, (alpha * rc).tocsr(), alpha, t, prune_threshold=prune_threshold
    )

    n, d = graph.n_nodes, graph.n_attributes
    pf_hat = column_normalize(pf)
    pb_hat = row_normalize(pb)
    # log2(1 + n·p) applied to nonzeros only: zero entries map to zero,
    # so the SPMI transform preserves sparsity exactly.
    forward = pf_hat.tocsr()
    forward.data = np.log2(1.0 + n * forward.data)
    backward = pb_hat.tocsr()
    backward.data = np.log2(1.0 + d * backward.data)
    return SparseAffinityPair(
        forward=forward, backward=backward, prune_threshold=prune_threshold
    )


class SparsePANE:
    """Init-only PANE on pruned sparse affinities (no dense intermediates).

    Produces the same embedding family as ``PANE(ccd_iterations=0)`` but
    never materializes an ``n × d`` dense matrix.  Quality sits at the
    GreedyInit point of the Figs. 7/8 frontier.
    """

    def __init__(
        self,
        k: int = 128,
        alpha: float = 0.5,
        epsilon: float = 0.015,
        *,
        prune_threshold: float = 1e-4,
        svd_power_iterations: int = 5,
        seed: int | None = 0,
    ) -> None:
        self.config = PANEConfig(
            k=k,
            alpha=alpha,
            epsilon=epsilon,
            svd_power_iterations=svd_power_iterations,
            seed=seed,
        )
        self.prune_threshold = prune_threshold

    def fit(self, graph: AttributedGraph) -> PANEEmbedding:
        """Embed ``graph`` sparsely; returns a standard PANEEmbedding."""
        cfg = self.config
        pair = apmi_sparse(
            graph,
            cfg.alpha,
            cfg.epsilon,
            prune_threshold=self.prune_threshold,
            dangling=cfg.dangling,
        )
        half = cfg.half_dim
        u, sigma, v = randsvd(
            pair.forward, half, cfg.svd_power_iterations, seed=cfg.seed
        )
        x_forward = u * sigma
        y = v
        x_backward = np.asarray(pair.backward @ y)
        return PANEEmbedding(
            x_forward=x_forward, x_backward=x_backward, y=y, config=cfg
        )
