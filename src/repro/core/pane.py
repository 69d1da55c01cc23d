"""The PANE estimator (Algorithms 1 and 5) and its embedding result object.

Usage::

    from repro import PANE, attributed_sbm

    graph = attributed_sbm(seed=0)
    embedding = PANE(k=64, n_threads=4).fit(graph)
    X = embedding.node_embeddings()          # n × k feature matrix
    embedding.attribute_embeddings           # d × k/2

``n_threads=1`` runs the single-thread pipeline (APMI → GreedyInit →
SVDCCD); ``n_threads>1`` the parallel one (PAPMI → SMGreedyInit →
PSVDCCD).  The two differ only through the split-merge SVD, whose small
accuracy cost the paper quantifies in Sec. 5.5–5.6 (the affinities are
the same bits at every thread count).

Performance notes: ``fit`` acquires one persistent
:class:`~repro.parallel.pool.WorkerPool` and threads it through every
parallel phase (the seed tore down two thread pools per CCD sweep).  CCD
sweeps run in coefficient space directly on the read-only affinities — 4
GEMMs per sweep, no residual matrices — for every ``ccd_block_size``,
which therefore selects an update order — ``1`` for Alg. 4's, ``B > 1``
for block Gauss–Seidel — not a speed; a single-thread fit is
bit-reproducible run to run (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from repro.core.affinity import AffinityPair, apmi, iterations_for_epsilon
from repro.core.config import PANEConfig
from repro.core.embedding import PANEEmbedding
from repro.core.greedy_init import greedy_init, random_init, sm_greedy_init
from repro.core.svd_ccd import cached_objective, ccd_sweep
from repro.graph.attributed_graph import AttributedGraph
from repro.parallel.pool import WorkerPool
from repro.utils.timing import Timer
from repro.utils.validation import check_embedding_dim


class PANE:
    """Scalable attributed network embedding (Yang et al., VLDB 2020).

    Parameters mirror :class:`PANEConfig`; pass either a config object or
    keyword overrides.

    Examples
    --------
    >>> from repro.graph import attributed_sbm
    >>> graph = attributed_sbm(n_nodes=120, n_attributes=32, seed=1)
    >>> emb = PANE(k=16, seed=0).fit(graph)
    >>> emb.node_embeddings().shape
    (120, 16)
    """

    def __init__(
        self,
        k: int = 128,
        alpha: float = 0.5,
        epsilon: float = 0.015,
        *,
        n_threads: int = 1,
        ccd_iterations: int | None = None,
        svd_power_iterations: int = 5,
        dangling: str = "zero",
        seed: int | None = 0,
        ccd_block_size: int = 1,
        init: str = "greedy",
        config: PANEConfig | None = None,
    ) -> None:
        if config is None:
            config = PANEConfig(
                k=k,
                alpha=alpha,
                epsilon=epsilon,
                n_threads=n_threads,
                ccd_iterations=ccd_iterations,
                svd_power_iterations=svd_power_iterations,
                dangling=dangling,
                seed=seed,
                ccd_block_size=ccd_block_size,
            )
        if init not in ("greedy", "random"):
            raise ValueError(f"init must be 'greedy' or 'random', got {init!r}")
        self.config = config
        self.init = init

    # ------------------------------------------------------------------
    def compute_affinity(
        self, graph: AttributedGraph, *, pool: WorkerPool | None = None
    ) -> AffinityPair:
        """Phase 1: approximate affinity matrices (APMI; PAPMI when threaded)."""
        cfg = self.config
        return apmi(
            graph,
            cfg.alpha,
            cfg.epsilon,
            dangling=cfg.dangling,
            n_threads=cfg.n_threads,
            pool=pool,
        )

    def fit(self, graph: AttributedGraph, *, compute_objective: bool = False) -> PANEEmbedding:
        """Train embeddings for ``graph`` (Algorithm 1 / Algorithm 5).

        Parameters
        ----------
        graph:
            The attributed network.
        compute_objective:
            Also report the final Eq. (4) objective — the value the last
            CCD sweep returns, so it costs nothing extra.
        """
        cfg = self.config
        check_embedding_dim(cfg.k, graph.n_nodes, graph.n_attributes)
        t = iterations_for_epsilon(cfg.epsilon, cfg.alpha)
        n_sweeps = cfg.ccd_iterations if cfg.ccd_iterations is not None else t
        timer = Timer()

        # One persistent pool for every parallel phase: PAPMI, the two
        # SMGreedyInit stages, and all PSVDCCD sweeps share its threads
        # instead of each creating (and tearing down) their own pools.
        pool = WorkerPool(cfg.n_threads) if cfg.n_threads > 1 else None
        try:
            with timer.measure("affinity"):
                affinity = self.compute_affinity(graph, pool=pool)

            with timer.measure("init"):
                if self.init == "random":
                    state = random_init(
                        affinity.forward, affinity.backward, cfg.k, seed=cfg.seed
                    )
                elif cfg.n_threads > 1:
                    state = sm_greedy_init(
                        affinity.forward,
                        affinity.backward,
                        cfg.k,
                        n_threads=cfg.n_threads,
                        svd_iterations=cfg.svd_power_iterations,
                        seed=cfg.seed,
                        pool=pool,
                    )
                else:
                    state = greedy_init(
                        affinity.forward,
                        affinity.backward,
                        cfg.k,
                        svd_iterations=cfg.svd_power_iterations,
                        seed=cfg.seed,
                    )

            with timer.measure("ccd"):
                objective = None
                for _ in range(n_sweeps):
                    objective = ccd_sweep(
                        state,
                        n_threads=cfg.n_threads,
                        block_size=cfg.ccd_block_size,
                        pool=pool,
                    )
        finally:
            if pool is not None:
                pool.close()

        if compute_objective and objective is None:  # no sweep ran
            objective = cached_objective(state)

        return PANEEmbedding(
            x_forward=state.x_forward,
            x_backward=state.x_backward,
            y=state.y,
            config=cfg,
            timings=dict(timer.laps),
            objective=objective if compute_objective else None,
        )
