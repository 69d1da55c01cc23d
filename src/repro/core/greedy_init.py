"""Greedy seeding of the CCD optimizer (Algorithms 3 and 7).

``GreedyInit`` decomposes ``F′ ≈ U Σ Vᵀ`` with RandSVD and seeds

- ``Xf = U Σ`` and ``Y = V``   (so ``Xf Yᵀ ≈ F′`` immediately), and
- ``Xb = B′ Y``                (because ``V`` is near-unitary,
  ``Xb Yᵀ ≈ B′ Y Yᵀ ≈ B′``).

The state handed to the CCD sweeps carries these three factors and
*references* to ``F′``, ``B′``, which the sweeps read and never write; no
residual ``Xf Yᵀ − F′`` is formed (see :mod:`repro.core.kernels`).

``SMGreedyInit`` is the split-merge parallel variant: each thread SVDs a
row block of ``F′``; the per-block right factors are stacked and SVD'd
again to produce a single shared ``Y`` (Lemma 4.2 shows the limit with
exact SVDs reproduces ``Xf Yᵀ = F′`` and unitary ``Y``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.randsvd import randsvd
from repro.parallel.executor import run_blocks
from repro.parallel.partitioning import partition_spans
from repro.parallel.pool import WorkerPool
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass
class InitState:
    """Embeddings plus the fixed affinities, handed from init to the CCD sweeps."""

    x_forward: np.ndarray  # Xf, n × k/2
    x_backward: np.ndarray  # Xb, n × k/2
    y: np.ndarray  # Y, d × k/2
    forward: np.ndarray  # F′, n × d — a reference, only ever read
    backward: np.ndarray  # B′, n × d — a reference, only ever read


def greedy_init(
    forward: np.ndarray,
    backward: np.ndarray,
    k: int,
    *,
    svd_iterations: int = 5,
    seed: int | np.random.Generator | None = None,
    exact: bool = False,
) -> InitState:
    """GreedyInit (Algorithm 3).

    Parameters
    ----------
    forward, backward:
        The approximate affinity matrices ``F′``, ``B′`` (dense ``n × d``).
    k:
        Space budget; embeddings have ``k/2`` columns.
    svd_iterations:
        Power iterations for RandSVD.
    seed:
        RNG for RandSVD.
    exact:
        Use a full SVD (for the Lemma 4.2 limit tests).
    """
    half = k // 2
    u, sigma, v = randsvd(forward, half, svd_iterations, seed=seed, exact=exact)
    # UΣ without materializing the diagonal; Y = V; Xb = B′Y.
    return InitState(u * sigma, backward @ v, v, forward, backward)


def sm_greedy_init(
    forward: np.ndarray,
    backward: np.ndarray,
    k: int,
    *,
    n_threads: int = 2,
    svd_iterations: int = 5,
    seed: int | np.random.Generator | None = None,
    exact: bool = False,
    pool: WorkerPool | None = None,
) -> InitState:
    """SMGreedyInit — split-merge parallel initialization (Algorithm 7).

    Row blocks of ``F′`` are factorized independently (lines 1–3); the
    stacked right factors are re-factorized to merge them into one shared
    attribute basis ``Y`` (lines 4–6); finally the per-block embeddings
    are assembled (lines 7–11).  Row blocks are contiguous spans, so each
    block of ``F′``/``B′`` is a view.  ``pool`` reuses a persistent
    :class:`~repro.parallel.pool.WorkerPool` for both parallel stages.
    """
    n, _ = forward.shape
    half = k // 2
    # Every row block must have at least k/2 rows for its rank-k/2 SVD to
    # exist; clip the block count on small graphs rather than failing.
    n_threads = max(1, min(n_threads, n // half if n >= half else 1))
    node_blocks = partition_spans(n, n_threads)
    # One RandSVD seed per block and one for the merge: ``seed + i`` for an
    # int; child generators for a Generator, which threads must not share.
    if isinstance(seed, np.random.Generator):
        seeds = spawn_rngs(seed, len(node_blocks) + 1)
    else:
        seeds = [None if seed is None else seed + i for i in range(len(node_blocks) + 1)]

    def factor_block(i: int, rows: slice):
        u_block, sigma, v_block = randsvd(
            forward[rows], half, svd_iterations, seed=seeds[i], exact=exact
        )
        return u_block * sigma, v_block

    factored = run_blocks(factor_block, node_blocks, n_threads=n_threads, pool=pool)
    u_blocks = [u for u, _ in factored]
    # V ← [V1 · · · Vnb]ᵀ  ∈ R^{(nb·k/2) × d}
    stacked = np.vstack([v.T for _, v in factored])
    phi, sigma, y = randsvd(stacked, half, svd_iterations, seed=seeds[-1], exact=exact)
    w = phi * sigma  # (nb·k/2) × k/2

    x_forward = np.empty((n, half))
    x_backward = np.empty((n, half))

    def assemble(i: int, rows: slice) -> None:
        w_block = w[i * half : (i + 1) * half]
        np.matmul(u_blocks[i], w_block, out=x_forward[rows])
        np.matmul(backward[rows], y, out=x_backward[rows])

    run_blocks(assemble, node_blocks, n_threads=n_threads, pool=pool)
    return InitState(x_forward, x_backward, y, forward, backward)


def random_init(
    forward: np.ndarray,
    backward: np.ndarray,
    k: int,
    *,
    seed: int | np.random.Generator | None = None,
    scale: float = 0.1,
) -> InitState:
    """Random Gaussian initialization — the PANE-R ablation (Sec. 5.7)."""
    rng = ensure_rng(seed)
    n, d = forward.shape
    half = k // 2
    x_forward = rng.normal(scale=scale, size=(n, half))
    x_backward = rng.normal(scale=scale, size=(n, half))
    y = rng.normal(scale=scale, size=(d, half))
    return InitState(x_forward, x_backward, y, forward, backward)
