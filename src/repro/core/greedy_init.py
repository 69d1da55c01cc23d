"""Greedy seeding of the CCD optimizer (Algorithms 3 and 7).

Alg. 3 (GreedyInit) seeds ``Y = V`` from a RandSVD ``F′ ≈ U Σ Vᵀ``,
``Xf = U Σ`` and ``Xb = B′ Y``.  Here the RandSVD runs on the ``d × d``
Gram ``C_f = F′ᵀF′`` (:func:`repro.core.randsvd.randsvd_gram`: ``randsvd``'s
Gaussian ``Ω``, iterations and oversampling, ``V ⊂ span(C_f^(q+1)·Ω)``) and
the start is ``X = [F′; B′]·Y``.  ``F′ Y = U Σ`` for exact singular
vectors; for approximate ones ``F′ Y`` is the best ``Xf`` for that ``Y``.

CCD needs ``C = F′ᵀF′ + B′ᵀB′`` anyway (:func:`repro.core.kernels.ccd_sweeps`),
so :func:`gram_start` sums ``C_f`` and ``C_b`` over row spans in one
dispatch (a syrk per span and matrix), takes ``Y`` from ``C_f`` for
``O(q·d²·w)`` on the ``d`` side, and hands CCD a :class:`GramStart`: ``X``
implied, not written, plus ``C``.  CCD writes ``X`` once at the end, so a
fit reads ``F′``/``B′`` twice after APMI.  The Gram rounds ``σ_j²`` at
``ε·σ₁²``: singular values below ``√ε·σ₁`` are not told apart, which only
moves the start CCD refines (``tests/property/test_property_greedy_init.py``
states the bound measured against the ``randsvd`` form).

Alg. 7 (SMGreedyInit) SVD'd row blocks of ``F′`` and merged their right
factors with one more SVD; with exact SVDs the merge reproduces
``Xf Yᵀ = F′`` and a unitary ``Y`` (Lemma 4.2).  A Gram is a sum over row
blocks, so here the blocks are the spans of the Gram dispatch and the
merge is the sum of their partials: :func:`sm_greedy_init` returns the
serial ``Y`` up to that sum's order at any thread count, and Lemma 4.2's
limit (``exact=True``: the top eigenvectors of ``C_f``) holds as for Alg. 3.
:func:`greedy_init` and :func:`sm_greedy_init` return the start with ``X``
written (zero sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import ccd_sweeps
from repro.core.randsvd import randsvd_gram
from repro.parallel.executor import run_blocks
from repro.parallel.partitioning import partition_spans
from repro.parallel.pool import WorkerPool
from repro.utils.rng import ensure_rng


@dataclass
class InitState:
    """Embeddings plus the fixed affinities, handed from init to the CCD sweeps."""

    x_forward: np.ndarray  # Xf, n × k/2
    x_backward: np.ndarray  # Xb, n × k/2
    y: np.ndarray  # Y, d × k/2
    forward: np.ndarray  # F′, n × d — a reference, only ever read
    backward: np.ndarray  # B′, n × d — a reference, only ever read


@dataclass
class GramStart(InitState):
    """GreedyInit's start before CCD has written ``X`` (:func:`gram_start`).

    ``x_forward``/``x_backward`` are ``None``: ``X = [F′; B′]·Y`` is
    implied, and ``gram`` holds ``C = F′ᵀF′ + B′ᵀB′``.
    :func:`~repro.core.kernels.ccd_sweeps` starts from ``C`` when ``X`` is
    absent, then writes ``X`` and drops ``gram``, so it is read only while
    it describes the state.
    """

    gram: np.ndarray | None = None


def _span_grams(forward: np.ndarray, backward: np.ndarray, span: slice):
    """``(F′ᵀF′, B′ᵀB′)`` over the rows of ``span``: one syrk each."""
    f, b = forward[span], backward[span]
    return f.T @ f, b.T @ b


def gram_start(
    forward: np.ndarray,
    backward: np.ndarray,
    k: int,
    *,
    svd_iterations: int = 5,
    seed: int | np.random.Generator | None = None,
    exact: bool = False,
    n_threads: int = 1,
    pool: WorkerPool | None = None,
) -> GramStart:
    """GreedyInit's start with ``X = [F′; B′]·Y`` left implicit (module docstring).

    One dispatch over ``n_threads`` row spans reads ``F′`` and ``B′`` once
    for their Grams; everything else is ``d × d``.  The state goes to
    :func:`~repro.core.kernels.ccd_sweeps`, which writes ``X``.
    """
    partials = run_blocks(
        lambda _, span: _span_grams(forward, backward, span),
        partition_spans(forward.shape[0], n_threads),
        n_threads=n_threads,
        pool=pool,
    )
    # Added in span order, so a thread count always gives the same bits.
    gram_f, gram_b = (sum(parts) for parts in zip(*partials))
    y = randsvd_gram(
        gram_f,
        k // 2,
        svd_iterations,
        n_rows=forward.shape[0],
        seed=seed,
        exact=exact,
    )
    return GramStart(None, None, y, forward, backward, gram_f + gram_b)


def greedy_init(
    forward: np.ndarray,
    backward: np.ndarray,
    k: int,
    *,
    svd_iterations: int = 5,
    seed: int | np.random.Generator | None = None,
    exact: bool = False,
) -> InitState:
    """GreedyInit (Algorithm 3): ``Y`` from the RandSVD of ``F′``, ``X = [F′; B′]·Y``.

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
        Use an exact eigendecomposition (for the Lemma 4.2 limit tests).
    """
    return sm_greedy_init(
        forward,
        backward,
        k,
        n_threads=1,
        svd_iterations=svd_iterations,
        seed=seed,
        exact=exact,
    )


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

    The row blocks (lines 1–3) are ``n_threads`` spans of the Gram
    dispatch, the merge (lines 4–6) is the sum of their partials, and the
    per-block embeddings (lines 7–11) are written by one more dispatch:
    :func:`greedy_init`'s start, up to the order of that sum.  ``pool``
    reuses a persistent :class:`~repro.parallel.pool.WorkerPool` for both.
    """
    state = gram_start(
        forward,
        backward,
        k,
        svd_iterations=svd_iterations,
        seed=seed,
        exact=exact,
        n_threads=n_threads,
        pool=pool,
    )
    ccd_sweeps(state, 0, n_threads=n_threads, pool=pool)  # writes X
    return InitState(state.x_forward, state.x_backward, state.y, forward, backward)


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
