"""SVDCCD — joint factorization by cyclic coordinate descent (Algorithm 4).

One CCD sweep fixes ``Y`` and updates every entry of ``Xf`` and ``Xb``
(Eqs. 13–14, 16), then fixes ``Xf, Xb`` and updates every entry of ``Y``
(Eqs. 15, 17), maintaining the residuals ``Sf = Xf Yᵀ − F′`` and
``Sb = Xb Yᵀ − B′`` incrementally (Eqs. 18–20).

Vectorization note: updating ``Xf[v, l]`` touches only ``Sf[v]``, so
distinct rows never interact — performing coordinate ``l`` for *all* rows
at once, then ``l+1``, is the paper's row-by-row order.  The same holds for
``Y`` columns.  ``ccd_sweep_reference`` below is the literal per-entry
transcription used by tests as the ground truth.

Kernel layer: every sweep runs through :func:`repro.core.kernels.ccd_sweep`,
which performs the sequential coordinate updates in the ``k/2``-dimensional
coefficient space and touches the ``n × d`` residuals only through 8 GEMMs
(derivation in that module's docstring).  ``block_size=1`` (the default)
is Alg. 4's own update order; ``block_size=B>1`` groups coordinates into
blocks, each minimized exactly through its Gram pseudo-inverse (block
Gauss–Seidel).  Every ``B`` costs the same GEMMs, so ``B`` selects an
update order, not a speed.  Numerical contract: agreement with the
literal reference within ``1e-10`` on the test problems (not bit-identity:
the arithmetic is re-associated), residual caches consistent with
``X·Yᵀ − F′``, objective monotone non-increasing for every ``B``, and a
single-thread run bit-reproducible run to run.

``PSVDCCD`` (Algorithm 8) is the same sweep with the X phase split over
row spans and the Y phase over column spans on a thread pool; spans are
disjoint, so the result matches the serial sweep up to GEMM rounding.
Pass a persistent :class:`repro.parallel.pool.WorkerPool` to amortize
thread start-up across sweeps (``PANE.fit`` does).
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.greedy_init import InitState
from repro.parallel.pool import WorkerPool


def ccd_sweep(state: InitState, *, block_size: int = 1) -> None:
    """One full in-place CCD sweep (lines 3–14 of Alg. 4) on one thread.

    ``block_size=1`` follows Alg. 4's update order; ``block_size>1``
    selects block Gauss–Seidel over coordinate blocks of that size.
    """
    kernels.ccd_sweep(state, block_size=block_size)


def ccd_sweep_reference(state: InitState) -> None:
    """Literal per-entry CCD sweep, exactly as printed in Algorithm 4.

    O(n·d·k) Python-loop implementation kept as the ground truth for the
    vectorization-equivalence test; never used in production paths.
    """
    x_forward, x_backward, y = state.x_forward, state.x_backward, state.y
    s_forward, s_backward = state.s_forward, state.s_backward
    n, half = x_forward.shape
    d = y.shape[0]

    for vi in range(n):
        for l in range(half):
            y_col = y[:, l]
            denom = float(y_col @ y_col)
            if denom <= kernels._EPS_DENOM:
                continue
            mu_f = float(s_forward[vi] @ y_col) / denom
            mu_b = float(s_backward[vi] @ y_col) / denom
            x_forward[vi, l] -= mu_f
            x_backward[vi, l] -= mu_b
            s_forward[vi] -= mu_f * y_col
            s_backward[vi] -= mu_b * y_col

    for rj in range(d):
        for l in range(half):
            xf_col = x_forward[:, l]
            xb_col = x_backward[:, l]
            denom = float(xf_col @ xf_col + xb_col @ xb_col)
            if denom <= kernels._EPS_DENOM:
                continue
            mu_y = (
                float(xf_col @ s_forward[:, rj]) + float(xb_col @ s_backward[:, rj])
            ) / denom
            y[rj, l] -= mu_y
            s_forward[:, rj] -= mu_y * xf_col
            s_backward[:, rj] -= mu_y * xb_col


def ccd_sweep_parallel(
    state: InitState,
    *,
    n_threads: int = 2,
    block_size: int = 1,
    pool: WorkerPool | None = None,
) -> None:
    """One CCD sweep with blockwise parallel X and Y phases (Alg. 8 body).

    Row spans of ``Xf/Xb`` (and their ``Sf/Sb`` rows) are updated by
    separate threads while ``Y`` is fixed, then column spans of ``Y``
    while ``Xf/Xb`` are fixed.  Spans are disjoint, so the result equals
    the serial sweep up to GEMM rounding.  ``pool`` reuses a persistent
    :class:`~repro.parallel.pool.WorkerPool` instead of spinning up two
    ephemeral pools per sweep.
    """
    kernels.ccd_sweep(state, block_size=block_size, n_threads=n_threads, pool=pool)


def objective_value(
    forward: np.ndarray,
    backward: np.ndarray,
    state: InitState,
) -> float:
    """The joint objective O of Eq. (4) at the current embeddings."""
    residual_f = state.x_forward @ state.y.T - forward
    residual_b = state.x_backward @ state.y.T - backward
    return float(np.sum(residual_f**2) + np.sum(residual_b**2))


def cached_objective(state: InitState) -> float:
    """Objective O of Eq. (4) read off the maintained residual caches.

    Equals :func:`objective_value` (up to incremental-update drift) at
    O(n·d) cost with no matrix product and no temporary.
    """
    return float(
        np.einsum("ij,ij->", state.s_forward, state.s_forward)
        + np.einsum("ij,ij->", state.s_backward, state.s_backward)
    )


def refine(
    state: InitState,
    n_sweeps: int,
    *,
    n_threads: int = 1,
    tolerance: float | None = None,
    block_size: int = 1,
    pool: WorkerPool | None = None,
) -> InitState:
    """Run up to ``n_sweeps`` CCD sweeps in place and return the state.

    ``n_threads > 1`` splits each phase over that many spans (PSVDCCD);
    ``block_size > 1`` selects block Gauss–Seidel (see the module
    docstring).  With ``tolerance`` set, sweeps stop early once the
    relative objective improvement of a sweep falls below it.  ``pool``
    threads a persistent worker pool through the sweeps.
    """
    previous = cached_objective(state) if tolerance is not None else None
    for _ in range(n_sweeps):
        kernels.ccd_sweep(
            state, block_size=block_size, n_threads=n_threads, pool=pool
        )
        if tolerance is not None:
            current = cached_objective(state)
            if previous > 0 and (previous - current) / previous < tolerance:
                break
            previous = current
    return state


def refine_tracked(
    state: InitState,
    n_sweeps: int,
    *,
    n_threads: int = 1,
    block_size: int = 1,
    pool: WorkerPool | None = None,
) -> tuple[InitState, list[float]]:
    """Like :func:`refine`, also returning the objective after every sweep.

    The first history entry is the pre-refinement objective, so the list
    has ``n_sweeps + 1`` entries.
    """
    history = [cached_objective(state)]
    for _ in range(n_sweeps):
        kernels.ccd_sweep(
            state, block_size=block_size, n_threads=n_threads, pool=pool
        )
        history.append(cached_objective(state))
    return state, history
