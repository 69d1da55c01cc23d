"""SVDCCD — joint factorization by cyclic coordinate descent (Algorithm 4).

One CCD sweep fixes ``Y`` and updates every entry of ``Xf`` and ``Xb``
(Eqs. 13–14, 16), then fixes ``Xf, Xb`` and updates every entry of ``Y``
(Eqs. 15, 17).  As printed, the algorithm maintains the residuals
``Sf = Xf Yᵀ − F′`` and ``Sb = Xb Yᵀ − B′`` incrementally (Eqs. 18–20);
``ccd_sweep_reference`` below is that literal per-entry transcription,
building its residuals on entry, and is the ground truth the tests
compare against.

Vectorization note: updating ``Xf[v, l]`` touches only ``Sf[v]``, so
distinct rows never interact — performing coordinate ``l`` for *all* rows
at once, then ``l+1``, is the paper's row-by-row order.  The same holds for
``Y`` columns.

Kernel layer: :func:`refine` and :func:`refine_tracked` run
:func:`repro.core.kernels.ccd_sweeps`, which performs the sequential
coordinate updates in the ``k/2``-dimensional coefficient space and never
forms a residual.  On a state with ``Xf``, ``Xb`` it reads the fixed
affinities ``F′``, ``B′`` three times per refinement, however many sweeps
(twice for their Gram, once for the final write of ``Xf``, ``Xb``); from
``PANE.fit``'s Gram start (no ``X`` yet, the Gram ``F′ᵀF′ + B′ᵀB′`` already
summed by the init) only once, to write them.  It writes only ``Xf``,
``Xb``, ``Y`` and returns the Eq. (4) objective before and after every sweep
(derivation, costs and numerical contract in that module's docstring).  :func:`ccd_sweep` is one
sweep on the ``n``-side (4 GEMMs), the form ``ccd_sweeps`` is tested
against.  ``block_size=1`` (the default) is Alg. 4's own update order;
``block_size=B>1`` groups coordinates into blocks, each minimized exactly
through its Gram pseudo-inverse (block Gauss–Seidel) — an update order,
not a speed.

``PSVDCCD`` (Algorithm 8) is the same sweep with the rows split over
``n_threads`` spans; the spans' partial sums are added in span order, so
the result matches the serial sweep up to GEMM rounding and repeats bit
for bit at a given thread count.  Pass a persistent
:class:`repro.parallel.pool.WorkerPool` to amortize thread start-up across
sweeps (``PANE.fit`` does).
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.greedy_init import InitState
from repro.parallel.pool import WorkerPool


#: One in-place CCD sweep — lines 3–14 of Alg. 4, or the Alg. 8 body with
#: ``n_threads > 1`` — returning the objective it ends at: the kernel itself.
ccd_sweep = kernels.ccd_sweep


def ccd_sweep_reference(state: InitState) -> None:
    """Literal per-entry CCD sweep, exactly as printed in Algorithm 4.

    O(n·d·k) Python-loop implementation kept as the ground truth for the
    vectorization-equivalence test; never used in production paths.  The
    residuals Alg. 4 carries are built from ``state.forward`` /
    ``state.backward`` on entry and dropped on return.
    """
    x_forward, x_backward, y = state.x_forward, state.x_backward, state.y
    residual_f = x_forward @ y.T - state.forward
    residual_b = x_backward @ y.T - state.backward
    n, half = x_forward.shape
    d = y.shape[0]

    for vi in range(n):
        for l in range(half):
            y_col = y[:, l]
            denom = float(y_col @ y_col)
            if denom <= kernels._EPS_DENOM:
                continue
            mu_f = float(residual_f[vi] @ y_col) / denom
            mu_b = float(residual_b[vi] @ y_col) / denom
            x_forward[vi, l] -= mu_f
            x_backward[vi, l] -= mu_b
            residual_f[vi] -= mu_f * y_col
            residual_b[vi] -= mu_b * y_col

    for rj in range(d):
        for l in range(half):
            xf_col = x_forward[:, l]
            xb_col = x_backward[:, l]
            denom = float(xf_col @ xf_col + xb_col @ xb_col)
            if denom <= kernels._EPS_DENOM:
                continue
            mu_y = (
                float(xf_col @ residual_f[:, rj]) + float(xb_col @ residual_b[:, rj])
            ) / denom
            y[rj, l] -= mu_y
            residual_f[:, rj] -= mu_y * xf_col
            residual_b[:, rj] -= mu_y * xb_col


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
    """Objective O of Eq. (4) evaluated from the state's current arrays.

    The expansion a sweep returns (:func:`repro.core.kernels.objective_from_moments`):
    two skinny ``k/2 × n × d`` products in row tiles, no ``n × d`` temporary
    and nothing stored that could go stale.  Equals :func:`objective_value`
    to rounding.
    """
    moments = kernels.span_moments(state, slice(0, state.forward.shape[0]))
    return kernels.objective_from_moments(*moments, state.y)


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
    kernels.ccd_sweeps(
        state,
        n_sweeps,
        block_size=block_size,
        n_threads=n_threads,
        pool=pool,
        tolerance=tolerance,
    )
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
    history = kernels.ccd_sweeps(
        state, n_sweeps, block_size=block_size, n_threads=n_threads, pool=pool
    )
    return state, history
