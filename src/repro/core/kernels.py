"""Compute kernels for the PANE pipeline: CCD sweeps and Eq. (6) propagation.

CCD sweep (:func:`ccd_sweep`, Alg. 4 / Alg. 8).  The paper's sweep is
``2·k`` sequential rank-1 updates, each streaming an ``n × d`` residual
several times.  The same iterate comes out of GEMMs, because the
sequential part only lives in the ``k/2``-dimensional coefficient space:

- X phase (``Y`` fixed, ``G = YᵀY``, ``C = S·Y``): coordinate ``l`` sees the
  residual left by coordinates ``j < l``, so Alg. 4's steps satisfy
  ``μ_l = (C[:, l] − Σ_{j<l} μ_j·G[j, l]) / G[l, l]``, i.e. ``Mu·triu(G) = C``.
- Hence ``Mu = S·Z`` with ``Z = Y·triu(G)⁻¹`` — one forward substitution on
  the ``d × k/2`` side — then ``X −= Mu`` and ``S −= Mu·Yᵀ``.
- Y phase (``Xf, Xb`` fixed, ``G = XfᵀXf + XbᵀXb``, ``C = XfᵀSf + XbᵀSb``):
  ``tril(G)·Mu = C``, then ``Y −= Muᵀ``, ``Sf −= Xf·Mu``, ``Sb −= Xb·Mu``.
- That is 8 ``n × d × k/2`` GEMMs per sweep — the ``8·n·d·k`` flops the paper
  counts — and, with each span worked in cache-sized row tiles, ≈ 10 passes
  over a residual instead of ≈ 10·k, with no ``n × d`` temporary.
- ``block_size = B`` is the same recurrence with the scalar division
  replaced by the block's Gram pseudo-inverse and the triangular part by
  the block-triangular part (block Gauss–Seidel; ``B = 1`` is its
  ``1 × 1``-block case and is Alg. 4's own update order).

Numerical contract: same update order as Alg. 4 (``B = 1``) or as block
Gauss–Seidel (``B > 1``); agreement with the literal reference loops
within ``1e-10`` on the test problems (the arithmetic is re-associated,
so results are *not* bit-identical to a rank-1 implementation); residual
caches consistent with ``X·Yᵀ − F′``; objective monotone non-increasing
for every ``B``; dead coordinates take a zero step; and a single-thread
run is bit-reproducible run to run.  Serial and threaded execution are
one code path: a row-span function for the X phase, a column-span
function for the Y phase, one dispatch per phase.  ``B`` no longer buys
speed — every ``B`` costs the same 8 GEMMs — only a different update
order.

Eq. (6) propagation:

- :func:`propagate_recurrence` — the shared ping-pong evaluator used by
  APMI, PAPMI, and (in sparse form, :func:`propagate_recurrence_sparse`)
  the pruned sparse variant; two preallocated buffers per direction
  replace one allocation per hop.
- :func:`spmm_into` — sparse·dense product into a caller-owned output
  buffer (CSR fast path via ``scipy.sparse._sparsetools.csr_matvecs``,
  transparent fallback when unavailable).

See ``docs/PERFORMANCE.md`` for measurements and the
``benchmarks/bench_kernels.py`` record format.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.parallel.executor import run_blocks
from repro.parallel.partitioning import partition_spans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.greedy_init import InitState
    from repro.parallel.pool import WorkerPool

#: Denominators below this are treated as a dead coordinate and skipped.
_EPS_DENOM = 1e-300
#: Size of the residual tile a CCD span works on at a time (``_row_tiles``).
_TILE_BYTES = 512 * 1024

try:  # CSR kernels shipped with scipy; private but stable since 2008.
    from scipy.sparse import _sparsetools

    _HAVE_CSR_MATVECS = hasattr(_sparsetools, "csr_matvecs")
except ImportError:  # pragma: no cover - depends on scipy build
    _sparsetools = None
    _HAVE_CSR_MATVECS = False


# ---------------------------------------------------------------------------
# Sparse propagation kernels (Eq. 6)
# ---------------------------------------------------------------------------


def spmm_into(matrix, dense: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out ← matrix @ dense`` without allocating the product.

    The CSR fast path writes straight into ``out`` (bit-identical to
    ``matrix @ dense``, which calls the same scipy kernel); any other
    matrix type or memory layout falls back to an allocating product
    copied into ``out``.
    """
    if matrix.shape[1] != dense.shape[0] or out.shape != (
        matrix.shape[0],
        dense.shape[1],
    ):
        raise ValueError(
            f"shape mismatch: {matrix.shape} @ {dense.shape} -> {out.shape}"
        )
    if (
        _HAVE_CSR_MATVECS
        and sp.issparse(matrix)
        and matrix.format == "csr"
        and matrix.dtype == np.float64
        and dense.dtype == np.float64
        and out.dtype == np.float64
        and dense.flags.c_contiguous
        and out.flags.c_contiguous
    ):
        out.fill(0.0)
        _sparsetools.csr_matvecs(
            matrix.shape[0],
            matrix.shape[1],
            dense.shape[1],
            matrix.indptr,
            matrix.indices,
            matrix.data,
            dense.ravel(),
            out.ravel(),
        )
        return out
    np.copyto(out, np.asarray(matrix @ dense))
    return out


def propagate_recurrence(
    transition,
    p0: np.ndarray,
    alpha: float,
    t: int,
    *,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Evaluate the Alg. 2 recurrence ``p ← (1−α)·T·p + α·p0`` for ``t`` hops.

    Starting from ``p = α·p0``, this computes Eq. (6)'s truncated series
    exactly (seeding with ``α·Rr`` rather than the printed ``Rr`` — see
    :func:`repro.core.affinity.apmi`).  Instead of allocating a fresh
    ``n × c`` matrix per hop, the recurrence ping-pongs between two
    preallocated buffers.

    ``p0`` is scaled by ``alpha`` **in place** and serves as the constant
    restart term, so the caller must own it (both call sites densify a
    sparse seed immediately before calling).  Returns one of the two
    propagation buffers; ``p0`` holds ``α·p0`` afterwards.
    """
    p0 *= alpha
    if buffers is None:
        current, scratch = np.empty_like(p0), np.empty_like(p0)
    else:
        current, scratch = buffers
    np.copyto(current, p0)
    decay = 1.0 - alpha
    for _ in range(t):
        spmm_into(transition, current, scratch)
        scratch *= decay
        scratch += p0
        current, scratch = scratch, current
    return current


def prune_sparse(matrix: sp.csr_matrix, threshold: float) -> sp.csr_matrix:
    """Drop entries with magnitude below ``threshold``."""
    if threshold <= 0:
        return matrix
    matrix = matrix.tocsr()
    matrix.data[np.abs(matrix.data) < threshold] = 0.0
    matrix.eliminate_zeros()
    return matrix


def propagate_recurrence_sparse(
    transition,
    restart: sp.csr_matrix,
    alpha: float,
    t: int,
    *,
    prune_threshold: float = 0.0,
) -> sp.csr_matrix:
    """Sparse form of :func:`propagate_recurrence` with per-hop pruning.

    ``restart`` is the already ``α``-scaled seed (``α·Rr`` as CSR); each
    hop computes ``(1−α)·T·p + restart`` and prunes entries below
    ``prune_threshold``, so memory tracks the support of the affinity
    rather than ``n·d``.  With ``prune_threshold=0`` the result equals
    the dense recurrence on the same inputs.
    """
    current = restart.copy()
    decay = 1.0 - alpha
    for _ in range(t):
        current = prune_sparse(
            (decay * (transition @ current) + restart).tocsr(), prune_threshold
        )
    return current


# ---------------------------------------------------------------------------
# CCD sweep kernel (Alg. 4 / Alg. 8)
# ---------------------------------------------------------------------------


def _block_pinv(block: np.ndarray) -> np.ndarray | float:
    """(Pseudo-)inverse of one diagonal block of a phase's Gram matrix.

    A ``1 × 1`` block is Alg. 4's scalar division, with a dead coordinate
    (``denom <= _EPS_DENOM``) mapped to a zero step.  A wider block goes
    through ``pinv``, whose relative cutoff makes dead or collinear
    coordinates inside the block contribute nothing.
    """
    if block.shape == (1, 1):
        denom = block[0, 0]
        return 1.0 / denom if denom > _EPS_DENOM else 0.0
    return np.linalg.pinv(block, hermitian=True)


def _gauss_seidel_solver(gram: np.ndarray, block_size: int):
    """``solve(C)``: one pass of (block) coordinate steps, in coefficient space.

    ``gram`` is the ``k/2 × k/2`` Gram matrix of the factor held fixed in
    a phase and ``C`` is coordinate-major (``k/2 × m``, ``m ≤ d``).  Row
    block ``b`` of the result is ``G_bb⁺·(C_b − Σ_{j<b} G_bj·Mu_j)`` — the
    steps the sequential coordinate (``block_size=1``) or block updates
    take, in their order.  It is a forward substitution with the
    block-lower-triangular part of ``gram``, kept as a loop of small GEMVs
    rather than an explicit inverse, which near-collinear coordinates make
    arbitrarily ill-conditioned.  The block inverses are computed once and
    shared by every call.
    """
    blocks = [
        slice(start, start + block_size)
        for start in range(0, gram.shape[0], block_size)
    ]
    pinvs = [_block_pinv(gram[block, block]) for block in blocks]

    def solve(coef: np.ndarray) -> np.ndarray:
        steps = np.empty(coef.shape)
        for block, pinv in zip(blocks, pinvs):
            seen = slice(0, block.start)
            steps[block] = np.dot(pinv, coef[block] - gram[block, seen] @ steps[seen])
        return steps

    return solve


def _row_tiles(span: slice, width: int) -> list[slice]:
    """Cut ``span`` into row tiles of about ``_TILE_BYTES`` (``rows × width`` float64).

    A residual tile and the GEMM output subtracted from it then stay
    cache-resident instead of streaming through an ``n × d`` temporary
    (measured ≈ 10 % off a sweep; peak memory stays at the residuals).
    """
    rows = max(1, _TILE_BYTES // (8 * width))
    return [
        slice(start, min(start + rows, span.stop))
        for start in range(span.start, span.stop, rows)
    ]


def ccd_sweep(
    state: "InitState",
    *,
    block_size: int = 1,
    n_threads: int = 1,
    pool: "WorkerPool | None" = None,
) -> None:
    """One in-place CCD sweep (Alg. 4 / Alg. 8) in coefficient space.

    The X phase runs over ``n_threads`` disjoint row spans, the Y phase
    over column spans; the Gram matrix and its Gauss–Seidel solver are
    computed once per phase and shared.  ``n_threads=1`` is the one-span
    case, run inline.  See the module docstring for the derivation.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    x_forward, x_backward, y = state.x_forward, state.x_backward, state.y
    s_forward, s_backward = state.s_forward, state.s_backward
    n, d = s_forward.shape

    # X phase (Y fixed): the steps are linear in S, Mu = S·Z, so the
    # recurrence runs once on Yᵀ (k/2 × d) instead of on S·Y (n × k/2).
    z = _gauss_seidel_solver(y.T @ y, block_size)(y.T).T

    def update_rows(_: int, span: slice) -> None:
        for rows in _row_tiles(span, d):
            for x_half, s_half in ((x_forward, s_forward), (x_backward, s_backward)):
                mu = s_half[rows] @ z  # Eq. 16, every coordinate at once
                x_half[rows] -= mu  # Eqs. 13-14
                s_half[rows] -= mu @ y.T  # Eqs. 18-19

    run_blocks(
        update_rows, partition_spans(n, n_threads), n_threads=n_threads, pool=pool
    )

    # Y phase (Xf, Xb fixed): the recurrence runs on C = XfᵀSf + XbᵀSb.
    solve = _gauss_seidel_solver(
        x_forward.T @ x_forward + x_backward.T @ x_backward, block_size
    )

    def update_columns(_: int, span: slice) -> None:
        sf, sb = s_forward[:, span], s_backward[:, span]
        mu = solve(x_forward.T @ sf + x_backward.T @ sb)  # Eq. 17
        y[span] -= mu.T  # Eq. 15
        for rows in _row_tiles(slice(0, n), sf.shape[1]):
            sf[rows] -= x_forward[rows] @ mu  # Eq. 20
            sb[rows] -= x_backward[rows] @ mu

    run_blocks(
        update_columns, partition_spans(d, n_threads), n_threads=n_threads, pool=pool
    )
