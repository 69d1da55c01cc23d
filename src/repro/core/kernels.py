"""Compute kernels for the PANE pipeline: CCD sweeps and Eq. (6) propagation.

CCD sweep (:func:`ccd_sweep`, Alg. 4 / Alg. 8).  The paper's sweep is
``2·k`` sequential rank-1 updates on two ``n × d`` residual caches
``Sf = Xf·Yᵀ − F′``, ``Sb = Xb·Yᵀ − B′``.  The same iterate comes out of
GEMMs with the *fixed* affinities: the sequential part only lives in the
``h = k/2``-dimensional coefficient space, and the residuals enter only
through products that expand over ``F′``, ``B′``.

- X phase (``Y`` fixed, ``G = YᵀY``): coordinate ``l`` sees the residual
  left by coordinates ``j < l``, so Alg. 4's steps satisfy
  ``Mu·triu(G) = S·Y``, i.e. ``Mu = S·Z`` with ``Z = Y·triu(G)⁻¹`` (one
  forward substitution on the ``d × h`` side) ``= X·W − F′·Z`` with
  ``W = YᵀZ`` (``h × h``): per row tile, ``X −= X·W − F′·Z``.
- Y phase (``Xf, Xb`` fixed, ``G = XfᵀXf + XbᵀXb``, ``P = XfᵀF′ + XbᵀB′``):
  ``XᵀS = G·Yᵀ − P``, so ``tril(G)·Mu = G·Yᵀ − P`` and ``Y −= Muᵀ``.  ``P``
  and ``G`` are sums over rows of the *updated* ``X``, so they accumulate in
  the same pass over the row tiles; the solve is ``h``-wide.
- That is 4 ``n × d × h`` GEMMs per sweep (``F′Z``, ``B′Z``, ``XfᵀF′``,
  ``XbᵀB′``) — half of the ``8·n·d·k`` flops the paper counts — one read of
  ``F′`` and ``B′`` in cache-sized row tiles, and no ``n × d`` write.
- The objective falls out for ``O(d·h²)``:
  ``O = ‖F′‖² + ‖B′‖² − 2⟨P, Yᵀ⟩ + ⟨G, YᵀY⟩`` with the updated ``Y``.
- ``block_size = B`` replaces the scalar division by the block's Gram
  pseudo-inverse and ``triu``/``tril`` by their block forms (block
  Gauss–Seidel; ``B = 1`` is Alg. 4's own update order).  Every ``B`` costs
  the same GEMMs: it selects an update order, not a speed.

Several sweeps (:func:`ccd_sweeps`) in coefficient space.  The X phase is
linear in ``X`` and ``F′``: from the sweep's starting rows ``X₀`` every later
iterate of a half is ``X = X₀·A + F′·B`` (``B′`` for the backward half) with
one ``A`` (``h × h``) and one ``B`` (``d × h``) shared by both halves, because
``W`` and ``Z`` are.  Stack them as ``K = [A; B]`` (``(h+d) × h``, starting at
``[I; 0]``); the X phase ``X −= X·W − F′·Z`` becomes ``K −= K·W − [0; Z]``.
The Y phase needs ``P`` and ``G`` of the current ``X``, and with the joint
Gram ``M = Σ_halves [X₀, F′]ᵀ[X₀, F′] = [[G₀, P₀], [P₀ᵀ, C]]`` of the
starting rows (``C = F′ᵀF′ + B′ᵀB′``, ``d × d``) they are
``Pᵀ = (M·K)[h:]`` and ``G = Kᵀ·(M·K)``; ``‖F′‖² + ‖B′‖² = tr C``.  So the
``n``-side work of a whole refinement is two dispatches over row spans:

- setup: ``M`` per span, partials added in span order.  Each product is one
  call over the whole span — ``X₀ᵀF′``, then ``C`` by one ``aᵀa`` (a syrk)
  per half, not per row tile: per-tile Grams measured 4–5× slower at
  ``3 000 × 1 024`` — so the setup reads ``F′``/``B′`` twice;
- materialise: ``X ← X₀·A + F′·B`` in place, in row tiles, once at the end:
  a third read.

Between them each sweep is ``O((h+d)²·h)`` coefficient work, the same Y
solve and the same :func:`objective_from_moments`; the objective before the
first sweep comes from ``M`` too.  Three reads and about ``n·d·(d + 4h)``
multiply-adds per refinement replace one read and ``4·n·d·h`` per sweep,
and the span partials hold ``(h+d)²`` floats each.  That wins at the
shapes PANE is run at (``d`` no larger than a few ``h·(sweeps − 1)``, the
gate's fits at 0.8) and loses past them and when ``d > n``: one sweep
at ``2 000 × 64``, ``k = 32`` measured 1.7 → 2.5 ms, two sweeps at
``1 000 × 3 000``, ``k = 64`` 112 → 561 ms.  Every refinement runs this
path (no benchmark workload runs a losing shape to set a crossover by);
:func:`ccd_sweep` is the one-sweep ``n``-side form it is tested against.

The Gram start.  GreedyInit's ``X`` is ``[F′; B′]·Y``
(:func:`repro.core.greedy_init.gram_start`), so from it ``X = F′·K`` with
``K₀ = Y`` (``d × h``) and no ``X₀`` block, and the joint Gram is just
``C = F′ᵀF′ + B′ᵀB′``, which the init already summed over the spans for
its own RandSVD.  A state whose ``X`` is absent (``None``) carries that
``C``; ``ccd_sweeps`` then skips the setup dispatch, runs the same sweeps
on ``K`` (``K −= K·W − Z``, ``Pᵀ = C·K``, ``G = Kᵀ·C·K``) and always
writes ``X = F′·K`` — with the init's Gram pass, two reads of
``F′``/``B′`` per fit after APMI.  Any state with ``X`` (a random init, a
warm incremental refresh, ``greedy_init``'s written start) takes the
``[X₀, F′]`` path above, unchanged.

Numerical contract: same update order as Alg. 4 (``B = 1``) or as block
Gauss–Seidel (``B > 1``); agreement with the literal residual-space
reference loops within ``1e-10`` on the test problems at 1–3 threads (the
arithmetic is re-associated, so *not* bit-identical to a rank-1
implementation); :func:`ccd_sweeps` agrees with as many calls of
:func:`ccd_sweep` within ``1e-10`` (≈ 1e-15 relative on the gate's fits),
its objectives with Eq. (4) to ``1e-10`` relative; objective monotone
non-increasing for every ``B``, near-collinear columns included; a dead
coordinate takes an exactly zero step at ``B = 1``; ``F′``/``B′`` are never
written; a single-thread run is bit-reproducible run to run, and so is any
fixed thread count (it fixes the spans and the order their partial sums
are added in).  Serial and threaded execution are one code path: one
dispatch per :func:`ccd_sweep`, two per :func:`ccd_sweeps` (one from a Gram
start).

Eq. (6) propagation: :func:`propagate_recurrence` is the one evaluator
behind APMI and PAPMI — a hop is one dispatch over row spans of the
*output*, on two caller-owned ping-pong buffers, bit-identical for every
thread count — with :func:`spmm_into` writing rows of a CSR·dense product
straight into the output buffer; :func:`propagate_recurrence_sparse` is
the pruned sparse form.

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
#: Size of the ``n × d`` operand tile a span works on at a time (``row_tiles``).
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


def spmm_into(
    matrix, dense: np.ndarray, out: np.ndarray, rows: slice | None = None
) -> np.ndarray:
    """``out[rows] ← (matrix @ dense)[rows]`` without allocating the product.

    ``rows`` (default: all) is a contiguous row range.  The CSR fast path
    hands scipy's kernel ``indptr[r0:r1+1]``, which indexes the full
    ``indices``/``data``, so nothing is sliced or copied, and writes
    straight into ``out`` (bit-identical to ``matrix @ dense``, the same
    kernel); any other matrix type or memory layout falls back to an
    allocating product copied into ``out[rows]``.
    """
    if matrix.shape[1] != dense.shape[0] or out.shape != (matrix.shape[0], dense.shape[1]):
        raise ValueError(
            f"shape mismatch: {matrix.shape} @ {dense.shape} -> {out.shape}"
        )
    if rows is None:
        rows = slice(0, matrix.shape[0])
    target = out[rows]
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
        target.fill(0.0)
        _sparsetools.csr_matvecs(
            rows.stop - rows.start,
            matrix.shape[1],
            dense.shape[1],
            matrix.indptr[rows.start : rows.stop + 1],
            matrix.indices,
            matrix.data,
            dense.ravel(),
            target.ravel(),
        )
        return out
    np.copyto(target, np.asarray(matrix[rows] @ dense))
    return out


def _work_spans(matrix, n_blocks: int) -> list[slice]:
    """Row spans of about equal propagation work, read off ``indptr``.

    A row of a hop costs one ``d``-wide axpy per non-zero plus about two
    more for the fill, scale and restart passes.  Rows of ``Tᵀ`` follow the
    in-degree distribution — power-law, and sorted by node id in generated
    graphs — so equal row counts can leave one span nearly all the SpMM.
    """
    n = matrix.shape[0]
    if n_blocks == 1 or not (sp.issparse(matrix) and matrix.format == "csr"):
        return partition_spans(n, n_blocks)
    work = matrix.indptr + 2 * np.arange(n + 1)
    cuts = np.searchsorted(work, np.linspace(0, work[-1], n_blocks + 1)[1:-1])
    bounds = [0, *cuts.tolist(), n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def propagate_recurrence(
    transition,
    p0: np.ndarray,
    alpha: float,
    t: int,
    *,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
    n_threads: int = 1,
    pool: "WorkerPool | None" = None,
) -> np.ndarray:
    """Evaluate the Alg. 2 recurrence ``p ← (1−α)·T·p + α·p0`` for ``t`` hops.

    Starting from ``p = α·p0``, this computes Eq. (6)'s truncated series
    exactly (seeding with ``α·Rr`` rather than the printed ``Rr`` — see
    :func:`repro.core.affinity.apmi`), ping-ponging between two
    preallocated buffers.  A hop is one dispatch over ``n_threads`` row
    spans of the *output*: each span accumulates ``T[rows]·p``, scales it
    and adds its rows of the restart term — four calls per span, because
    scipy's SpMM holds the GIL and every further call is one more hand-off
    between the spans (tiling the span measured slower).  Every row goes
    through the same instruction sequence whichever span owns it, so the
    result is bit-identical for every thread count.

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
    spans = _work_spans(transition, n_threads)
    for _ in range(t):

        def hop(_: int, rows: slice, source=current, target=scratch) -> None:
            spmm_into(transition, source, target, rows)
            target[rows] *= decay
            target[rows] += p0[rows]

        run_blocks(hop, spans, n_threads=n_threads, pool=pool)
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


def row_tiles(span: slice, width: int) -> list[slice]:
    """Cut ``span`` into row tiles of about ``_TILE_BYTES`` (``rows × width`` float64).

    A tile of an ``n × d`` operand and the skinny results computed from it
    then stay cache-resident across the several operations a span applies
    to them, instead of each operation streaming the whole span.
    """
    rows = max(1, _TILE_BYTES // (8 * width))
    return [
        slice(start, min(start + rows, span.stop))
        for start in range(span.start, span.stop, rows)
    ]


def _halves(state: "InitState"):
    """``(X, affinity)`` of the forward and the backward half, in that order."""
    return ((state.x_forward, state.forward), (state.x_backward, state.backward))


def span_moments(state: "InitState", span: slice, step=None):
    """``(‖F′‖² + ‖B′‖², P, G)`` summed over the rows of ``span``.

    ``P = XfᵀF′ + XbᵀB′`` and ``G = XfᵀXf + XbᵀXb`` are all the Y phase and
    the objective need of the ``n``-side.  With ``step = (W, Z)`` each row
    tile first takes the X phase's step ``X −= X·W − F′·Z`` in place (Eqs.
    13–14, 16, every coordinate at once) while its affinity tile is in cache.
    """
    d, half = state.y.shape
    norm, p, g = 0.0, np.zeros((half, d)), np.zeros((half, half))
    for rows in row_tiles(span, d):
        for x_half, affinity in _halves(state):
            x_tile, a_tile = x_half[rows], affinity[rows]
            if step is not None:
                x_tile -= x_tile @ step[0] - a_tile @ step[1]
            norm += np.einsum("ij,ij->", a_tile, a_tile)
            p += x_tile.T @ a_tile
            g += x_tile.T @ x_tile
    return norm, p, g


def objective_from_moments(
    norm: float, p: np.ndarray, g: np.ndarray, y: np.ndarray
) -> float:
    """Eq. (4) from :func:`span_moments` of every row and the current ``Y``.

    ``‖X·Yᵀ − F′‖²`` summed over both directions expands to
    ``norm − 2⟨P, Yᵀ⟩ + ⟨G, YᵀY⟩``; rounding can leave an exact fit a hair
    below zero, which a sum of squares never is.
    """
    value = norm - 2.0 * np.vdot(p, y.T) + np.vdot(g, y.T @ y)
    return max(float(value), 0.0)


def ccd_sweep(
    state: "InitState",
    *,
    block_size: int = 1,
    n_threads: int = 1,
    pool: "WorkerPool | None" = None,
) -> float:
    """One in-place CCD sweep (Alg. 4 / Alg. 8); returns the objective after it.

    One dispatch over ``n_threads`` disjoint row spans updates ``Xf``/``Xb``
    and accumulates the Y phase's ``P`` and ``G`` from the updated rows; the
    partial sums are added in span order and the ``k/2``-wide Y solve runs
    inline (``n_threads=1``: one span, no dispatch).  ``state.forward`` /
    ``state.backward`` are only read.  Derivation in the module docstring.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    y = state.y

    # X phase (Y fixed): the steps are linear in S, Mu = S·Z = X·W − F′·Z,
    # so the recurrence runs once on Yᵀ (k/2 × d) instead of on S·Y (n × k/2).
    z = _gauss_seidel_solver(y.T @ y, block_size)(y.T).T
    step = (y.T @ z, z)
    partials = run_blocks(
        lambda _, span: span_moments(state, span, step),
        partition_spans(state.forward.shape[0], n_threads),
        n_threads=n_threads,
        pool=pool,
    )
    # Added in span order, so a thread count always gives the same bits.
    norm, p, g = (sum(parts) for parts in zip(*partials))

    # Y phase (Xf, Xb fixed): XfᵀSf + XbᵀSb = G·Yᵀ − P, a k/2 × d problem.
    y -= _gauss_seidel_solver(g, block_size)(g @ y.T - p).T  # Eqs. 15, 17
    return objective_from_moments(norm, p, g, y)


def _span_gram(state: "InitState", span: slice) -> np.ndarray:
    """Joint Gram ``Σ_halves [X, F′]ᵀ[X, F′]`` over the rows of ``span``.

    ``(h+d) × (h+d)``: ``[[XᵀX, XᵀF′], [F′ᵀX, F′ᵀF′]]`` summed over both
    halves — everything :func:`ccd_sweeps` needs of the ``n``-side.  Each
    product is one call over the whole span (``aᵀa`` and ``xᵀx`` run as
    syrk), so the span of ``F′``/``B′`` is read twice: ``XᵀF′``, then
    ``F′ᵀF′``.
    """
    d, half = state.y.shape
    gram = np.zeros((half + d, half + d))
    for x_half, affinity in _halves(state):
        x_span, a_span = x_half[span], affinity[span]
        cross = x_span.T @ a_span
        gram[:half, :half] += x_span.T @ x_span
        gram[:half, half:] += cross
        gram[half:, :half] += cross.T
        gram[half:, half:] += a_span.T @ a_span
    return gram


def _materialise(state: "InitState", span: slice, coef: np.ndarray) -> None:
    """``X ← X·K[:h] + F′·K[h:]`` in place over the rows of ``span``, per row tile.

    From a Gram start ``K`` has no ``X₀`` block and this writes ``X = F′·K``.
    """
    lead = coef.shape[0] - state.y.shape[0]
    top, bottom = coef[:lead], coef[lead:]
    for rows in row_tiles(span, state.y.shape[0]):
        for x_half, affinity in _halves(state):
            x_tile = x_half[rows]
            if lead:
                x_tile[...] = x_tile @ top + affinity[rows] @ bottom
            else:
                np.matmul(affinity[rows], bottom, out=x_tile)


def _check_sweeps(n_sweeps, tolerance) -> int:
    """``n_sweeps`` as an ``int``; ``ValueError`` for a bad count or tolerance."""
    try:
        count = int(n_sweeps)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != n_sweeps or count < 0:
        raise ValueError(f"n_sweeps must be a non-negative integer, got {n_sweeps!r}")
    if tolerance is not None and not tolerance >= 0:  # NaN fails too
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    return count


def _stalled(previous: float, current: float, tolerance: float | None) -> bool:
    """Whether a sweep's relative improvement fell below ``tolerance``."""
    return (
        tolerance is not None
        and previous > 0
        and (previous - current) / previous < tolerance
    )


def _coefficient_moments(gram: np.ndarray, coef: np.ndarray, lead: int):
    """``(P, G)`` of ``X = [X₀, F′]·K``: ``Pᵀ = (M·K)[lead:]``, ``G = Kᵀ·M·K``.

    ``lead`` is the height of ``K``'s ``X₀`` block: ``h``, or ``0`` from a
    Gram start (``X = F′·K``).
    """
    moments = gram @ coef
    return moments[lead:].T, coef.T @ moments


def _coefficient_sweep(
    gram: np.ndarray, coef: np.ndarray, y: np.ndarray, norm: float, block_size: int
) -> float:
    """One sweep on ``K`` and ``Y`` in place, from the starting rows' joint Gram."""
    lead = coef.shape[0] - y.shape[0]
    # X phase: X −= X·W − F′·Z is K −= K·W − [0; Z].
    z = _gauss_seidel_solver(y.T @ y, block_size)(y.T).T
    step = coef @ (y.T @ z)
    step[lead:] -= z
    coef -= step
    p, g = _coefficient_moments(gram, coef, lead)
    y -= _gauss_seidel_solver(g, block_size)(g @ y.T - p).T
    return objective_from_moments(norm, p, g, y)


def ccd_sweeps(
    state: "InitState",
    n_sweeps: int,
    *,
    block_size: int = 1,
    n_threads: int = 1,
    pool: "WorkerPool | None" = None,
    tolerance: float | None = None,
) -> list[float]:
    """Up to ``n_sweeps`` in-place CCD sweeps; the objective before and after each.

    Returns one objective more than the sweeps run, the first being the
    state's own.  With ``tolerance`` set, the sweeps stop after the first one whose
    relative objective improvement falls below it.  Runs in coefficient
    space: one setup and one materialise dispatch over ``F′``/``B′``
    however many sweeps (derivation, costs and numerical contract in the
    module docstring).  A state without ``X`` (a Gram start) skips the
    setup, starts from its ``gram`` and ``K₀ = Y``, and has ``X`` written
    even at zero sweeps.  ``state.forward`` / ``state.backward`` are only
    read.
    """
    n_sweeps = _check_sweeps(n_sweeps, tolerance)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    n, d, half = state.forward.shape[0], *state.y.shape
    spans = partition_spans(n, n_threads)
    if state.x_forward is None:  # a Gram start: X = [F′; B′]·Y, C from the init
        gram, coef, lead = state.gram, state.y.copy(), 0
    else:
        partials = run_blocks(
            lambda _, span: _span_gram(state, span),
            spans,
            n_threads=n_threads,
            pool=pool,
        )
        gram = sum(partials)  # in span order: a thread count fixes the bits
        # K: X = [X₀, F′]·K, starting at [I; 0].
        coef, lead = np.vstack([np.eye(half), np.zeros((d, half))]), half
    norm = float(np.trace(gram[lead:, lead:]))
    start = _coefficient_moments(gram, coef, lead)
    history = [objective_from_moments(norm, *start, state.y)]
    for _ in range(n_sweeps):
        history.append(_coefficient_sweep(gram, coef, state.y, norm, block_size))
        if _stalled(history[-2], history[-1], tolerance):
            break
    if not lead:  # a Gram start: X is written here for the first time
        state.x_forward, state.x_backward = np.empty((n, half)), np.empty((n, half))
        state.gram = None
    elif not n_sweeps:
        return history
    run_blocks(
        lambda _, span: _materialise(state, span, coef),
        spans,
        n_threads=n_threads,
        pool=pool,
    )
    return history
