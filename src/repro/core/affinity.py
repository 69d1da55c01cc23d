"""Forward/backward affinity matrices: exact definition and APMI (Alg. 2).

The forward affinity ``F[v, r]`` is the shifted PMI of the probability that
a forward walk from ``v`` yields attribute ``r`` (Eq. 2); backward affinity
``B[v, r]`` is the SPMI of a backward walk from ``r`` ending at ``v``
(Eq. 3).  APMI computes ϵ-accurate approximations ``F′, B′`` without
sampling walks, via the truncated power series of Eq. (6) evaluated with
the recurrence of Alg. 2 lines 3–5 in O(m·d·t) time.

``log`` is base 2 throughout: Lemma 3.1 inverts the affinities as
``2^F′ − 1``, and base-2 reproduces the paper's Table 2 running-example
values (e.g. the v6/r3 entry 2.05).

APMI runs on blocks of ``w = _BLOCK_COLUMNS`` attribute columns, PAPMI's
attribute split (Alg. 6), at every thread count: a block densifies its
columns of ``Rr`` (``Rc``) and runs all ``t`` hops in a per-thread float32
``3·n·w`` buffer (``3·n·w·4`` bytes, :func:`block_probabilities`).  The
walks are float32 (Lemma 3.1's ``ϵ`` is five orders of magnitude above
its roundoff, and a hop costs the bytes it gathers) and propagate
``T′ = (1−α)·T`` (``T′ᵀ`` backward), scaled once per fit in float64 and
rounded once, so a hop is one copy of the ``α``-scaled restart and one CSR
kernel call adding ``T′·p`` onto it (:func:`repro.core.kernels.propagate_recurrence`
states how far that is from the printed Alg. 2 and from a float64 walk).
Each block is widened to float64 once; SPMI and all after it are float64.
Forward SPMI (Eq. 7) normalizes columns, so a block is widened into its
buffer's free two thirds, normalized there in cache and copied into
``F′``'s columns; backward SPMI needs whole rows, so the blocks are widened
into ``B′`` and its rows are normalized in place.  Threads take blocks by a fixed rule,
one dispatch per direction and no barrier per hop.  Every operation is
column-wise, so ``F′``/``B′`` are the bits of the full-width recurrence at
every thread count (Lemma 4.1), and APMI holds two ``n × d`` arrays
instead of five.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.kernels import propagate_recurrence, row_tiles
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.matrices import normalized_attribute_matrices, random_walk_matrix
from repro.parallel.executor import run_blocks
from repro.parallel.partitioning import partition_spans
from repro.parallel.pool import WorkerPool
from repro.utils.validation import check_probability

#: Attribute columns per APMI block (``w``): a block's three float32 ``n × w``
#: buffers (``3·n·w·4`` bytes) are a thread's working set for its ``t`` hops.
#: Measured over {32, 64, 128} in ``docs/PERFORMANCE.md`` (128 loses at scale).
_BLOCK_COLUMNS = 64


def iterations_for_epsilon(epsilon: float, alpha: float) -> int:
    """The truncation length ``t = ⌈log ϵ / log(1 − α)⌉ − 1`` (Alg. 1 line 1).

    Guaranteed at least 1 so a single propagation step always happens;
    matches the paper's statement that (α = 0.5) ϵ ∈ [0.001, 0.25] maps to
    t ∈ [9, 1].
    """
    epsilon = check_probability(epsilon, "epsilon")
    alpha = check_probability(alpha, "alpha")
    t = math.ceil(math.log(epsilon) / math.log(1.0 - alpha)) - 1
    return max(1, t)


@dataclass(frozen=True)
class AffinityPair:
    """The pair of affinity matrices produced by APMI.

    Attributes
    ----------
    forward:
        ``F′`` — dense ``n × d`` approximate forward affinity.
    backward:
        ``B′`` — dense ``n × d`` approximate backward affinity.

    The walk probabilities behind them come from :func:`apmi_probabilities`
    (:func:`exact_probabilities` for :func:`exact_affinity`).
    """

    forward: np.ndarray
    backward: np.ndarray


def _spmi(probabilities: np.ndarray, axis: int) -> np.ndarray:
    """SPMI normalization of Eq. (7) in place: ``P ← log2(1 + m·P / sums)``.

    ``axis=0`` normalizes columns, ``m = n`` (forward affinity); ``axis=1``
    rows, ``m = d`` (backward); all-zero rows/columns stay zero.  The sums
    are taken once, then the elementwise part runs in row tiles.
    """
    sums = probabilities.sum(axis=axis, keepdims=True)
    safe = np.broadcast_to(np.where(sums == 0, 1.0, sums), probabilities.shape)
    for rows in row_tiles(slice(0, probabilities.shape[0]), probabilities.shape[1]):
        tile = probabilities[rows]
        np.divide(tile, safe[rows], out=tile)
        tile *= probabilities.shape[axis]
        tile += 1.0
        np.log2(tile, out=tile)
    return probabilities


def _column_blocks(d: int) -> list[slice]:
    """``_BLOCK_COLUMNS``-wide blocks of ``range(d)``; a 1-wide tail joins the one before.

    A 1-wide block's column sum is a contiguous reduction, which numpy adds
    pairwise; a wider block adds its rows in order, as a full-width sum does.
    """
    bounds = [*range(0, d, _BLOCK_COLUMNS), d]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _series_operands(graph: AttributedGraph, dangling: str, alpha: float):
    """``((T′, Rr), (T′ᵀ, Rc))`` in float64, ``T′ = (1−α)·T`` scaled once in CSR."""
    walk = random_walk_matrix(graph, dangling=dangling)
    walk.data *= 1.0 - alpha
    rr, rc = normalized_attribute_matrices(graph)
    return (walk, rr), (walk.T.tocsr(), rc)


def _operands(graph: AttributedGraph, dangling: str, alpha: float):
    """What the walks propagate: :func:`_series_operands` rounded to float32, ``Rr``/``Rc`` CSC."""
    return tuple(
        (matrix.astype(np.float32), attributes.astype(np.float32).tocsc())
        for matrix, attributes in _series_operands(graph, dangling, alpha)
    )


def _truncation(alpha: float, epsilon: float, n_iterations: int | None):
    """``(α, t)``, validated; ``t`` from ``epsilon`` unless given."""
    alpha = check_probability(alpha, "alpha")
    if n_iterations is None:
        n_iterations = iterations_for_epsilon(epsilon, alpha)
    return alpha, n_iterations


def block_probabilities(
    matrix,
    attributes,
    columns: slice,
    alpha: float,
    t: int,
    buffer: np.ndarray | None = None,
) -> np.ndarray:
    """Truncated walk probabilities ``P^(t)[:, columns]`` of one attribute block.

    ``matrix`` is ``T′ = (1−α)·T`` (forward) or ``T′ᵀ`` (backward) and
    ``attributes`` ``Rr`` (``Rc``), as :func:`_operands` builds them.  The
    block's columns are densified into the first third of ``buffer`` (at
    least ``3·n·width`` float32s; allocated if ``None``) as the restart
    term, and the ``t`` hops of Eq. (6) ping-pong in the other two thirds.
    Returns the float32 ``n × width`` view of the last third, so the first
    two are free for the block widened to float64.  :func:`apmi`'s block
    loop calls this; over every column at once it gives the full ``P^(t)``
    (:func:`apmi_probabilities`).
    """
    n, width = matrix.shape[0], columns.stop - columns.start
    if buffer is None:
        buffer = np.empty(3 * n * width, dtype=np.float32)
    restart, first, last = (
        buffer[part * n * width : (part + 1) * n * width].reshape(n, width)
        for part in range(3)
    )
    attributes[:, columns].toarray(out=restart)
    # Initializing with α·Rr makes the recurrence compute Eq. (6)'s
    # truncated series exactly (the printed Alg. 2 seeds with Rr, which
    # overweights the final hop and would break Lemma 3.1's lower bound).
    hops = (last, first) if t % 2 == 0 else (first, last)
    return propagate_recurrence(matrix, restart, alpha, t, buffers=hops)


def block_buffers(n: int, d: int, n_threads: int) -> list[np.ndarray]:
    """One float32 ``3·n·w`` buffer (``3·n·w·4`` bytes) per thread that gets a block."""
    blocks = _column_blocks(d)
    width = max((columns.stop - columns.start for columns in blocks), default=0)
    return [np.empty(3 * n * width, np.float32) for _ in range(min(n_threads, len(blocks)))]


def propagate_blocks(
    matrix,
    attributes,
    alpha: float,
    t: int,
    write: Callable[[np.ndarray, slice, np.ndarray], object],
    buffers: list[np.ndarray],
    *,
    n_threads: int = 1,
    pool: WorkerPool | None = None,
) -> None:
    """Every attribute block's ``t`` hops, each handed to ``write(P_block, columns, spare)``.

    Thread ``j`` of ``T`` takes blocks ``j, j + T, …`` in one dispatch and
    runs them in ``buffers[j]`` (:func:`block_buffers`): ``P_block`` is a
    float32 view into it, ``spare`` a float64 one of its shape over the rest.
    """
    blocks = _column_blocks(attributes.shape[1])

    def work(worker: int, buffer: np.ndarray) -> None:
        for columns in blocks[worker :: len(buffers)]:
            block = block_probabilities(matrix, attributes, columns, alpha, t, buffer)
            spare = buffer[: 2 * block.size].view(np.float64).reshape(block.shape)
            write(block, columns, spare)

    run_blocks(work, buffers, n_threads=n_threads, pool=pool)


def apmi(
    graph: AttributedGraph,
    alpha: float = 0.5,
    epsilon: float = 0.015,
    *,
    n_iterations: int | None = None,
    dangling: str = "zero",
    n_threads: int = 1,
    pool: WorkerPool | None = None,
) -> AffinityPair:
    """Approximate forward/backward affinity matrices (Algorithm 2).

    Parameters
    ----------
    graph:
        The attributed network.
    alpha:
        Random-walk stopping probability.
    epsilon:
        Truncation error threshold; ignored if ``n_iterations`` is given.
    n_iterations:
        Explicit iteration count ``t`` (overrides ``epsilon``).
    dangling:
        Dangling-node policy for the random-walk matrix.
    n_threads, pool:
        Threads to share the attribute blocks (and the backward rows'
        normalization) between, and the persistent pool to run them on;
        the result depends on neither.

    Returns
    -------
    AffinityPair with ``F′`` and ``B′``.
    """
    alpha, t = _truncation(alpha, epsilon, n_iterations)
    forward_operands, backward_operands = _operands(graph, dangling, alpha)
    n, d = graph.n_nodes, graph.n_attributes
    # The block buffers before F′ and B′: once malloc serves n × d arrays
    # from its heap (after the first one is freed), F′ and B′ then sit at
    # the heap's top, and it shrinks when the fit drops them.
    buffers = block_buffers(n, d, n_threads)
    forward, backward = np.empty((n, d)), np.empty((n, d))

    def forward_block(p: np.ndarray, columns: slice, spare: np.ndarray) -> None:
        np.copyto(spare, p)  # widened once, then normalized in cache
        np.copyto(forward[:, columns], _spmi(spare, 0))

    for operands, write in (
        (forward_operands, forward_block),
        (backward_operands, lambda p, columns, _: np.copyto(backward[:, columns], p)),
    ):
        propagate_blocks(*operands, alpha, t, write, buffers, n_threads=n_threads, pool=pool)
    run_blocks(
        lambda _, rows: _spmi(backward[rows], 1),
        partition_spans(n, n_threads),
        n_threads=n_threads,
        pool=pool,
    )
    return AffinityPair(forward, backward)


def apmi_probabilities(
    graph: AttributedGraph,
    alpha: float = 0.5,
    epsilon: float = 0.015,
    *,
    n_iterations: int | None = None,
    dangling: str = "zero",
) -> tuple[np.ndarray, np.ndarray]:
    """The truncated walk probabilities ``(P_f^(t), P_b^(t))`` :func:`apmi` normalizes.

    :func:`block_probabilities` over one block of every column: each
    column's arithmetic is the same as in :func:`apmi`'s blocks, so these
    are the float32 bits APMI widens and normalizes.  Two float32 ``n × d``
    arrays — for the Lemma 3.1 checks and small graphs, not for a fit.
    """
    alpha, t = _truncation(alpha, epsilon, n_iterations)
    every = slice(0, graph.n_attributes)
    pf, pb = (
        block_probabilities(matrix, attributes, every, alpha, t).copy()
        for matrix, attributes in _operands(graph, dangling, alpha)
    )
    return pf, pb


def exact_probabilities(
    graph: AttributedGraph,
    alpha: float = 0.5,
    *,
    tolerance: float = 1e-12,
    max_terms: int = 10_000,
    dangling: str = "zero",
) -> tuple[np.ndarray, np.ndarray]:
    """The walk probabilities ``(P_f, P_b)`` via the full power series of Eq. (5).

    Sums ``α Σ (1−α)^ℓ Pℓ Rr`` (``α Σ T′ℓ Rr``) until the scalar tail
    drops below ``tolerance``, in float64.  O(m·d) per term — use on small
    graphs (tests, Table 2).
    """
    alpha = check_probability(alpha, "alpha")

    def series(walk, attributes) -> np.ndarray:
        term = attributes.toarray()
        total, weight = alpha * term, alpha
        for _ in range(max_terms):
            weight *= 1.0 - alpha
            if weight < tolerance:
                break
            term = np.asarray(walk @ term)
            total += alpha * term
        return total

    pf, pb = (series(*operands) for operands in _series_operands(graph, dangling, alpha))
    return pf, pb


def exact_affinity(
    graph: AttributedGraph,
    alpha: float = 0.5,
    *,
    tolerance: float = 1e-12,
    max_terms: int = 10_000,
    dangling: str = "zero",
) -> AffinityPair:
    """Exact affinity matrices: SPMI (Eq. 7) of :func:`exact_probabilities`."""
    pf, pb = exact_probabilities(
        graph, alpha, tolerance=tolerance, max_terms=max_terms, dangling=dangling
    )
    return AffinityPair(_spmi(pf, 0), _spmi(pb, 1))
