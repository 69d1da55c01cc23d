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

The Eq. (6) recurrence runs through the one ping-pong kernel
:func:`repro.core.kernels.propagate_recurrence` on two ``n × d`` buffers
per direction that :func:`apmi` owns; the SPMI normalization of Eq. (7)
then writes ``F′`` / ``B′`` into the spare buffer of the pair, so a
direction costs three ``n × d`` arrays and no temporary.  With
``n_threads > 1`` both steps split over row spans of their *output* —
that call is PAPMI (:func:`papmi`) — and return the same bits regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.kernels import propagate_recurrence, row_tiles
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.matrices import normalized_attribute_matrices, random_walk_matrix
from repro.parallel.executor import run_blocks
from repro.parallel.partitioning import partition_spans
from repro.parallel.pool import WorkerPool
from repro.utils.validation import check_probability


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
    forward_probabilities / backward_probabilities:
        The un-normalized truncated walk probabilities ``P_f^(t)`` /
        ``P_b^(t)`` (kept for the Lemma 3.1 accuracy checks).
    """

    forward: np.ndarray
    backward: np.ndarray
    forward_probabilities: np.ndarray
    backward_probabilities: np.ndarray


def _spmi_into(
    probabilities: np.ndarray,
    out: np.ndarray,
    axis: int,
    *,
    n_threads: int = 1,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """SPMI normalization of Eq. (7): ``out ← log2(1 + m·P / sums)``.

    ``axis=0`` normalizes columns, ``m = n`` (forward affinity); ``axis=1``
    rows, ``m = d`` (backward); all-zero rows/columns stay zero.  The sums
    are taken once; the elementwise part runs over ``n_threads`` row spans
    in row tiles written straight into ``out`` — the same operations in
    the same order whatever the split.
    """
    n, d = probabilities.shape
    sums = probabilities.sum(axis=axis, keepdims=True)
    safe = np.broadcast_to(np.where(sums == 0, 1.0, sums), (n, d))

    def normalize(_: int, span: slice) -> None:
        for rows in row_tiles(span, d):
            tile = out[rows]
            np.divide(probabilities[rows], safe[rows], out=tile)
            tile *= probabilities.shape[axis]
            tile += 1.0
            np.log2(tile, out=tile)

    run_blocks(normalize, partition_spans(n, n_threads), n_threads=n_threads, pool=pool)
    return out


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
        Row spans to split each hop and the normalization over, and the
        persistent pool to run them on; the result depends on neither.

    Returns
    -------
    AffinityPair with ``F′``, ``B′`` and the underlying probabilities.
    """
    alpha = check_probability(alpha, "alpha")
    t = n_iterations if n_iterations is not None else iterations_for_epsilon(epsilon, alpha)
    transition = random_walk_matrix(graph, dangling=dangling)
    rr, rc = normalized_attribute_matrices(graph)

    def direction(matrix, attributes, axis: int) -> tuple[np.ndarray, np.ndarray]:
        # Initializing with α·Rr makes the recurrence compute Eq. (6)'s
        # truncated series exactly (the printed Alg. 2 seeds with Rr, which
        # overweights the final hop and would break Lemma 3.1's lower bound).
        restart = attributes.toarray()
        buffers = np.empty_like(restart), np.empty_like(restart)
        probabilities = propagate_recurrence(
            matrix, restart, alpha, t, buffers=buffers, n_threads=n_threads, pool=pool
        )
        spare = buffers[1] if probabilities is buffers[0] else buffers[0]
        affinity = _spmi_into(probabilities, spare, axis, n_threads=n_threads, pool=pool)
        return affinity, probabilities

    forward, pf = direction(transition, rr, 0)
    backward, pb = direction(transition.T.tocsr(), rc, 1)
    return AffinityPair(forward, backward, pf, pb)


def papmi(
    graph: AttributedGraph,
    alpha: float = 0.5,
    epsilon: float = 0.015,
    *,
    n_threads: int = 2,
    n_iterations: int | None = None,
    dangling: str = "zero",
    pool: WorkerPool | None = None,
) -> AffinityPair:
    """PAPMI (Algorithm 6): :func:`apmi` over ``n_threads`` row spans.

    The paper splits the *attribute* set into blocks and runs APMI on each
    column block of ``Rr`` / ``Rc``; that needs a copy of every block,
    per-block buffers, a narrower SpMM per non-zero and two concatenations,
    and measured slower at two threads than APMI at one.  With row spans
    every output row is produced by the same instruction sequence whichever
    span owns it, so PAPMI equals APMI bit for bit at every thread count
    (Lemma 4.1); the cost is one barrier per hop.
    """
    return apmi(
        graph, alpha, epsilon, n_iterations=n_iterations, dangling=dangling,
        n_threads=n_threads, pool=pool,
    )


def exact_affinity(
    graph: AttributedGraph,
    alpha: float = 0.5,
    *,
    tolerance: float = 1e-12,
    max_terms: int = 10_000,
    dangling: str = "zero",
) -> AffinityPair:
    """Exact affinity matrices via the full power series of Eq. (5).

    Sums ``α Σ (1−α)^ℓ Pℓ Rr`` until the scalar tail drops below
    ``tolerance``.  O(m·d) per term — use on small graphs (tests, Table 2).
    """
    alpha = check_probability(alpha, "alpha")
    transition = random_walk_matrix(graph, dangling=dangling)
    rr, rc = normalized_attribute_matrices(graph)
    term_f = rr.toarray()
    term_b = rc.toarray()
    pf = alpha * term_f
    pb = alpha * term_b
    transition_t = transition.T.tocsr()
    weight = alpha
    for _ in range(max_terms):
        weight *= 1.0 - alpha
        if weight < tolerance:
            break
        term_f = np.asarray(transition @ term_f)
        term_b = np.asarray(transition_t @ term_b)
        pf += weight * term_f
        pb += weight * term_b

    forward = _spmi_into(pf, np.empty_like(pf), 0)
    backward = _spmi_into(pb, np.empty_like(pb), 1)
    return AffinityPair(forward, backward, pf, pb)
