"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.randsvd import _matmul
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.generators import attributed_sbm, citation_graph
from repro.graph.toy import running_example_graph
from repro.search.knn import certified_band
from repro.utils.rng import ensure_rng


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "contract: seconds-long guards of the import closures, the public API,"
        " the serving structure and the fit's and engine's cost and bits"
        " (CI runs them first, with -m contract)",
    )


@pytest.fixture(scope="session")
def toy_graph() -> AttributedGraph:
    """The paper's 6-node running example (Fig. 1)."""
    return running_example_graph()


@pytest.fixture(scope="session")
def sbm_graph() -> AttributedGraph:
    """A small, homophilous SBM used across unit tests."""
    return attributed_sbm(
        n_nodes=120, n_communities=3, n_attributes=30, p_in=0.1, p_out=0.01,
        seed=7,
    )


@pytest.fixture(scope="session")
def citation() -> AttributedGraph:
    """A small citation-style directed graph."""
    return citation_graph(n_nodes=150, n_attributes=40, n_topics=4, seed=9)


@pytest.fixture(scope="session")
def undirected_graph() -> AttributedGraph:
    """A small undirected multi-label SBM."""
    return attributed_sbm(
        n_nodes=100, n_communities=4, n_attributes=25, directed=False,
        multilabel=True, seed=13,
    )


@pytest.fixture()
def tiny_graph() -> AttributedGraph:
    """Hand-built 4-node graph with known structure (fresh per test)."""
    adjacency = sp.csr_matrix(
        np.array(
            [
                [0, 1, 1, 0],
                [0, 0, 1, 0],
                [1, 0, 0, 1],
                [0, 0, 0, 0],  # dangling node
            ],
            dtype=float,
        )
    )
    attributes = sp.csr_matrix(
        np.array(
            [
                [1.0, 0.0, 2.0],
                [0.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
                [0.0, 0.0, 0.0],  # attribute-less node
            ]
        )
    )
    labels = np.array([0, 1, 0, 1])
    return AttributedGraph(adjacency=adjacency, attributes=attributes, labels=labels)


def _block_gauss_seidel_sweep(state, block_size: int) -> None:
    """Residual-space block Gauss–Seidel CCD sweep — ground truth for ``B > 1``.

    The literal form of what ``ccd_sweep(block_size=B)`` computes in
    coefficient space: coordinate blocks in order, each minimized exactly
    through its Gram pseudo-inverse, with a rank-``B`` update of the
    ``n × d`` residuals after every block (the kernel the coefficient-space
    sweep replaced).  The residuals are local: built from the state's
    affinities on entry, as in ``ccd_sweep_reference``, which it equals
    for ``B = 1``.
    """
    x_forward, x_backward, y = state.x_forward, state.x_backward, state.y
    s_forward = x_forward @ y.T - state.forward
    s_backward = x_backward @ y.T - state.backward
    half = y.shape[1]
    blocks = [slice(start, start + block_size) for start in range(0, half, block_size)]

    for block in blocks:
        yb = y[:, block]
        ginv = np.linalg.pinv(yb.T @ yb, hermitian=True)
        for x_half, s_half in ((x_forward, s_forward), (x_backward, s_backward)):
            mu = s_half @ yb @ ginv
            x_half[:, block] -= mu
            s_half -= mu @ yb.T

    for block in blocks:
        xfb, xbb = x_forward[:, block], x_backward[:, block]
        ginv = np.linalg.pinv(xfb.T @ xfb + xbb.T @ xbb, hermitian=True)
        mu = ginv @ (xfb.T @ s_forward + xbb.T @ s_backward)
        y[:, block] -= mu.T
        s_forward -= xfb @ mu
        s_backward -= xbb @ mu


@pytest.fixture(scope="session")
def block_reference_sweep():
    """``sweep(state, block_size)``: the literal block Gauss–Seidel reference."""
    return _block_gauss_seidel_sweep


def _randsvd_reference(matrix, rank, n_iter=5, *, oversample=8, seed=None):
    """Randomized subspace iteration orthonormalised after every product.

    Halko, Martinsson & Tropp (2011), Alg. 4.4, as ``randsvd`` ran it before
    it moved its loop's QRs to the small side: ``2·n_iter + 1`` QRs,
    ``n_iter + 1`` of them ``n × width``.  Same Gaussian draw and
    Rayleigh–Ritz step, so a seed means the same thing on both sides; the
    ground truth for ``randsvd``'s accuracy.
    """
    n, d = matrix.shape
    rng = ensure_rng(seed)
    width = min(rank + oversample, min(n, d))
    test = rng.standard_normal((d, width))
    sketch = _matmul(matrix, test)
    q, _ = np.linalg.qr(sketch)
    for _ in range(n_iter):
        q, _ = np.linalg.qr(_matmul(matrix.T, q))
        q, _ = np.linalg.qr(_matmul(matrix, q))
    small = _matmul(matrix.T, q).T  # q.T @ matrix, shape (width, d)
    u_small, s, vt = np.linalg.svd(small, full_matrices=False)
    u = q @ u_small
    return u[:, :rank], s[:rank], vt[:rank].T


@pytest.fixture(scope="session")
def randsvd_reference():
    """``randsvd_reference(matrix, rank, n_iter, oversample=, seed=)``."""
    return _randsvd_reference


def _greedy_init_reference(
    forward, backward, k, *, svd_iterations=5, seed=None, exact=False
):
    """GreedyInit (Alg. 3) as it ran before its RandSVD moved to the Gram.

    ``randsvd(F′)`` streams ``F′`` ``2·svd_iterations + 2`` times and seeds
    ``Xf = UΣ``, ``Y = V``, ``Xb = B′Y``.  The same Gaussian draw for a seed
    as ``greedy_init``; the ground truth for its truncation error.
    """
    from repro.core.greedy_init import InitState
    from repro.core.randsvd import randsvd

    u, sigma, v = randsvd(forward, k // 2, svd_iterations, seed=seed, exact=exact)
    return InitState(u * sigma, backward @ v, v, forward, backward)


@pytest.fixture(scope="session")
def greedy_init_reference():
    """``greedy_init_reference(forward, backward, k, svd_iterations=, seed=)``."""
    return _greedy_init_reference


def _walk_operands(graph, dangling):
    """``((T, Rr), (Tᵀ, Rc))`` for the reference recurrences, ``T`` undecayed."""
    from repro.graph.matrices import normalized_attribute_matrices, random_walk_matrix

    transition = random_walk_matrix(graph, dangling=dangling)
    rr, rc = normalized_attribute_matrices(graph)
    return (transition, rr), (transition.T.tocsr(), rc)


def _truncation(alpha, epsilon, n_iterations):
    from repro.core.affinity import iterations_for_epsilon

    return n_iterations if n_iterations is not None else iterations_for_epsilon(epsilon, alpha)


def _two_pass_hops(matrix, restart, alpha, t):
    """``t`` hops ``p ← α·r + Σ_j ((1−α)·T_ij)·p_j``, literally, in ``restart``'s dtype.

    Each row starts from its restart and adds ``T′``'s stored entries of
    that row one at a time in stored order, ``T′_ij = (1−α)·T_ij`` rounded
    first in float64 and then to ``restart``'s dtype: one rounded product
    and one rounded add per entry, no fused multiply-add (scipy's
    ``csr_matvecs`` computes exactly this, in float32 as in float64).
    """
    decayed = ((1.0 - alpha) * matrix.data).astype(restart.dtype)
    p = restart.copy()
    for _ in range(t):
        nxt = restart.copy()
        for i in range(matrix.shape[0]):
            for entry in range(matrix.indptr[i], matrix.indptr[i + 1]):
                nxt[i] += decayed[entry] * p[matrix.indices[entry]]
        p = nxt
    return p


def _printed_hops(matrix, restart, alpha, t):
    """``t`` hops in the printed Alg. 2 association ``(1−α)·(T·p) + α·r``."""
    p = restart.copy()
    for _ in range(t):
        p = (1.0 - alpha) * np.asarray(matrix @ p) + restart
    return p


def _reference_probabilities(
    hops, graph, alpha, epsilon, n_iterations, dangling, dtype=np.float64
):
    """``(P_f, P_b)`` by ``hops`` on ``dtype`` operands; ``α·r`` is formed in ``dtype``."""
    t = _truncation(alpha, epsilon, n_iterations)
    return tuple(
        hops(matrix, alpha * attributes.astype(dtype).toarray(), alpha, t)
        for matrix, attributes in _walk_operands(graph, dangling)
    )


def _apmi_reference(graph, alpha=0.5, epsilon=0.015, *, n_iterations=None, dangling="zero"):
    """APMI (Alg. 2) full width, each hop the literal two-pass recurrence in float32.

    Rounds ``T′`` and ``Rr``/``Rc`` to float32, densifies all of
    ``Rr``/``Rc``, runs the ``t`` hops of Eq. (6) on ``n × d`` float32
    arrays by :func:`_two_pass_hops`, widens them to float64, then
    SPMI-normalizes (Eq. 7) all columns (forward) or rows (backward) at
    once; the ground truth ``apmi``'s blocks must match bit for bit.
    Returns ``(F′, B′)``.
    """
    pf, pb = (
        p.astype(np.float64)
        for p in _reference_probabilities(
            _two_pass_hops, graph, alpha, epsilon, n_iterations, dangling, np.float32
        )
    )

    def spmi(p, axis):
        sums = p.sum(axis=axis, keepdims=True)
        return np.log2(1.0 + p.shape[axis] * (p / np.where(sums == 0, 1.0, sums)))

    return spmi(pf, 0), spmi(pb, 1)


@pytest.fixture(scope="session")
def apmi_reference():
    """``apmi_reference(graph, alpha, epsilon, n_iterations=, dangling=)`` → ``(F′, B′)``."""
    return _apmi_reference


def _longest_row(matrix):
    return int(np.diff(matrix.indptr).max(initial=0))


def _printed_bound(matrix, t):
    """Relative elementwise distance of the two hop associations after ``t`` hops.

    All terms are non-negative, so each hop's rounding is relative to the
    exact entry.  Either association rounds an entry's term at most
    ``D + 2`` times per hop (``D`` = most stored entries in a row): the
    printed one a product, ``D − 1`` adds, the ``(1−α)`` scale and the
    restart add; the two-pass one ``(1−α)·T_ij``, a product and ``D``
    adds.  Hop ``k``'s input error carries through unchanged, so each side
    is within ``(1 + γ)^t − 1 ≈ t·(D+2)·u`` of the exact series (``γ =
    (D+2)·u``, ``u = ε/2``), and the two within twice that:
    ``|Δp| ≤ (t+1)·(D+2)·ε·p`` elementwise, so ``‖Δ‖∞ ≤ (t+1)·(D+2)·ε·‖P‖∞``.
    """
    return (t + 1) * (_longest_row(matrix) + 2) * np.finfo(np.float64).eps


def _float32_bound(matrix, t):
    """Relative elementwise distance of the float32 walk from the float64 one.

    Both run the two-pass association on non-negative terms, so every
    rounding is relative to the exact entry.  In float32 a product term
    ``T′_ij·p_j`` is rounded ``D + 2`` times per hop (``T′_ij`` to
    float32, the product, at most ``D`` adds) and the restart ``D + 3``
    times (``r`` and ``α`` to float32, their product, at most ``D``
    adds).  Hop ``k``'s input error carries through unchanged, so the
    float32 walk is within ``(1 + u₃₂)^(t·(D+2) + 3) − 1`` of the exact
    series, and the float64 one within ``(t+1)·(D+2)·u₆₄``.  Taking
    ``ε₃₂ = 2·u₃₂`` per rounding absorbs the second-order terms and the
    float64 side: ``|P₃₂ − P₆₄| ≤ ((t+1)·(D+2) + 3)·ε₃₂·P₆₄`` elementwise,
    the ``(t+1)·(D+2)`` hop terms plus three for rounding ``α·r``.
    """
    return ((t + 1) * (_longest_row(matrix) + 2) + 3) * np.finfo(np.float32).eps


def _walk_bounds(graph, alpha=0.5, epsilon=0.015, *, n_iterations=None, dangling="zero"):
    """``(β_f, β_b)``: :func:`_float32_bound` of the forward and backward walk."""
    t = _truncation(alpha, epsilon, n_iterations)
    return tuple(_float32_bound(matrix, t) for matrix, _ in _walk_operands(graph, dangling))


def _assert_near_float64(
    probabilities, graph, alpha=0.5, epsilon=0.015, *, n_iterations=None, dangling="zero"
):
    """float32 ``(P_f, P_b)`` within :func:`_float32_bound` of the float64 two-pass walk."""
    t = _truncation(alpha, epsilon, n_iterations)
    references = _reference_probabilities(
        _two_pass_hops, graph, alpha, epsilon, n_iterations, dangling
    )
    for produced, expected, (matrix, _) in zip(
        probabilities, references, _walk_operands(graph, dangling)
    ):
        assert produced.dtype == np.float32
        assert np.all(np.abs(produced - expected) <= _float32_bound(matrix, t) * expected)


@pytest.fixture(scope="session")
def hop_references():
    """The hop oracles: ``two_pass``/``printed`` ``(T, α·r, α, t)``, ``bound(T, t)``
    (printed vs two-pass, float64), and per graph the float32 walk's
    ``walk_bounds``/``assert_near_float64([(P_f, P_b),] graph, α, ϵ,
    n_iterations=, dangling=)``."""
    from types import SimpleNamespace

    return SimpleNamespace(
        two_pass=_two_pass_hops,
        printed=_printed_hops,
        bound=_printed_bound,
        walk_bounds=_walk_bounds,
        assert_near_float64=_assert_near_float64,
    )


def _select_band_reference(scores, k, dim):
    """``select_band`` as it ran before it stopped partitioning whole rows.

    The k-th best of each row by ``np.partition`` of every column, then
    the same certified-band arithmetic; the ground truth for
    ``select_band``'s mask.
    """
    kth = np.partition(scores, scores.shape[1] - k, axis=1)[:, scores.shape[1] - k]
    exact = np.nextafter(
        kth.astype(np.float64) - certified_band(dim, scores.dtype), -np.inf
    )
    limit = exact.astype(scores.dtype)
    limit = np.where(
        limit > exact, np.nextafter(limit, scores.dtype.type(-np.inf)), limit
    )
    return scores >= limit[:, np.newaxis]


@pytest.fixture(scope="session")
def select_band_reference():
    """``select_band_reference(scores, k, dim)``: the full-partition band."""
    return _select_band_reference


def _canonical_scores(features, ids, query):
    """Canonical cosine scores of ``features[ids]`` against one ``query``.

    The single-query form of ``repro.search.knn.rowwise_inner``: the
    returned floats are bit-identical to what ``exact_top_k`` reports for
    the same rows, which makes it the oracle of a brute-force ranking.  A
    fancy-index gather always yields a fresh contiguous array, so the
    einsum runs directly on it.
    """
    rows = features[ids]
    repeated = np.empty_like(rows)
    repeated[:] = query
    return np.einsum("ij,ij->i", rows, repeated)


@pytest.fixture(scope="session")
def canonical_scores():
    """``canonical_scores(features, ids, query)``: the engine's score bits."""
    return _canonical_scores
