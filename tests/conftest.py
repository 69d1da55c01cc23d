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


def _apmi_reference(graph, alpha=0.5, epsilon=0.015, *, n_iterations=None, dangling="zero"):
    """APMI (Alg. 2) full width, as it ran before it moved to attribute blocks.

    Densifies all of ``Rr``/``Rc``, runs the ``t`` hops of Eq. (6) on
    ``n × d`` arrays, then SPMI-normalizes (Eq. 7) all columns (forward) or
    rows (backward) at once; the ground truth ``apmi``'s blocks must match
    bit for bit.  Returns ``(F′, B′)``.
    """
    from repro.core.affinity import iterations_for_epsilon
    from repro.graph.matrices import normalized_attribute_matrices, random_walk_matrix

    t = n_iterations if n_iterations is not None else iterations_for_epsilon(epsilon, alpha)
    transition = random_walk_matrix(graph, dangling=dangling)
    rr, rc = normalized_attribute_matrices(graph)

    def direction(matrix, attributes, axis):
        restart = alpha * attributes.toarray()
        p = restart.copy()
        for _ in range(t):
            p = (1.0 - alpha) * np.asarray(matrix @ p) + restart
        sums = p.sum(axis=axis, keepdims=True)
        return np.log2(1.0 + p.shape[axis] * (p / np.where(sums == 0, 1.0, sums)))

    return direction(transition, rr, 0), direction(transition.T.tocsr(), rc, 1)


@pytest.fixture(scope="session")
def apmi_reference():
    """``apmi_reference(graph, alpha, epsilon, n_iterations=, dangling=)`` → ``(F′, B′)``."""
    return _apmi_reference


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
