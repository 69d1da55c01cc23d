"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.generators import attributed_sbm, citation_graph
from repro.graph.toy import running_example_graph


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
