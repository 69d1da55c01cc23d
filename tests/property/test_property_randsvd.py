"""Property-based tests: ``randsvd`` against the Alg. 4.4 reference loop.

``randsvd`` keeps the power iteration's basis on the small side of ``M``
and orthonormalises the tall side once; the reference (``conftest``)
orthonormalises after every product.  Both draw the same Gaussian test
matrix for a seed, so on any input the fast loop must reach the
reference's truncation error, within a ``1e-9·‖M‖`` slack (the module
docstring gives the measured margin).

Contract: The two randsvd files guard randsvd for the baselines only (the
fit's init no longer calls it): the power iteration must match the
orthonormalise-every-product reference loop's truncation error on planted
tall/wide, dense/CSR spectra, and may run at most one QR on the large side
of its input (a tall QR creeping back fails here).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.randsvd import randsvd

pytestmark = pytest.mark.contract


@st.composite
def planted_problems(draw):
    """A tall or wide matrix with spectrum ``σ_j = 10^(−j/decay)``.

    The true rank may fall below ``min(n, d)`` and below the requested rank.
    """
    n = draw(st.integers(2, 60))
    d = draw(st.integers(2, 60))
    small = min(n, d)
    true_rank = draw(st.integers(1, small))
    decay = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0, np.inf]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    left, _ = np.linalg.qr(rng.standard_normal((n, true_rank)))
    right, _ = np.linalg.qr(rng.standard_normal((d, true_rank)))
    sigma = 10.0 ** (-np.arange(true_rank) / decay)
    matrix = (left * sigma) @ right.T
    if draw(st.booleans()):
        matrix = sp.csr_matrix(matrix)
    rank = draw(st.integers(1, small))
    n_iter = draw(st.integers(0, 6))
    oversample = draw(st.integers(0, 9))
    seed = draw(st.integers(0, 2**31 - 1))
    return matrix, true_rank, rank, n_iter, oversample, seed


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if sp.issparse(matrix) else matrix


def _residual(matrix, u, s, v) -> float:
    return float(np.linalg.norm(_dense(matrix) - (u * s) @ v.T))


class TestAgainstReference:
    @given(planted_problems())
    @settings(max_examples=60, deadline=None)
    def test_truncation_error_matches_reference(self, randsvd_reference, problem):
        matrix, _, rank, n_iter, oversample, seed = problem
        got = randsvd(matrix, rank, n_iter, oversample=oversample, seed=seed)
        ref = randsvd_reference(matrix, rank, n_iter, oversample=oversample, seed=seed)
        norm = float(np.linalg.norm(_dense(matrix)))
        assert _residual(matrix, *got) <= (1 + 1e-6) * _residual(matrix, *ref) + 1e-9 * norm

    @given(planted_problems())
    @settings(max_examples=60, deadline=None)
    def test_factors_orthonormal_at_full_rank(self, problem):
        matrix, true_rank, rank, n_iter, oversample, seed = problem
        assume(true_rank >= rank)
        u, _, v = randsvd(matrix, rank, n_iter, oversample=oversample, seed=seed)
        eye = np.eye(rank)
        assert np.abs(u.T @ u - eye).max() <= 1e-12
        assert np.abs(v.T @ v - eye).max() <= 1e-12

    @given(planted_problems())
    @settings(max_examples=30, deadline=None)
    def test_repeated_seed_is_bit_identical(self, problem):
        matrix, _, rank, n_iter, oversample, seed = problem
        first = randsvd(matrix, rank, n_iter, oversample=oversample, seed=seed)
        second = randsvd(matrix, rank, n_iter, oversample=oversample, seed=seed)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
