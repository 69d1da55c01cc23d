"""Tests for the randomized SVD primitive.

Contract: The two randsvd files guard randsvd for the baselines only (the
fit's init no longer calls it): the power iteration must match the
orthonormalise-every-product reference loop's truncation error on planted
tall/wide, dense/CSR spectra, and may run at most one QR on the large side
of its input (a tall QR creeping back fails here).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.randsvd import randsvd

pytestmark = pytest.mark.contract


def _low_rank_matrix(n=60, d=30, rank=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))


class TestExactness:
    def test_recovers_low_rank_matrix(self):
        matrix = _low_rank_matrix(rank=5)
        u, s, v = randsvd(matrix, 5, n_iter=7, seed=0)
        assert np.allclose(u @ np.diag(s) @ v.T, matrix, atol=1e-6)

    def test_exact_mode_matches_numpy(self):
        matrix = _low_rank_matrix()
        u, s, v = randsvd(matrix, 4, exact=True)
        _, s_np, _ = np.linalg.svd(matrix)
        assert np.allclose(s, s_np[:4])

    def test_singular_values_descending(self):
        matrix = _low_rank_matrix(rank=8)
        _, s, _ = randsvd(matrix, 8, seed=0)
        assert np.all(np.diff(s) <= 1e-9)

    def test_close_to_optimal_truncation(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((50, 40))
        rank = 10
        u, s, v = randsvd(matrix, rank, n_iter=10, seed=0)
        approx_error = np.linalg.norm(matrix - u @ np.diag(s) @ v.T)
        _, s_full, _ = np.linalg.svd(matrix)
        optimal_error = np.sqrt((s_full[rank:] ** 2).sum())
        assert approx_error <= 1.1 * optimal_error


class TestOrthonormality:
    def test_v_columns_orthonormal(self):
        matrix = _low_rank_matrix()
        _, _, v = randsvd(matrix, 5, seed=0)
        assert np.allclose(v.T @ v, np.eye(5), atol=1e-8)

    def test_u_columns_orthonormal(self):
        matrix = _low_rank_matrix()
        u, _, _ = randsvd(matrix, 5, seed=0)
        assert np.allclose(u.T @ u, np.eye(5), atol=1e-8)


class TestInputs:
    def test_sparse_input(self):
        dense = _low_rank_matrix(rank=3)
        sparse = sp.csr_matrix(dense)
        u, s, v = randsvd(sparse, 3, n_iter=7, seed=0)
        assert np.allclose(u @ np.diag(s) @ v.T, dense, atol=1e-6)

    def test_deterministic_for_seed(self):
        matrix = _low_rank_matrix()
        a = randsvd(matrix, 4, seed=9)
        b = randsvd(matrix, 4, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            randsvd(np.eye(4), 0)

    def test_rank_too_large_rejected(self):
        with pytest.raises(ValueError):
            randsvd(np.eye(4), 5)

    def test_numpy_integer_rank_accepted(self):
        matrix = _low_rank_matrix(rank=3)
        _, s, _ = randsvd(matrix, np.int64(3), n_iter=np.int32(4), seed=0)
        assert s.shape == (3,)

    def test_non_integral_rank_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            randsvd(_low_rank_matrix(n=50, d=20), 3.7)

    def test_negative_oversample_rejected(self):
        # Used to return min(rank + oversample, ...) = 3 triplets, not 8.
        with pytest.raises(ValueError, match="oversample"):
            randsvd(_low_rank_matrix(n=50, d=20), 8, oversample=-5)

    def test_negative_n_iter_rejected(self):
        with pytest.raises(ValueError, match="n_iter"):
            randsvd(_low_rank_matrix(n=50, d=20), 8, n_iter=-3)

    def test_rank_equals_min_dim(self):
        matrix = _low_rank_matrix(n=10, d=6, rank=6)
        u, s, v = randsvd(matrix, 6, n_iter=8, seed=0)
        assert np.allclose(u @ np.diag(s) @ v.T, matrix, atol=1e-5)


class TestCostStructure:
    """The power iteration orthonormalises on the small side of ``M``."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("n, d", [(300, 40), (40, 300)], ids=["tall", "wide"])
    def test_at_most_one_qr_on_the_large_side(self, monkeypatch, n, d, sparse):
        rows = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            rows.append(a.shape[0])
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        matrix = _low_rank_matrix(n=n, d=d, rank=12)
        if sparse:
            matrix = sp.csr_matrix(matrix)
        n_iter = 5
        randsvd(matrix, 8, n_iter, seed=0)
        # Tall: n_iter d-row QRs, then the one n-row basis.  Wide: every QR
        # is n-row, the small side.  Alg. 4.4 ran 2·n_iter + 1 QRs, n_iter
        # of them on the large side and n_iter + 1 on the n side.
        if n >= d:
            assert rows == [d] * n_iter + [n]
        else:
            assert rows == [n] * (n_iter + 1)
