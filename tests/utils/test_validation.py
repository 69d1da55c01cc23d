"""Tests for repro.utils.validation (and ``check_csr``, which lives with its caller)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.attributed_graph import check_csr
from repro.utils.validation import (
    check_embedding_dim,
    check_positive,
    check_probability,
)


class TestCheckProbability:
    def test_accepts_interior_value(self):
        assert check_probability(0.5, "p") == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ValueError, match="p must be"):
            check_probability(bad, "p")

    def test_inclusive_accepts_boundaries(self):
        assert check_probability(0.0, "p", inclusive=True) == 0.0
        assert check_probability(1.0, "p", inclusive=True) == 1.0

    def test_inclusive_rejects_outside(self):
        with pytest.raises(ValueError):
            check_probability(1.5, "p", inclusive=True)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            check_positive(bad, "x")


class TestCheckEmbeddingDim:
    def test_accepts_valid(self):
        assert check_embedding_dim(8, 100, 50) == 8

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            check_embedding_dim(7, 100, 50)

    def test_rejects_zero_and_negative(self):
        for bad in (0, -2):
            with pytest.raises(ValueError):
                check_embedding_dim(bad, 100, 50)

    def test_rejects_k_too_large_for_graph(self):
        with pytest.raises(ValueError, match="exceeds"):
            check_embedding_dim(64, 100, 10)  # k/2=32 > d=10


class TestCheckCsr:
    def test_dense_input_converted(self):
        result = check_csr(np.eye(3), "m")
        assert sp.issparse(result)
        assert result.dtype == np.float64

    def test_sparse_passthrough_as_csr(self):
        coo = sp.coo_matrix(np.eye(3))
        result = check_csr(coo, "m")
        assert result.format == "csr"

    def test_preserves_values(self):
        m = np.array([[0.0, 2.5], [1.0, 0.0]])
        assert np.allclose(check_csr(m, "m").toarray(), m)
