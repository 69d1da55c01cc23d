"""Tests for repro.utils.sparse."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils.sparse import (
    column_normalize,
    dense_column_normalize,
    dense_row_normalize,
    is_row_stochastic,
    row_normalize,
    sparse_equal,
)


class TestRowNormalize:
    def test_rows_sum_to_one(self):
        m = sp.csr_matrix(np.array([[1.0, 3.0], [2.0, 2.0]]))
        out = row_normalize(m)
        assert np.allclose(np.asarray(out.sum(axis=1)).ravel(), 1.0)

    def test_zero_row_stays_zero(self):
        m = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        out = row_normalize(m).toarray()
        assert np.all(out[0] == 0)

    def test_proportions_preserved(self):
        m = sp.csr_matrix(np.array([[1.0, 3.0]]))
        out = row_normalize(m).toarray()
        assert np.allclose(out, [[0.25, 0.75]])


class TestColumnNormalize:
    def test_columns_sum_to_one(self):
        m = sp.csr_matrix(np.array([[1.0, 0.0], [3.0, 2.0]]))
        out = column_normalize(m)
        assert np.allclose(np.asarray(out.sum(axis=0)).ravel(), 1.0)

    def test_zero_column_stays_zero(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 1.0]]))
        out = column_normalize(m).toarray()
        assert np.all(out[:, 0] == 0)


def _awkward(kind: str) -> sp.csr_matrix:
    """A CSR input the normalizers must keep the structure of."""
    if kind == "unsorted":  # every row's indices reversed, as a diags product leaves them
        m = sp.random(12, 9, density=0.4, format="csr", random_state=0)
        for i in range(m.shape[0]):
            row = slice(m.indptr[i], m.indptr[i + 1])
            m.indices[row], m.data[row] = m.indices[row][::-1], m.data[row][::-1]
        m.has_sorted_indices = False
        return m
    if kind == "explicit_zeros":
        m = sp.random(12, 9, density=0.4, format="csr", random_state=1)
        m.data[::3] = 0.0  # row 0 may be all explicit zeros: a zero sum
        return m
    if kind == "empty_rows_and_columns":
        m = sp.random(12, 9, density=0.4, format="lil", random_state=2)
        m[3, :] = 0.0
        m[:, 5] = 0.0
        return m.tocsr()
    # ``dangling="self"``: the adjacency plus a loop on every node without out-links
    adjacency = _dangling_adjacency()
    return adjacency + sp.csr_matrix((np.ones(2), ([0, 7], [0, 7])), shape=adjacency.shape)


def _dangling_adjacency() -> sp.csr_matrix:
    """12 nodes, no self-loops, nodes 0 and 7 without out-links."""
    m = sp.random(12, 12, density=0.2, format="lil", random_state=3)
    m[[0, 7], :] = 0.0
    m.setdiag(0.0)
    m = m.tocsr()
    m.eliminate_zeros()
    return m


@pytest.mark.contract
class TestScaledData:
    """The normalizers scale ``data`` only: ``diags(inv) @ m`` entry for entry, ``m``'s structure.

    Contract: TestScaledData checks the normalizers against diags(inv) @ m
    on awkward CSR inputs.
    """

    KINDS = ("unsorted", "explicit_zeros", "empty_rows_and_columns", "dangling_self_loops")

    @staticmethod
    def _inverse(sums):
        return np.where(sums != 0, 1.0 / np.where(sums != 0, sums, 1.0), 0.0)

    def _check(self, m, out, expected):
        assert out.format == "csr" and out.dtype == np.float64
        assert np.array_equal(out.toarray(), expected.toarray())
        assert np.array_equal(out.indptr, m.indptr)
        assert np.array_equal(out.indices, m.indices)
        assert not np.shares_memory(out.data, m.data)

    @pytest.mark.parametrize("kind", KINDS)
    def test_row_normalize(self, kind):
        m = _awkward(kind)
        before = m.copy()
        inv = self._inverse(np.asarray(m.sum(axis=1)).ravel())
        self._check(m, row_normalize(m), sp.diags(inv) @ m)
        assert np.array_equal(m.data, before.data)  # the input is not scaled

    @pytest.mark.parametrize("kind", KINDS)
    def test_column_normalize(self, kind):
        m = _awkward(kind)
        inv = self._inverse(np.asarray(m.sum(axis=0)).ravel())
        self._check(m, column_normalize(m), m @ sp.diags(inv))

    def test_random_walk_matrix_keeps_the_adjacency_order(self):
        """``dangling="self"``: ``T`` is ``A + loops`` row-scaled, in ``A + loops``' order."""
        from repro.graph.attributed_graph import AttributedGraph
        from repro.graph.matrices import random_walk_matrix

        looped = _awkward("dangling_self_loops")
        graph = AttributedGraph(
            adjacency=_dangling_adjacency(), attributes=sp.identity(12, format="csr")
        )
        transition = random_walk_matrix(graph, dangling="self")
        inv = self._inverse(np.asarray(looped.sum(axis=1)).ravel())
        self._check(looped, transition, sp.diags(inv) @ looped)


class TestDenseNormalizers:
    def test_dense_row_matches_sparse(self):
        m = np.array([[1.0, 3.0], [0.0, 0.0], [2.0, 2.0]])
        sparse_result = row_normalize(sp.csr_matrix(m)).toarray()
        assert np.allclose(dense_row_normalize(m), sparse_result)

    def test_dense_column_matches_sparse(self):
        m = np.array([[1.0, 0.0], [3.0, 2.0]])
        sparse_result = column_normalize(sp.csr_matrix(m)).toarray()
        assert np.allclose(dense_column_normalize(m), sparse_result)


class TestPredicates:
    def test_is_row_stochastic_true(self):
        m = sp.csr_matrix(np.array([[0.5, 0.5], [0.0, 0.0]]))
        assert is_row_stochastic(m)

    def test_is_row_stochastic_false(self):
        m = sp.csr_matrix(np.array([[0.5, 0.6]]))
        assert not is_row_stochastic(m)

    def test_sparse_equal_identical(self):
        m = sp.random(10, 10, density=0.3, random_state=0)
        assert sparse_equal(m.tocsr(), m.tocsr())

    def test_sparse_equal_shape_mismatch(self):
        assert not sparse_equal(sp.eye(3).tocsr(), sp.eye(4).tocsr())

    def test_sparse_equal_value_mismatch(self):
        a = sp.eye(3).tocsr()
        b = a.copy()
        b[0, 0] = 2.0
        assert not sparse_equal(a, b)
