"""Sparse-matrix helpers used by the graph substrate and the core solver."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _inverse(sums: np.ndarray) -> np.ndarray:
    """``1 / sums`` where the sum is non-zero, 0 where it is zero."""
    inv = np.zeros_like(sums)
    nonzero = sums != 0
    inv[nonzero] = 1.0 / sums[nonzero]
    return inv


def row_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Return a copy of ``matrix`` with every non-empty row scaled to sum 1.

    Rows whose sum is zero are left as all-zero rows (the library-wide
    dangling policy; see DESIGN.md §2).  The copy keeps the input's CSR
    structure (``indptr``, ``indices`` and their order, explicit zeros);
    only ``data`` is scaled, each entry by its row's inverse sum.
    """
    matrix = matrix.tocsr().astype(np.float64)
    inv = _inverse(np.asarray(matrix.sum(axis=1)).ravel())
    matrix.data *= np.repeat(inv, np.diff(matrix.indptr))
    return matrix


def column_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Return a copy of ``matrix`` with every non-empty column scaled to sum 1.

    Like :func:`row_normalize`: the CSR structure is kept, ``data`` scaled.
    """
    matrix = matrix.tocsr().astype(np.float64)
    inv = _inverse(np.asarray(matrix.sum(axis=0)).ravel())
    matrix.data *= inv[matrix.indices]
    return matrix


def dense_row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize a dense matrix, leaving all-zero rows untouched."""
    sums = matrix.sum(axis=1, keepdims=True)
    safe = np.where(sums == 0, 1.0, sums)
    return matrix / safe


def dense_column_normalize(matrix: np.ndarray) -> np.ndarray:
    """Column-normalize a dense matrix, leaving all-zero columns untouched."""
    sums = matrix.sum(axis=0, keepdims=True)
    safe = np.where(sums == 0, 1.0, sums)
    return matrix / safe


def is_row_stochastic(matrix, atol: float = 1e-9) -> bool:
    """True if every row of ``matrix`` sums to 1 or 0 (dangling allowed)."""
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    return bool(np.all((np.abs(sums - 1.0) <= atol) | (np.abs(sums) <= atol)))


def sparse_equal(a: sp.spmatrix, b: sp.spmatrix, atol: float = 1e-12) -> bool:
    """Structural + numerical equality check for two sparse matrices."""
    if a.shape != b.shape:
        return False
    diff = (a - b).tocoo()
    if diff.nnz == 0:
        return True
    return bool(np.max(np.abs(diff.data)) <= atol)
