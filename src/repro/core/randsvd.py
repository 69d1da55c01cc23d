"""Randomized truncated SVD (the RandSVD primitive of Alg. 3/7).

The paper cites Musco & Musco's randomized block Krylov method; we implement
the closely related randomized subspace (power) iteration of Halko et al.,
which has the same role in GreedyInit: a fast rank-``k/2`` factorization
``M ≈ U Σ Vᵀ`` with orthonormal ``V``.  An ``exact=True`` escape hatch runs
a full dense SVD, used by the Lemma 4.2 tests that reason about the
``t = ∞`` limit.

The iteration keeps its basis on the small side of the ``n × d`` input and
orthonormalises the tall side once.  For ``n ≥ d`` it runs
``q ← qr(Mᵀ(M q))`` from ``q = Ω`` (``d × w`` QRs), then ``q ← qr(M q)``;
for ``n < d`` it runs ``q ← qr(M(Mᵀ q))`` from ``q = qr(MΩ)`` (``n × w``
QRs).  A QR changes a basis but not its span, so both end with an
orthonormal basis of ``(MMᵀ)^q MΩ`` from the same ``2q + 1`` products as
Halko et al.'s Alg. 4.4, which orthonormalises after every product.  The
trade: ``MᵀM`` squares the spectrum between two QRs, so directions with
``σ_j < √ε·σ₁ ≈ 1.5e-8·σ₁`` can be lost, where Alg. 4.4 keeps them down to
``ε·σ₁``.  PANE's affinities have ``σ_{k/2}/σ₁ ≈ 0.1``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.rng import ensure_rng


def _matmul(matrix, other: np.ndarray) -> np.ndarray:
    """``matrix @ other`` returning a dense ndarray for sparse or dense input."""
    result = matrix @ other
    return np.asarray(result)


def randsvd(
    matrix,
    rank: int,
    n_iter: int = 5,
    *,
    oversample: int = 8,
    seed: int | np.random.Generator | None = None,
    exact: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD ``matrix ≈ U @ diag(s) @ V.T``.

    Parameters
    ----------
    matrix:
        ``n × d`` dense array or scipy sparse matrix.
    rank:
        Number of singular triplets to return (``k/2`` in PANE).
    n_iter:
        Power-iteration count; more iterations sharpen the spectrum
        separation at linear extra cost.
    oversample:
        Extra random directions kept during iteration for stability.
    seed:
        RNG for the Gaussian test matrix — fixing it makes the whole PANE
        pipeline deterministic.
    exact:
        Use a full dense SVD (exact optimum; O(nd·min(n,d))) instead.

    Returns
    -------
    U : ``n × rank`` — left singular vectors.
    s : ``rank`` — singular values, descending.
    V : ``d × rank`` — right singular vectors (orthonormal columns).
    """
    n, d = matrix.shape
    if rank != int(rank):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    rank = int(rank)
    if n_iter < 0 or oversample < 0:
        raise ValueError(
            f"n_iter and oversample must be >= 0, got {n_iter} and {oversample}"
        )
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    if rank > min(n, d):
        raise ValueError(f"rank {rank} exceeds min(n, d) = {min(n, d)}")

    if exact:
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
        u_full, s_full, vt_full = np.linalg.svd(dense, full_matrices=False)
        return u_full[:, :rank], s_full[:rank], vt_full[:rank].T

    rng = ensure_rng(seed)
    width = min(rank + oversample, min(n, d))
    q = rng.standard_normal((d, width))
    if n >= d:
        for _ in range(n_iter):
            q, _ = np.linalg.qr(_matmul(matrix.T, _matmul(matrix, q)))
        q, _ = np.linalg.qr(_matmul(matrix, q))  # the one n × width QR
    else:
        q, _ = np.linalg.qr(_matmul(matrix, q))
        for _ in range(n_iter):
            q, _ = np.linalg.qr(_matmul(matrix, _matmul(matrix.T, q)))
    small = _matmul(matrix.T, q).T  # q.T @ matrix, shape (width, d)
    u_small, s, vt = np.linalg.svd(small, full_matrices=False)
    u = q @ u_small
    return u[:, :rank], s[:rank], vt[:rank].T
