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
Halko et al.'s Alg. 4.4, which orthonormalises after every product.  It
keeps Alg. 4.4's accuracy: against that loop on 4 000 planted spectra
(``σ_j = 10^(−j/decay)``, rank-deficient ones included) no truncation error
came out more than ``1e-9·‖M‖`` larger, the worst by ``2e-14·‖M‖``.  The
loop applies ``M`` and ``Mᵀ`` to the basis and never forms ``MᵀM``.  An
explicit Gram is what has the ``√ε·σ₁`` floor: it rounds ``σ_j²`` to
``ε·σ₁²``.  Iterating on the ``d × d`` Gram is cheaper (one ``n``-side
pass instead of ``2q + 1``), but it failed 92 of the same 4 000 problems,
the worst by ``7e-9·‖M‖`` (``docs/PERFORMANCE.md`` § One tall QR per
RandSVD), so :func:`randsvd` — the baselines' SVD — keeps the loop.

:func:`randsvd_gram` is that Gram iteration, for PANE's init only: CCD
needs ``F′ᵀF′ + B′ᵀB′`` anyway, and GreedyInit's ``Y`` only has to be a
good start for it, so the floor (``σ_j`` below ``√ε·σ₁`` are not told
apart) costs nothing measurable there — PANE's affinities have
``σ_{k/2}/σ₁ ≈ 0.1`` (``repro.core.greedy_init``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.rng import ensure_rng


def _check_args(rank, n_iter: int, oversample: int, n: int, d: int) -> int:
    """``rank`` as an ``int``; ``ValueError`` for arguments no SVD has."""
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
    return rank


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
    rank = _check_args(rank, n_iter, oversample, n, d)

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


def randsvd_gram(
    gram: np.ndarray,
    rank: int,
    n_iter: int = 5,
    *,
    n_rows: int,
    oversample: int = 8,
    seed: int | np.random.Generator | None = None,
    exact: bool = False,
) -> np.ndarray:
    """A RandSVD's ``V`` for an ``n_rows × d`` ``M``, from ``gram = MᵀM`` alone.

    The same ``Ω`` (``d × min(rank + oversample, n_rows, d)``) as
    ``randsvd(M, rank, n_iter, seed=seed)``, ``q ← qr(gram·q)`` ``n_iter + 1``
    times, then Rayleigh–Ritz on ``gram``: the top ``rank`` eigenvectors of
    ``qᵀ·gram·q``, mapped back by ``q``.  So ``V ⊂ span(gram^(n_iter+1)·Ω)``,
    the span ``randsvd``'s ``n ≥ d`` branch takes its ``V`` from.  Every
    product is ``d × d × w``.  ``exact`` takes the top eigenvectors of
    ``gram``.  Returns ``V`` (``d × rank``, orthonormal, by descending
    eigenvalue).
    """
    d = gram.shape[0]
    rank = _check_args(rank, n_iter, oversample, n_rows, d)
    if exact:
        basis = np.eye(d)
    else:
        rng = ensure_rng(seed)
        basis = rng.standard_normal((d, min(rank + oversample, min(n_rows, d))))
        for _ in range(n_iter + 1):
            basis, _ = np.linalg.qr(gram @ basis)
    _, vectors = np.linalg.eigh(basis.T @ gram @ basis)
    return basis @ vectors[:, ::-1][:, :rank]
