"""Configuration object for PANE (all paper hyper-parameters in one place)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_probability


@dataclass(frozen=True)
class PANEConfig:
    """Hyper-parameters of the PANE algorithm (defaults from Sec. 5.1).

    Attributes
    ----------
    k:
        Space budget: each node gets two ``k/2`` vectors, each attribute one.
    alpha:
        Random-walk stopping probability α ∈ (0, 1).
    epsilon:
        Truncation error threshold ϵ; sets the iteration count
        ``t = ⌈log ϵ / log(1 − α)⌉ − 1`` used by both APMI and CCD.
    n_threads:
        ``nb`` — 1 selects the single-thread algorithms (Alg. 1–4),
        larger values the parallel ones (Alg. 5–8).
    ccd_iterations:
        Override for the number of CCD refinement sweeps (``None`` = use
        the same ``t`` as APMI, as in Alg. 1/4).
    svd_power_iterations:
        Power-iteration count for the randomized SVD.
    dangling:
        Dangling-node policy for ``P`` (see ``random_walk_matrix``).
    seed:
        Seed for the randomized SVD test matrices.
    ccd_block_size:
        Coordinate block size ``B`` for the CCD sweep.  ``1`` (default)
        is Alg. 4's own update order (equal to the literal reference loop
        within ``1e-10``, not bit-identical: the sweep runs as GEMMs);
        ``B > 1`` minimizes blocks of ``B`` coordinates at a time (block
        Gauss–Seidel — same monotone objective, different update order).
        Every ``B`` costs the same ``n``-side passes (the order only
        changes ``k/2``-wide coefficient work), so this does not buy
        speed; see ``repro.core.kernels``.
    """

    k: int = 128
    alpha: float = 0.5
    epsilon: float = 0.015
    n_threads: int = 1
    ccd_iterations: int | None = None
    svd_power_iterations: int = 5
    dangling: str = "zero"
    seed: int | None = 0
    ccd_block_size: int = 1

    def __post_init__(self) -> None:
        if self.k <= 0 or self.k % 2 != 0:
            raise ValueError(f"k must be a positive even integer, got {self.k}")
        check_probability(self.alpha, "alpha")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.ccd_iterations is not None and self.ccd_iterations < 0:
            raise ValueError("ccd_iterations must be non-negative")
        if self.svd_power_iterations < 0:
            raise ValueError("svd_power_iterations must be non-negative")
        if self.ccd_block_size < 1:
            raise ValueError(
                f"ccd_block_size must be >= 1, got {self.ccd_block_size}"
            )

    @property
    def half_dim(self) -> int:
        """The per-vector dimensionality ``k/2``."""
        return self.k // 2
