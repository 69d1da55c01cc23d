"""Configuration object for PANE (all paper hyper-parameters in one place)."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.utils.validation import DANGLING_POLICIES, check_count, check_probability

#: Integer fields and their least value; ``_OPTIONAL`` ones may be ``None``.
_COUNTS = {
    "k": 2,
    "n_threads": 1,
    "ccd_iterations": 0,
    "svd_power_iterations": 0,
    "seed": 0,
    "ccd_block_size": 1,
}
_OPTIONAL = ("ccd_iterations", "seed")


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
        Subspace iterations of GreedyInit's RandSVD.  It runs on the
        ``d × d`` Gram ``F′ᵀF′`` that CCD needs anyway
        (``repro.core.randsvd.randsvd_gram``), so each costs ``O(d²·w)``
        and no pass over ``F′``.
    dangling:
        Dangling-node policy for ``P``: ``"zero"`` or ``"self"`` (see
        ``random_walk_matrix``).
    seed:
        Seed of RandSVD's Gaussian test matrix (a non-negative integer, or
        ``None`` for fresh entropy).  Every thread count draws the same
        matrix.
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
        # Each field fails here, not deep inside the fit (``k=16.0`` would
        # make ``half_dim`` a float, ``seed=1.5`` a TypeError in RandSVD).
        for name, minimum in _COUNTS.items():
            value = getattr(self, name)
            if value is not None or name not in _OPTIONAL:
                value = check_count(value, name, minimum=minimum)
                object.__setattr__(self, name, value)
        if self.k % 2 != 0:
            raise ValueError(f"k must be a positive even integer, got {self.k}")
        for name in ("alpha", "epsilon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        check_probability(self.alpha, "alpha")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.dangling not in DANGLING_POLICIES:
            raise ValueError(
                f"dangling must be one of {DANGLING_POLICIES}, got {self.dangling!r}"
            )

    @property
    def half_dim(self) -> int:
        """The per-vector dimensionality ``k/2``."""
        return self.k // 2
