"""Synthetic datasets for exercising the serving layer.

Shared by ``benchmarks/bench_serving.py`` and ``tests/serving/`` so the
distribution the recall properties are *tested* on is the same one the
acceptance numbers are *benchmarked* on — two copies would drift.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PANEConfig
from repro.core.embedding import PANEEmbedding
from repro.search.knn import normalize_rows


def clustered_unit_vectors(
    n: int, dim: int, n_clusters: int, *, noise: float = 0.25, seed: int = 0
) -> np.ndarray:
    """Seeded random-projection dataset: cluster centers + Gaussian noise.

    The shape ANN indexes are built for — embeddings concentrate around
    community structure — normalized to unit rows like stored features.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, dim))
    assign = rng.integers(n_clusters, size=n)
    points = centers[assign] + noise * rng.standard_normal((n, dim))
    return normalize_rows(points)


def synthetic_embedding(n: int, dim: int, *, seed: int = 0):
    """A seeded random :class:`PANEEmbedding` shaped like a trained output.

    What the serving benches and the CI server smokes publish when they
    need a store without paying for a real ``PANE.fit`` — one builder so
    the HTTP bench, the process-boundary smoke, and the serving bench
    all exercise identically shaped stores.
    """
    half = max(2, dim // 2)
    rng = np.random.default_rng(seed)
    return PANEEmbedding(
        x_forward=rng.standard_normal((n, half)),
        x_backward=rng.standard_normal((n, half)),
        y=rng.standard_normal((max(4, half), half)),
        config=PANEConfig(k=2 * half),
    )
