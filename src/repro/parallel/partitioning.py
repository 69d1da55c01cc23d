"""Equal-size index partitioning (Alg. 5 lines 1–2).

The paper randomly partitions the node set V and attribute set R into
``nb`` equal subsets.  We partition *contiguously*, so matrix blocks are
slices (cheap views) and every fit's spans are fixed by ``n`` and the
block count alone.
"""

from __future__ import annotations

import numpy as np


def partition_indices(total: int, n_blocks: int) -> list[np.ndarray]:
    """Split ``range(total)`` into ``n_blocks`` near-equal index arrays.

    Every index appears in exactly one block; blocks differ in size by at
    most one.  Empty blocks are dropped, so fewer than ``n_blocks`` arrays
    may be returned when ``total < n_blocks``.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    blocks = np.array_split(np.arange(total), n_blocks)
    return [block for block in blocks if block.size > 0]


def partition_spans(total: int, n_blocks: int) -> list[slice]:
    """Split ``range(total)`` into contiguous ``slice`` objects.

    The same near-equal partition as :func:`partition_indices`, but
    expressed as slices so that indexing a matrix block yields a *view*
    rather than a fancy-indexing copy — the form the span kernels in
    :mod:`repro.core.kernels` rely on (in-place updates).
    """
    return [
        slice(int(block[0]), int(block[-1]) + 1)
        for block in partition_indices(total, n_blocks)
    ]
