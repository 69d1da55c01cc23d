"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts a ``seed`` argument that
may be ``None``, an ``int`` or a ``numpy.random.Generator``.  ``ensure_rng``
canonicalizes all three into a ``Generator`` so internal code never touches
the legacy global numpy RNG state.
"""

from __future__ import annotations

import numpy as np


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic entropy, an ``int`` for a fixed seed,
        or an existing ``Generator`` which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
