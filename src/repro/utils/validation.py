"""Input validation helpers shared across the library.

All raise ``ValueError`` with actionable messages; they exist so public
entry points fail fast on bad parameters instead of deep inside numpy.
"""

from __future__ import annotations

import numbers

#: How ``random_walk_matrix`` may treat a node with no out-links.
DANGLING_POLICIES = ("zero", "self")


def check_count(value, name: str, *, minimum: int) -> int:
    """Validate an integer ``>= minimum``; ``bool`` and integral floats are rejected.

    Returns it as a plain ``int`` (numpy integers are accepted).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_probability(value: float, name: str, *, inclusive: bool = False) -> float:
    """Validate that ``value`` lies in (0, 1), or [0, 1] if ``inclusive``."""
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    elif not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_embedding_dim(k: int, n: int, d: int) -> int:
    """Validate the space budget ``k`` against graph dimensions.

    The paper stores two node vectors of length ``k/2`` plus one attribute
    vector of length ``k/2``, so ``k`` must be a positive even integer and
    ``k/2`` may not exceed the rank budget ``min(n, d)``.
    """
    k = int(k)
    if k <= 0 or k % 2 != 0:
        raise ValueError(f"space budget k must be a positive even integer, got {k}")
    if k // 2 > min(n, d):
        raise ValueError(
            f"k/2={k // 2} exceeds min(n, d)={min(n, d)}; "
            "reduce k or use a larger graph"
        )
    return k
