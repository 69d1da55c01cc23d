"""Time-varying graphs: incremental embedding maintenance (paper Sec. 7).

The paper lists "time-varying graphs where attributes and node connections
change over time" as future work; this package implements the natural
PANE-style solution: re-propagate affinities (linear time) and *warm-start*
the factorization from the previous embeddings instead of re-running the
SVD-based GreedyInit.
"""

from repro._lazy import lazy_exports

__all__ = ["IncrementalPANE", "GraphDelta"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dynamic.incremental": ("IncrementalPANE",),
        "repro.dynamic.delta": ("GraphDelta",),
    },
)
