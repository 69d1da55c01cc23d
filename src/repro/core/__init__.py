"""PANE core: affinity approximation, joint factorization, and the facade."""

from repro._lazy import lazy_exports

__all__ = [
    "PANE",
    "PANEConfig",
    "PANEEmbedding",
    "apmi",
    "exact_affinity",
    "iterations_for_epsilon",
    "randsvd",
    "attribute_scores",
    "link_scores",
    "node_attribute_score_matrix",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.pane": ("PANE",),
        "repro.core.config": ("PANEConfig",),
        "repro.core.embedding": ("PANEEmbedding",),
        "repro.core.affinity": ("apmi", "exact_affinity", "iterations_for_epsilon"),
        "repro.core.randsvd": ("randsvd",),
        "repro.core.scoring": (
            "attribute_scores", "link_scores", "node_attribute_score_matrix",
        ),
    },
)
