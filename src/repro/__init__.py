"""repro — a reproduction of PANE (Yang et al., *Scaling Attributed Network
Embedding to Massive Graphs*, VLDB 2020).

Public API highlights:

- :class:`repro.PANE` / :class:`repro.PANEConfig` — the embedding algorithm.
- :class:`repro.AttributedGraph` and the generators in :mod:`repro.graph`.
- Evaluation tasks in :mod:`repro.tasks` (attribute inference, link
  prediction, node classification).
- Competitor methods in :mod:`repro.baselines`.
- The paper's experiment harness in :mod:`repro.eval`.
- The serving subsystem in :mod:`repro.serving` (versioned store, IVF
  index, batched query service, online refresh — see ``docs/SERVING.md``).
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "PANE",
    "PANEConfig",
    "PANEEmbedding",
    "AttributedGraph",
    "apmi",
    "exact_affinity",
    "randsvd",
    "attributed_sbm",
    "citation_graph",
    "power_law_attributed",
    "random_attributed_graph",
    "running_example_graph",
    "__version__",
]

# Resolved on first use: ``import repro`` (which every ``repro.serving``
# import implies) must not load the trainer or scipy.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.pane": ("PANE",),
        "repro.core.config": ("PANEConfig",),
        "repro.core.embedding": ("PANEEmbedding",),
        "repro.graph.attributed_graph": ("AttributedGraph",),
        "repro.core.affinity": ("apmi", "exact_affinity"),
        "repro.core.randsvd": ("randsvd",),
        "repro.graph.generators": (
            "attributed_sbm", "citation_graph", "power_law_attributed",
            "random_attributed_graph",
        ),
        "repro.graph.toy": ("running_example_graph",),
    },
)
