"""A batch of graph changes — the unit the write path logs and replays.

:class:`GraphDelta` is plain data (numpy only): the serving WAL encodes
and decodes it and the HTTP upsert handler builds it without importing
the trainer; :mod:`repro.dynamic.incremental` applies it to a graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GraphDelta:
    """A batch of changes to apply to an attributed graph.

    Attributes
    ----------
    add_edges / remove_edges:
        Arrays of ``(source, target)`` pairs (shape ``e × 2``).
    add_associations:
        Array of ``(node, attribute, weight)`` triples (shape ``a × 3``).
    remove_associations:
        Array of ``(node, attribute)`` pairs whose entries become zero.
    """

    add_edges: np.ndarray | None = None
    remove_edges: np.ndarray | None = None
    add_associations: np.ndarray | None = None
    remove_associations: np.ndarray | None = None

    def is_empty(self) -> bool:
        return all(
            x is None or len(x) == 0
            for x in (
                self.add_edges,
                self.remove_edges,
                self.add_associations,
                self.remove_associations,
            )
        )
