"""A batch of graph changes — the unit the write path logs and replays.

:class:`GraphDelta` is plain data (numpy only): the serving WAL encodes
and decodes it and the HTTP upsert handler builds it without importing
the trainer; :mod:`repro.dynamic.incremental` applies it to a graph.
:meth:`GraphDelta.check` is the one definition of a valid delta, run both
before a delta is logged and before it is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

#: Each field's row width and what its second column names.
_LAYOUT = {
    "add_edges": (2, "node"),
    "remove_edges": (2, "node"),
    "add_associations": (3, "attribute"),
    "remove_associations": (2, "attribute"),
}


def _check_ids(name: str, ids: np.ndarray, kind: str, limit: int) -> None:
    if ids.dtype.kind not in "iu" and not np.all(ids == np.floor(ids)):
        raise ValueError(f"{name}: {kind} ids must be integers")
    if not (np.all(ids >= 0) and np.all(ids < limit)):
        raise ValueError(f"{name}: {kind} index out of range [0, {limit})")


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

    def counts(self) -> dict[str, int]:
        """Rows per field, keyed by field name."""
        arrays = {field.name: getattr(self, field.name) for field in fields(self)}
        return {name: 0 if array is None else len(array) for name, array in arrays.items()}

    def is_empty(self) -> bool:
        return not any(self.counts().values())

    def check(self, n_nodes: int, n_attributes: int) -> None:
        """Raise ``ValueError`` unless the delta fits an ``n_nodes × n_attributes`` graph.

        Every row must have its field's width, every id must be an integer
        in range (integral floats such as ``3.0`` count: the weighted
        association rows are float arrays), and every association weight
        finite and non-negative.
        """
        limits = {"node": n_nodes, "attribute": n_attributes}
        for name, (width, kind) in _LAYOUT.items():
            rows = getattr(self, name)
            if rows is None or not len(rows):
                continue
            rows = np.asarray(rows)
            if rows.ndim != 2 or rows.shape[1] != width:
                raise ValueError(
                    f"{name}: must be rows of {width} numbers, got shape {rows.shape}"
                )
            _check_ids(name, rows[:, 0], "node", n_nodes)
            _check_ids(name, rows[:, 1], kind, limits[kind])
            if width == 3:
                weights = rows[:, 2].astype(np.float64)
                if not np.all(np.isfinite(weights)) or np.any(weights < 0):
                    raise ValueError(f"{name}: weights must be finite and non-negative")
