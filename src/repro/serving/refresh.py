"""Online refresh: graph delta → new store version → atomic service swap.

Ties the three other serving pieces to :mod:`repro.dynamic.incremental`:

1. :class:`~repro.dynamic.incremental.IncrementalPANE` absorbs a
   :class:`~repro.dynamic.delta.GraphDelta` with a warm-started CCD
   refresh (cheap — a few sweeps instead of a full fit);
2. the updated embedding is :meth:`published <EmbeddingStore.publish>` as a
   new immutable store version;
3. the service's active version is swapped atomically — in-flight queries
   finish on the old snapshot, new queries see the new one.

Nothing is deleted, so :meth:`EmbeddingStore.rollback` +
:meth:`QueryService.refresh_to_latest` undoes a bad refresh.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamic.incremental import GraphDelta, IncrementalPANE
from repro.graph.attributed_graph import AttributedGraph
from repro.serving.service import QueryService
from repro.serving.store import EmbeddingStore
from repro.utils.timing import Timer


@dataclass(frozen=True)
class RefreshReport:
    """What one :meth:`OnlineRefresher.apply` did, and what it cost."""

    version: str
    n_nodes: int
    timings: dict[str, float]  # update / publish / swap seconds


class OnlineRefresher:
    """Drives delta updates through the store into a live service.

    Examples
    --------
    >>> refresher = OnlineRefresher(model, store, service)  # doctest: +SKIP
    >>> report = refresher.apply(GraphDelta(add_edges=edges))  # doctest: +SKIP
    >>> service.version == report.version  # doctest: +SKIP
    True
    """

    def __init__(
        self,
        model: IncrementalPANE,
        store: EmbeddingStore,
        service: QueryService | None = None,
    ) -> None:
        self.model = model
        self.store = store
        self.service = service

    def bootstrap(
        self, graph: AttributedGraph, *, metadata: dict | None = None
    ) -> str:
        """Cold-start: fit the model, publish v1, activate it if serving.

        ``metadata`` lands in the version manifest — the WAL pipeline
        stamps ``applied_lsn`` here so recovery knows the log offset a
        version reflects.
        """
        embedding = self.model.fit(graph)
        version = self.store.publish(embedding, metadata=metadata)
        if self.service is not None:
            self.service.activate(version)
        return version

    def apply(
        self, delta: GraphDelta, *, metadata: dict | None = None
    ) -> RefreshReport:
        """Absorb ``delta`` and republish; swap the live service atomically."""
        timer = Timer()
        with timer.measure("update"):
            embedding = self.model.update(delta)
        with timer.measure("publish"):
            version = self.store.publish(embedding, metadata=metadata)

        if self.service is not None:
            with timer.measure("swap"):
                self.service.activate(version)

        return RefreshReport(
            version=version,
            n_nodes=embedding.n_nodes,
            timings=dict(timer.laps),
        )
