"""Online refresh: graph delta → new store version → atomic service swap.

Ties the three other serving pieces to :mod:`repro.dynamic.incremental`:

1. :class:`~repro.dynamic.incremental.IncrementalPANE` absorbs a
   :class:`~repro.dynamic.delta.GraphDelta` with a warm-started CCD
   refresh (cheap — a few sweeps instead of a full fit);
2. the updated embedding is :meth:`published <EmbeddingStore.publish>` as a
   new immutable store version;
3. if the service is running an :class:`~repro.serving.index.IVFIndex`,
   the index is refreshed *incrementally*: the coarse quantizer is kept,
   vectors are re-assigned in one cheap pass, and only the inverted lists
   whose membership changed are rebuilt;
4. the service's active version is swapped atomically — in-flight queries
   finish on the old snapshot, new queries see the new one.

Nothing is deleted, so :meth:`EmbeddingStore.rollback` +
:meth:`QueryService.refresh_to_latest` undoes a bad refresh.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamic.incremental import GraphDelta, IncrementalPANE
from repro.graph.attributed_graph import AttributedGraph
from repro.serving.index import IVFIndex
from repro.serving.service import QueryService
from repro.serving.sharding.pq import PQBackend
from repro.serving.sharding.router import ShardRouter
from repro.serving.sharding.store import ShardedEmbeddingStore
from repro.serving.store import EmbeddingStore
from repro.utils.timing import Timer


@dataclass(frozen=True)
class RefreshReport:
    """What one :meth:`OnlineRefresher.apply` did, and what it cost."""

    version: str
    n_nodes: int
    n_moved: int  # vectors whose IVF cell changed (0 for exact backends)
    n_lists_rebuilt: int
    n_lists_total: int
    timings: dict[str, float]  # update / publish / index / swap seconds


class OnlineRefresher:
    """Drives delta updates through the store into a live service.

    Examples
    --------
    >>> refresher = OnlineRefresher(model, store, service)  # doctest: +SKIP
    >>> report = refresher.apply(GraphDelta(add_edges=edges))  # doctest: +SKIP
    >>> report.n_lists_rebuilt <= report.n_lists_total  # doctest: +SKIP
    True
    """

    def __init__(
        self,
        model: IncrementalPANE,
        store: EmbeddingStore | ShardedEmbeddingStore,
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

        n_moved = n_rebuilt = n_lists = 0
        new_index = None
        if self.service is not None:
            with timer.measure("index"):
                stored = self.store.open(version)
                backend = self.service.backend
                if isinstance(backend, ShardRouter):
                    # Per-shard incremental refresh: each IVF shard keeps
                    # its quantizer and rebuilds only its changed lists; a
                    # changed partition layout (node count) falls through
                    # to a full router rebuild inside activate().
                    try:
                        new_index = backend.refresh(stored)
                    except ValueError:
                        new_index = None
                    else:
                        assert new_index.last_rebuild is not None
                        n_moved = new_index.last_rebuild.n_moved
                        n_rebuilt = new_index.last_rebuild.n_lists_rebuilt
                        n_lists = new_index.last_rebuild.n_lists_total
                elif isinstance(backend, IVFIndex) and (
                    backend.features.shape == stored.features.shape
                ):
                    new_index = backend.refresh(stored.features)
                    assert new_index.last_rebuild is not None
                    n_moved = new_index.last_rebuild.n_moved
                    n_rebuilt = new_index.last_rebuild.n_lists_rebuilt
                    n_lists = new_index.last_rebuild.n_lists_total
                elif isinstance(backend, PQBackend) and (
                    backend.features.shape == stored.features.shape
                ):
                    # Keep the trained codec (and coarse quantizer for
                    # IVF-PQ); only codes/assignments are re-derived.
                    new_index = backend.refresh(stored.features)
            with timer.measure("swap"):
                self.service.activate(version, index=new_index)

        return RefreshReport(
            version=version,
            n_nodes=embedding.n_nodes,
            n_moved=n_moved,
            n_lists_rebuilt=n_rebuilt,
            n_lists_total=n_lists,
            timings=dict(timer.laps),
        )
