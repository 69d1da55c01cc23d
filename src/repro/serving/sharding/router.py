"""Scatter-gather query routing across per-shard search backends.

:class:`ShardRouter` makes N per-shard :class:`~repro.serving.index.SearchBackend`s
answer as one logical backend: a query is *scattered* to every shard
(fanned out over the service's persistent
:class:`~repro.parallel.pool.WorkerPool` — one task per shard, so shard
latencies overlap instead of adding), each shard returns its local top-k,
and the router *gathers* them with a k-way heap merge into the global
top-k.

Bit-identity with unsharded search: every exact engine returns
*canonical* scores (:mod:`repro.search.knn`) — the float64 bits of a
(row, query) score do not depend on which sub-matrix the row was scored
from — and orders equal scores by ascending id.  Each shard's top-k list
is therefore a sorted run of exactly the values unsharded search would
have produced for those rows, and the heap merge (ordered by
``(-score, global id)``) reproduces the unsharded ranking bit-for-bit.
The per-query merge is the textbook k-way merge of ``n_shards`` sorted
runs, stopping after ``k`` pops — O(k log S), independent of corpus size.

The router times every per-shard search into one fixed-bucket histogram
labelled by shard (:attr:`ShardRouter.search_seconds`, observed inside the
scatter tasks), so a hot shard shows up in ``QueryService.describe()``
and ``/metrics`` instead of hiding in the service-level latency.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.parallel.pool import WorkerPool
from repro.search.knn import CompiledFilter
from repro.serving.index import IVFIndex, SearchBackend
from repro.serving.obs.metrics import Histogram
from repro.serving.sharding.store import Partitioner, ShardedStoredEmbedding


class ShardRouter(SearchBackend):
    """One logical backend over N per-shard backends.

    Parameters
    ----------
    backends:
        Per-shard backends, aligned with the partitioner's shard order;
        each searches its shard's local row ids.
    partitioner:
        Global ↔ (shard, local) id arithmetic for the logical version.
    pool:
        Optional :class:`WorkerPool` for the scatter fan-out (``None`` =
        sequential).  The router must *own* its fan-out — callers must not
        wrap router calls in pool tasks of the same pool, or the scatter
        would deadlock waiting for workers occupied by its own callers.
    """

    SUPPORTS_NPROBE = True
    SUPPORTS_FILTER = True

    def __init__(
        self,
        backends: list[SearchBackend],
        partitioner: Partitioner,
        *,
        pool: WorkerPool | None = None,
    ) -> None:
        if len(backends) != partitioner.n_shards:
            raise ValueError(
                f"{len(backends)} backends for {partitioner.n_shards} shards"
            )
        for shard, backend in enumerate(backends):
            expected = partitioner.shard_size(shard)
            if backend.n_vectors != expected:
                raise ValueError(
                    f"shard {shard} backend holds {backend.n_vectors} vectors, "
                    f"partitioner expects {expected}"
                )
        self.backends = list(backends)
        self.partitioner = partitioner
        self.pool = pool
        # One observation per shard per scatter (a skipped shard records
        # nothing).  The owning QueryService hands this object from each
        # outgoing router to its successor, so the series outlives swaps.
        self.search_seconds = Histogram(
            "shard_search_seconds",
            "Seconds per per-shard backend search, by shard",
            ("shard",),
        )
        self.last_rebuild = None

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.backends)

    @property
    def n_vectors(self) -> int:
        return self.partitioner.n_nodes

    @property
    def dim(self) -> int:
        return self.backends[0].dim

    # ------------------------------------------------------------------
    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        exclude: np.ndarray | None = None,
        nprobe: int | None = None,
        node_filter: CompiledFilter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scatter to every shard, heap-merge into the global top-k.

        With exact per-shard backends the result is bit-identical to
        unsharded :class:`~repro.serving.index.ExactBackend` search (ids
        and scores).  ``nprobe`` is forwarded to shards that support it
        (IVF / IVF-PQ); ``exclude`` carries *global* ids and is translated
        to the owning shard's local id.  ``node_filter`` carries global
        ids too: each shard gets the filter *sliced* to its own rows
        (local-id mask), and shards the filter empties entirely are
        skipped without a backend call — a partition/tenant selector
        therefore only ever touches the selected shards.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        single = np.ndim(queries) == 1
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = queries.shape[0]
        shard_filters: list[CompiledFilter | None] = [None] * self.n_shards
        if node_filter is not None:
            if node_filter.n != self.n_vectors:
                raise ValueError(
                    f"filter covers {node_filter.n} rows, router has "
                    f"{self.n_vectors}"
                )
            if node_filter.n_allowed < self.n_vectors:
                shard_filters = [
                    node_filter.restrict(self.partitioner.shard_members(shard))
                    for shard in range(self.n_shards)
                ]
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.intp)
            if exclude.shape != (n_queries,):
                raise ValueError("exclude must have one entry per query")
            has_exclusion = exclude >= 0
            owner = np.full(n_queries, -1, dtype=np.intp)
            local = np.full(n_queries, -1, dtype=np.intp)
            if has_exclusion.any():
                owner[has_exclusion], local[has_exclusion] = (
                    self.partitioner.shard_and_local(exclude[has_exclusion])
                )

        def scatter(shard: int, backend: SearchBackend):
            start = time.perf_counter()
            shard_filter = shard_filters[shard]
            if shard_filter is not None and shard_filter.n_allowed == 0:
                # The filter keeps nothing on this shard (the common case
                # under a partition selector): skip the backend entirely.
                return (
                    np.empty((n_queries, 0), dtype=np.intp),
                    np.empty((n_queries, 0), dtype=np.float64),
                )
            shard_exclude = None
            if exclude is not None:
                shard_exclude = np.where(owner == shard, local, -1)
            kwargs = {}
            if shard_filter is not None:
                if not getattr(backend, "SUPPORTS_FILTER", False):
                    raise ValueError(
                        f"shard {shard} backend {type(backend).__name__} "
                        "does not support filtered search"
                    )
                kwargs["node_filter"] = shard_filter
            if getattr(backend, "SUPPORTS_NPROBE", False):
                local_ids, scores = backend.search(
                    queries, k, exclude=shard_exclude, nprobe=nprobe, **kwargs
                )
            else:
                local_ids, scores = backend.search(
                    queries, k, exclude=shard_exclude, **kwargs
                )
            global_ids = np.where(
                local_ids >= 0,
                self.partitioner.to_global(shard, np.clip(local_ids, 0, None)),
                -1,
            )
            self.search_seconds.observe(time.perf_counter() - start, shard=shard)
            return global_ids, scores

        if self.pool is not None:
            parts = self.pool.run_blocks(scatter, self.backends)
        else:
            parts = [scatter(s, b) for s, b in enumerate(self.backends)]

        ids, scores = _heap_merge(parts, min(k, self.n_vectors))
        if single:
            return ids[0], scores[0]
        return ids, scores

    def latency_info(self) -> dict:
        """Per-shard search counts and seconds, read off the histogram."""
        per_shard = []
        for shard in range(self.n_shards):
            cell = self.search_seconds.cell(shard=shard)
            per_shard.append(
                {
                    "shard": shard,
                    "searches": cell["count"],
                    "total_seconds": cell["sum"],
                }
            )
        return {
            "searches": sum(entry["searches"] for entry in per_shard),
            "total_seconds": sum(entry["total_seconds"] for entry in per_shard),
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    def refresh(self, stored: ShardedStoredEmbedding) -> "ShardRouter":
        """A new router over refreshed per-shard backends.

        Every shard keeps its *kind* and its trained state: IVF backends
        refresh incrementally (quantizer kept, only changed inverted
        lists rebuilt — see :meth:`IVFIndex.refresh`), PQ/IVF-PQ backends
        keep their codec (and coarse quantizer) and only re-encode, and
        exact backends just point at the new segment matrix.  Aggregate
        IVF rebuild work lands in :attr:`last_rebuild`.  Requires the
        logical version to keep the same partition layout (same node
        count).
        """
        from repro.serving.index import ExactBackend, IVFRebuildStats
        from repro.serving.sharding.pq import PQBackend

        if stored.partitioner != self.partitioner:
            raise ValueError(
                "refresh requires an identical partition layout "
                "(node count changes need a full router rebuild)"
            )
        backends: list[SearchBackend] = []
        moved = rebuilt = total = 0
        for shard, segment in enumerate(stored.shards):
            backend = self.backends[shard]
            if isinstance(backend, IVFIndex) and (
                backend.features.shape == segment.features.shape
            ):
                refreshed = backend.refresh(segment.features)
                assert refreshed.last_rebuild is not None
                moved += refreshed.last_rebuild.n_moved
                rebuilt += refreshed.last_rebuild.n_lists_rebuilt
                total += refreshed.last_rebuild.n_lists_total
                backends.append(refreshed)
            elif isinstance(backend, PQBackend) and (
                backend.features.shape == segment.features.shape
            ):
                backends.append(backend.refresh(segment.features))
            elif isinstance(backend, ExactBackend):
                backends.append(ExactBackend(segment.features))
            else:
                # An unknown (or shape-changed) backend kind cannot be
                # refreshed in place; signal the caller to rebuild the
                # router from its configuration instead of silently
                # downgrading the shard.
                raise ValueError(
                    f"shard {shard} backend {type(backend).__name__} does "
                    "not support incremental refresh; rebuild the router"
                )
        router = ShardRouter(backends, stored.partitioner, pool=self.pool)
        router.last_rebuild = IVFRebuildStats(
            n_moved=moved, n_lists_rebuilt=rebuilt, n_lists_total=total
        )
        return router


def _heap_merge(
    parts: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """K-way merge of per-shard sorted top-k runs into global top-k rows.

    Each part's rows are sorted by ``(-score, id)`` (the canonical engine
    order); ``heapq.merge`` on ``(-score, global id)`` keys pops the
    global order lazily, so only ``k`` elements per query are ever sorted.
    Shard padding (id ``-1``) is dropped before the merge; rows that still
    cannot fill ``k`` pad the tail with id ``-1`` / score ``-inf``.
    """
    n_queries = parts[0][0].shape[0]
    ids = np.full((n_queries, k), -1, dtype=np.intp)
    scores = np.full((n_queries, k), -np.inf, dtype=np.float64)
    for row in range(n_queries):
        runs = []
        for part_ids, part_scores in parts:
            valid = part_ids[row] >= 0
            if valid.any():
                runs.append(
                    list(
                        zip(
                            -part_scores[row][valid],
                            part_ids[row][valid].tolist(),
                        )
                    )
                )
        for column, (neg_score, global_id) in enumerate(heapq.merge(*runs)):
            if column >= k:
                break
            ids[row, column] = global_id
            scores[row, column] = -neg_score
    return ids, scores
