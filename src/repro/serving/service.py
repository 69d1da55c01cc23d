"""The in-memory query half of the serving split: ``QueryService``.

A :class:`QueryService` serves cosine top-k (node side) and Eq. (21)
affinity (attribute side) queries from the *active version* of an
:class:`~repro.serving.store.EmbeddingStore`, through a pluggable
:class:`~repro.serving.index.ExactBackend` (one per shard, behind a
:class:`~repro.serving.sharding.router.ShardRouter`, when the store is
sharded).

Concurrency model — how a version swap can never serve a torn result:
all state needed to answer a query (version name, mmapped arrays, search
backend) lives in one immutable ``_ActiveVersion`` snapshot object, and
every query reads ``self._active`` exactly once.  :meth:`activate`
publishes a fully constructed snapshot with a single reference assignment,
so a query thread sees either the old version or the new one, end to end —
never the new backend with the old matrix.  The result cache is keyed by
``(version, node, k, filter)``, so entries can never bleed across versions
either; rollback re-activates an older version and its keys simply miss.

One way to ask — :meth:`QueryService.search` takes a
:class:`SearchRequest` (``node`` / ``nodes`` / ``vector``) — and
throughput comes from three places:

- a ``nodes`` batch fans out over a persistent
  :class:`~repro.parallel.pool.WorkerPool` in contiguous chunks;
- single-node cache misses pass one admission gate with as many engine
  slots as the process has cores: a request that finds a free slot runs
  at once, the rest queue, and the thread a released slot is handed to
  answers everything queued by then in one backend batch per
  ``(snapshot, k, filter)`` — natural batching, with no timer;
- an LRU result cache absorbs repeated queries entirely.

One way to count — every answered call and every cache lookup is
recorded once, into the :mod:`repro.serving.obs.metrics` instruments the
service owns (:attr:`QueryService.instruments`); an HTTP server adopts the
same objects into its registry, and no document re-derives their cells.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.parallel.pool import WorkerPool
from repro.search.knn import (
    CompiledFilter,
    NodeFilter,
    normalize_rows,
    top_k_sorted_indices,
)
from repro.serving.obs.metrics import Counter, Histogram
from repro.serving.obs.trace import trace_span
from repro.serving.index import ExactBackend, SearchBackend, check_backend_kind
from repro.serving.sharding.router import ShardRouter
from repro.serving.store import _ARRAY_FILES, EmbeddingStore, StoredEmbedding


@dataclass(frozen=True)
class QueryResult:
    """One answered query (or one stacked batch): ids and similarities.

    ``version`` names the store version that produced the answer, so
    callers can detect which side of a swap they were served from.
    """

    version: str
    ids: np.ndarray
    scores: np.ndarray
    latency_s: float
    cached: bool = False


@dataclass(frozen=True, eq=False)
class SearchRequest:
    """One query against the serving tier, in any of its three shapes.

    Exactly one of ``node`` (top-k neighbors of a stored node), ``nodes``
    (a stacked batch of the same), or ``vector`` (top-k for an arbitrary
    query vector, normalized by the service) must be set.  ``filter``
    restricts the candidate population with a :class:`NodeFilter`
    predicate — the one place all three shapes accept the same allow /
    deny / attribute / partition object (this is also the exclude path
    for vector queries, which historically had none).

    This is the single request object the whole stack speaks:
    :meth:`QueryService.search`, :class:`PinnedView`, the HTTP wire's
    ``"filter"`` JSON object, and the CLI all construct or
    consume it.
    """

    node: int | None = None
    nodes: Sequence[int] | np.ndarray | None = None
    vector: np.ndarray | None = None
    k: int = 10
    filter: NodeFilter | None = None

    def __post_init__(self) -> None:
        shapes = sum(
            value is not None for value in (self.node, self.nodes, self.vector)
        )
        if shapes != 1:
            raise ValueError(
                "exactly one of node / nodes / vector must be set, "
                f"got {shapes} of them"
            )
        if int(self.k) < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.filter is not None and not isinstance(self.filter, NodeFilter):
            raise ValueError(
                f"filter must be a NodeFilter, got {type(self.filter).__name__}"
            )

    def filter_key(self) -> bytes | None:
        """The filter's cache identity (``None`` when unfiltered / no-op)."""
        if self.filter is None or self.filter.is_noop:
            return None
        return self.filter.key()


def _node_key(version: str, node: int, k: int, filter_key: bytes | None) -> tuple:
    """The result-cache key for a node top-k query.

    One constructor for every site that reads or fills the cache (the
    single-node path and the batch fill) — a key-shape drift between
    sites would silently stop hits matching.
    The filter identity is part of the key: a filtered answer must never
    be served to an unfiltered query (or vice versa).
    """
    return (version, "node", int(node), int(k), filter_key)


#: Compiled filter masks kept per service (LRU over (version, filter key)).
_FILTER_CACHE_SIZE = 64


@dataclass(frozen=True)
class _ActiveVersion:
    """Immutable serving snapshot; swapped atomically by ``activate``.

    ``stored`` is the opened :class:`StoredEmbedding`; over more than one
    shard its row arrays are gather views and ``backend`` is a
    :class:`~repro.serving.sharding.router.ShardRouter`.
    """

    version: str
    stored: StoredEmbedding
    backend: SearchBackend


class QueryService:
    """Query server over the latest (or a pinned) store version.

    Parameters
    ----------
    store:
        The :class:`EmbeddingStore` to serve from.  A store of more than
        one shard gets per-shard backends behind a :class:`ShardRouter`;
        everything else is transparent.
    backend:
        ``"exact"``, the only backend kind; anything else is a
        ``ValueError``.
    cache_size:
        LRU entries kept across all versions (0 disables caching).
    n_threads:
        Workers in the persistent pool that ``nodes`` batches fan out
        over (and that the shard router's scatter uses).
    version:
        Pin an explicit store version instead of ``latest()``.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        *,
        backend: str = "exact",
        cache_size: int = 4096,
        n_threads: int = 1,
        version: str | None = None,
    ) -> None:
        check_backend_kind(backend)
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self._store = store
        self._cache_size = cache_size
        self._cache: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._cache_lock = threading.Lock()
        # Compiled-filter LRU: masks are derived data (version × filter key),
        # cheap to rebuild but worth reusing across the requests of one
        # client session that keep sending the same predicate.
        self._filter_cache: OrderedDict[tuple, CompiledFilter] = OrderedDict()
        self._filter_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        # The service's instruments: _record() below is the only writer,
        # once per answered call, and _cache_get() once per cache lookup.
        self.queries_total = Counter(
            "service_queries_total",
            "Queries answered by the query service (batch members counted)",
            (),
        )
        self.cache_served_total = Counter(
            "service_cache_served_total", "Queries answered from the LRU cache", ()
        )
        self.cache_lookups_total = Counter(
            "cache_lookups_total", "LRU cache lookups, by outcome", ("outcome",)
        )
        self.query_seconds = Histogram(
            "service_query_seconds",
            "Seconds per answered call (a batch is one call; a single "
            "query includes its admission wait)",
            (),
        )
        # Every backend this service activates counts into this one object
        # (SearchBackend.rescored_rows), so the series survives swaps.
        self.rescored_rows_total = Counter(
            "index_rescored_rows_total",
            "Float64 rows canonically rescored after certified selection "
            "(k plus the near-ties of the k-th, per query)",
            (),
        )
        self.pool = WorkerPool(max(1, n_threads))
        # Admission for single-node cache misses (_admit): one engine
        # slot per core this process may run on.
        self._admit_lock = threading.Lock()
        self._free_slots = len(os.sched_getaffinity(0))
        self._queue: deque[_Queued] = deque()
        self._active: _ActiveVersion | None = None
        self.activate(version)

    # -- version management --------------------------------------------
    @property
    def version(self) -> str:
        """The currently served store version."""
        return self._snapshot().version

    @property
    def backend(self) -> SearchBackend:
        return self._snapshot().backend

    def activate(self, version: str | None = None) -> str:
        """Build and atomically swap in a serving snapshot for ``version``.

        ``version=None`` follows the store's ``LATEST`` pointer.  Queries
        in flight keep the snapshot they started with.
        """
        from repro.serving.fsck import verify_open_target

        with self._swap_lock:
            # Refuse — with a structured StoreCorruptionError, not whatever
            # a half-mapped array would eventually raise — to serve a
            # version that fails integrity verification (torn publish,
            # truncated array, manifest drift).  Header-level checks only,
            # so the cost is a few KB of reads per activation.
            verify_open_target(self._store, version)
            stored = self._store.open(version)
            backend = self._build_backend(stored)
            for leaf in _leaf_backends(backend):
                leaf.rescored_rows = self.rescored_rows_total
            outgoing = self._active.backend if self._active is not None else None
            if isinstance(backend, ShardRouter) and isinstance(outgoing, ShardRouter):
                # Every swap installs a new router; the per-shard series
                # (and whoever adopted it) must not restart from zero.
                backend.search_seconds = outgoing.search_seconds
            self._active = _ActiveVersion(
                version=stored.version, stored=stored, backend=backend
            )
            return stored.version

    def _build_backend(self, stored: StoredEmbedding) -> SearchBackend:
        """One exact backend per shard; more than one shard puts them
        behind a scatter-gather router."""
        backends = [ExactBackend(shard.features) for shard in stored.shards]
        if len(backends) == 1:
            return backends[0]
        return ShardRouter(backends, stored.partitioner, pool=self.pool)

    def refresh_to_latest(self) -> str:
        """Re-activate if the store's ``LATEST`` moved; returns the version."""
        latest = self._store.latest()
        current = self._snapshot()
        if latest is not None and latest != current.version:
            return self.activate(latest)
        return current.version

    def pin(self) -> "PinnedView":
        """A request context pinned to the *current* snapshot.

        Every query through the returned :class:`PinnedView` is answered
        from the same immutable snapshot, even if :meth:`activate` swaps
        the service meanwhile — the consistency unit a multi-operation
        request (an HTTP handler validating, querying, and describing)
        needs.  The view shares this service's cache, instruments
        (version-keyed / version-agnostic respectively) and admission
        queue; a single-node query batched with others is still answered
        from the snapshot its own view pinned.
        """
        return PinnedView(self, self._snapshot())

    # -- queries -------------------------------------------------------
    def search(self, request: SearchRequest) -> QueryResult:
        """Answer one :class:`SearchRequest` — the single query entrypoint.

        ``self.pin().search(request)``: the request's shape picks the path
        (``node`` through admission, ``nodes`` fanned out over the worker
        pool, ``vector`` direct).
        """
        return self.pin().search(request)

    def _record(self, start: float, *, queries: int = 1, cached: bool = False) -> float:
        """The one service-level record of an answered call; returns its latency."""
        latency = time.perf_counter() - start
        self.queries_total.inc(queries)
        if cached:
            self.cache_served_total.inc(queries)
        self.query_seconds.observe(latency)
        return latency

    def _cache_hit(self, version: str, key: tuple, start: float) -> QueryResult | None:
        """Probe the result cache; a hit is recorded and returned as a result."""
        hit = self._cache_get(key)
        if hit is None:
            return None
        latency = self._record(start, cached=True)
        return QueryResult(version, hit[0], hit[1], latency, cached=True)

    def _fill(
        self, version: str, key: tuple, ids: np.ndarray, scores: np.ndarray, start: float
    ) -> QueryResult:
        """Cache a freshly computed answer, record it, and return it."""
        self._cache_put(key, ids, scores)
        return QueryResult(version, ids, scores, self._record(start))

    def _top_k_on(self, active: _ActiveVersion, request: SearchRequest) -> QueryResult:
        """Single-node top-k: the cache, else admission into the engine."""
        start = time.perf_counter()
        node, k = int(request.node), int(request.k)
        self._check_node(active, node)
        key = _node_key(active.version, node, k, request.filter_key())
        hit = self._cache_hit(active.version, key, start)
        if hit is not None:
            return hit
        ids, scores = self._admit(active, request)
        return self._fill(active.version, key, ids, scores, start)

    def _admit(
        self, active: _ActiveVersion, request: SearchRequest
    ) -> tuple[np.ndarray, np.ndarray]:
        """Answer one single-node miss through the engine slots.

        With a free slot and nobody queued the request runs at once as a
        batch of itself.  Otherwise it queues; whoever releases a slot
        hands it to the oldest queued request, whose thread then answers
        the whole queue (:meth:`_drain`).  A queued request is answered
        from ``active``, the snapshot its caller pinned, whichever
        thread runs it.
        """
        with self._admit_lock:
            queued = None
            if self._free_slots and not self._queue:
                self._free_slots -= 1
            else:
                queued = _Queued(active, request)
                self._queue.append(queued)
        if queued is None:
            try:
                ids, scores = self._select(
                    active, request, np.array([request.node], dtype=np.intp)
                )
            finally:
                self._release()
            return ids[0], scores[0]
        try:
            with trace_span("admit_wait"):
                queued.event.wait()
        except BaseException:
            # Interrupted while queued: leave the queue, or pass on a
            # slot handed over meanwhile, so nobody waits on this thread.
            with self._admit_lock:
                if queued in self._queue:
                    self._queue.remove(queued)
            if queued.drains:
                self._release()
            raise
        if queued.drains:
            try:
                self._drain(queued)
            finally:
                self._release()
        if queued.error is not None:
            raise queued.error
        return queued.answer

    def _release(self) -> None:
        """Return an engine slot: to the oldest queued request, else free."""
        with self._admit_lock:
            if not self._queue:
                self._free_slots += 1
                return
            heir = self._queue.popleft()
            heir.drains = True
        heir.event.set()

    def _drain(self, first: "_Queued") -> None:
        """Answer ``first`` and everything queued behind it, one
        backend call per ``(snapshot, k, filter)`` group.

        An error fails its own group only; every other member is woken
        whatever happens.
        """
        with self._admit_lock:
            members = [first, *self._queue]
            self._queue.clear()
        groups: dict[tuple, list[_Queued]] = {}
        for member in members:
            request = member.request
            key = (id(member.active), int(request.k), request.filter_key())
            groups.setdefault(key, []).append(member)
        try:
            for group in groups.values():
                head = group[0]
                nodes = np.array([m.request.node for m in group], dtype=np.intp)
                try:
                    ids, scores = self._select(head.active, head.request, nodes)
                except BaseException as error:
                    for member in group:
                        member.error = error
                    continue
                for row, member in enumerate(group):
                    member.answer = ids[row], scores[row]
        finally:
            for member in members:
                if member is not first:
                    member.event.set()

    def _select(
        self, active: _ActiveVersion, request: SearchRequest, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One backend call for the stored rows ``nodes`` (self-matches
        excluded), with ``request``'s k and filter."""
        compiled = self._compile_filter(active, request.filter)
        queries = active.stored.features[nodes]
        with trace_span("select", version=active.version, batch=int(nodes.size)):
            return active.backend.search(
                queries, int(request.k), exclude=nodes, node_filter=compiled
            )

    def _batch_top_k_on(
        self, active: _ActiveVersion, request: SearchRequest
    ) -> QueryResult:
        start = time.perf_counter()
        k = int(request.k)
        nodes = np.asarray(request.nodes, dtype=np.intp).ravel()
        if nodes.size == 0:
            raise ValueError("a nodes batch needs at least one node")
        for node in (int(nodes.min()), int(nodes.max())):
            self._check_node(active, node)
        compiled = self._compile_filter(active, request.filter)
        filter_key = request.filter_key()

        with trace_span("select", version=active.version, batch=int(nodes.size)):
            if isinstance(active.backend, ShardRouter):
                # The router owns the fan-out: one scatter task per shard on
                # this service's pool.  Wrapping its calls in pool tasks here
                # would have the scatter wait on workers occupied by its own
                # callers — parallelism across shards replaces parallelism
                # across query chunks.
                queries = active.stored.features[nodes]
                ids, scores = active.backend.search(
                    queries, k, exclude=nodes, node_filter=compiled
                )
            else:
                n_chunks = min(self.pool.n_threads, nodes.size)
                chunks = np.array_split(nodes, n_chunks)

                def work(_: int, chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                    queries = active.stored.features[chunk]
                    return active.backend.search(
                        queries, k, exclude=chunk, node_filter=compiled
                    )

                parts = self.pool.run_blocks(work, chunks)
                ids = np.vstack([part[0] for part in parts])
                scores = np.vstack([part[1] for part in parts])
        for row, node in enumerate(nodes):
            self._cache_put(
                _node_key(active.version, node, k, filter_key),
                ids[row],
                scores[row],
            )
        latency = self._record(start, queries=int(nodes.size))
        return QueryResult(active.version, ids, scores, latency)

    def _similar_by_vector_on(
        self, active: _ActiveVersion, request: SearchRequest
    ) -> QueryResult:
        start = time.perf_counter()
        k = int(request.k)
        vector = np.asarray(request.vector, dtype=np.float64).ravel()
        if vector.shape[0] != active.backend.dim:
            raise ValueError(
                f"query vector has dim {vector.shape[0]}, expected {active.backend.dim}"
            )
        compiled = self._compile_filter(active, request.filter)
        query = normalize_rows(vector[np.newaxis])[0]
        with trace_span("select", version=active.version):
            ids, scores = active.backend.search(
                query[np.newaxis], k, node_filter=compiled
            )
        return QueryResult(active.version, ids[0], scores[0], self._record(start))

    # -- filter compilation --------------------------------------------
    def _compile_filter(
        self, active: _ActiveVersion, node_filter: NodeFilter | None
    ) -> CompiledFilter | None:
        """Compile a request's filter against one snapshot, with caching.

        The compiled mask is pure derived data keyed by
        ``(version, filter key)``: attribute predicates resolve through
        the version's Eq. (21) affinities and partition selectors through
        its shard layout, so a swap can never serve a stale mask — the
        new version simply misses.  No-op filters compile to ``None`` so
        the fast path stays the unfiltered one.
        """
        if node_filter is None or node_filter.is_noop:
            return None
        cache_key = (active.version, node_filter.key())
        with self._filter_lock:
            hit = self._filter_cache.get(cache_key)
            if hit is not None:
                self._filter_cache.move_to_end(cache_key)
                return hit
        compiled = node_filter.compile(
            active.stored.n_nodes,
            attribute_scores=self._attribute_scores_for(active),
            partition_of=(
                self._partition_map(active) if node_filter.partitions else None
            ),
        )
        with self._filter_lock:
            self._filter_cache[cache_key] = compiled
            self._filter_cache.move_to_end(cache_key)
            while len(self._filter_cache) > _FILTER_CACHE_SIZE:
                self._filter_cache.popitem(last=False)
        return compiled

    @staticmethod
    def _attribute_scores_for(active: _ActiveVersion):
        """A resolver mapping an attribute id to its per-node affinities.

        Scores are the paper's Eq. (21) affinity — the same quantity
        :meth:`top_nodes_for_attribute` ranks by — so an attribute
        predicate ``{"attribute": r, "min_weight": w}`` keeps exactly the
        nodes that rank at affinity ``w`` or above for ``r``.
        """

        def scores(attribute: int) -> np.ndarray:
            stored = active.stored
            if not 0 <= attribute < stored.n_attributes:
                raise ValueError(
                    f"filter attribute {attribute} out of range "
                    f"[0, {stored.n_attributes})"
                )
            y_row = np.asarray(stored.y[attribute], dtype=np.float64)
            return np.asarray(stored.x_forward) @ y_row + (
                np.asarray(stored.x_backward) @ y_row
            )

        return scores

    @staticmethod
    def _partition_map(active: _ActiveVersion) -> np.ndarray | None:
        """Node → partition id, or ``None`` when the store is unsharded.

        Partitions are the sharded layout's shard ids — the tenant /
        placement unit the store actually has.  An unsharded deployment
        has no partitions, so a partition selector fails filter
        compilation with a ``ValueError`` (surfaced as ``invalid_filter``
        on the wire); ``describe()`` advertises the capability so clients
        can know before sending.
        """
        if isinstance(active.backend, ShardRouter):
            n = active.stored.n_nodes
            shard, _ = active.backend.partitioner.shard_and_local(np.arange(n))
            return shard
        return None

    def top_attributes(self, node: int, k: int = 10) -> QueryResult:
        """Attributes with the highest Eq. (21) affinity to ``node``.

        Scores are ``(Xf[v] + Xb[v]) · Y[r]`` over all attributes ``r`` —
        the attribute-side query the paper's inference task ranks by.
        """
        start = time.perf_counter()
        active = self._snapshot()
        self._check_node(active, node)
        key = (active.version, "attr", int(node), int(k), None)
        hit = self._cache_hit(active.version, key, start)
        if hit is not None:
            return hit
        stored = active.stored
        combined = np.asarray(stored.x_forward[node]) + np.asarray(stored.x_backward[node])
        scores = stored.y @ combined
        top = top_k_sorted_indices(scores, k)
        return self._fill(active.version, key, top, scores[top], start)

    def top_nodes_for_attribute(self, attribute: int, k: int = 10) -> QueryResult:
        """Nodes with the highest Eq. (21) affinity to ``attribute``."""
        start = time.perf_counter()
        active = self._snapshot()
        stored = active.stored
        if not 0 <= attribute < stored.n_attributes:
            raise IndexError(
                f"attribute {attribute} out of range [0, {stored.n_attributes})"
            )
        key = (active.version, "attr_nodes", int(attribute), int(k), None)
        hit = self._cache_hit(active.version, key, start)
        if hit is not None:
            return hit
        y_row = np.asarray(stored.y[attribute], dtype=np.float64)
        scores = stored.x_forward @ y_row + stored.x_backward @ y_row
        top = top_k_sorted_indices(scores, k)
        return self._fill(active.version, key, top, scores[top], start)

    # -- introspection / lifecycle -------------------------------------
    def describe(self) -> dict:
        """Serving state and memory accounting (JSON-safe); no counts.

        The top of the dict is a stable, server-visible schema — the same
        document ``GET /v1/describe`` returns over HTTP (see
        :mod:`repro.serving.http`): ``version`` (the active store version
        id), ``backend_kind`` (``exact`` or ``sharded``), ``n_shards`` (1
        for an unsharded deployment), ``n_nodes``, and ``n_attributes``.
        Every value is a plain Python scalar/list/dict —
        ``json.dumps(service.describe())`` must never trip over a numpy
        scalar.

        ``memory`` reports the mapped bytes behind every stored array (what
        the OS *could* page in, not resident set; for a sharded snapshot
        the replicated ``y`` counts every shard's copy) plus what each
        shard's selection keeps resident.  A sharded snapshot adds a
        ``sharding`` section with the partition kind and per-shard sizes.
        Query, cache and latency numbers live only in
        :attr:`instruments` (and the router's ``shard_search_seconds``).
        """
        active = self._snapshot()
        backend = active.backend
        sharded = isinstance(backend, ShardRouter)
        info = {
            "version": active.version,
            "backend_kind": "sharded" if sharded else "exact",
            "n_shards": backend.n_shards if sharded else 1,
            "n_nodes": active.stored.n_nodes,
            "n_attributes": active.stored.n_attributes,
            # Filter capability advertisement (mirrored by /v1/describe):
            # clients discover which NodeFilter families this deployment
            # honors before sending one.  Every backend honors id and
            # attribute filters; partition selectors only exist where the
            # store actually has partitions (a sharded layout).
            "filters": {
                "ids": True,
                "attributes": True,
                "partitions": sharded,
            },
        }
        # Y is *replicated* per shard: count every mapped replica so
        # total_mapped_bytes agrees with the per-shard sums reported below.
        mapped = {
            name: sum(int(getattr(shard, name).nbytes) for shard in active.stored.shards)
            for name in _ARRAY_FILES
        }
        memory: dict = {
            "mapped_bytes": mapped,
            "total_mapped_bytes": sum(mapped.values()),
            # Per shard: what selection keeps resident beside the mapped
            # rows (the exact backend's float32 copy).
            "select_resident_bytes": [
                leaf.resident_bytes for leaf in _leaf_backends(backend)
            ],
        }
        info["memory"] = memory
        if sharded:
            stored = active.stored
            memory["per_shard_bytes"] = [
                sum(int(getattr(shard, name).nbytes) for name in _ARRAY_FILES)
                for shard in stored.shards
            ]
            info["sharding"] = {
                "partition": stored.partitioner.kind,
                "per_shard": [
                    {"shard": shard.shard, "n_nodes": shard.n_nodes}
                    for shard in stored.shards
                ],
            }
        # The document is a wire schema (shared with ``GET /v1/describe``):
        # scrub any numpy scalar an accessor above may have produced so
        # ``json.dumps`` can never choke on an ``np.int64`` shape value.
        return json_safe(info)

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _snapshot(self) -> _ActiveVersion:
        active = self._active
        if active is None:
            raise RuntimeError("QueryService has no active version")
        return active

    @staticmethod
    def _check_node(active: _ActiveVersion, node: int) -> None:
        n = active.stored.n_nodes
        if not 0 <= node < n:
            raise IndexError(f"node {node} out of range [0, {n})")

    @property
    def instruments(self) -> tuple[Counter, Counter, Counter, Histogram, Counter]:
        """The metric objects this service records into, for a registry to adopt."""
        return (
            self.queries_total,
            self.cache_served_total,
            self.cache_lookups_total,
            self.query_seconds,
            self.rescored_rows_total,
        )

    def cache_info(self) -> dict:
        """The LRU's size and its lookups (lifetime, this process).

        ``hits``/``misses`` are read off ``cache_lookups_total`` (a
        disabled cache records nothing); the HTTP ``/metrics`` endpoint
        serves this as its ``cache`` document.
        """
        with self._cache_lock:
            entries = len(self._cache)
        hits = int(self.cache_lookups_total.value(outcome="hit"))
        misses = int(self.cache_lookups_total.value(outcome="miss"))
        lookups = hits + misses
        return {
            "entries": entries,
            "capacity": self._cache_size,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
        }

    def _cache_get(self, key: tuple) -> tuple[np.ndarray, np.ndarray] | None:
        if self._cache_size == 0:
            return None
        with self._cache_lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
        self.cache_lookups_total.inc(outcome="miss" if hit is None else "hit")
        return hit

    def _cache_put(self, key: tuple, ids: np.ndarray, scores: np.ndarray) -> None:
        if self._cache_size == 0:
            return
        # Decouple the cache from the arrays handed to callers: a caller
        # mutating its result (or the batch matrix these rows view into)
        # must not silently poison what later queries are served.  Hits
        # return the frozen copies.
        ids = ids.copy()
        scores = scores.copy()
        ids.flags.writeable = False
        scores.flags.writeable = False
        with self._cache_lock:
            self._cache[key] = (ids, scores)
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)


class PinnedView:
    """Queries answered from one immutable snapshot of a service.

    Produced by :meth:`QueryService.pin`.  All reads go against the
    snapshot captured at pin time — an :meth:`~QueryService.activate`
    racing this view cannot make two calls through it disagree about the
    version.  Writes (cache fills, query records) still land in the
    owning service; cache keys carry the version, so a pinned fill can
    never be served to a caller on a different version.

    The view holds mmapped arrays alive via the snapshot, so it is cheap
    to create per request and safe to drop without cleanup.
    """

    def __init__(self, service: QueryService, active: _ActiveVersion) -> None:
        self._service = service
        self._active = active

    @property
    def version(self) -> str:
        """The pinned store version — constant for the view's lifetime."""
        return self._active.version

    def search(self, request: SearchRequest) -> QueryResult:
        """Answer one :class:`SearchRequest` from the pinned snapshot."""
        if request.nodes is not None:
            return self._service._batch_top_k_on(self._active, request)
        if request.vector is not None:
            return self._service._similar_by_vector_on(self._active, request)
        return self._service._top_k_on(self._active, request)


def _leaf_backends(backend: SearchBackend) -> list[SearchBackend]:
    """A backend's concrete leaves (a router's shards, else itself)."""
    if isinstance(backend, ShardRouter):
        return list(backend.backends)
    return [backend]


def json_safe(value):
    """Recursively convert numpy scalars/arrays to plain Python types.

    ``np.float64`` subclasses ``float`` and squeaks through ``json.dumps``,
    but ``np.int64``/``np.bool_`` do not — and shape/accounting code grows
    them easily.  Applied to every document that crosses the wire schema
    boundary (``describe()``, HTTP responses).
    """
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, np.ndarray):
        return [json_safe(item) for item in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass(eq=False)
class _Queued:
    """A single-node cache miss waiting for an engine slot."""

    active: _ActiveVersion
    request: SearchRequest
    event: threading.Event = field(default_factory=threading.Event)
    # Set by _release: this request's thread holds a slot and drains.
    drains: bool = False
    answer: tuple[np.ndarray, np.ndarray] | None = None
    error: BaseException | None = None
