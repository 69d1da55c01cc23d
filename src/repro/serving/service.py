"""The in-memory query half of the serving split: ``QueryService``.

A :class:`QueryService` serves cosine top-k (node side) and Eq. (21)
affinity (attribute side) queries from the *active version* of an
:class:`~repro.serving.store.EmbeddingStore`, through a pluggable
:class:`~repro.serving.index.SearchBackend` (IVF or exact).

Concurrency model — how a version swap can never serve a torn result:
all state needed to answer a query (version name, mmapped arrays, search
backend) lives in one immutable ``_ActiveVersion`` snapshot object, and
every query reads ``self._active`` exactly once.  :meth:`activate`
publishes a fully constructed snapshot with a single reference assignment,
so a query thread sees either the old version or the new one, end to end —
never the new backend with the old matrix.  The result cache is keyed by
``(version, node, k, nprobe)``, so entries can never bleed across versions
either; rollback re-activates an older version and its keys simply miss.

One way to ask — :meth:`QueryService.search` takes a
:class:`SearchRequest` (``node`` / ``nodes`` / ``vector``) — and
throughput comes from three places:

- a ``nodes`` batch fans out over a persistent
  :class:`~repro.parallel.pool.WorkerPool` in contiguous chunks;
- an opt-in coalescer (``search(request, coalescer=service.make_coalescer(w))``)
  merges *concurrent* single-node requests into one backend batch: the
  first arrival becomes the leader, sleeps out the window, and executes
  everything that queued up behind it against one consistent snapshot;
- an LRU result cache absorbs repeated queries entirely.

One way to count — every answered call is recorded once, into the
:mod:`repro.serving.obs.metrics` instruments the service owns
(:attr:`QueryService.instruments`); ``describe()["latency"]`` is read off
their cells and an HTTP server adopts the same objects into its registry.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
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
from repro.serving.obs.trace import current_trace, trace_span
from repro.serving.index import (
    ExactBackend,
    IVFIndex,
    SearchBackend,
    make_backend,
    resolve_kind,
)
from repro.serving.sharding.pq import IVFPQBackend, PQBackend
from repro.serving.sharding.router import ShardRouter
from repro.serving.sharding.store import (
    ShardedEmbeddingStore,
    ShardedStoredEmbedding,
)
from repro.serving.store import _ARRAY_FILES, EmbeddingStore, StoredEmbedding


@dataclass(frozen=True)
class QueryResult:
    """One answered query (or one stacked batch): ids and similarities.

    ``version`` names the store version that produced the answer, so
    callers can detect which side of a swap they were served from.
    ``group`` is set only on answers produced by a coalescing batcher:
    every member of one coalesced batch shares the same group id (and,
    by construction, the same snapshot — callers can assert the
    no-mixed-versions property from outside).
    """

    version: str
    ids: np.ndarray
    scores: np.ndarray
    latency_s: float
    cached: bool = False
    group: int | None = None


@dataclass(frozen=True)
class SearchParams:
    """Per-request tuning knobs, carried inside a :class:`SearchRequest`.

    Every field is a *hint*: it is honored by backends that advertise the
    matching capability (``SUPPORTS_NPROBE`` / ``SUPPORTS_RESCORE_FACTOR``
    / ``SUPPORTS_SELECT_DTYPE``) and silently ignored elsewhere — the same
    convention ``nprobe`` has always followed, so one request shape works
    against every backend kind.  ``None`` means "the backend's configured
    default".

    - ``nprobe``: IVF probe width (IVF / IVF-PQ / sharded IVF).
    - ``rescore_factor``: ADC shortlist multiplier for PQ rescoring
      (PQ / IVF-PQ): the top ``rescore_factor × k`` ADC candidates are
      exact-rescored.
    - ``select_dtype``: ``"float64"`` or ``"float32"`` selection precision
      for the exact engine; scores stay canonical float64 either way.
    """

    nprobe: int | None = None
    rescore_factor: int | None = None
    select_dtype: str | None = None

    def __post_init__(self) -> None:
        if self.nprobe is not None and int(self.nprobe) < 1:
            raise ValueError(f"nprobe must be >= 1, got {self.nprobe}")
        if self.rescore_factor is not None and int(self.rescore_factor) < 1:
            raise ValueError(
                f"rescore_factor must be >= 1, got {self.rescore_factor}"
            )
        if self.select_dtype not in (None, "float64", "float32"):
            raise ValueError(
                "select_dtype must be 'float64' or 'float32', "
                f"got {self.select_dtype!r}"
            )

    def key(self) -> tuple:
        """Hashable identity for cache keys and coalescing groups."""
        return (self.nprobe, self.rescore_factor, self.select_dtype)

    def to_json(self) -> dict:
        """The wire form: a dict of the non-default fields only."""
        doc: dict = {}
        if self.nprobe is not None:
            doc["nprobe"] = int(self.nprobe)
        if self.rescore_factor is not None:
            doc["rescore_factor"] = int(self.rescore_factor)
        if self.select_dtype is not None:
            doc["select_dtype"] = self.select_dtype
        return doc

    @classmethod
    def from_json(cls, obj: object) -> "SearchParams":
        """Parse the wire ``"params"`` object; strict, ``ValueError`` on junk."""
        if not isinstance(obj, dict):
            raise ValueError(f"params must be an object, got {type(obj).__name__}")
        unknown = set(obj) - {"nprobe", "rescore_factor", "select_dtype"}
        if unknown:
            raise ValueError(f"unknown params field(s): {sorted(unknown)}")
        nprobe = obj.get("nprobe")
        rescore = obj.get("rescore_factor")
        for name, value in (("nprobe", nprobe), ("rescore_factor", rescore)):
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ValueError(f"params.{name} must be an integer, got {value!r}")
        select_dtype = obj.get("select_dtype")
        if select_dtype is not None and not isinstance(select_dtype, str):
            raise ValueError(
                f"params.select_dtype must be a string, got {select_dtype!r}"
            )
        return cls(nprobe=nprobe, rescore_factor=rescore, select_dtype=select_dtype)


#: The all-defaults instance shared by requests that pass no params.
DEFAULT_PARAMS = SearchParams()


@dataclass(frozen=True, eq=False)
class SearchRequest:
    """One query against the serving tier, in any of its three shapes.

    Exactly one of ``node`` (top-k neighbors of a stored node), ``nodes``
    (a stacked batch of the same), or ``vector`` (top-k for an arbitrary
    query vector, normalized by the service) must be set.  ``filter``
    restricts the candidate population with a :class:`NodeFilter`
    predicate — the one place all three shapes accept the same allow /
    deny / attribute / partition object (this is also the exclude path
    for vector queries, which historically had none).  ``params`` carries
    per-request backend hints (see :class:`SearchParams`).

    This is the single request object the whole stack speaks:
    :meth:`QueryService.search`, :class:`PinnedView`, the HTTP wire's
    ``"filter"``/``"params"`` JSON objects, and the CLI all construct or
    consume it.
    """

    node: int | None = None
    nodes: Sequence[int] | np.ndarray | None = None
    vector: np.ndarray | None = None
    k: int = 10
    filter: NodeFilter | None = None
    params: SearchParams = DEFAULT_PARAMS

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
        if not isinstance(self.params, SearchParams):
            raise ValueError(
                f"params must be a SearchParams, got {type(self.params).__name__}"
            )

    def filter_key(self) -> bytes | None:
        """The filter's cache identity (``None`` when unfiltered / no-op)."""
        if self.filter is None or self.filter.is_noop:
            return None
        return self.filter.key()


def _node_key(
    version: str,
    node: int,
    k: int,
    params: SearchParams,
    filter_key: bytes | None,
) -> tuple:
    """The result-cache key for a node top-k query.

    One constructor for every site that reads or fills the cache (the
    single-node path, the batch fill, the coalescer's drain) — a
    key-shape drift between sites would silently stop hits matching.
    Params and filter identity are part of the key: a filtered answer
    must never be served to an unfiltered query (or vice versa), and two
    requests differing only in ``nprobe`` are different answers.
    """
    return (version, "node", int(node), int(k), params.key(), filter_key)


#: Compiled filter masks kept per service (LRU over (version, filter key)).
_FILTER_CACHE_SIZE = 64


@dataclass(frozen=True)
class _ActiveVersion:
    """Immutable serving snapshot; swapped atomically by ``activate``.

    ``stored`` is a :class:`StoredEmbedding` or — when the service fronts
    a :class:`~repro.serving.sharding.store.ShardedEmbeddingStore` — a
    :class:`~repro.serving.sharding.store.ShardedStoredEmbedding`, whose
    gather views answer the same row reads; ``backend`` is then a
    :class:`~repro.serving.sharding.router.ShardRouter`.
    """

    version: str
    stored: StoredEmbedding | ShardedStoredEmbedding
    backend: SearchBackend


class QueryService:
    """Query server over the latest (or a pinned) store version.

    Parameters
    ----------
    store:
        The :class:`EmbeddingStore` (or
        :class:`~repro.serving.sharding.store.ShardedEmbeddingStore`) to
        serve from.  A sharded store gets per-shard backends behind a
        :class:`ShardRouter`; everything else is transparent.
    backend:
        ``"ivf"``, ``"exact"``, ``"pq"``, ``"ivfpq"``, or ``"auto"``
        (IVF above :data:`repro.serving.index.AUTO_EXACT_THRESHOLD`
        vectors).  For a sharded store this picks the *per-shard* backend
        kind (``"auto"`` resolves on the total corpus size).
    nlist / nprobe / seed:
        IVF construction parameters (see :class:`IVFIndex`).
    pq_subspaces:
        Subspace count of the PQ codec for the ``pq``/``ivfpq`` kinds
        (see :class:`~repro.serving.sharding.pq.PQCodec`).
    cache_size:
        LRU entries kept across all versions (0 disables caching).
    n_threads:
        Workers in the persistent pool that ``nodes`` batches fan out
        over (and that the shard router's scatter uses).
    version:
        Pin an explicit store version instead of ``latest()``.
    index_cache:
        Persist built IVF/PQ index artifacts into the store's version
        directory and load them on later activations, so short-lived
        processes (the CLI) stop retraining quantizers per invocation.
    select_dtype:
        ``"float64"`` (default) or ``"float32"`` — the *selection*
        precision for exact and IVF backends (see
        :func:`repro.search.knn.exact_top_k` and
        :meth:`~repro.serving.index.IVFIndex.set_select_dtype`).
        Returned scores stay canonical float64 either way; float32
        halves the bytes the selection scan/gather moves.
    """

    def __init__(
        self,
        store: EmbeddingStore | ShardedEmbeddingStore,
        *,
        backend: str = "auto",
        nlist: int | None = None,
        nprobe: int = 8,
        seed: int | None = 0,
        pq_subspaces: int | None = None,
        cache_size: int = 4096,
        n_threads: int = 1,
        version: str | None = None,
        index_cache: bool = False,
        select_dtype: str = "float64",
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self._store = store
        self._backend_kind = backend
        self._nlist = nlist
        self._nprobe = nprobe
        self._seed = seed
        self._pq_subspaces = pq_subspaces
        self._select_dtype = select_dtype
        self._index_cache = index_cache
        self._cache_size = cache_size
        self._cache: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._cache_lock = threading.Lock()
        # Compiled-filter LRU: masks are derived data (version × filter key),
        # cheap to rebuild but worth reusing across the requests of one
        # client session that keep sending the same predicate.
        self._filter_cache: OrderedDict[tuple, CompiledFilter] = OrderedDict()
        self._filter_lock = threading.Lock()
        self._cache_hit_count = 0
        self._cache_miss_count = 0
        self._swap_lock = threading.Lock()
        # The service's instruments: _record() below is the only writer,
        # once per answered call.
        self.queries_total = Counter(
            "service_queries_total",
            "Queries answered by the query service (batch members counted)",
            (),
        )
        self.cache_served_total = Counter(
            "service_cache_served_total", "Queries answered from the LRU cache", ()
        )
        self.query_seconds = Histogram(
            "service_query_seconds",
            "Seconds per answered call (a batch is one call; a coalesced "
            "request includes its wait)",
            (),
        )
        self.pool = WorkerPool(max(1, n_threads))
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

    def activate(self, version: str | None = None, *, index: SearchBackend | None = None) -> str:
        """Build and atomically swap in a serving snapshot for ``version``.

        ``version=None`` follows the store's ``LATEST`` pointer.  ``index``
        lets a refresher hand over an incrementally rebuilt backend (its
        ``features`` must belong to the version being activated); otherwise
        a backend is constructed from the stored ``features`` matrix.
        Queries in flight keep the snapshot they started with.
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
            backend = index
            if backend is None:
                if isinstance(stored, ShardedStoredEmbedding):
                    backend = self._build_router(stored)
                else:
                    backend = self._build_backend(stored)
            outgoing = self._active.backend if self._active is not None else None
            if isinstance(backend, ShardRouter) and isinstance(outgoing, ShardRouter):
                # Every swap installs a new router; the per-shard series
                # (and whoever adopted it) must not restart from zero.
                backend.search_seconds = outgoing.search_seconds
            self._active = _ActiveVersion(
                version=stored.version, stored=stored, backend=backend
            )
            return stored.version

    def _make_backend(self, features, kind: str) -> SearchBackend:
        return make_backend(
            features,
            kind,
            nlist=self._nlist,
            nprobe=self._nprobe,
            seed=self._seed,
            pq_subspaces=self._pq_subspaces,
            select_dtype=self._select_dtype,
        )

    def _apply_select_dtype(self, backend: SearchBackend) -> SearchBackend:
        """Opt a reloaded backend into this service's selector precision.

        Persisted index artifacts are precision-agnostic (the float32
        selector copy is derived data, cheap to re-cast at load time),
        so reloads come back float64 and the service re-applies its
        configured ``select_dtype`` here.
        """
        if self._select_dtype != "float64" and hasattr(backend, "set_select_dtype"):
            backend.set_select_dtype(self._select_dtype)
        return backend

    def _build_backend(self, stored: StoredEmbedding) -> SearchBackend:
        """Backend for an unsharded snapshot, via the artifact cache if on."""
        kind = resolve_kind(self._backend_kind, stored.features.shape[0])
        if self._index_cache and kind != "exact":
            loaded = self._store.load_index(stored.version, kind, stored.features)
            if loaded is not None:
                return self._apply_select_dtype(loaded)
        backend = self._make_backend(stored.features, kind)
        if self._index_cache and kind != "exact":
            self._store.save_index(stored.version, backend)
        return backend

    def _build_router(self, stored: ShardedStoredEmbedding) -> ShardRouter:
        """Per-shard backends behind a scatter-gather router.

        ``"auto"`` resolves on the *total* corpus size so a sharded and an
        unsharded deployment of the same corpus pick the same kind; each
        shard then builds (or loads) its own index over its segment.
        """
        kind = resolve_kind(self._backend_kind, stored.n_nodes)
        loaded = (
            self._store.load_shard_indexes(stored, kind)
            if self._index_cache and kind != "exact"
            else [None] * stored.n_shards
        )
        backends: list[SearchBackend] = []
        built: list[SearchBackend | None] = []
        for shard, segment in enumerate(stored.shards):
            backend = loaded[shard]
            if backend is None:
                backend = self._make_backend(segment.features, kind)
                built.append(backend)
            else:
                self._apply_select_dtype(backend)
                built.append(None)  # already persisted; skip the rewrite
            backends.append(backend)
        if self._index_cache and kind != "exact" and any(b is not None for b in built):
            self._store.save_shard_indexes(stored.version, built)
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
        needs.  The view shares this service's cache and instruments
        (version-keyed / version-agnostic respectively) and never
        coalesces: a coalescer answers from whatever snapshot is active
        at drain time, not the pinned one.
        """
        return PinnedView(self, self._snapshot())

    # -- queries -------------------------------------------------------
    def search(
        self,
        request: SearchRequest,
        *,
        coalescer: "_MicroBatcher | None" = None,
    ) -> QueryResult:
        """Answer one :class:`SearchRequest` — the single query entrypoint.

        Without a coalescer this is ``self.pin().search(request)``: the
        request's shape picks the path (``node`` direct, ``nodes`` fanned
        out over the worker pool, ``vector`` direct).  With one (see
        :meth:`make_coalescer`) a ``node`` request that misses the cache
        joins its concurrent peers in one backend batch; the whole group
        is answered from one snapshot read at drain time, so members can
        never mix store versions, and each result carries the group id
        for outside verification.
        """
        if coalescer is not None and request.node is not None:
            return self._top_k_on(self._snapshot(), request, coalescer)
        return self.pin().search(request)

    def make_coalescer(
        self, window_s: float, *, max_batch: int | None = None
    ) -> "_MicroBatcher":
        """A leader/follower coalescer bound to this service's batch path.

        Pass it to :meth:`search` as ``coalescer=`` (the HTTP server's
        admission coalescer does exactly that): concurrent single-node
        callers merge into one backend batch against a single snapshot.
        ``max_batch`` wakes the leader early once that many requests
        queued, bounding both the wait and the coalesced GEMM size.
        """
        return _MicroBatcher(window_s, self._execute_microbatch, max_batch=max_batch)

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

    def _top_k_on(
        self,
        active: _ActiveVersion,
        request: SearchRequest,
        coalescer: "_MicroBatcher | None" = None,
    ) -> QueryResult:
        """Single-node top-k: cache, else the coalescer or ``active`` directly."""
        start = time.perf_counter()
        node, k = int(request.node), int(request.k)
        self._check_node(active, node)
        key = _node_key(active.version, node, k, request.params, request.filter_key())
        hit = self._cache_hit(active.version, key, start)
        if hit is not None:
            return hit
        if coalescer is not None:
            with trace_span("coalesce_wait") as span:
                result = coalescer.submit(node, k, request)
                if span is not None and result.group is not None:
                    span.meta["group"] = result.group
            # The caller's latency includes the coalescing window it slept
            # out, not just its share of the backend batch — report what the
            # client actually experienced or window tuning is blind.
            return replace(result, latency_s=self._record(start))
        compiled = self._compile_filter(active, request.filter)
        query = np.asarray(active.stored.features[node], dtype=np.float64)
        with trace_span("select", version=active.version):
            ids, scores = _search(
                active.backend,
                query[np.newaxis],
                k,
                np.array([node]),
                request.params,
                compiled,
            )
        return self._fill(active.version, key, ids[0], scores[0], start)

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
                queries = np.asarray(active.stored.features[nodes], dtype=np.float64)
                ids, scores = _search(
                    active.backend, queries, k, nodes, request.params, compiled
                )
            else:
                n_chunks = min(self.pool.n_threads, nodes.size)
                chunks = np.array_split(nodes, n_chunks)

                def work(_: int, chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                    queries = np.asarray(active.stored.features[chunk], dtype=np.float64)
                    return _search(
                        active.backend, queries, k, chunk, request.params, compiled
                    )

                parts = self.pool.run_blocks(work, chunks)
                ids = np.vstack([part[0] for part in parts])
                scores = np.vstack([part[1] for part in parts])
        for row, node in enumerate(nodes):
            self._cache_put(
                _node_key(active.version, node, k, request.params, filter_key),
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
            ids, scores = _search(
                active.backend, query[np.newaxis], k, None, request.params, compiled
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
        """Serving state, memory accounting, query counters (JSON-safe).

        The top of the dict is a stable, server-visible schema — the same
        document ``GET /v1/describe`` returns over HTTP (see
        :mod:`repro.serving.http`): ``version`` (the active store version
        id), ``backend_kind`` (one of ``exact``/``ivf``/``pq``/``ivfpq``/
        ``sharded`` — stable across refactors, unlike the class name in
        ``backend``), ``n_shards`` (1 for an unsharded deployment),
        ``n_nodes``, and ``n_attributes``.  Every value is a plain Python
        scalar/list/dict — ``json.dumps(service.describe())`` must never
        trip over a numpy scalar.

        ``memory`` reports the mapped bytes behind every stored array (what
        the OS *could* page in, not resident set; for a sharded snapshot
        the replicated ``y`` counts every segment's copy) plus, for PQ
        backends, the resident code bytes and the compression ratio they
        buy.  ``latency`` is :meth:`latency_info`.  A sharded snapshot
        adds a ``sharding`` section with per-shard sizes and the router's
        own ``latency`` (:meth:`ShardRouter.latency_info`).  Units there
        are **per-shard searches**: every backend call is scattered to
        all shards, so ``searches`` reads ``n_shards ×`` the number of
        uncached service calls, and cache hits only ever appear in the
        service-level ``latency``.
        """
        active = self._snapshot()
        backend = active.backend
        info = {
            "version": active.version,
            "backend_kind": backend_kind_name(backend),
            "n_shards": (
                backend.n_shards if isinstance(backend, ShardRouter) else 1
            ),
            "n_nodes": active.stored.n_nodes,
            "n_attributes": active.stored.n_attributes,
            # Filter capability advertisement (mirrored by /v1/describe):
            # clients discover which NodeFilter families this deployment
            # honors before sending one.  Partition selectors only exist
            # where the store actually has partitions (a sharded layout).
            "filters": {
                "ids": bool(getattr(backend, "SUPPORTS_FILTER", False)),
                "attributes": bool(getattr(backend, "SUPPORTS_FILTER", False)),
                "partitions": isinstance(backend, ShardRouter),
            },
            "backend": type(backend).__name__,
            # One source of truth for cache state: the ``cache`` dict
            # (entries/capacity/hits/misses/hit_rate) replaces the old
            # top-level cache_entries/cache_size pair, which duplicated
            # it under a second read of the lock.
            "cache": self.cache_info(),
            "latency": self.latency_info(),
        }
        if hasattr(backend, "select_dtype"):  # exact / IVF selector knob
            info["select_dtype"] = backend.select_dtype
        mapped = {
            name: int(getattr(active.stored, name).nbytes)
            for name in _ARRAY_FILES
        }
        if isinstance(active.stored, ShardedStoredEmbedding):
            # The row-partitioned arrays already sum across segments via
            # their gather views, but Y is *replicated* per segment — count
            # every mapped replica so total_mapped_bytes agrees with the
            # per-shard sums reported below.
            mapped["y"] = sum(
                int(segment.y.nbytes) for segment in active.stored.shards
            )
        memory: dict = {
            "mapped_bytes": mapped,
            "total_mapped_bytes": sum(mapped.values()),
        }
        pq_backends = [b for b in _leaf_backends(backend) if isinstance(b, PQBackend)]
        if pq_backends:
            parts = [b.memory_info() for b in pq_backends]
            resident = sum(part["resident_bytes"] for part in parts)
            float_bytes = sum(part["float_bytes"] for part in parts)
            memory["pq"] = {
                "code_bytes": sum(part["code_bytes"] for part in parts),
                "codebook_bytes": sum(part["codebook_bytes"] for part in parts),
                "resident_bytes": resident,
                "float_bytes": float_bytes,
                "compression_ratio": float_bytes / resident if resident else 0.0,
            }
        info["memory"] = memory
        if isinstance(backend, IVFIndex):
            info["ivf"] = {"nlist": backend.nlist, "nprobe": backend.nprobe}
        elif isinstance(backend, IVFPQBackend):
            info["ivf"] = {"nlist": backend.nlist, "nprobe": backend.nprobe}
        if isinstance(backend, ShardRouter):
            stored: ShardedStoredEmbedding = active.stored
            memory["per_shard_bytes"] = [
                sum(
                    int(getattr(segment, name).nbytes) for name in _ARRAY_FILES
                )
                for segment in stored.shards
            ]
            info["sharding"] = {
                "n_shards": backend.n_shards,
                "partition": stored.partitioner.kind,
                "per_shard": [
                    {
                        "shard": shard,
                        "n_nodes": segment.n_nodes,
                        "backend": type(backend.backends[shard]).__name__,
                        "kind": backend_kind_name(backend.backends[shard]),
                        "version": segment.version,
                    }
                    for shard, segment in enumerate(stored.shards)
                ],
                "latency": backend.latency_info(),
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
    def instruments(self) -> tuple[Counter, Counter, Histogram]:
        """The metric objects this service records into, for a registry to adopt."""
        return (self.queries_total, self.cache_served_total, self.query_seconds)

    def latency_info(self) -> dict:
        """Lifetime counts and seconds, read off :attr:`instruments`.

        ``queries`` counts batch members, ``calls`` answered calls (a batch
        is one); quantiles come from the histogram's buckets, not from here.
        """
        cell = self.query_seconds.cell()
        return {
            "queries": int(self.queries_total.value()),
            "cache_hits": int(self.cache_served_total.value()),
            "calls": cell["count"],
            "total_seconds": cell["sum"],
        }

    def cache_info(self) -> dict:
        """Result-cache effectiveness counters (lifetime, this process).

        ``hits``/``misses`` count result lookups against
        the LRU (disabled caches record nothing); exposed through
        :meth:`describe` and the HTTP ``/metrics`` endpoint so the
        cache's effectiveness is observable, not just its size.
        """
        with self._cache_lock:
            hits, misses = self._cache_hit_count, self._cache_miss_count
            entries = len(self._cache)
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
                self._cache_hit_count += 1
            else:
                self._cache_miss_count += 1
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

    def _execute_microbatch(
        self, requests: list["_BatchRequest"], group_id: int
    ) -> None:
        """Answer a coalesced batch of single-node requests from one snapshot.

        The single ``self._snapshot()`` read below is the coalescing
        consistency contract: every member of the group — whatever
        version was active when each caller *submitted* — is answered
        from this one immutable snapshot, so one group can never mix
        store versions even while ``activate`` races the drain.
        """
        active = self._snapshot()
        # Stamp the group onto every member's trace (cross-thread: the
        # leader annotates its followers' traces — Trace is lock-guarded
        # for exactly this).  The member list makes /debug/traces show
        # who shared the GEMM, joined on request ids.
        member_ids = [
            request.trace.request_id
            for request in requests
            if request.trace is not None
        ]
        for request in requests:
            if request.trace is not None:
                request.trace.annotate(
                    coalesce_group=group_id,
                    coalesce_size=len(requests),
                    coalesce_members=member_ids,
                )
        by_params: dict[tuple, list[_BatchRequest]] = {}
        for request in requests:
            try:
                # Re-validate against *this* snapshot: a version swap between
                # the caller's check and the leader's drain may have shrunk
                # the embedding, and one stale node must fail alone rather
                # than taking down every request coalesced with it.
                self._check_node(active, request.node)
            except IndexError as error:
                request.error = error
                request.event.set()
                continue
            # Group by everything that changes the answer: k, the params
            # tuple, and the filter identity.  Mixing two filters into one
            # backend batch would answer both from whichever mask went in.
            group_key = (
                request.k,
                request.search.params.key(),
                request.search.filter_key(),
            )
            by_params.setdefault(group_key, []).append(request)
        for group in by_params.values():
            start = time.perf_counter()
            spec = group[0].search
            k = group[0].k
            nodes = np.array([request.node for request in group], dtype=np.intp)
            try:
                compiled = self._compile_filter(active, spec.filter)
                queries = np.asarray(active.stored.features[nodes], dtype=np.float64)
                with trace_span(
                    "select",
                    version=active.version,
                    group=group_id,
                    batch=len(group),
                ):
                    ids, scores = _search(
                        active.backend, queries, k, nodes, spec.params, compiled
                    )
            except BaseException as error:  # propagate to every waiter
                for request in group:
                    request.error = error
                    request.event.set()
                continue
            latency = time.perf_counter() - start
            for row, request in enumerate(group):
                self._cache_put(
                    _node_key(
                        active.version,
                        request.node,
                        k,
                        spec.params,
                        spec.filter_key(),
                    ),
                    ids[row],
                    scores[row],
                )
                request.result = QueryResult(
                    active.version,
                    ids[row],
                    scores[row],
                    latency / len(group),
                    group=group_id,
                )
                request.event.set()


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


def _search(
    backend: SearchBackend,
    queries: np.ndarray,
    k: int,
    exclude: np.ndarray | None,
    params: SearchParams,
    node_filter: CompiledFilter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch a search with capability-gated per-request hints.

    Each :class:`SearchParams` field (and the compiled filter) is passed
    only to backends that advertise the matching ``SUPPORTS_*`` class
    attribute; a filter against a backend without filter support is a
    hard error (silently dropping a predicate would return disallowed
    rows), while unsupported tuning hints are ignored by design.
    """
    kwargs: dict = {}
    if node_filter is not None:
        if not getattr(backend, "SUPPORTS_FILTER", False):
            raise ValueError(
                f"backend {type(backend).__name__} does not support "
                "filtered search"
            )
        kwargs["node_filter"] = node_filter
    if getattr(backend, "SUPPORTS_NPROBE", False):
        kwargs["nprobe"] = params.nprobe
    if params.rescore_factor is not None and getattr(
        backend, "SUPPORTS_RESCORE_FACTOR", False
    ):
        kwargs["rescore_factor"] = params.rescore_factor
    if params.select_dtype is not None and getattr(
        backend, "SUPPORTS_SELECT_DTYPE", False
    ):
        kwargs["select_dtype"] = params.select_dtype
    return backend.search(queries, k, exclude=exclude, **kwargs)


def _leaf_backends(backend: SearchBackend) -> list[SearchBackend]:
    """A backend's concrete leaves (a router's shards, else itself)."""
    if isinstance(backend, ShardRouter):
        return list(backend.backends)
    return [backend]


def backend_kind_name(backend: SearchBackend) -> str:
    """The stable wire name of a backend: exact/ivf/pq/ivfpq/sharded.

    ``describe()`` and the HTTP ``/v1/describe`` endpoint report this
    instead of the class name, so renaming a class cannot silently change
    what remote clients key dashboards and routing decisions on.  Note
    the ``isinstance`` order: :class:`IVFPQBackend` subclasses
    :class:`PQBackend`, so the more specific kind must win.
    """
    if isinstance(backend, ShardRouter):
        return "sharded"
    if isinstance(backend, IVFPQBackend):
        return "ivfpq"
    if isinstance(backend, PQBackend):
        return "pq"
    if isinstance(backend, IVFIndex):
        return "ivf"
    if isinstance(backend, ExactBackend):
        return "exact"
    return type(backend).__name__.lower()


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


@dataclass
class _BatchRequest:
    node: int
    k: int
    # The full SearchRequest spec (params + filter) this member carries;
    # the drain groups members whose spec keys match.
    search: SearchRequest
    event: threading.Event = field(default_factory=threading.Event)
    result: QueryResult | None = None
    error: BaseException | None = None
    # The submitting request's trace, captured at submit time so the
    # leader (a different thread) can stamp the coalesce group onto it.
    trace: object | None = None


class _MicroBatcher:
    """Leader/follower coalescing of concurrent single queries.

    The first thread to submit becomes the leader: it waits out the
    window (or is woken early once ``max_batch`` requests queued), then
    drains everything that queued up meanwhile and executes it as one
    batch.  Followers block on a per-request event.  Payoff is one
    backend batch (and one snapshot read) per burst instead of one per
    request.  Every drained batch gets a monotonically increasing group
    id, passed to ``execute`` so results can carry it — the externally
    observable handle for "these answers shared one snapshot".
    """

    def __init__(self, window_s: float, execute, *, max_batch: int | None = None) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._window_s = window_s
        self._execute = execute
        self._max_batch = max_batch
        self._lock = threading.Lock()
        self._pending: list[_BatchRequest] = []
        self._has_leader = False
        self._wake = threading.Event()
        self._next_group = 0
        self._members = 0

    def info(self) -> dict:
        """Occupancy counters for /metrics: groups run, members, queue depth."""
        with self._lock:
            return {
                "groups": self._next_group,
                "members": self._members,
                "pending": len(self._pending),
            }

    def submit(self, node: int, k: int, search: SearchRequest) -> QueryResult:
        request = _BatchRequest(node=node, k=k, search=search, trace=current_trace())
        with self._lock:
            self._members += 1
            self._pending.append(request)
            is_leader = not self._has_leader
            if is_leader:
                self._has_leader = True
                self._wake.clear()
            full = (
                self._max_batch is not None
                and len(self._pending) >= self._max_batch
            )
        if full and not is_leader:
            # Wake the leader early: the batch is as large as it is
            # allowed to get, further waiting only adds latency.  (A
            # set() that races a drain is harmless — the next leader
            # clears the event when it claims the slot.)
            self._wake.set()
        if is_leader:
            try:
                try:
                    if not full:
                        self._wake.wait(self._window_s)
                finally:
                    # Even if the wait is interrupted (KeyboardInterrupt in
                    # the leading thread), the leadership slot must be freed
                    # and the queue drained, or every later submit() would
                    # become a follower blocking on an event nobody will set.
                    with self._lock:
                        batch, self._pending = self._pending, []
                        self._has_leader = False
                # max_batch bounds the *executed* batch, not just the
                # wake: requests that piled up past it (arrivals during
                # the wake race, heavy concurrency) run as consecutive
                # bounded groups, so the configured GEMM size is a real
                # ceiling.  Each chunk is its own group (one snapshot
                # read per _execute call).
                chunk = self._max_batch or len(batch) or 1
                for start in range(0, len(batch), chunk):
                    with self._lock:
                        group_id = self._next_group
                        self._next_group += 1
                    self._execute(batch[start : start + chunk], group_id)
            except BaseException as error:
                # _execute reports per-group search errors itself; this
                # catches everything outside that handling (the snapshot
                # read, an interrupted wait) so followers always wake —
                # including members of chunks never reached.
                for queued in batch:
                    if not queued.event.is_set():
                        queued.error = error
                        queued.event.set()
                raise
        request.event.wait()
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result
