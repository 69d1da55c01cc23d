"""Embedding serving: versioned store, ANN index, query service, refresh.

The subsystem that turns a trained :class:`~repro.core.embedding.PANEEmbedding`
into something that answers similarity queries under load:

- :class:`EmbeddingStore` — durable, versioned, memory-mapped storage with
  atomic publish and rollback, unsharded or rows split across N shards
  (``store.py``);
- :class:`IVFIndex` / :class:`ExactBackend` — approximate and brute-force
  search behind one :class:`SearchBackend` interface (``index.py``);
- :class:`QueryService` — one ``search(SearchRequest)`` entrypoint over
  batched, cached, metered query serving with atomic version swaps
  (``service.py``);
- :class:`OnlineRefresher` — delta update → republish → incremental index
  rebuild → swap, without downtime (``refresh.py``);
- :mod:`~repro.serving.sharding` — the scatter-gather
  :class:`ShardRouter` over a sharded store's shards (``sharding/``);
- :mod:`~repro.serving.http` — the stdlib HTTP front-end
  (:class:`~repro.serving.http.EmbeddingServer`) and its retrying,
  replica-fanning :class:`~repro.serving.http.ServingClient`
  (``http/``; imported lazily — ``from repro.serving.http import ...``);
- :mod:`~repro.serving.wal` — the durable write path: append-only
  :class:`~repro.serving.wal.DeltaLog`,
  :class:`~repro.serving.wal.IngestPipeline`, and the background
  :class:`~repro.serving.wal.Compactor` (``wal/``; imported lazily —
  ``from repro.serving.wal import ...``).

See ``docs/SERVING.md`` for the operational guide.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AUTO_EXACT_THRESHOLD",
    "EmbeddingStore",
    "ExactBackend",
    "IVFIndex",
    "IVFRebuildStats",
    "OnlineRefresher",
    "Partitioner",
    "PinnedView",
    "QueryResult",
    "QueryService",
    "RefreshReport",
    "SearchBackend",
    "SearchParams",
    "SearchRequest",
    "ShardRouter",
    "StoredEmbedding",
    "backend_kind_name",
    "json_safe",
    "make_backend",
    "resolve_kind",
    "search_features",
]

# Resolved on first use: every ``repro.serving.*`` import runs this file,
# and ``refresh`` pulls in the trainer, which a read-only server never calls.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serving.index": (
            "AUTO_EXACT_THRESHOLD", "ExactBackend", "IVFIndex", "IVFRebuildStats",
            "SearchBackend", "make_backend", "resolve_kind",
        ),
        "repro.serving.refresh": ("OnlineRefresher", "RefreshReport"),
        "repro.serving.service": (
            "PinnedView", "QueryResult", "QueryService", "SearchParams",
            "SearchRequest", "backend_kind_name", "json_safe",
        ),
        "repro.serving.sharding.router": ("ShardRouter",),
        "repro.serving.store": (
            "EmbeddingStore", "Partitioner", "StoredEmbedding", "search_features",
        ),
    },
)
