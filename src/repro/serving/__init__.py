"""Embedding serving: versioned store, exact search, query service, write path.

The subsystem that turns a trained :class:`~repro.core.embedding.PANEEmbedding`
into something that answers similarity queries under load:

- :class:`EmbeddingStore` — durable, versioned, memory-mapped storage with
  atomic publish and rollback, unsharded or rows split across N shards
  (``store.py``);
- :class:`ExactBackend` — the exact search engine behind the
  :class:`SearchBackend` interface (``index.py``);
- :class:`QueryService` — one ``search(SearchRequest)`` entrypoint over
  batched, cached, metered query serving with atomic version swaps
  (``service.py``);
- :mod:`~repro.serving.sharding` — the scatter-gather
  :class:`ShardRouter` over a sharded store's shards (``sharding/``);
- :mod:`~repro.serving.http` — the stdlib HTTP front-end
  (:class:`~repro.serving.http.EmbeddingServer`) and its retrying,
  replica-fanning :class:`~repro.serving.http.ServingClient`
  (``http/``; imported lazily — ``from repro.serving.http import ...``);
- :mod:`~repro.serving.wal` — the durable write path: append-only
  :class:`~repro.serving.wal.DeltaLog` and the
  :class:`~repro.serving.wal.IngestPipeline`, whose compaction cycle
  (delta update → republish → swap, without downtime) runs in the
  background (``wal/``; imported lazily — ``from repro.serving.wal
  import ...``).

See ``docs/SERVING.md`` for the operational guide.
"""

from repro._lazy import lazy_exports

__all__ = [
    "EmbeddingStore",
    "ExactBackend",
    "Partitioner",
    "PinnedView",
    "QueryResult",
    "QueryService",
    "SearchBackend",
    "SearchRequest",
    "ShardRouter",
    "StoredEmbedding",
    "json_safe",
    "make_backend",
    "search_features",
]

# Resolved on first use: every ``repro.serving.*`` import runs this file,
# and a read-only server loads only what it calls.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serving.index": (
            "ExactBackend", "SearchBackend", "make_backend",
        ),
        "repro.serving.service": (
            "PinnedView", "QueryResult", "QueryService", "SearchRequest",
            "json_safe",
        ),
        "repro.serving.sharding.router": ("ShardRouter",),
        "repro.serving.store": (
            "EmbeddingStore", "Partitioner", "StoredEmbedding", "search_features",
        ),
    },
)
