"""Sharded serving: scatter-gather over row shards.

Scales the serving layer past one backend.  The shards themselves are an
:class:`~repro.serving.store.EmbeddingStore` created with ``n_shards > 1``
(rows split by its :class:`~repro.serving.store.Partitioner`); this
package holds what searches them:

- :class:`ShardRouter` — scatter-gather over per-shard backends with a
  heap merge that is bit-identical to unsharded exact search
  (``router.py``).

See the sharding section of ``docs/SERVING.md``.
"""

from repro.serving.sharding.router import ShardRouter
from repro.serving.store import Partitioner

__all__ = [
    "Partitioner",
    "ShardRouter",
]
