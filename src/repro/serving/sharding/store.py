"""Sharded embedding store: N mmap segments behind one logical version.

A :class:`ShardedEmbeddingStore` partitions embedding rows across ``N``
independent :class:`~repro.serving.store.EmbeddingStore` segments — each
with its own versioned ``.npy`` mmap files — and publishes all of them as
one *atomic logical version*.  Layout under the root::

    <root>/
      sharding.json            # {n_shards, partition} — fixed at creation
      LATEST                   # logical version pointer (atomic_write)
      versions/
        v00000001.json         # logical manifest: shard -> segment version
      shards/
        shard-0000/            # a plain EmbeddingStore root
        shard-0001/
        ...

Publish order makes the logical version atomic without cross-directory
rename tricks: every segment version is written (and renamed into place)
first, then the logical manifest naming them is staged with
:func:`repro.utils.fs.atomic_write` discipline and *hard-linked* into
``versions/`` — the link either claims the version name or fails with
``EEXIST`` (a concurrent publisher won), in which case the next id is
taken.  A reader that can open the manifest can therefore always open
every segment it names.  A crash mid-publish leaves only unreferenced
segment versions behind — never a partial logical version.

Rows are split by a :class:`Partitioner` (``range`` = contiguous blocks,
``hash`` = round-robin ``id % n_shards``); both map global ↔ (shard,
local) ids with O(1) arithmetic, no lookup tables.  The attribute matrix
``Y`` is replicated into every segment (it is ``d × k/2`` — small next to
``n × k`` node matrices) so each shard can answer attribute queries
locally.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.embedding import PANEEmbedding
from repro.serving.store import STAGING_PREFIX, EmbeddingStore, StoredEmbedding
from repro.utils.fs import atomic_write, chmod_default_file

SHARDING_SCHEMA = "repro.serving.sharding/v1"
_SHARDING_FILE = "sharding.json"


@dataclass(frozen=True)
class Partitioner:
    """O(1) global ↔ (shard, local) id arithmetic for one logical version.

    ``range``: shard ``s`` owns the contiguous block
    ``[boundaries[s], boundaries[s+1])`` (``np.array_split`` sizes).
    ``hash``: shard ``s`` owns every id with ``id % n_shards == s``; the
    local id is ``id // n_shards``.
    """

    kind: str
    n_shards: int
    n_nodes: int
    boundaries: tuple[int, ...]  # len n_shards + 1; ranges only (else empty)

    @classmethod
    def build(cls, kind: str, n_shards: int, n_nodes: int) -> "Partitioner":
        if kind not in ("range", "hash"):
            raise ValueError(f"partition kind must be range/hash, got {kind!r}")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if kind == "range":
            sizes = [len(block) for block in np.array_split(np.arange(n_nodes), n_shards)]
            boundaries = tuple(int(b) for b in np.concatenate([[0], np.cumsum(sizes)]))
        else:
            boundaries = ()
        return cls(kind=kind, n_shards=n_shards, n_nodes=n_nodes, boundaries=boundaries)

    @classmethod
    def from_manifest(cls, spec: dict) -> "Partitioner":
        return cls(
            kind=spec["kind"],
            n_shards=int(spec["n_shards"]),
            n_nodes=int(spec["n_nodes"]),
            boundaries=tuple(int(b) for b in spec.get("boundaries", ())),
        )

    def to_manifest(self) -> dict:
        return {
            "kind": self.kind,
            "n_shards": self.n_shards,
            "n_nodes": self.n_nodes,
            "boundaries": list(self.boundaries),
        }

    # ------------------------------------------------------------------
    def shard_members(self, shard: int) -> np.ndarray:
        """The global ids shard ``shard`` owns, ascending."""
        if self.kind == "range":
            return np.arange(self.boundaries[shard], self.boundaries[shard + 1])
        return np.arange(shard, self.n_nodes, self.n_shards)

    def shard_size(self, shard: int) -> int:
        if self.kind == "range":
            return self.boundaries[shard + 1] - self.boundaries[shard]
        n, s = self.n_nodes, self.n_shards
        return (n - shard + s - 1) // s

    def shard_and_local(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized global id → (shard, local id)."""
        ids = np.asarray(ids, dtype=np.intp)
        if self.kind == "range":
            bounds = np.asarray(self.boundaries, dtype=np.intp)
            shards = np.searchsorted(bounds, ids, side="right") - 1
            return shards, ids - bounds[shards]
        return ids % self.n_shards, ids // self.n_shards

    def to_global(self, shard: int, local_ids: np.ndarray) -> np.ndarray:
        """Vectorized (shard, local id) → global id."""
        local_ids = np.asarray(local_ids, dtype=np.intp)
        if self.kind == "range":
            return local_ids + self.boundaries[shard]
        return local_ids * self.n_shards + shard


class _ShardedRows:
    """A read-only virtual row matrix over per-shard mmapped arrays.

    Supports exactly what the :class:`~repro.serving.service.QueryService`
    needs from a stored array: integer / fancy row indexing (gather) and
    ``@ vector`` (per-shard matmul scattered back into global row order) —
    so the service's query paths work unchanged on a sharded snapshot.
    """

    def __init__(self, stored: "ShardedStoredEmbedding", name: str) -> None:
        self._stored = stored
        self._name = name
        self._arrays = [getattr(segment, name) for segment in stored.shards]

    @property
    def shape(self) -> tuple[int, int]:
        return (self._stored.n_nodes, self._arrays[0].shape[1])

    @property
    def nbytes(self) -> int:
        return sum(int(array.nbytes) for array in self._arrays)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, ids):
        partitioner = self._stored.partitioner
        if np.ndim(ids) == 0:
            index = int(ids)
            if index < 0:
                index += self.shape[0]
            shards, locals_ = partitioner.shard_and_local(np.array([index]))
            return np.asarray(
                self._arrays[int(shards[0])][int(locals_[0])], dtype=np.float64
            )
        ids = np.asarray(ids, dtype=np.intp)
        shards, locals_ = partitioner.shard_and_local(ids)
        out = np.empty((ids.shape[0], self.shape[1]), dtype=np.float64)
        for shard in np.unique(shards):
            mask = shards == shard
            out[mask] = np.asarray(self._arrays[shard][locals_[mask]])
        return out

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """Per-shard ``segment @ other`` scattered into global row order."""
        other = np.asarray(other)
        parts = [np.asarray(array) @ other for array in self._arrays]
        out_shape = (self.shape[0],) + parts[0].shape[1:]
        out = np.empty(out_shape, dtype=parts[0].dtype)
        for shard, part in enumerate(parts):
            out[self._stored.partitioner.shard_members(shard)] = part
        return out


@dataclass(frozen=True)
class ShardedStoredEmbedding:
    """A logical version opened for serving: one snapshot over N segments.

    Duck-types the parts of :class:`~repro.serving.store.StoredEmbedding`
    the query service touches; per-row data stays memory-mapped inside the
    segment ``StoredEmbedding``s.
    """

    version: str
    manifest: dict
    partitioner: Partitioner
    shards: tuple[StoredEmbedding, ...]

    @property
    def n_nodes(self) -> int:
        return self.partitioner.n_nodes

    @property
    def n_attributes(self) -> int:
        return self.shards[0].n_attributes

    @property
    def config(self):
        return self.shards[0].config

    @property
    def y(self) -> np.ndarray:
        # Y is replicated per segment; any copy serves attribute queries.
        return self.shards[0].y

    @property
    def features(self) -> _ShardedRows:
        return _ShardedRows(self, "features")

    @property
    def x_forward(self) -> _ShardedRows:
        return _ShardedRows(self, "x_forward")

    @property
    def x_backward(self) -> _ShardedRows:
        return _ShardedRows(self, "x_backward")

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def segment_versions(self) -> list[str]:
        return [segment.version for segment in self.shards]


class ShardedEmbeddingStore:
    """N segment stores published and served as one logical store.

    Parameters
    ----------
    root:
        Store root.  An existing sharded root fixes ``n_shards`` and
        ``partition``; passing conflicting values raises.
    n_shards:
        Segment count when creating a new root (required then).
    partition:
        ``"range"`` (contiguous blocks, the creation default) or
        ``"hash"`` (round-robin) row partitioning.  ``None`` (default)
        means "whatever the root records" when reopening; a non-``None``
        value must match an existing root's recorded layout.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        n_shards: int | None = None,
        partition: str | None = None,
    ) -> None:
        self.root = Path(root)
        spec_path = self.root / _SHARDING_FILE
        if spec_path.is_file():
            spec = json.loads(spec_path.read_text())
            if n_shards is not None and n_shards != spec["n_shards"]:
                raise ValueError(
                    f"store at {self.root} has {spec['n_shards']} shards; "
                    f"cannot reopen with n_shards={n_shards}"
                )
            if partition is not None and partition != spec["partition"]:
                raise ValueError(
                    f"store at {self.root} is {spec['partition']}-partitioned; "
                    f"cannot reopen with partition={partition!r}"
                )
            self.n_shards = int(spec["n_shards"])
            self.partition = spec["partition"]
        else:
            if n_shards is None:
                raise ValueError(
                    f"{self.root} is not a sharded store; pass n_shards to create one"
                )
            if n_shards < 1:
                raise ValueError(f"n_shards must be >= 1, got {n_shards}")
            partition = "range" if partition is None else partition
            if partition not in ("range", "hash"):
                raise ValueError(
                    f"partition must be range/hash, got {partition!r}"
                )
            self.n_shards = n_shards
            self.partition = partition
            self.root.mkdir(parents=True, exist_ok=True)
            spec = {
                "schema": SHARDING_SCHEMA,
                "n_shards": n_shards,
                "partition": partition,
            }
            atomic_write(
                spec_path,
                lambda handle: handle.write(json.dumps(spec, indent=2) + "\n"),
                text=True,
            )
        (self.root / "versions").mkdir(parents=True, exist_ok=True)
        self._segments = [
            EmbeddingStore(self.root / "shards" / f"shard-{shard:04d}")
            for shard in range(self.n_shards)
        ]

    # -- classification ------------------------------------------------
    @staticmethod
    def is_sharded_root(root: str | Path) -> bool:
        """Whether ``root`` holds a sharded store (CLI auto-detection)."""
        return (Path(root) / _SHARDING_FILE).is_file()

    def segment_store(self, shard: int) -> EmbeddingStore:
        """The plain :class:`EmbeddingStore` behind segment ``shard``."""
        return self._segments[shard]

    # -- queries -------------------------------------------------------
    def versions(self) -> list[str]:
        """All published logical version names, oldest first."""
        return sorted(
            entry.stem
            for entry in (self.root / "versions").glob("v*.json")
            if entry.is_file()
        )

    def latest(self) -> str | None:
        pointer = self.root / "LATEST"
        if not pointer.exists():
            return None
        name = pointer.read_text().strip()
        return name or None

    def manifest(self, version: str) -> dict:
        path = self.root / "versions" / f"{version}.json"
        if not path.is_file():
            raise FileNotFoundError(f"version {version!r} not found in {self.root}")
        return json.loads(path.read_text())

    # -- publish / open ------------------------------------------------
    def publish(
        self,
        embedding: PANEEmbedding,
        *,
        metadata: dict | None = None,
        set_latest: bool = True,
    ) -> str:
        """Partition ``embedding`` across the segments as one logical version.

        Every segment version lands on disk before the logical manifest
        that names them is linked into ``versions/`` — readers either see
        a fully materialized logical version or none.  Returns the logical
        version name (authoritative: concurrent publishers retry onto the
        next free id, exactly like :meth:`EmbeddingStore.publish`).
        """
        partitioner = Partitioner.build(
            self.partition, self.n_shards, embedding.n_nodes
        )
        segment_versions = []
        for shard in range(self.n_shards):
            members = partitioner.shard_members(shard)
            piece = PANEEmbedding(
                x_forward=embedding.x_forward[members],
                x_backward=embedding.x_backward[members],
                y=embedding.y,
                config=embedding.config,
            )
            segment_versions.append(
                self._segments[shard].publish(
                    piece,
                    metadata={"shard": shard, "n_shards": self.n_shards},
                    set_latest=False,
                )
            )

        existing = self.versions()
        next_id = 1 + (int(existing[-1][1:]) if existing else 0)
        version = f"v{next_id:08d}"
        manifest = {
            "schema": SHARDING_SCHEMA,
            "version": version,
            "created_at": time.time(),
            "n_nodes": int(embedding.n_nodes),
            "n_attributes": int(embedding.y.shape[0]),
            "k": int(embedding.config.k),
            "partitioner": partitioner.to_manifest(),
            "shards": [
                {
                    "shard": shard,
                    "version": segment_versions[shard],
                    "n_nodes": int(partitioner.shard_size(shard)),
                }
                for shard in range(self.n_shards)
            ],
            "metadata": metadata or {},
        }

        fd, staging = tempfile.mkstemp(
            prefix=f"{STAGING_PREFIX}manifest.", suffix=".json", dir=self.root
        )
        try:
            chmod_default_file(fd)
            while True:
                manifest["version"] = version
                with os.fdopen(os.dup(fd), "w") as handle:
                    handle.seek(0)
                    handle.truncate()
                    json.dump(manifest, handle, indent=2)
                target = self.root / "versions" / f"{version}.json"
                try:
                    # link(2) fails with EEXIST instead of overwriting, so
                    # the version name is claimed atomically; os.replace
                    # would silently clobber a concurrent publisher.
                    os.link(staging, target)
                    break
                except OSError as error:
                    if error.errno != errno.EEXIST:
                        raise
                    version = f"v{int(version[1:]) + 1:08d}"
        finally:
            os.close(fd)
            os.unlink(staging)
        if set_latest:
            self.set_latest(version)
        return version

    def open(self, version: str | None = None) -> ShardedStoredEmbedding:
        """Open a logical version (default latest) across all segments."""
        if version is None:
            version = self.latest()
            if version is None:
                raise FileNotFoundError(f"store at {self.root} has no versions")
        manifest = self.manifest(version)
        partitioner = Partitioner.from_manifest(manifest["partitioner"])
        shards = tuple(
            self._segments[entry["shard"]].open(entry["version"])
            for entry in manifest["shards"]
        )
        return ShardedStoredEmbedding(
            version=version,
            manifest=manifest,
            partitioner=partitioner,
            shards=shards,
        )

    # -- pointer management --------------------------------------------
    def set_latest(self, version: str) -> None:
        """Atomically point ``LATEST`` at logical ``version`` (must exist)."""
        self.manifest(version)  # raises FileNotFoundError if missing
        atomic_write(
            self.root / "LATEST",
            lambda handle: handle.write(version + "\n"),
            text=True,
        )

    def rollback(self, to: str | None = None) -> str:
        """Point ``LATEST`` back (default: the version before latest)."""
        if to is None:
            versions = self.versions()
            current = self.latest()
            if current not in versions:
                raise ValueError("cannot infer rollback target: no latest version")
            position = versions.index(current)
            if position == 0:
                raise ValueError(
                    f"{current} is the oldest version; nothing to roll back to"
                )
            to = versions[position - 1]
        self.set_latest(to)
        return to

    # -- index artifact fan-out ----------------------------------------
    def save_shard_indexes(self, version: str, backends) -> list[Path | None]:
        """Persist each shard backend into its segment's version directory.

        ``backends`` aligns with the shard order of logical ``version``.
        Exact backends have nothing to persist and record ``None``.
        """
        manifest = self.manifest(version)
        paths: list[Path | None] = []
        for entry, backend in zip(manifest["shards"], backends):
            segment = self._segments[entry["shard"]]
            paths.append(segment.save_index(entry["version"], backend))
        return paths

    def load_shard_indexes(
        self, stored: ShardedStoredEmbedding, kind: str
    ) -> list:
        """Per-shard persisted backends for ``stored`` (``None`` where absent)."""
        return [
            self._segments[shard].load_index(
                segment.version, kind, segment.features
            )
            for shard, segment in enumerate(stored.shards)
        ]
