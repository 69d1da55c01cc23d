"""Versioned, memory-mapped embedding store.

The durable half of the serving split: :class:`EmbeddingStore` persists
trained :class:`~repro.core.embedding.PANEEmbedding`s as immutable, numbered
versions that the in-memory :class:`~repro.serving.service.QueryService`
maps and serves.  Rows may be partitioned across ``N`` shards; an
unsharded store is simply the 1-shard case.  Layout under the store root::

    <root>/
      LATEST                     # pointer file, swapped with os.replace
      sharding.json              # {n_shards, partition}; only when N > 1
      versions/
        v00000001/               # one shard: arrays at the top
          manifest.json          # config + shapes + partition + metadata
          x_forward.npy          # raw Xf (n × k/2)
          x_backward.npy         # raw Xb
          y.npy                  # raw Y  (d × k/2)
        v00000002/               # N shards: one sub-directory per shard
          manifest.json
          shard-0000/            # that shard's rows of the three arrays
          shard-0001/            # (Y is replicated into every shard)

Design notes:

- **One ``.npy`` per array, not a single ``.npz``.**  ``np.load`` only
  honors ``mmap_mode`` for bare ``.npy`` files (zip members are read into
  memory), and the whole point of the store is that a multi-million-node
  matrix is paged in on demand rather than resident.
- **Atomic publish, whatever the shard count.**  A version — every
  shard's arrays and the manifest — is staged in one temp directory in
  the store root and ``os.rename``d into ``versions/``: readers either
  see a complete version or none, and a publisher killed mid-publish
  leaves one staging directory behind, nothing else.  The ``LATEST``
  pointer is a one-line file replaced with ``os.replace``, so "latest"
  flips atomically and :meth:`rollback` is just pointing it at an older
  version.
- **Search rows are derived, never stored.**  The unit-row
  ``[X̂f ‖ X̂b]`` (the paper's Sec. 5.4 preprocessing) is a row-local
  function of ``Xf`` and ``Xb`` (:func:`feature_rows`), run by every
  reader on the rows it reads (:class:`SearchRows`).  A ``features.npy``
  that an older version holds is never read.
- **Rows are split by a :class:`Partitioner`** (``range`` = contiguous
  blocks, ``hash`` = round-robin ``id % n_shards``); both map global ↔
  (shard, local) ids with O(1) arithmetic, no lookup tables.  The
  partition layout is fixed when a root is created.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
import time
import weakref
from dataclasses import asdict, dataclass
from dataclasses import fields as dataclass_fields
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.core.config import PANEConfig
from repro.core.embedding import PANEEmbedding
from repro.utils.fs import atomic_write, chmod_default_dir

MANIFEST_SCHEMA = "repro.serving.store/v1"
_ARRAY_FILES = ("x_forward", "x_backward", "y")
# Partitioned by row across shards; ``y`` (d × k/2) is replicated instead.
_ROW_ARRAYS = ("x_forward", "x_backward")

# The root's partition layout, written only for N > 1 shards.  v1 named
# the older layout (a separate store per shard under shards/), which
# this code does not read.
LAYOUT_FILE = "sharding.json"
LAYOUT_SCHEMA = "repro.serving.sharding/v2"

# Every in-flight staging directory starts with this prefix, so a
# publisher killed mid-publish leaves debris ``repro fsck`` can recognize
# and GC — and that ``versions()`` can never mistake for a real version
# (real versions start with "v", staging dirs with ".").
STAGING_PREFIX = ".tmp-"


@dataclass(frozen=True)
class Partitioner:
    """O(1) global ↔ (shard, local) id arithmetic for one version.

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


def shard_dir(version_dir: Path, shard: int, n_shards: int) -> Path:
    """Where shard ``shard``'s arrays live inside a version directory."""
    return version_dir if n_shards == 1 else version_dir / f"shard-{shard:04d}"


def manifest_layout(manifest: dict) -> tuple[Partitioner, list[dict]]:
    """A manifest's partitioner and ``[{shard, n_nodes}, ...]`` entries.

    Manifests written before stores could shard carry neither key; they
    describe one shard holding every row.
    """
    n_nodes = int(manifest["n_nodes"])
    if "partitioner" not in manifest:
        return Partitioner.build("range", 1, n_nodes), [{"shard": 0, "n_nodes": n_nodes}]
    return Partitioner.from_manifest(manifest["partitioner"]), list(manifest["shards"])


def shard_array_shape(manifest: dict, name: str, n_rows: int) -> list:
    """The shape array ``name`` must have in a shard holding ``n_rows`` rows."""
    shape = list(manifest["arrays"][name]["shape"])
    return [n_rows, *shape[1:]] if name in _ROW_ARRAYS else shape


# Bytes of transient buffers when a whole matrix is derived (the exact
# backend's float32 copy): bounds the buffers, not the result.  1 MiB
# derived 131 072 × 64 rows in 65–75 ms, 4 MiB in 145–190 (2 MiB L2).
_STREAM_BYTES = 1 << 20


def feature_rows(xf_rows, xb_rows) -> np.ndarray:
    """The one definition of a search row: the unit-row ``[X̂f ‖ X̂b]``.

    Each k/2 half is scaled to unit L2 norm, then the concatenation (zero
    halves stay zero).  Rows are reduced one by one, so a row's bits do
    not depend on the rows derived with it.  Takes one row or ``(m, k/2)``
    blocks.
    """
    xf_rows = np.asarray(xf_rows, dtype=np.float64)
    half = xf_rows.shape[-1]
    out = np.empty(xf_rows.shape[:-1] + (2 * half,))
    out[..., :half] = xf_rows
    out[..., half:] = xb_rows
    for view in (out.reshape(-1, 2, half), out.reshape(-1, 1, 2 * half)):
        norms = np.sqrt(np.add.reduce(view * view, axis=2, keepdims=True))
        view /= np.where(norms == 0, 1.0, norms)
    return out


class RowReader:
    """Rows of one ``.npy`` matrix read with ``pread``, never through a mapping.

    A touched page of a mapping stays in the process's RSS (``RssFile``)
    while the mapping lives; ``pread`` copies out of the page cache into
    a buffer the process frees.  So the serving read path reads ``Xf``
    and ``Xb`` rows through readers (:class:`SearchRows`): a version's
    rows cost page cache, not resident memory.  ``reader[i]`` is one
    row, ``reader[ids]`` a gather (one ``pread`` per row) and
    ``reader[start:stop]`` one ``pread``.  The descriptor closes when the
    reader is collected: with the last snapshot pinning its version.
    """

    def __init__(self, path, *, offset: int, shape: tuple, dtype=np.float64) -> None:
        self.path = str(path)
        self.offset = int(offset)
        self.shape = (int(shape[0]), int(shape[1]))
        self.dtype = np.dtype(dtype)
        self._row_bytes = self.shape[1] * self.dtype.itemsize
        self._fd = os.open(self.path, os.O_RDONLY)
        weakref.finalize(self, os.close, self._fd)

    @classmethod
    def of(cls, array):
        """A reader over the ``.npy`` file ``array`` maps whole (what
        :meth:`EmbeddingStore.open` returns), else ``array`` itself."""
        filename = getattr(array, "filename", None)
        if filename is None or array.ndim != 2 or not array.flags.c_contiguous:
            return array
        try:
            if os.path.getsize(filename) != array.offset + array.nbytes:
                return array
            return cls(filename, offset=array.offset, shape=array.shape, dtype=array.dtype)
        except OSError:
            return array

    def __getitem__(self, ids) -> np.ndarray:
        n, dim = self.shape
        if isinstance(ids, slice):
            start, stop, _ = ids.indices(n)
            return self._read(start, np.empty((max(0, stop - start), dim), self.dtype))
        ids = np.asarray(ids, dtype=np.intp)
        flat = ids.reshape(-1)
        if flat.size and (flat.min() < -n or flat.max() >= n):
            raise IndexError(f"row index out of range for {n} rows")
        flat = flat % n
        out = np.empty((flat.size, dim), self.dtype)
        for i, row in enumerate(flat.tolist()):
            self._read(row, out[i : i + 1])
        return out.reshape(ids.shape + (dim,))

    def _read(self, start: int, out: np.ndarray) -> np.ndarray:
        """Rows from ``start`` on, one ``pread`` filling ``out``."""
        got = os.preadv(self._fd, [out], self.offset + int(start) * self._row_bytes)
        if got != out.nbytes:  # a regular file reads short only at its end
            raise OSError(errno.EIO, f"{self.path} ends before row {start + len(out)}")
        return out


class SearchRows:
    """A shard's ``n × k`` float64 search rows, derived on read from ``Xf`` / ``Xb``.

    ``rows[i]``, ``rows[ids]`` and ``rows[start:stop]`` read those rows
    of both halves (by ``pread`` when the halves map whole ``.npy``
    files, :class:`RowReader`) and run :func:`feature_rows` on them, so
    the mappings are never touched.
    """

    ndim = 2
    dtype = np.dtype(np.float64)

    def __init__(self, x_forward, x_backward) -> None:
        self._halves = (RowReader.of(x_forward), RowReader.of(x_backward))
        self.shape = (int(x_forward.shape[0]), int(x_forward.shape[1] + x_backward.shape[1]))

    def __getitem__(self, ids) -> np.ndarray:
        forward, backward = self._halves
        return feature_rows(forward[ids], backward[ids])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The whole matrix (cast to ``dtype``), derived chunk by chunk: a
        chunk's two halves, rows and squares fit in :data:`_STREAM_BYTES`."""
        n, dim = self.shape
        out = np.empty(self.shape, np.float64 if dtype is None else dtype)
        step = max(1, _STREAM_BYTES // (3 * dim * self.dtype.itemsize))
        for start in range(0, n, step):
            out[start : start + step] = self[start : start + step]
        return out


@dataclass(frozen=True)
class StoredShard:
    """One shard of an opened version: its arrays as read-only mmaps."""

    shard: int
    x_forward: np.ndarray
    x_backward: np.ndarray
    y: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.x_forward.shape[0]

    @cached_property
    def features(self) -> SearchRows:
        """The shard's search rows (:class:`SearchRows`), opened on first use."""
        return SearchRows(self.x_forward, self.x_backward)


class _ShardedRows:
    """A read-only virtual row matrix over per-shard mmaps or search rows.

    Supports exactly what the :class:`~repro.serving.service.QueryService`
    needs from a stored array: integer / fancy row indexing (gather) and
    ``@ vector`` (per-shard matmul scattered back into global row order) —
    so the service's query paths work unchanged on a sharded snapshot.
    """

    def __init__(self, stored: "StoredEmbedding", name: str) -> None:
        self._stored = stored
        self._arrays = [getattr(shard, name) for shard in stored.shards]

    @property
    def shape(self) -> tuple[int, int]:
        return (self._stored.n_nodes, self._arrays[0].shape[1])

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape, dtype=np.float64 if dtype is None else dtype)
        for shard, array in enumerate(self._arrays):
            out[self._stored.partitioner.shard_members(shard)] = np.asarray(array)
        return out

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
class StoredEmbedding:
    """A published version opened for serving.

    Per-row data stays memory-mapped inside ``shards``.  With one shard
    the row arrays *are* that shard's mmaps (and its :class:`SearchRows`);
    with more they are gather views (:class:`_ShardedRows`) answering the
    same row reads and ``@ vector`` products in global row order.
    """

    version: str
    path: Path
    manifest: dict
    config: PANEConfig
    partitioner: Partitioner
    shards: tuple[StoredShard, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_nodes(self) -> int:
        return self.partitioner.n_nodes

    @property
    def n_attributes(self) -> int:
        return self.y.shape[0]

    @property
    def y(self) -> np.ndarray:
        # Y is replicated per shard; any copy serves attribute queries.
        return self.shards[0].y

    @property
    def features(self):
        """The search rows, derived on read (:class:`SearchRows`)."""
        return self._rows("features")

    @property
    def x_forward(self):
        return self._rows("x_forward")

    @property
    def x_backward(self):
        return self._rows("x_backward")

    def _rows(self, name: str):
        if len(self.shards) == 1:
            return getattr(self.shards[0], name)
        return _ShardedRows(self, name)

    def to_embedding(self) -> PANEEmbedding:
        """Materialize an in-memory :class:`PANEEmbedding` (copies the mmaps)."""
        return PANEEmbedding(
            x_forward=np.array(self.x_forward),
            x_backward=np.array(self.x_backward),
            y=np.array(self.y),
            config=self.config,
        )


def search_features(embedding: PANEEmbedding) -> np.ndarray:
    """The search rows of every node (:func:`feature_rows`): cosine over
    them equals cosine over ``node_embeddings()``."""
    return feature_rows(embedding.x_forward, embedding.x_backward)


class EmbeddingStore:
    """Versioned on-disk embedding store with atomic publish and rollback.

    Parameters
    ----------
    root:
        Store root.  An existing root fixes ``n_shards`` and
        ``partition``; passing conflicting values raises.
    n_shards:
        Row shards when creating a root (default 1: unsharded).
    partition:
        ``"range"`` (contiguous blocks, the default) or ``"hash"``
        (round-robin) row partitioning of a sharded root.

    Examples
    --------
    >>> store = EmbeddingStore(tmp_dir)          # doctest: +SKIP
    >>> v1 = store.publish(embedding)            # doctest: +SKIP
    >>> stored = store.open()                    # latest   # doctest: +SKIP
    >>> store.rollback()                         # back to the previous version
    """

    def __init__(
        self,
        root: str | Path,
        *,
        n_shards: int | None = None,
        partition: str | None = None,
    ) -> None:
        self.root = Path(root)
        recorded = self._recorded_layout()
        if recorded is None:
            layout = (1 if n_shards is None else n_shards, partition or "range")
        else:
            layout = recorded
            if n_shards is not None and n_shards != layout[0]:
                held = (
                    f"store at {self.root} has {layout[0]} shards" if layout[0] > 1
                    else f"{self.root} is an existing unsharded store"
                )
                raise ValueError(f"{held}; cannot reopen with n_shards={n_shards}")
        if layout[0] < 1:
            raise ValueError(f"n_shards must be >= 1, got {layout[0]}")
        if partition is not None and layout[0] == 1:
            raise ValueError(
                f"partition={partition!r} only applies to sharded stores (n_shards > 1)"
            )
        if partition is not None and partition != layout[1]:
            raise ValueError(
                f"store at {self.root} is {layout[1]}-partitioned; "
                f"cannot reopen with partition={partition!r}"
            )
        if layout[1] not in ("range", "hash"):
            raise ValueError(f"partition must be range/hash, got {layout[1]!r}")
        self.n_shards, self.partition = layout
        (self.root / "versions").mkdir(parents=True, exist_ok=True)
        if recorded is None and self.n_shards > 1:
            spec = {
                "schema": LAYOUT_SCHEMA,
                "n_shards": self.n_shards,
                "partition": self.partition,
            }
            atomic_write(
                self.root / LAYOUT_FILE,
                lambda handle: handle.write(json.dumps(spec, indent=2) + "\n"),
                text=True,
            )

    def _recorded_layout(self) -> tuple[int, str] | None:
        """``(n_shards, partition)`` an existing root fixes, else ``None``.

        A root with published versions and no layout file is unsharded.
        """
        path = self.root / LAYOUT_FILE
        if path.is_file():
            try:
                spec = json.loads(path.read_text())
                schema, layout = spec.get("schema"), (int(spec["n_shards"]), spec["partition"])
            except (AttributeError, KeyError, TypeError, ValueError) as error:
                raise ValueError(f"{path} is unreadable: {error!r}") from error
            if schema != LAYOUT_SCHEMA:
                raise ValueError(
                    f"{path} is {schema!r}, not {LAYOUT_SCHEMA!r}: a sharded "
                    "root in the older one-store-per-shard layout; republish "
                    "into a new root"
                )
            return layout
        versions = self.root / "versions"
        if versions.is_dir() and any(versions.iterdir()):
            return 1, "range"
        return None

    # -- queries -------------------------------------------------------
    def versions(self) -> list[str]:
        """All published version names, oldest first."""
        return sorted(
            entry.name
            for entry in (self.root / "versions").iterdir()
            if entry.is_dir() and entry.name.startswith("v")
        )

    def latest(self) -> str | None:
        """The version the ``LATEST`` pointer names (``None`` if empty)."""
        pointer = self.root / "LATEST"
        if not pointer.exists():
            return None
        name = pointer.read_text().strip()
        return name or None

    def manifest(self, version: str) -> dict:
        return json.loads((self._version_dir(version) / "manifest.json").read_text())

    # -- publish / open ------------------------------------------------
    def publish(
        self,
        embedding: PANEEmbedding,
        *,
        metadata: dict | None = None,
        set_latest: bool = True,
        faults=None,
    ) -> str:
        """Persist ``embedding`` as a new immutable version; return its name.

        Every shard's rows and the manifest are staged in one temp
        directory and renamed into place, so concurrent readers never
        observe a partially written version.  Concurrent *publishers* are
        safe too: if another publish claims the computed version id first,
        the rename fails and this one retries with the next id (so the
        returned name is authoritative, not the pre-computed one).  With
        ``set_latest`` (default) the ``LATEST`` pointer is swapped to the
        new version afterwards.

        ``faults`` is a :class:`~repro.serving.faults.FaultInjector` (or
        ``None`` to arm from ``REPRO_FAULTS``); its ``on_publish_step``
        hook fires after the ``arrays``, ``manifest`` and ``latest``
        steps, letting the chaos suite kill a publisher at each torn
        state that ``repro fsck`` must recover from.
        """
        if faults is None:
            from repro.serving.faults import FaultInjector

            faults = FaultInjector.from_env()
        existing = self.versions()
        next_id = 1 + (int(existing[-1][1:]) if existing else 0)
        version = f"v{next_id:08d}"

        arrays = {
            "x_forward": np.ascontiguousarray(embedding.x_forward, dtype=np.float64),
            "x_backward": np.ascontiguousarray(embedding.x_backward, dtype=np.float64),
            "y": np.ascontiguousarray(embedding.y, dtype=np.float64),
        }
        for name, array in arrays.items():
            if not np.isfinite(array).all():
                raise ValueError(f"refusing to publish non-finite {name}")
        n_nodes = int(arrays["x_forward"].shape[0])
        partitioner = Partitioner.build(self.partition, self.n_shards, n_nodes)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "version": version,
            "created_at": time.time(),
            "n_nodes": n_nodes,
            "n_attributes": int(arrays["y"].shape[0]),
            "k": int(embedding.config.k),
            "config": asdict(embedding.config),
            "arrays": {
                name: {"shape": list(array.shape), "dtype": str(array.dtype)}
                for name, array in arrays.items()
            },
            "partitioner": partitioner.to_manifest(),
            "shards": [
                {"shard": shard, "n_nodes": int(partitioner.shard_size(shard))}
                for shard in range(self.n_shards)
            ],
            "metadata": metadata or {},
        }

        staging = Path(
            tempfile.mkdtemp(prefix=f"{STAGING_PREFIX}{version}.", dir=self.root)
        )
        try:
            # mkdtemp creates 0700; published versions must be readable by
            # serving processes that may run under a different uid.
            chmod_default_dir(staging)
            for shard in range(self.n_shards):
                directory = shard_dir(staging, shard, self.n_shards)
                directory.mkdir(exist_ok=True)
                rows = (
                    slice(None) if self.n_shards == 1
                    else partitioner.shard_members(shard)
                )
                for name, array in arrays.items():
                    np.save(
                        directory / f"{name}.npy",
                        array[rows] if name in _ROW_ARRAYS else array,
                    )
            if faults is not None:
                faults.on_publish_step("arrays")
            while True:
                manifest["version"] = version
                (staging / "manifest.json").write_text(
                    json.dumps(manifest, indent=2)
                )
                if faults is not None:
                    faults.on_publish_step("manifest")
                target = self._version_dir(version)
                try:
                    os.rename(staging, target)
                    break
                except OSError as error:
                    claimed = error.errno in (errno.EEXIST, errno.ENOTEMPTY)
                    if not (claimed and target.is_dir()):
                        raise
                    # A concurrent publish won the race for this id between
                    # our versions() read and the rename; take the next slot.
                    version = f"v{int(version[1:]) + 1:08d}"
        except BaseException as error:
            from repro.serving.faults import InjectedFault

            # A soft-mode injected crash must leave the torn state on disk
            # exactly as a hard kill would — cleaning it up here would make
            # the fsck tests pass vacuously.
            if not isinstance(error, InjectedFault):
                shutil.rmtree(staging, ignore_errors=True)
            raise
        if faults is not None:
            faults.on_publish_step("latest")
        if set_latest:
            self.set_latest(version)
        return version

    def open(self, version: str | None = None) -> StoredEmbedding:
        """Open a version (default: latest) with memory-mapped arrays."""
        if version is None:
            version = self.latest()
            if version is None:
                raise FileNotFoundError(f"store at {self.root} has no versions")
        directory = self._version_dir(version)
        if not directory.is_dir():
            raise FileNotFoundError(f"version {version!r} not found in {self.root}")
        manifest = self.manifest(version)
        partitioner, entries = manifest_layout(manifest)
        shards = []
        for entry in entries:
            path = shard_dir(directory, entry["shard"], len(entries))
            arrays = {
                name: np.load(path / f"{name}.npy", mmap_mode="r")
                for name in _ARRAY_FILES
            }
            shards.append(StoredShard(shard=entry["shard"], **arrays))
        known = {f.name for f in dataclass_fields(PANEConfig)}
        config = PANEConfig(
            **{k: v for k, v in manifest["config"].items() if k in known}
        )
        return StoredEmbedding(
            version=version,
            path=directory,
            manifest=manifest,
            config=config,
            partitioner=partitioner,
            shards=tuple(shards),
        )

    # -- integrity -----------------------------------------------------
    def verify(self, version: str | None = None) -> list:
        """Integrity issues for ``version`` (default: all), empty = clean.

        Header/metadata-level checks only — manifest consistency, array
        dtype/shape vs the ``.npy`` headers, exact byte lengths — cheap
        enough to run before every open.  See
        :mod:`repro.serving.fsck` for the full sweep-and-repair story.
        """
        from repro.serving.fsck import verify_version

        targets = [version] if version is not None else self.versions()
        issues = []
        for target in targets:
            issues.extend(verify_version(self, target))
        return issues

    # -- pointer management --------------------------------------------
    def set_latest(self, version: str) -> None:
        """Atomically point ``LATEST`` at ``version`` (must exist)."""
        if not self._version_dir(version).is_dir():
            raise FileNotFoundError(f"version {version!r} not found in {self.root}")
        atomic_write(
            self.root / "LATEST",
            lambda handle: handle.write(version + "\n"),
            text=True,
        )

    def rollback(self, to: str | None = None) -> str:
        """Point ``LATEST`` at ``to`` (default: the version before latest).

        Versions are never deleted by rollback, so rolling forward again is
        just another :meth:`set_latest`.  Returns the new latest version.
        """
        if to is None:
            versions = self.versions()
            current = self.latest()
            if current not in versions:
                raise ValueError("cannot infer rollback target: no latest version")
            position = versions.index(current)
            if position == 0:
                raise ValueError(f"{current} is the oldest version; nothing to roll back to")
            to = versions[position - 1]
        self.set_latest(to)
        return to

    # ------------------------------------------------------------------
    def _version_dir(self, version: str) -> Path:
        return self.root / "versions" / version
