"""Versioned, memory-mapped embedding store.

The durable half of the serving split: :class:`EmbeddingStore` persists
trained :class:`~repro.core.embedding.PANEEmbedding`s as immutable, numbered
versions that the in-memory :class:`~repro.serving.service.QueryService`
maps and serves.  Layout under the store root::

    <root>/
      LATEST                     # pointer file, swapped with os.replace
      versions/
        v00000001/
          manifest.json          # config + shapes + metadata
          x_forward.npy          # raw Xf (n × k/2)
          x_backward.npy         # raw Xb
          y.npy                  # raw Y  (d × k/2)
          features.npy           # unit-row [Xf̂ ‖ X̂b] search matrix

Design notes:

- **One ``.npy`` per array, not a single ``.npz``.**  ``np.load`` only
  honors ``mmap_mode`` for bare ``.npy`` files (zip members are read into
  memory), and the whole point of the store is that a multi-million-node
  matrix is paged in on demand rather than resident.
- **Atomic publish.**  A version is staged in a temp directory in the
  store root and ``os.rename``d into ``versions/`` — readers either see a
  complete version or none.  The ``LATEST`` pointer is a one-line file
  replaced with ``os.replace``, so "latest" flips atomically and
  :meth:`rollback` is just pointing it at an older version.
- **``features`` is precomputed at publish time**: each k/2 half is
  row-normalized, concatenated, and the concatenation normalized again —
  exactly the rows :func:`repro.search.knn.top_k_similar` scores — so
  the serving path never re-normalizes an ``n × k`` matrix per query.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from repro.core.config import PANEConfig
from repro.core.embedding import PANEEmbedding
from repro.search.knn import normalize_rows
from repro.utils.fs import atomic_write, chmod_default_dir

MANIFEST_SCHEMA = "repro.serving.store/v1"
_ARRAY_FILES = ("x_forward", "x_backward", "y", "features")

# Every in-flight staging directory starts with this prefix, so a
# publisher killed mid-publish leaves debris ``repro fsck`` can recognize
# and GC — and that ``versions()`` can never mistake for a real version
# (real versions start with "v", staging dirs with ".").
STAGING_PREFIX = ".tmp-"


@dataclass(frozen=True)
class StoredEmbedding:
    """A published version opened for serving (arrays are read-only mmaps)."""

    version: str
    path: Path
    manifest: dict
    config: PANEConfig
    x_forward: np.ndarray
    x_backward: np.ndarray
    y: np.ndarray
    features: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.y.shape[0]

    def to_embedding(self) -> PANEEmbedding:
        """Materialize an in-memory :class:`PANEEmbedding` (copies the mmaps)."""
        return PANEEmbedding(
            x_forward=np.array(self.x_forward),
            x_backward=np.array(self.x_backward),
            y=np.array(self.y),
            config=self.config,
        )


def search_features(embedding: PANEEmbedding) -> np.ndarray:
    """The unit-row ``[Xf̂ ‖ X̂b]`` matrix the serving layer searches.

    Matches :meth:`PANEEmbedding.node_embeddings(normalize=True)` followed
    by row normalization, i.e. cosine similarity over these rows equals
    cosine similarity over ``node_embeddings()``.
    """
    return normalize_rows(embedding.node_embeddings(normalize=True))


class EmbeddingStore:
    """Versioned on-disk embedding store with atomic publish and rollback.

    Examples
    --------
    >>> store = EmbeddingStore(tmp_dir)          # doctest: +SKIP
    >>> v1 = store.publish(embedding)            # doctest: +SKIP
    >>> stored = store.open()                    # latest   # doctest: +SKIP
    >>> store.rollback()                         # back to the previous version
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        (self.root / "versions").mkdir(parents=True, exist_ok=True)

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

        The version is staged in a temp directory and renamed into place,
        so concurrent readers never observe a partially written version.
        Concurrent *publishers* are safe too: if another publish claims the
        computed version id first, the rename fails and this one retries
        with the next id (so the returned name is authoritative, not the
        pre-computed one).  With ``set_latest`` (default) the ``LATEST``
        pointer is swapped to the new version afterwards.

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
            "features": search_features(embedding),
        }
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "version": version,
            "created_at": time.time(),
            "n_nodes": int(arrays["features"].shape[0]),
            "n_attributes": int(arrays["y"].shape[0]),
            "k": int(embedding.config.k),
            "config": asdict(embedding.config),
            "arrays": {
                name: {"shape": list(array.shape), "dtype": str(array.dtype)}
                for name, array in arrays.items()
            },
            "metadata": metadata or {},
        }

        staging = Path(
            tempfile.mkdtemp(prefix=f"{STAGING_PREFIX}{version}.", dir=self.root)
        )
        try:
            # mkdtemp creates 0700; published versions must be readable by
            # serving processes that may run under a different uid.
            chmod_default_dir(staging)
            for name, array in arrays.items():
                np.save(staging / f"{name}.npy", array)
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
        arrays = {
            name: np.load(directory / f"{name}.npy", mmap_mode="r")
            for name in _ARRAY_FILES
        }
        known = {f.name for f in dataclass_fields(PANEConfig)}
        config = PANEConfig(
            **{k: v for k, v in manifest["config"].items() if k in known}
        )
        return StoredEmbedding(
            version=version,
            path=directory,
            manifest=manifest,
            config=config,
            **arrays,
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

    # -- index artifact persistence ------------------------------------
    def index_path(self, version: str, kind: str) -> Path:
        """Where a ``kind`` (ivf/pq/ivfpq) index artifact lives for ``version``."""
        return self._version_dir(version) / f"index_{kind}.npz"

    def save_index(self, version: str, backend) -> Path | None:
        """Persist a built search index next to the version's arrays.

        One atomically written ``index_<kind>.npz`` per backend kind, so a
        later ``cli query`` (or service activation with ``index_cache``)
        loads the trained quantizer/codebooks instead of rebuilding them
        per invocation.  Exact backends have no trained state and return
        ``None``.  The artifact is derived data: deleting it only costs a
        rebuild.
        """
        from repro.serving.index import IVFIndex
        from repro.serving.sharding.pq import IVFPQBackend, PQBackend

        if isinstance(backend, IVFIndex):
            kind, arrays = "ivf", backend.save_arrays()
        elif isinstance(backend, IVFPQBackend):
            kind, arrays = "ivfpq", backend.save_arrays()
        elif isinstance(backend, PQBackend):
            kind, arrays = "pq", backend.save_arrays()
        else:
            return None
        if not self._version_dir(version).is_dir():
            raise FileNotFoundError(f"version {version!r} not found in {self.root}")
        path = self.index_path(version, kind)
        atomic_write(path, lambda handle: np.savez(handle, **arrays))
        return path

    def load_index(self, version: str, kind: str, features: np.ndarray):
        """Reconstruct a persisted ``kind`` index over ``features``.

        Returns ``None`` when no artifact exists (or it covers a different
        row count — impossible for untouched version dirs, cheap to guard).
        """
        from repro.serving.index import IVFIndex
        from repro.serving.sharding.pq import IVFPQBackend, PQBackend

        loaders = {
            "ivf": IVFIndex.from_arrays,
            "pq": PQBackend.from_arrays,
            "ivfpq": IVFPQBackend.from_arrays,
        }
        if kind not in loaders:
            return None
        path = self.index_path(version, kind)
        if not path.is_file():
            return None
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        try:
            return loaders[kind](features, arrays)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    def _version_dir(self, version: str) -> Path:
        return self.root / "versions" / version
