"""Named datasets over store versions: aliases, WAL diffs, retention.

A *dataset* is a stable operator-facing name (``prod``, ``eval-2026q3``)
pinned to one immutable store version.  Names live in a single
``datasets.json`` at the store root, written atomically, so they survive
publishes, rollbacks, and GC sweeps — and make those sweeps safe: any
version a dataset names is protected from
:func:`repro.serving.gc.collect_versions`.

Because the write path is a WAL (:mod:`repro.serving.wal.log`) and every
compacted version's manifest records the ``applied_lsn`` it folded
through, the *difference* between two versions is not a guess: it is the
fold of the log records in ``(applied_lsn(A), applied_lsn(B)]``.
:func:`diff_versions` computes exactly that, with an explicit coverage
check — if pruning already deleted segments inside the range, the diff
refuses rather than silently under-reporting.

Registry file layout::

    {"schema": "repro.serving.datasets/v1",
     "datasets": {"prod": {"version": "v00000007",
                           "created_at": ..., "updated_at": ...,
                           "note": "..."}}}
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import numpy as np

from repro.dynamic.delta import GraphDelta
from repro.utils.fs import atomic_write

DATASETS_FILE = "datasets.json"
DATASETS_SCHEMA = "repro.serving.datasets/v1"

# Version directories are ``v`` + 8 digits; a dataset name must never be
# mistakable for one, so ``resolve`` stays unambiguous.
_VERSION_RE = re.compile(r"^v\d{8}$")
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class DatasetError(ValueError):
    """A dataset operation failed validation (unknown name, bad ref, ...)."""


def applied_lsn(store, version: str) -> int:
    """The WAL offset ``version`` folded through (0 for pre-WAL versions)."""
    manifest = store.manifest(version)
    return int((manifest.get("metadata") or {}).get("applied_lsn", 0))


class DatasetRegistry:
    """Named aliases over a store's versions, persisted in ``datasets.json``.

    Stateless between calls: every operation re-reads the registry file,
    so concurrent CLI invocations and a serving process see one source
    of truth (last atomic write wins, never a torn file).
    """

    def __init__(self, store) -> None:
        self.store = store
        self.path = Path(store.root) / DATASETS_FILE

    # -- file I/O -------------------------------------------------------
    def load(self) -> dict:
        """``name -> entry`` mapping (empty when no registry exists)."""
        if not self.path.exists():
            return {}
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError) as error:
            raise DatasetError(f"unreadable {DATASETS_FILE}: {error}") from error
        if not isinstance(raw, dict) or raw.get("schema") != DATASETS_SCHEMA:
            raise DatasetError(
                f"{DATASETS_FILE} has unknown schema "
                f"{raw.get('schema') if isinstance(raw, dict) else type(raw).__name__!r}"
            )
        datasets = raw.get("datasets")
        if not isinstance(datasets, dict):
            raise DatasetError(f"{DATASETS_FILE} 'datasets' must be an object")
        return datasets

    def _save(self, datasets: dict) -> None:
        payload = {"schema": DATASETS_SCHEMA, "datasets": datasets}
        atomic_write(
            self.path,
            lambda handle: handle.write(json.dumps(payload, indent=2) + "\n"),
            text=True,
        )

    # -- mutation -------------------------------------------------------
    def assign(self, name: str, version: str, *, note: str | None = None) -> dict:
        """Point ``name`` at ``version`` (which must exist); returns the entry."""
        if not _NAME_RE.match(name or ""):
            raise DatasetError(
                f"invalid dataset name {name!r}: letters, digits, '.', '_', "
                "'-' only (max 64 chars)"
            )
        if _VERSION_RE.match(name):
            raise DatasetError(
                f"dataset name {name!r} looks like a version id; pick "
                "a name that cannot shadow one"
            )
        if version not in self.store.versions():
            raise DatasetError(f"version {version!r} not found in the store")
        datasets = self.load()
        now = time.time()
        entry = dict(datasets.get(name) or {"created_at": now})
        entry.update({"version": version, "updated_at": now})
        if note is not None:
            entry["note"] = note
        datasets[name] = entry
        self._save(datasets)
        return entry

    def remove(self, name: str) -> dict:
        """Drop ``name``; returns its last entry. Unknown names raise."""
        datasets = self.load()
        if name not in datasets:
            raise DatasetError(f"unknown dataset {name!r}")
        entry = datasets.pop(name)
        self._save(datasets)
        return entry

    # -- queries --------------------------------------------------------
    def resolve(self, ref: str) -> str:
        """A dataset name or a raw version id → the version id."""
        if _VERSION_RE.match(ref):
            return ref
        datasets = self.load()
        if ref in datasets:
            return datasets[ref]["version"]
        raise DatasetError(f"unknown dataset or version {ref!r}")

    def protected_versions(self) -> set[str]:
        """Every version some dataset names (the GC protection set)."""
        return {entry["version"] for entry in self.load().values()}

    def list_rows(self) -> list[dict]:
        """One summary row per dataset, name-sorted, for ``dataset list``."""
        versions = set(self.store.versions())
        latest = self.store.latest()
        datasets = self.load()
        rows = []
        for name in sorted(datasets):
            entry = datasets[name]
            version = entry["version"]
            row = {
                "name": name,
                "version": version,
                "exists": version in versions,
                "is_latest": version == latest,
                "created_at": entry.get("created_at"),
                "updated_at": entry.get("updated_at"),
                "note": entry.get("note"),
            }
            if row["exists"]:
                manifest = self.store.manifest(version)
                row["n_nodes"] = manifest.get("n_nodes")
                row["applied_lsn"] = int(
                    (manifest.get("metadata") or {}).get("applied_lsn", 0)
                )
            rows.append(row)
        return rows

    def dangling(self) -> dict[str, str]:
        """``name -> missing version`` for names whose version is gone."""
        versions = set(self.store.versions())
        return {
            name: entry["version"]
            for name, entry in self.load().items()
            if entry["version"] not in versions
        }


def _changed_nodes(delta) -> np.ndarray:
    """Sorted unique node ids a folded delta touches."""
    parts = []
    for edges in (delta.add_edges, delta.remove_edges):
        if edges is not None and len(edges):
            parts.append(np.asarray(edges, dtype=np.int64).ravel())
    if delta.add_associations is not None and len(delta.add_associations):
        parts.append(
            np.asarray(delta.add_associations, dtype=np.float64)[:, 0].astype(np.int64)
        )
    if delta.remove_associations is not None and len(delta.remove_associations):
        parts.append(np.asarray(delta.remove_associations, dtype=np.int64)[:, 0])
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def diff_versions(store, log, ref_a: str, ref_b: str, *, directed: bool = True):
    """What changed between two versions, folded from the WAL.

    ``ref_a`` / ``ref_b`` are dataset names or version ids.  Returns
    ``(report, delta)``: a JSON-safe report and the folded
    :class:`~repro.dynamic.delta.GraphDelta` covering
    ``(applied_lsn(A), applied_lsn(B)]``.  Raises :class:`DatasetError`
    when A is newer than B or pruning removed records inside the range
    (an under-reported diff is worse than no diff).
    """
    registry = DatasetRegistry(store)
    version_a = registry.resolve(ref_a)
    version_b = registry.resolve(ref_b)
    for version in (version_a, version_b):
        if version not in store.versions():
            raise DatasetError(f"version {version!r} not found in the store")
    lsn_a = applied_lsn(store, version_a)
    lsn_b = applied_lsn(store, version_b)
    if lsn_a > lsn_b:
        raise DatasetError(
            f"{ref_a} ({version_a}, lsn {lsn_a}) is newer than "
            f"{ref_b} ({version_b}, lsn {lsn_b}); diff runs old -> new"
        )
    report = {
        "from": {"ref": ref_a, "version": version_a, "applied_lsn": lsn_a},
        "to": {"ref": ref_b, "version": version_b, "applied_lsn": lsn_b},
        "lsn_range": [lsn_a + 1, lsn_b] if lsn_b > lsn_a else [],
    }
    if lsn_a == lsn_b:
        delta = GraphDelta()
        report.update(_delta_summary(delta))
        return report, delta

    view = log.inspect()
    first_available = int(view["first_lsn"]) if view["n_segments"] else 0
    last_available = int(view["last_lsn"])
    # Coverage: the oldest surviving segment must start at or before the
    # first LSN the diff needs, and the log must reach lsn_b.
    if view["n_segments"] == 0 or first_available > lsn_a + 1 or last_available < lsn_b:
        raise DatasetError(
            f"WAL does not cover LSNs ({lsn_a}, {lsn_b}]: log holds "
            f"[{first_available}, {last_available}] — records were pruned "
            "or the log was reset; the diff would under-report"
        )
    delta, folded_through = log.replay(lsn_a, end_lsn=lsn_b, directed=directed)
    if folded_through != lsn_b:
        raise DatasetError(
            f"WAL replay stopped at LSN {folded_through}, short of {lsn_b} "
            "(damaged log?); run `repro fsck --wal` and retry"
        )
    report.update(_delta_summary(delta))
    return report, delta


def _delta_summary(delta) -> dict:
    changed = _changed_nodes(delta)

    def count(array) -> int:
        return 0 if array is None else int(len(array))

    return {
        "events": {
            "add_edges": count(delta.add_edges),
            "remove_edges": count(delta.remove_edges),
            "add_associations": count(delta.add_associations),
            "remove_associations": count(delta.remove_associations),
        },
        "n_changed_nodes": int(changed.size),
        "changed_nodes": [int(node) for node in changed],
    }


def retain(store, *, keep: int, protect=(), dry_run: bool = False) -> dict:
    """GC superseded versions, never deleting one a dataset names.

    A thin policy layer over :func:`repro.serving.gc.collect_versions`:
    the protection set is the union of the caller's ``protect`` and
    every version in the dataset registry.  The report gains a
    ``"protected"`` key listing the dataset-pinned versions so an
    operator can see *why* an old version survived.
    """
    from repro.serving.gc import collect_versions

    pinned = DatasetRegistry(store).protected_versions()
    result = collect_versions(
        store, keep=keep, protect=set(protect) | pinned, dry_run=dry_run
    )
    result["protected"] = sorted(pinned)
    return result
