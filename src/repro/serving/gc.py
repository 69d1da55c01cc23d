"""Store version retention: delete superseded version directories.

The compactor publishes a new version per fold cycle, so a long-running
write workload grows the version count without bound.  ``collect_versions``
keeps the newest ``keep`` versions plus anything pinned — the ``LATEST``
target and any caller-protected versions (e.g. the one a
``QueryService`` is actively serving) are never deleted.

Exposed to operators as ``repro gc --store ROOT --keep N``.
"""

from __future__ import annotations

import shutil


def collect_versions(store, *, keep: int, protect=(), dry_run: bool = False) -> dict:
    """Delete superseded version dirs, newest ``keep`` always retained.

    Parameters
    ----------
    store:
        An open :class:`~repro.serving.store.EmbeddingStore`.
    keep:
        Number of newest versions to retain (must be >= 1).
    protect:
        Extra version names that must survive regardless of age.
    dry_run:
        Report what would be deleted without touching the filesystem.

    Returns ``{"deleted": [...], "kept": [...], "reclaimed_bytes": int}``.
    Deletion is per-version-directory — every shard of a version lives
    in it — and safe against concurrent readers on POSIX: open mmaps
    keep their data until unmapped.
    """
    if keep < 1:
        raise ValueError("keep must be at least 1")
    versions = store.versions()
    latest = store.latest()
    protected = set(protect)
    if latest is not None:
        protected.add(latest)
    survivors = set(versions[-keep:]) | (protected & set(versions))
    deleted: list[str] = []
    reclaimed = 0
    for version in versions:
        if version in survivors:
            continue
        target = store.root / "versions" / version
        size = sum(p.stat().st_size for p in target.rglob("*") if p.is_file())
        if not dry_run:
            shutil.rmtree(target)
        deleted.append(version)
        reclaimed += size
    return {
        "deleted": deleted,
        "kept": [v for v in versions if v not in deleted],
        "reclaimed_bytes": reclaimed,
        "dry_run": dry_run,
    }
