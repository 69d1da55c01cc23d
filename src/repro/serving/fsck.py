"""Store integrity checking and crash recovery (``repro fsck``).

The publish protocol makes a *completed* publish atomic, but a publisher
killed mid-publish still leaves debris behind — an abandoned ``.tmp-``
staging directory, a version renamed into place with ``LATEST`` never
advanced — and bytes on disk can rot underneath a published version
(truncated copy, bit flips, a manifest edited by hand).  This module is
the recovery half of the durability story:

- :func:`verify_version` validates one published version end to end:
  the manifest parses and matches the directory, every array file's
  ``.npy`` header agrees with the manifest's recorded shape/dtype, and
  the file's byte length equals exactly what the header promises — a
  truncated ``x_forward.npy`` is caught *before* a query process maps it.
- :func:`fsck` sweeps a whole store root, whatever its shard count (a
  version is one directory, so a torn sharded publish leaves exactly
  the debris a torn unsharded one does): every version is verified,
  orphaned staging debris is found, and the ``LATEST`` pointer is
  checked against the set of *clean* versions.  With ``repair=True`` it
  quarantines corrupt versions (moved under ``<root>/quarantine/``,
  never deleted), removes staging debris, and repoints ``LATEST`` at the
  newest version that verifies clean.
- :class:`StoreCorruptionError` is the structured refusal
  :class:`~repro.serving.service.QueryService` raises instead of
  serving a version that fails verification.

Exit-code contract (the ``repro fsck`` CLI maps
:meth:`FsckReport.exit_code` straight through): ``0`` clean, ``1``
issues found and every one of them is repairable (and was repaired when
``repair=True``), ``2`` unrecoverable — the store cannot serve even
after repair (no clean version survives, or the root is not a store).
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.serving.store import (
    _ARRAY_FILES,
    MANIFEST_SCHEMA,
    STAGING_PREFIX,
    EmbeddingStore,
    manifest_layout,
    shard_array_shape,
    shard_dir,
)

QUARANTINE_DIR = "quarantine"

# Staging-debris prefixes fsck recognizes: the current ``.tmp-`` publish
# prefix, the pre-fsck ``.staging.`` spelling (stores published by older
# code must still be sweepable), and ``atomic_write``'s ``.<name>.*.tmp``
# temp files.
_ORPHAN_PREFIXES = (STAGING_PREFIX, ".staging.")

# The issue code ``fsck --wal`` reports for each problem the WAL walk finds.
_WAL_ISSUES = {
    "bad_header": "bad_header",
    "torn_tail": "torn_segment",
    "bad_record": "bad_lsn",
    "bad_lsn": "bad_lsn",
    "epoch_regression": "epoch_regression",
    "unreachable": "bad_lsn",
}


class StoreCorruptionError(RuntimeError):
    """A store version failed verification and must not be served.

    Carries the failing version and the issue list so callers (the HTTP
    refresh handler, the CLI) can surface a structured error instead of
    whatever exception a half-mapped array would eventually raise.
    """

    def __init__(self, root, version: str, issues: "list[Issue]") -> None:
        summary = "; ".join(issue.detail for issue in issues[:3])
        more = f" (+{len(issues) - 3} more)" if len(issues) > 3 else ""
        super().__init__(
            f"store version {version!r} at {root} fails verification: "
            f"{summary}{more}"
        )
        self.root = str(root)
        self.version = version
        self.issues = issues


@dataclass(frozen=True)
class Issue:
    """One integrity finding.

    ``code`` is stable and machine-readable (``orphan_staging``,
    ``bad_manifest``, ``bad_array``, ``bad_latest``,
    ``not_a_store``); ``detail`` says what exactly is wrong;
    ``repairable`` says whether :func:`fsck` with ``repair=True`` can
    bring the store back to a clean, servable state past this issue.
    """

    code: str
    path: str
    detail: str
    repairable: bool = True
    version: str | None = None

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "detail": self.detail,
            "repairable": self.repairable,
            "version": self.version,
        }


@dataclass
class FsckReport:
    """What one :func:`fsck` sweep found (and, with repair, did)."""

    root: str
    issues: list[Issue] = field(default_factory=list)
    clean_versions: list[str] = field(default_factory=list)
    corrupt_versions: list[str] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)  # repair log, human-readable
    latest: str | None = None
    repaired: bool = False  # repair ran and handled every repairable issue

    @property
    def clean(self) -> bool:
        return not self.issues

    @property
    def unrecoverable(self) -> bool:
        """No clean version survives a store that had versions, or worse."""
        if any(not issue.repairable for issue in self.issues):
            return True
        return bool(self.corrupt_versions) and not self.clean_versions

    def exit_code(self) -> int:
        """The ``repro fsck`` contract: 0 clean / 1 repaired / 2 unrecoverable."""
        if self.unrecoverable:
            return 2
        return 0 if self.clean else 1

    def as_dict(self) -> dict:
        return {
            "root": self.root,
            "clean": self.clean,
            "unrecoverable": self.unrecoverable,
            "exit_code": self.exit_code(),
            "latest": self.latest,
            "clean_versions": list(self.clean_versions),
            "corrupt_versions": list(self.corrupt_versions),
            "issues": [issue.as_dict() for issue in self.issues],
            "actions": list(self.actions),
            "repaired": self.repaired,
        }


# -- single-version verification ---------------------------------------
def _read_npy_header(path: Path) -> tuple[tuple[int, ...], np.dtype, int]:
    """Parse a ``.npy`` header: (shape, dtype, data offset).

    Raises ``ValueError`` on any malformation — bad magic, unsupported
    format version, unparsable header dict.
    """
    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        readers = {
            (1, 0): np.lib.format.read_array_header_1_0,
            (2, 0): np.lib.format.read_array_header_2_0,
        }
        reader = readers.get(version)
        if reader is None:
            raise ValueError(f"unsupported .npy format version {version}")
        shape, fortran_order, dtype = reader(handle)
        if fortran_order:
            raise ValueError("fortran-order arrays are never published")
        return shape, dtype, handle.tell()


def verify_version(store: EmbeddingStore, version: str) -> list[Issue]:
    """Integrity issues for one published version (empty list = clean).

    Checks are header/metadata-level only — no array data is read — so a
    verification pass costs stats and a few KB of headers, cheap enough
    to run on every :meth:`QueryService.activate`.  Every shard's arrays
    are checked against the manifest; a 1-shard version keeps them at the
    top of its directory, so its issue paths are the unsharded ones.
    """
    directory = store.root / "versions" / version
    issues: list[Issue] = []

    def issue(code: str, path: Path, detail: str) -> None:
        issues.append(
            Issue(code=code, path=str(path), detail=detail, version=version)
        )

    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        issue("bad_manifest", manifest_path, f"{version}: manifest.json missing")
        return issues
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        issue("bad_manifest", manifest_path, f"{version}: manifest unreadable: {error}")
        return issues
    if not isinstance(manifest, dict) or manifest.get("schema") != MANIFEST_SCHEMA:
        issue(
            "bad_manifest", manifest_path,
            f"{version}: manifest schema is {manifest.get('schema')!r}, "
            f"expected {MANIFEST_SCHEMA!r}",
        )
        return issues
    if manifest.get("version") != version:
        issue(
            "bad_manifest", manifest_path,
            f"{version}: manifest names version {manifest.get('version')!r}",
        )
    try:
        _, entries = manifest_layout(manifest)
        expected_shapes = [
            {
                name: shard_array_shape(manifest, name, int(entry["n_nodes"]))
                for name in _ARRAY_FILES
            }
            for entry in entries
        ]
        dtypes = {name: manifest["arrays"][name]["dtype"] for name in _ARRAY_FILES}
    except (KeyError, TypeError, ValueError) as error:
        issue(
            "bad_manifest", manifest_path,
            f"{version}: manifest lacks its array or shard table: {error!r}",
        )
        return issues
    if len(entries) != store.n_shards:
        issue(
            "bad_manifest", manifest_path,
            f"{version}: manifest records {len(entries)} shard(s), the store "
            f"root has {store.n_shards}",
        )
        return issues

    for shard, shapes in enumerate(expected_shapes):
        shard_path = shard_dir(directory, shard, len(entries))
        prefix = "" if shard_path == directory else f"{shard_path.name}/"
        for name in _ARRAY_FILES:
            array_path = shard_path / f"{name}.npy"
            label = f"{version}: {prefix}{name}.npy"
            if not array_path.is_file():
                issue("bad_array", array_path, f"{label} missing")
                continue
            try:
                shape, dtype, offset = _read_npy_header(array_path)
            except (OSError, ValueError) as error:
                issue("bad_array", array_path, f"{label} header unreadable: {error}")
                continue
            if list(shape) != shapes[name] or str(dtype) != dtypes[name]:
                issue(
                    "bad_array", array_path,
                    f"{label} is {dtype} {list(shape)}, manifest records "
                    f"{dtypes[name]} {shapes[name]}",
                )
                continue
            expected = offset + dtype.itemsize * math.prod(shape)
            actual = array_path.stat().st_size
            if actual != expected:
                kind = "truncated" if actual < expected else "oversized"
                issue(
                    "bad_array", array_path,
                    f"{label} {kind}: {actual} bytes on disk, "
                    f"header promises {expected}",
                )
    return issues


# -- whole-store sweep -------------------------------------------------
def find_orphans(root: Path) -> list[Path]:
    """Staging debris under ``root``: abandoned publish/atomic-write temps."""
    if not root.is_dir():
        return []
    orphans = []
    for entry in sorted(root.iterdir()):
        name = entry.name
        if name.startswith(_ORPHAN_PREFIXES):
            orphans.append(entry)
        elif name.startswith(".") and name.endswith(".tmp") and entry.is_file():
            orphans.append(entry)  # atomic_write temp left by a kill
    return orphans


def _quarantine(root: Path, target: Path, report: FsckReport) -> None:
    """Move ``target`` under ``<root>/quarantine/`` (never delete data)."""
    quarantine = root / QUARANTINE_DIR
    quarantine.mkdir(exist_ok=True)
    destination = quarantine / target.name
    suffix = 0
    while destination.exists():
        suffix += 1
        destination = quarantine / f"{target.name}.{suffix}"
    target.rename(destination)
    report.actions.append(f"quarantined {target.name} -> {destination.relative_to(root)}")


def _sweep(store: EmbeddingStore, *, repair: bool) -> FsckReport:
    root = store.root
    report = FsckReport(root=str(root))

    for orphan in find_orphans(root):
        report.issues.append(
            Issue(
                code="orphan_staging",
                path=str(orphan),
                detail=f"abandoned staging debris {orphan.name} "
                "(publisher killed mid-publish)",
            )
        )
        if repair:
            if orphan.is_dir():
                shutil.rmtree(orphan, ignore_errors=True)
            else:
                orphan.unlink(missing_ok=True)
            report.actions.append(f"removed staging debris {orphan.name}")

    for version in store.versions():
        issues = verify_version(store, version)
        report.issues.extend(issues)
        if issues:
            report.corrupt_versions.append(version)
            if repair:
                _quarantine(root, root / "versions" / version, report)
        else:
            report.clean_versions.append(version)

    _check_latest(store, report, repair=repair)
    _check_datasets(store, report, repair=repair)
    report.repaired = repair and not report.unrecoverable and bool(report.actions)
    return report


def _check_datasets(store, report: FsckReport, *, repair: bool) -> None:
    """Validate the dataset registry (``datasets.json``) against the store.

    Two failure shapes: an unreadable/ill-schemed registry file (repair
    quarantines it — losing aliases is recoverable, serving garbage is
    not), and a *dangling* dataset whose pinned version is gone (repair
    drops the name, so GC protection reflects versions that exist).
    """
    from repro.serving.datasets import DatasetError, DatasetRegistry

    registry = DatasetRegistry(store)
    if not registry.path.exists():
        return
    try:
        registry.load()
    except DatasetError as error:
        report.issues.append(
            Issue(code="bad_datasets", path=str(registry.path), detail=str(error))
        )
        if repair:
            _quarantine(Path(report.root), registry.path, report)
        return
    for name, version in sorted(registry.dangling().items()):
        report.issues.append(
            Issue(
                code="dataset_dangling",
                path=str(registry.path),
                detail=f"dataset {name!r} pins missing version {version!r}",
                version=version,
            )
        )
        if repair:
            registry.remove(name)
            report.actions.append(
                f"dropped dangling dataset {name!r} (version {version!r} is gone)"
            )


def _check_latest(store, report: FsckReport, *, repair: bool) -> None:
    """Validate (and with ``repair`` fix) the ``LATEST`` pointer.

    The repair repoints it at the newest version that verified clean, or
    removes the pointer when nothing clean remains.
    """
    root = Path(report.root)
    pointer = root / "LATEST"
    latest = store.latest()
    report.latest = latest
    ok = (
        latest in report.clean_versions
        if latest is not None
        else not report.clean_versions  # empty store: no pointer is fine
    )
    if ok:
        return
    if latest is None:
        detail = "LATEST pointer missing but clean versions exist"
    elif latest in report.corrupt_versions:
        detail = f"LATEST points at corrupt version {latest!r}"
    else:
        detail = f"LATEST points at nonexistent version {latest!r}"
    report.issues.append(
        Issue(code="bad_latest", path=str(pointer), detail=detail)
    )
    if not repair:
        return
    if report.clean_versions:
        newest = report.clean_versions[-1]
        store.set_latest(newest)
        report.latest = newest
        report.actions.append(f"repointed LATEST at {newest}")
    elif pointer.exists():
        pointer.unlink()
        report.latest = None
        report.actions.append("removed dangling LATEST pointer")


def _journal_repairs(journal, report: FsckReport, sweep: str) -> None:
    """Record the repairs a sweep made in the ops event journal."""
    if journal is None or not report.actions:
        return
    journal.emit(
        "fsck_repair",
        sweep=sweep,
        root=report.root,
        actions=list(report.actions),
        issues=len(report.issues),
        repaired=report.repaired,
    )


def fsck(root, *, repair: bool = False, journal=None) -> FsckReport:
    """Sweep a store root (any shard count) for damage.

    ``repair=False`` only reports; ``repair=True`` additionally removes
    staging debris, quarantines corrupt versions under
    ``<root>/quarantine/`` and repairs the ``LATEST`` pointer.  Never
    deletes version data — quarantined directories can be inspected or
    restored by hand.  Repairs taken are appended to ``journal`` (an
    :class:`~repro.serving.obs.journal.EventJournal`) when one is given.
    """
    root = Path(root)
    report = FsckReport(root=str(root))
    # Don't let EmbeddingStore.__init__ mkdir a store skeleton into a
    # path that plainly isn't one — report it instead.
    detail = f"{root} is not an embedding store root"
    store = None
    if (root / "versions").is_dir():
        try:
            store = EmbeddingStore(root)
        except (OSError, ValueError) as error:
            detail = f"{root}: unreadable store layout: {error}"
    if store is None:
        report.issues.append(
            Issue(code="not_a_store", path=str(root), detail=detail, repairable=False)
        )
        return report
    report = _sweep(store, repair=repair)
    _journal_repairs(journal, report, "store")
    return report


# -- delta-log (WAL) sweep ---------------------------------------------
def fsck_wal(root, *, repair: bool = False, journal=None) -> FsckReport:
    """Sweep a delta-log directory (``repro fsck --wal``) for damage.

    Reuses the store sweep's report/issue machinery and exit contract:
    ``0`` clean, ``1`` repairable damage (repaired with ``repair=True``),
    ``2`` the log cannot support recovery even after repair.  Issue codes:

    - ``torn_segment`` — a segment ends mid-record (writer killed during
      an append).  Repair truncates at the last valid record, exactly
      what :class:`~repro.serving.wal.log.DeltaLog` does on open; fsck
      makes the same recovery available offline and for *non-tail*
      segments the open path refuses to touch.
    - ``bad_lsn`` — the LSN chain breaks: a record out of sequence
      inside a segment (repair truncates before it), a gap between
      segments, or a log that starts after its own checkpoint (both
      unrepairable: the missing records are simply gone).
    - ``bad_header`` — a segment file that is not a WAL segment at all;
      repair quarantines it (never deletes).
    - ``epoch_regression`` — a segment's fencing epoch is *lower* than
      its predecessor's (terms only ever go up; a mix like this means
      segments from two histories were interleaved).  Repair
      quarantines the regressed segment and everything after it.
    - ``diverged_tail`` — a ``DIVERGED`` marker left by a fenced
      standby: every record at or past ``first_diverged_lsn`` belongs
      to a dead term and was never acked under the new one.  Repair
      quarantines a byte-exact copy of the diverged suffix, truncates
      the boundary segment before the first diverged record (keeping
      every replicated record below it), and clears the marker.
    - ``bad_checkpoint`` / ``not_a_wal`` — unrecoverable as marked.

    Segments after the first damaged-and-cut point are unreachable (the
    chain is broken); repair quarantines them under
    ``<root>/quarantine/``.  Each code is one problem
    :func:`~repro.serving.wal.log.walk_segments` reports (``_WAL_ISSUES``);
    a segment it left ``valid_bytes`` in is truncated there, any other
    is quarantined.
    """
    from repro.serving.wal.compactor import BASE_GRAPH_FILE, CHECKPOINT_FILE
    from repro.serving.wal.log import walk_segments

    root = Path(root)
    report = FsckReport(root=str(root))
    segments = list(walk_segments(root)) if root.is_dir() else []
    checkpoint_path = root / CHECKPOINT_FILE
    if not root.is_dir() or (not segments and not checkpoint_path.exists()):
        report.issues.append(
            Issue(
                code="not_a_wal",
                path=str(root),
                detail=f"{root} is not a delta-log directory",
                repairable=False,
            )
        )
        return report

    checkpoint_lsn = 0
    if checkpoint_path.exists():
        try:
            checkpoint = json.loads(checkpoint_path.read_text())
            checkpoint_lsn = int(checkpoint["lsn"])
            base = checkpoint["graph"]
        except (OSError, ValueError, KeyError, TypeError) as error:
            report.issues.append(
                Issue(
                    code="bad_checkpoint",
                    path=str(checkpoint_path),
                    detail=f"checkpoint unreadable: {error}",
                    repairable=False,
                )
            )
        else:
            if not (root / base).is_file():
                report.issues.append(
                    Issue(
                        code="bad_checkpoint",
                        path=str(root / base),
                        detail=f"checkpoint names missing base graph {base!r}",
                        repairable=False,
                    )
                )
    elif (root / BASE_GRAPH_FILE).is_file():
        report.issues.append(
            Issue(
                code="bad_checkpoint",
                path=str(checkpoint_path),
                detail=f"{BASE_GRAPH_FILE} present but CHECKPOINT missing",
                repairable=False,
            )
        )

    first = segments[0][0] if segments else None
    if (
        first is not None
        and checkpoint_lsn
        and first.problem != "bad_header"
        and first.first_lsn > checkpoint_lsn + 1
    ):
        report.issues.append(
            Issue(
                code="bad_lsn",
                path=str(first.path),
                detail=(
                    f"{first.path.name}: log starts at LSN {first.first_lsn} but "
                    f"the checkpoint covers only through {checkpoint_lsn} — "
                    f"records {checkpoint_lsn + 1}..{first.first_lsn - 1} are lost"
                ),
                repairable=False,
            )
        )
    scanned: list = []  # (info, records) of surviving segments, in order
    for info, records in segments:
        name = info.path.name
        if info.error is not None:
            detail = f"{name}: {info.error}"
            if info.valid_bytes:
                detail += (
                    f"; {info.n_records} valid record(s) survive up to byte "
                    f"{info.valid_bytes}"
                )
            report.issues.append(
                Issue(
                    code=_WAL_ISSUES[info.problem],
                    path=str(info.path),
                    detail=detail,
                    # A hole in the chain: the missing records are gone.
                    repairable=info.problem != "bad_lsn",
                )
            )
            if not info.valid_bytes:
                report.corrupt_versions.append(name)
                if repair:
                    _quarantine(root, info.path, report)
                continue
            if repair:
                with open(info.path, "r+b") as handle:
                    handle.truncate(info.valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
                report.actions.append(
                    f"truncated {name} at byte {info.valid_bytes} "
                    f"({info.n_records} records kept)"
                )
        report.clean_versions.append(name)
        scanned.append((info, records))
        report.latest = f"lsn={info.last_lsn}" if info.last_lsn >= 1 else None

    _check_diverged_tail(root, report, scanned, repair=repair)

    report.repaired = repair and not report.unrecoverable and bool(report.actions)
    _journal_repairs(journal, report, "wal")
    return report


def _check_diverged_tail(
    root: Path, report: FsckReport, scanned: list, *, repair: bool
) -> None:
    """Honor a standby's ``DIVERGED`` marker (see ``wal/replication.py``).

    The marker pins ``first_diverged_lsn``: the standby held records at
    and past that LSN from an epoch the new primary's history does not
    contain.  Everything *below* it was replicated under a live term
    and must survive repair bit-identically; everything at/past it is
    quarantined (full segments moved, the boundary segment copied then
    truncated before the first diverged record) so the node can rejoin
    as a standby of the new primary.
    """
    import shutil

    from repro.serving.wal.log import encode_record
    from repro.serving.wal.replication import (
        clear_diverged_marker,
        read_diverged_marker,
    )

    marker = read_diverged_marker(root)
    if marker is None:
        return
    boundary = int(marker["first_diverged_lsn"])
    report.issues.append(
        Issue(
            code="diverged_tail",
            path=str(root / "DIVERGED"),
            detail=(
                f"records from LSN {boundary} on belong to fenced epoch "
                f"{marker.get('local_epoch')} (primary moved to epoch "
                f"{marker.get('primary_epoch')}); they were never acked "
                "under the new term"
            ),
        )
    )
    if not repair:
        return
    for info, records in scanned:
        path = info.path
        if not path.is_file():
            continue  # already quarantined by an earlier issue
        if info.first_lsn >= boundary:
            _quarantine(root, path, report)
        elif info.last_lsn >= boundary:
            # Boundary falls inside this segment: preserve the diverged
            # suffix in quarantine, then cut the live file byte-exactly
            # before record `boundary`.
            quarantine = root / QUARANTINE_DIR
            quarantine.mkdir(exist_ok=True)
            copy = quarantine / f"{path.name}.diverged"
            shutil.copyfile(path, copy)
            cut = info.header_bytes + sum(
                len(encode_record(*rec)) for rec in records if rec.lsn < boundary
            )
            with open(path, "r+b") as handle:
                handle.truncate(cut)
                handle.flush()
                os.fsync(handle.fileno())
            report.actions.append(
                f"truncated {path.name} at byte {cut} (records "
                f"{boundary}.. moved to {copy.relative_to(root)})"
            )
    _drop_diverged_epochs(root, boundary, report)
    clear_diverged_marker(root)
    report.actions.append("cleared DIVERGED marker")


def _drop_diverged_epochs(root: Path, boundary: int, report: FsckReport) -> None:
    """Rewrite ``EPOCHS`` without terms that began inside the cut tail.

    An epoch whose start LSN sits at/past the divergence boundary lived
    entirely in the quarantined suffix; leaving it in the history would
    make the reopened log claim a term it no longer holds records for
    (and skew every future fencing-boundary computation).
    """
    from repro.serving.wal.log import EPOCHS_FILE

    path = root / EPOCHS_FILE
    try:
        raw = json.loads(path.read_text())
        history = [
            entry
            for entry in raw.get("history", [])
            if int(entry["start_lsn"]) < boundary
        ]
    except (OSError, ValueError, KeyError, TypeError):
        return  # absent/unreadable: DeltaLog rebuilds it from segments
    if len(history) == len(raw.get("history", [])):
        return
    raw["history"] = history or [{"epoch": 1, "start_lsn": 1}]
    path.write_text(json.dumps(raw))
    report.actions.append(
        f"dropped {EPOCHS_FILE} entries at/past LSN {boundary}"
    )


def verify_open_target(store, version: str | None) -> None:
    """Refuse (raise) if the version a service is about to open is damaged.

    ``version=None`` resolves through the store's ``LATEST`` pointer; a
    store with no versions at all passes (the caller's ``open`` raises
    its usual ``FileNotFoundError``).  Raises
    :class:`StoreCorruptionError` listing every issue found.
    """
    target = version if version is not None else store.latest()
    if target is None or not (store.root / "versions" / target).is_dir():
        return  # open() raises the canonical missing-version error
    issues = verify_version(store, target)
    if issues:
        raise StoreCorruptionError(store.root, target, issues)
