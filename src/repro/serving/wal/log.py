"""Durable append-only delta log (write-ahead log) for graph upserts.

The log is the single durable copy of every accepted write, in the
LogBase mold: fixed-format, checksummed records appended to segment
files, fsync'd before the caller is acked, and replayed into a
:class:`~repro.dynamic.delta.GraphDelta` on recovery.

Layout of a segment file ``{first_lsn:016d}.wal``::

    segment header:  magic "RWL1" | <I format version | <Q first_lsn
                     | <Q epoch                     (format version 2+)
    record:          <Q lsn | <B kind | <I payload_len | payload | <I crc32

The CRC covers the record header and payload.  LSNs are strictly
consecutive within and across segments, starting at 1; a gap is
corruption.  Four event kinds mirror the four ``GraphDelta`` fields:
``add_edge``/``remove_edge`` carry ``<qq`` (source, target) and
``add_assoc``/``remove_assoc`` carry ``<qqd`` / ``<qq`` for
(node, attribute[, weight]).

The *epoch* is the replication fencing term: a monotonically
increasing integer stamped into every segment header (format v1
segments, written before replication existed, implicitly carry epoch
1).  Promotion of a standby bumps the epoch (:meth:`DeltaLog.bump_epoch`
seals the active segment and opens a fresh one under the new epoch), so
a log can never contain an epoch that decreases with the LSN order —
that state is ``epoch_regression`` corruption.  The per-epoch start
LSNs are mirrored into an ``EPOCHS`` json file so the fencing boundary
survives segment pruning.

Every record here and every replication frame (``replication.py``) is
*sealed* the same way — ``header | payload | <I crc32(header + payload)``,
the payload length being the header's last field — by :func:`seal`, and
decoded by one loop, :func:`unseal`.

The segment files are listed and chain-checked in one place,
:func:`walk_segments`; recovery, the readers, the replication feed and
``repro fsck --wal`` are policies over the problems it reports.  A torn
tail — a partially written final record, the normal residue of a crash
mid-append — is tolerated: opening a :class:`DeltaLog` truncates the last
segment at the last valid record boundary.  Corruption anywhere else is
refused here and repaired by ``repro fsck --wal``.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.dynamic.delta import GraphDelta
from repro.utils.fs import atomic_write, chmod_default_dir, chmod_default_file

SEGMENT_SUFFIX = ".wal"
FORMAT_VERSION = 2
EPOCHS_FILE = "EPOCHS"
EPOCHS_SCHEMA = "repro.serving.wal.epochs/v1"

_SEG_MAGIC = b"RWL1"
_SEG_HEADER_V1 = struct.Struct("<4sIQ")  # magic, format version, first LSN
_SEG_HEADER = struct.Struct("<4sIQQ")  # magic, version, first LSN, epoch
_SEG_PREFIX = struct.Struct("<4sI")  # magic, format version (both formats)
_REC_HEADER = struct.Struct("<QBI")  # lsn, kind, payload length
_CRC = struct.Struct("<I")

KIND_ADD_EDGE = 1
KIND_REMOVE_EDGE = 2
KIND_ADD_ASSOC = 3
KIND_REMOVE_ASSOC = 4

_PAYLOAD_PAIR = struct.Struct("<qq")
_PAYLOAD_TRIPLE = struct.Struct("<qqd")
_PAYLOAD_SIZE = {
    KIND_ADD_EDGE: _PAYLOAD_PAIR.size,
    KIND_REMOVE_EDGE: _PAYLOAD_PAIR.size,
    KIND_ADD_ASSOC: _PAYLOAD_TRIPLE.size,
    KIND_REMOVE_ASSOC: _PAYLOAD_PAIR.size,
}
KIND_NAMES = {
    KIND_ADD_EDGE: "add_edge",
    KIND_REMOVE_EDGE: "remove_edge",
    KIND_ADD_ASSOC: "add_assoc",
    KIND_REMOVE_ASSOC: "remove_assoc",
}


class LogFull(RuntimeError):
    """The log hit its size ceiling; the caller must back off (HTTP 503)."""

    def __init__(self, size_bytes: int, max_bytes: int) -> None:
        super().__init__(
            f"delta log is full ({size_bytes} of {max_bytes} bytes); "
            "compaction must catch up before more writes are accepted"
        )
        self.size_bytes = size_bytes
        self.max_bytes = max_bytes


class LogCorruption(RuntimeError):
    """Corruption beyond a torn tail; run ``repro fsck --wal`` to repair."""


class LogWriteError(RuntimeError):
    """An append failed before the record became durable (never acked)."""


class EpochFenced(RuntimeError):
    """A writer with a stale epoch tried to append (split-brain fencing).

    Raised when replicated records arrive stamped with an epoch older
    than the log's own — the sender is a primary that was superseded by
    a promotion and must not be allowed to extend this log.
    """

    def __init__(self, local_epoch: int, writer_epoch: int) -> None:
        super().__init__(
            f"append fenced: writer epoch {writer_epoch} is older than "
            f"the log's epoch {local_epoch} (a promotion superseded the writer)"
        )
        self.local_epoch = local_epoch
        self.writer_epoch = writer_epoch


class LogRecord(NamedTuple):
    lsn: int
    kind: int
    a: int
    b: int
    weight: float

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"kind={self.kind}")


@dataclass(frozen=True)
class SegmentInfo:
    """Scan result for one segment file.

    ``error`` is ``None`` or ``"<problem>: <detail>"``.  A segment's own
    problems are ``bad_header``, ``torn_tail`` (a record cut short, with
    a bad header or a bad checksum) and ``bad_record`` (a record out of
    LSN sequence).  :func:`walk_segments` adds the chain problems in
    :data:`CHAIN_PROBLEMS`.  ``valid_bytes`` is the truncation point that
    would repair the segment; ``0`` means it can only be quarantined.
    """

    path: Path
    first_lsn: int
    n_records: int
    size_bytes: int
    valid_bytes: int
    error: str | None = None
    epoch: int = 1
    header_bytes: int = _SEG_HEADER_V1.size

    @property
    def last_lsn(self) -> int:
        """LSN of the last valid record (``first_lsn - 1`` when empty)."""
        return self.first_lsn + self.n_records - 1

    @property
    def problem(self) -> str | None:
        """The problem code ``error`` starts with, or ``None``."""
        return None if self.error is None else self.error.split(":", 1)[0]

    def as_dict(self) -> dict:
        return {
            "segment": self.path.name,
            "first_lsn": self.first_lsn,
            "last_lsn": self.last_lsn,
            "records": self.n_records,
            "bytes": self.size_bytes,
            "valid_bytes": self.valid_bytes,
            "error": self.error,
            "epoch": self.epoch,
        }


# Problems of the chain rather than of one segment's bytes: a first LSN
# that does not continue the previous segment, an epoch lower than the
# previous segment's, and any segment after an earlier problem.
CHAIN_PROBLEMS = ("bad_lsn", "epoch_regression", "unreachable")


def seal(header: bytes, payload: bytes) -> bytes:
    """One checksummed frame: ``header | payload | <I crc32(header + payload)``."""
    body = header + payload
    return body + _CRC.pack(zlib.crc32(body))


def unseal(
    data: bytes,
    header: struct.Struct,
    check: Callable[[tuple, int], str | None],
    decode: Callable[[tuple, memoryview], object],
    offset: int = 0,
) -> tuple[list, int, str | None]:
    """Decode the sealed frames in ``data[offset:]`` up to the first bad byte.

    ``header``'s last field is the payload length; ``check(fields, i)``
    vets the ``i``-th header before that length is trusted and returns a
    problem or ``None``, and ``decode(fields, payload)`` builds a good
    frame's item.  Returns ``(items, end, problem)``: the item of every
    good frame, the offset just past the last of them, and what is wrong
    at ``end`` (``None`` when the buffer ends cleanly there).  Strict
    callers raise on the problem; the segment scan keeps ``end`` as the
    truncation point.
    """
    items: list = []
    view = memoryview(data)
    size = len(data)
    while offset < size:
        if size - offset < header.size:
            return items, offset, "truncated header"
        fields = header.unpack_from(data, offset)
        problem = check(fields, len(items))
        if problem is not None:
            return items, offset, problem
        start = offset + header.size
        stop = start + fields[-1]
        if stop + _CRC.size > size:
            return items, offset, "truncated body"
        if _CRC.unpack_from(data, stop)[0] != zlib.crc32(view[offset:stop]):
            return items, offset, "checksum mismatch"
        items.append(decode(fields, view[start:stop]))
        offset = stop + _CRC.size
    return items, offset, None


def encode_record(lsn: int, kind: int, a: int, b: int, weight: float = 0.0) -> bytes:
    if kind in (KIND_ADD_EDGE, KIND_REMOVE_EDGE, KIND_REMOVE_ASSOC):
        payload = _PAYLOAD_PAIR.pack(a, b)
    elif kind == KIND_ADD_ASSOC:
        payload = _PAYLOAD_TRIPLE.pack(a, b, weight)
    else:
        raise ValueError(f"unknown record kind {kind}")
    return seal(_REC_HEADER.pack(lsn, kind, len(payload)), payload)


def _record_header_problem(kind: int, payload_len: int) -> str | None:
    if _PAYLOAD_SIZE.get(kind) == payload_len:
        return None
    return f"bad record header (kind={kind}, len={payload_len})"


def _record(fields: tuple, payload: memoryview) -> LogRecord:
    lsn, kind, _ = fields
    if kind == KIND_ADD_ASSOC:
        return LogRecord(lsn, kind, *_PAYLOAD_TRIPLE.unpack(payload))
    return LogRecord(lsn, kind, *_PAYLOAD_PAIR.unpack(payload), 0.0)


def segment_name(first_lsn: int) -> str:
    return f"{first_lsn:016d}{SEGMENT_SUFFIX}"


def _named_lsn(path: Path) -> int:
    """The first LSN a segment's file name claims (-1 when it is no number)."""
    try:
        return int(path.name[: -len(SEGMENT_SUFFIX)])
    except ValueError:
        return -1


def parse_records(data: bytes) -> list[LogRecord]:
    """Strictly decode a buffer of concatenated encoded records.

    The replication wire moves raw record bytes between logs; unlike
    :func:`scan_segment` (which tolerates a torn tail) any malformation
    here — truncation, a CRC mismatch, an unknown kind — raises
    :class:`LogCorruption`, because a replication frame was already
    CRC-framed in transit and must decode completely or not at all.
    """
    records, _, problem = unseal(
        data, _REC_HEADER, lambda fields, _: _record_header_problem(*fields[1:]), _record
    )
    if problem is not None:
        raise LogCorruption(f"record buffer: {problem}")
    return records


def scan_segment(path: Path) -> tuple[list[LogRecord], SegmentInfo]:
    """Parse one segment, stopping at the first invalid byte.

    Never raises on corruption: the returned :class:`SegmentInfo` carries
    ``error`` and ``valid_bytes`` (the truncation point that would repair
    the segment).  ``valid_bytes == 0`` means even the header is bad and
    the segment can only be quarantined.
    """
    path = Path(path)
    data = path.read_bytes()
    size = len(data)
    first_lsn = 0
    epoch = 1
    header_size = _SEG_HEADER_V1.size

    def info(n_records: int, valid: int, error: str | None):
        return SegmentInfo(
            path=path,
            first_lsn=first_lsn,
            n_records=n_records,
            size_bytes=size,
            valid_bytes=valid,
            error=error,
            epoch=epoch,
            header_bytes=header_size,
        )

    if size < _SEG_PREFIX.size:
        return [], info(0, 0, "bad_header: file shorter than segment header")
    magic, version = _SEG_PREFIX.unpack_from(data, 0)
    if magic != _SEG_MAGIC:
        return [], info(0, 0, f"bad_header: bad magic {magic!r}")
    # Pre-replication (v1) segments have no epoch field: implicitly epoch 1.
    header = {1: _SEG_HEADER_V1, FORMAT_VERSION: _SEG_HEADER}.get(version)
    if header is None:
        return [], info(0, 0, f"bad_header: unsupported format version {version}")
    if size < header.size:
        return [], info(0, 0, "bad_header: file shorter than segment header")
    _, _, first_lsn, *stamped = header.unpack_from(data, 0)
    epoch = stamped[0] if stamped else 1
    header_size = header.size
    if epoch < 1:
        return [], info(0, 0, f"bad_header: bad epoch {epoch}")
    named = _named_lsn(path)
    if named != first_lsn:
        return [], info(0, 0, f"bad_header: file named for LSN {named} but header says {first_lsn}")

    def check(fields: tuple, i: int) -> str | None:
        lsn, kind, payload_len = fields
        if lsn != first_lsn + i:
            return f"bad_record: LSN {lsn} where {first_lsn + i} was expected"
        return _record_header_problem(kind, payload_len)

    records, end, problem = unseal(data, _REC_HEADER, check, _record, header_size)
    if problem is not None and not problem.startswith("bad_record"):
        problem = f"torn_tail: {problem}"
    return records, info(len(records), end, problem)


def walk_segments(
    root: str | Path, start_lsn: int = 0
) -> Iterator[tuple[SegmentInfo, list[LogRecord] | None]]:
    """List a log directory's segments once and chain-check them, oldest first.

    Yields ``(info, records)`` per segment.  ``info.error`` is the first
    problem of the chain at that segment: a ``bad_header``, else an epoch
    lower than the previous segment's (``epoch_regression``), else a
    first LSN that does not continue the previous segment (``bad_lsn``),
    else its own ``torn_tail`` or ``bad_record``; every segment after a
    problem is ``unreachable``.  A chain problem sets ``valid_bytes`` to
    0: the segment can only be quarantined.  The first segment may start
    past LSN 1 (earlier ones were pruned).

    Segments wholly at or below ``start_lsn`` — whose successor is named
    for an LSN at or before ``start_lsn + 1`` — are neither read nor
    checked: they come with ``records=None`` and the last LSN their
    successor's name implies.
    """
    paths = sorted(p for p in Path(root).glob(f"*{SEGMENT_SUFFIX}") if p.is_file())
    named = [_named_lsn(path) for path in paths] + [0]
    expected: int | None = None  # first LSN the next segment must carry
    last_epoch = 0
    broken: str | None = None  # the first segment with a problem
    for i, path in enumerate(paths):
        successor = named[i + 1]
        if broken is None and 0 < successor <= start_lsn + 1:
            expected = successor
            try:
                size = path.stat().st_size
            except FileNotFoundError:  # pruned since the listing
                continue
            yield SegmentInfo(path, named[i], successor - named[i], size, size), None
            continue
        records, info = scan_segment(path)
        error = info.error
        if broken is not None:
            error = f"unreachable: past the damaged {broken}"
        elif info.problem != "bad_header":  # the header is there to check
            if info.epoch < last_epoch:
                error = (
                    f"epoch_regression: epoch {info.epoch} after epoch "
                    f"{last_epoch}; fencing terms only ever go up"
                )
            elif expected is not None and info.first_lsn != expected:
                error = (
                    f"bad_lsn: segment starts at LSN {info.first_lsn} but the "
                    f"previous segment ends at {expected - 1}"
                )
        if error != info.error:
            info = replace(info, error=error, valid_bytes=0)
        if error is not None and broken is None:
            broken = path.name
        last_epoch = info.epoch
        expected = info.last_lsn + 1
        yield info, records


def events_from_delta(delta: GraphDelta) -> list[tuple[int, int, int, float]]:
    """Flatten a :class:`GraphDelta` into ``(kind, a, b, weight)`` events.

    Order matches ``apply_delta``: adds before removes, edges before
    associations — so appending a request's events and folding them back
    reproduces the batch semantics exactly.
    """
    events: list[tuple[int, int, int, float]] = []
    if delta.add_edges is not None and len(delta.add_edges):
        for u, v in np.asarray(delta.add_edges, dtype=np.int64):
            events.append((KIND_ADD_EDGE, int(u), int(v), 0.0))
    if delta.remove_edges is not None and len(delta.remove_edges):
        for u, v in np.asarray(delta.remove_edges, dtype=np.int64):
            events.append((KIND_REMOVE_EDGE, int(u), int(v), 0.0))
    if delta.add_associations is not None and len(delta.add_associations):
        for row in np.asarray(delta.add_associations, dtype=np.float64):
            events.append((KIND_ADD_ASSOC, int(row[0]), int(row[1]), float(row[2])))
    if delta.remove_associations is not None and len(delta.remove_associations):
        for n, a in np.asarray(delta.remove_associations, dtype=np.int64):
            events.append((KIND_REMOVE_ASSOC, int(n), int(a), 0.0))
    return events


def fold_records(records: Iterable[LogRecord], *, directed: bool = True) -> GraphDelta:
    """Fold an ordered record stream into one equivalent :class:`GraphDelta`.

    Later events win per cell, so replaying the fold through
    ``apply_delta`` produces the same graph as applying every event in
    sequence.  For undirected graphs edge keys are canonicalized to
    ``(min, max)`` because ``apply_delta`` mirrors both cells.
    """
    edges: dict[tuple[int, int], bool] = {}
    assocs: dict[tuple[int, int], tuple[bool, float]] = {}
    for rec in records:
        if rec.kind in (KIND_ADD_EDGE, KIND_REMOVE_EDGE):
            key = (rec.a, rec.b)
            if not directed and key[0] > key[1]:
                key = (key[1], key[0])
            edges[key] = rec.kind == KIND_ADD_EDGE
        elif rec.kind == KIND_ADD_ASSOC:
            assocs[(rec.a, rec.b)] = (True, rec.weight)
        elif rec.kind == KIND_REMOVE_ASSOC:
            assocs[(rec.a, rec.b)] = (False, 0.0)
        else:
            raise LogCorruption(f"unknown record kind {rec.kind} at LSN {rec.lsn}")
    add_edges = [key for key, keep in edges.items() if keep]
    remove_edges = [key for key, keep in edges.items() if not keep]
    add_assocs = [(n, a, w) for (n, a), (keep, w) in assocs.items() if keep]
    remove_assocs = [(n, a) for (n, a), (keep, _) in assocs.items() if not keep]
    return GraphDelta(
        add_edges=np.asarray(add_edges, dtype=np.int64) if add_edges else None,
        remove_edges=np.asarray(remove_edges, dtype=np.int64) if remove_edges else None,
        add_associations=np.asarray(add_assocs, dtype=np.float64) if add_assocs else None,
        remove_associations=np.asarray(remove_assocs, dtype=np.int64) if remove_assocs else None,
    )


class LogReader:
    """Read-only access to a delta-log directory.

    Opening a :class:`DeltaLog` performs torn-tail *recovery* — it
    truncates the last segment — which inspection and diff tooling
    (``repro log``, ``repro dataset diff``) must never do.  This view
    only ever reads the segment files; it holds no handles and needs no
    close.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- read path ------------------------------------------------------
    def records(self, start_lsn: int = 0, *, with_epoch: bool = False) -> Iterator:
        """Yield records with ``lsn > start_lsn`` in LSN order.

        With ``with_epoch``, yield ``(segment epoch, record)`` pairs (the
        replication feed stamps its frames with them).  Reads the files
        fresh, so it is safe from any thread.  A problem the last segment
        finds in its own bytes ends iteration silently (an in-flight
        append or rotation looks exactly like one); any other problem
        :func:`walk_segments` reports raises :class:`LogCorruption`.
        """
        for info, records in walk_segments(self.root, start_lsn):
            if info.problem in CHAIN_PROBLEMS:
                raise LogCorruption(f"{info.path.name}: {info.error}")
            for rec in records or ():
                if rec.lsn > start_lsn:
                    yield (info.epoch, rec) if with_epoch else rec

    def replay(
        self, start_lsn: int = 0, *, end_lsn: int | None = None, directed: bool = True
    ) -> tuple[GraphDelta, int]:
        """Fold records in ``(start_lsn, end_lsn]`` into one delta.

        Returns ``(delta, last_lsn_folded)``; when no records qualify the
        delta is empty and ``last_lsn_folded == start_lsn``.
        """
        folded = [r for r in self.records(start_lsn) if end_lsn is None or r.lsn <= end_lsn]
        return fold_records(folded, directed=directed), folded[-1].lsn if folded else start_lsn

    def inspect(self) -> dict:
        """Segment-by-segment summary for ``repro log``.

        ``torn`` names every segment :func:`walk_segments` found a
        problem at, chain problems included.
        """
        segments = [info.as_dict() for info, _ in walk_segments(self.root)]
        return {
            "n_segments": len(segments),
            "n_records": sum(s["records"] for s in segments),
            "first_lsn": segments[0]["first_lsn"] if segments else 0,
            "last_lsn": segments[-1]["last_lsn"] if segments else 0,
            "epoch": segments[-1]["epoch"] if segments else 1,
            "size_bytes": sum(s["bytes"] for s in segments),
            "torn": [s["segment"] for s in segments if s["error"]],
            "segments": segments,
        }


class DeltaLog(LogReader):
    """Append-only, checksummed, fsync'd log of graph delta events.

    Parameters
    ----------
    root:
        Directory holding the segment files (created if missing).
    segment_bytes:
        Rotate to a new segment once the current one reaches this size.
    max_bytes:
        Ceiling on total log size; appends beyond it raise
        :class:`LogFull` (backpressure — compaction and checkpointing
        shrink the log again).
    fsync:
        Disable only in tests; without it an ack does not imply
        durability.
    faults:
        Optional :class:`~repro.serving.faults.FaultInjector` for the
        ``torn_wal_tail`` / ``fsync_fail_every`` / ``crash_after_append``
        write-path faults.

    Opening an existing directory recovers from a torn tail by truncating
    the *last* segment at the last valid record (the actions taken are
    listed in ``recovered``).  Any other corruption raises
    :class:`LogCorruption` and is ``repro fsck --wal`` territory.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        segment_bytes: int = 4 << 20,
        max_bytes: int = 64 << 20,
        fsync: bool = True,
        faults=None,
    ) -> None:
        if segment_bytes < 1024:
            raise ValueError("segment_bytes must be at least 1024")
        if max_bytes < segment_bytes:
            raise ValueError("max_bytes must be at least segment_bytes")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        chmod_default_dir(self.root)
        self.segment_bytes = int(segment_bytes)
        self.max_bytes = int(max_bytes)
        self._fsync = bool(fsync)
        if faults is None:
            # Same idiom as EmbeddingStore.publish: chaos subprocesses arm
            # the write-path faults through REPRO_FAULTS without plumbing.
            from repro.serving.faults import FaultInjector

            faults = FaultInjector.from_env()
        self._faults = faults
        self._lock = threading.Lock()
        # Parked long-poll feeds wait on this; every durable append
        # notifies, so a standby is woken the instant its records exist
        # instead of sleeping out a poll interval.
        self._append_cond = threading.Condition(self._lock)
        self._handle = None
        self._failed: str | None = None
        self.recovered: list[str] = []
        # Durability-cost counters for /metrics: every fsync call on the
        # append path, and the bytes it made durable.  Plain ints bumped
        # under self._lock (or at segment open, same thread).
        self.fsyncs = 0
        self.fsynced_bytes = 0
        self._recover_on_open()

    # -- open / recovery ------------------------------------------------
    def _recover_on_open(self) -> None:
        segments = [info for info, _ in walk_segments(self.root)]
        last = segments[-1] if segments else None
        for info in segments:
            # Only the last segment may be cut back to its valid records.
            if info.error is not None and (info is not last or not info.valid_bytes):
                raise LogCorruption(
                    f"{info.path.name}: {info.error} "
                    f"(run `repro fsck --wal {self.root}` to repair)"
                )
        if last is not None and last.error is not None:
            with last.path.open("r+b") as handle:
                handle.truncate(last.valid_bytes)
            self.recovered.append(
                f"truncated torn tail of {last.path.name} at byte {last.valid_bytes} "
                f"(last valid LSN {last.last_lsn}): {last.error}"
            )
        self._first_lsn = segments[0].first_lsn if segments else None
        self._last_lsn = last.last_lsn if last else 0
        self._total_bytes = sum(info.valid_bytes for info in segments)
        if last is not None:
            self._handle = last.path.open("r+b")
            self._handle.seek(0, os.SEEK_END)
            self._segment_size = self._handle.tell()
        else:
            self._segment_size = 0
        # Each epoch starts at its oldest surviving segment.
        epoch_starts = {info.epoch: info.first_lsn for info in reversed(segments)}
        self._load_epochs(epoch_starts, last.epoch if last else 0)

    def _load_epochs(self, epoch_starts: dict[int, int], last_epoch: int) -> None:
        """Reconcile the ``EPOCHS`` history with what the segments say.

        Segments are authoritative for epochs they still cover; the file
        preserves start LSNs of epochs whose segments were pruned, and a
        promotion recorded there survives even if its first segment is
        later pruned.  A missing or unreadable file is rebuilt.
        """
        history: dict[int, int] = {}
        try:
            raw = json.loads((self.root / EPOCHS_FILE).read_text())
            for entry in raw.get("history", []):
                history[int(entry["epoch"])] = int(entry["start_lsn"])
        except (OSError, ValueError, KeyError, TypeError):
            history = {}
        for epoch, start in epoch_starts.items():
            # The file's start can only be <= the oldest surviving
            # segment of that epoch (earlier ones may have been pruned).
            if epoch not in history or history[epoch] > start:
                history[epoch] = start
        if not history:
            history = {1: 1}
        self._epochs = dict(sorted(history.items()))
        self._epoch = max(max(self._epochs), last_epoch, 1)
        self._epochs.setdefault(self._epoch, self._last_lsn + 1)
        self._write_epochs()

    def _write_epochs(self) -> None:
        payload = {
            "schema": EPOCHS_SCHEMA,
            "history": [
                {"epoch": epoch, "start_lsn": start}
                for epoch, start in sorted(self._epochs.items())
            ],
        }
        atomic_write(
            self.root / EPOCHS_FILE,
            lambda handle: handle.write(json.dumps(payload, indent=2) + "\n"),
            text=True,
        )

    # -- properties -----------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """LSN of the newest durable record (0 when the log is empty)."""
        return self._last_lsn

    @property
    def first_lsn(self) -> int:
        """Oldest LSN the segments still hold (``last_lsn + 1`` when none).

        Read from :func:`walk_segments` at open and after every
        :meth:`prune_through`; the replication feed serves from here.
        """
        return self._last_lsn + 1 if self._first_lsn is None else self._first_lsn

    @property
    def size_bytes(self) -> int:
        return self._total_bytes

    @property
    def epoch(self) -> int:
        """The fencing term new segments are stamped with (>= 1)."""
        return self._epoch

    @property
    def epoch_start_lsn(self) -> int:
        """First LSN assigned (or to be assigned) under the current epoch."""
        return self._epochs[self._epoch]

    def epoch_history(self) -> list[dict]:
        return [
            {"epoch": epoch, "start_lsn": start}
            for epoch, start in sorted(self._epochs.items())
        ]

    # -- append path ----------------------------------------------------
    def _open_segment(self, first_lsn: int) -> None:
        if self._handle is not None:
            self._handle.close()
        path = self.root / segment_name(first_lsn)
        if self._first_lsn is None:
            self._first_lsn = first_lsn
        if path.exists():
            # Re-stamping an empty active segment (an epoch bump with no
            # appends since the last one) replaces it in place.
            self._total_bytes -= path.stat().st_size
        self._handle = path.open("w+b")
        chmod_default_file(self._handle.fileno())
        header = _SEG_HEADER.pack(_SEG_MAGIC, FORMAT_VERSION, first_lsn, self._epoch)
        self._handle.write(header)
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
            self.fsyncs += 1
            self.fsynced_bytes += len(header)
        self._segment_size = len(header)
        self._total_bytes += len(header)

    def bump_epoch(self, new_epoch: int | None = None) -> int:
        """Durably advance the fencing epoch (promotion); returns it.

        Seals the active segment and opens a fresh one stamped with the
        new epoch at ``last_lsn + 1``, then records the boundary in the
        ``EPOCHS`` history — after this returns, any writer still on an
        older epoch is structurally fenced out of this log.
        """
        with self._lock:
            if self._failed is not None:
                raise LogWriteError(f"delta log is failed: {self._failed}")
            target = self._epoch + 1 if new_epoch is None else int(new_epoch)
            if target <= self._epoch:
                raise ValueError(
                    f"epoch must increase: current {self._epoch}, got {target}"
                )
            self._epoch = target
            self._epochs[target] = self._last_lsn + 1
            self._open_segment(self._last_lsn + 1)
            self._write_epochs()
            return target

    def append_delta(self, delta: GraphDelta) -> tuple[int, int]:
        """Append every event of ``delta``; see :meth:`append_events`."""
        return self.append_events(events_from_delta(delta))

    def append_events(self, events: list[tuple[int, int, int, float]]) -> tuple[int, int]:
        """Durably append ``(kind, a, b, weight)`` events as one batch.

        Returns ``(first_lsn, last_lsn)`` only after the records are
        fsync'd — an ack implies the batch survives a crash.  One fsync
        covers the whole batch.
        """
        if not events:
            raise ValueError("append_events requires at least one event")
        with self._lock:
            if self._failed is not None:
                raise LogWriteError(f"delta log is failed: {self._failed}")
            first = self._last_lsn + 1
            buf = bytearray()
            for i, (kind, a, b, weight) in enumerate(events):
                buf += encode_record(first + i, kind, a, b, weight)
            if self._total_bytes + len(buf) > self.max_bytes:
                raise LogFull(self._total_bytes, self.max_bytes)
            if self._handle is None or self._segment_size >= self.segment_bytes:
                self._open_segment(first)
            return self._write_locked(buf, first, len(events))

    def append_replicated(self, records: list[LogRecord], epoch: int) -> tuple[int, int]:
        """Durably append records replicated from a primary at ``epoch``.

        Same fsync-then-ack discipline as :meth:`append_events`, but the
        LSNs arrive pre-assigned: they must extend this log exactly
        (``records[0].lsn == last_lsn + 1``, consecutive).  ``epoch`` is
        the fencing term the records were written under on the primary —
        an epoch *older* than the log's own raises :class:`EpochFenced`
        (the sender was superseded by a promotion); a newer one rotates
        to a fresh segment stamped with it.  Replication appends are
        exempt from the ``max_bytes`` backpressure: the ceiling exists to
        slow client writers down, and the standby's own compactor is the
        thing that shrinks the log again.
        """
        if not records:
            raise ValueError("append_replicated requires at least one record")
        with self._lock:
            if self._failed is not None:
                raise LogWriteError(f"delta log is failed: {self._failed}")
            epoch = int(epoch)
            if epoch < self._epoch:
                raise EpochFenced(self._epoch, epoch)
            first = self._last_lsn + 1
            if records[0].lsn != first:
                raise LogCorruption(
                    f"replicated batch starts at LSN {records[0].lsn} but the "
                    f"log ends at {self._last_lsn}"
                )
            buf = bytearray()
            for i, rec in enumerate(records):
                if rec.lsn != first + i:
                    raise LogCorruption(
                        f"replicated batch is not consecutive at LSN {rec.lsn}"
                    )
                buf += encode_record(rec.lsn, rec.kind, rec.a, rec.b, rec.weight)
            if epoch > self._epoch:
                self._epoch = epoch
                self._epochs[epoch] = first
                self._open_segment(first)
                self._write_epochs()
            elif self._handle is None or self._segment_size >= self.segment_bytes:
                self._open_segment(first)
            return self._write_locked(buf, first, len(records))

    def _write_locked(self, buf: bytearray, first: int, n_records: int) -> tuple[int, int]:
        """Write + fsync one encoded batch; rollback on failure.  Lock held."""
        handle = self._handle
        start = self._segment_size
        if self._faults is not None and self._faults.wal_torn_tail():
            # Simulate a crash mid-append: leave a partial record on
            # disk (flushed to the OS, never fsync'd) and die.
            self._failed = "torn_wal_tail fault injected"
            handle.write(bytes(buf[: max(1, len(buf) - 7)]))
            handle.flush()
            self._faults.die("torn_wal_tail")
        try:
            handle.write(bytes(buf))
            handle.flush()
            if self._faults is not None:
                self._faults.wal_fsync()
            if self._fsync:
                os.fsync(handle.fileno())
                self.fsyncs += 1
                self.fsynced_bytes += len(buf)
        except OSError as exc:
            try:
                handle.truncate(start)
                handle.flush()
                if self._fsync:
                    os.fsync(handle.fileno())
                handle.seek(0, os.SEEK_END)
            except OSError:
                self._failed = f"rollback after failed append also failed: {exc}"
            raise LogWriteError(f"WAL append failed before ack: {exc}") from exc
        self._segment_size += len(buf)
        self._total_bytes += len(buf)
        self._last_lsn = first + n_records - 1
        self._append_cond.notify_all()
        if self._faults is not None:
            self._faults.wal_crash_after_append()
        return first, self._last_lsn

    def wait_for_lsn(self, lsn: int, timeout_s: float) -> bool:
        """Park until the log holds a record past ``lsn``, or time out.

        The long-poll primitive behind replication feeds: returns True
        as soon as ``last_lsn > lsn`` (woken directly by the appending
        thread), False when ``timeout_s`` elapses first.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        with self._append_cond:
            while self._last_lsn <= lsn:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._append_cond.wait(remaining)
            return True

    # -- maintenance ----------------------------------------------------
    def prune_through(self, lsn: int) -> list[str]:
        """Delete sealed segments wholly covered by a checkpoint at ``lsn``.

        The active (last) segment is always kept so the append position
        and LSN counter survive.  Only call with an ``lsn`` that a
        durable checkpoint already covers — pruned records are gone.
        """
        covered = []
        for info, records in walk_segments(self.root, lsn):
            if records is not None:
                break
            covered.append(info)
        with self._lock:
            for info in covered:
                info.path.unlink()
                self._total_bytes -= info.size_bytes
                self._first_lsn = info.last_lsn + 1
        return [info.path.name for info in covered]

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
