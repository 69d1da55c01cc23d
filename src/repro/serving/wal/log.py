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

A torn tail — a partially written final record, the normal residue of a
crash mid-append — is tolerated: the open-time scan truncates the last
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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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
_REC_CRC = struct.Struct("<I")

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
    """Scan result for one segment file."""

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

    def record_offset(self, lsn: int) -> int:
        """Byte offset of record ``lsn``'s start within this segment.

        Only valid for ``first_lsn <= lsn <= last_lsn + 1`` (the latter
        being the append position).  Exploits the fixed record framing:
        every record of a given kind has one size, but kinds vary, so
        this rescans the headers rather than multiplying.
        """
        data = self.path.read_bytes()
        offset = self.header_bytes
        for _ in range(lsn - self.first_lsn):
            _, kind, payload_len = _REC_HEADER.unpack_from(data, offset)
            offset += _REC_HEADER.size + payload_len + _REC_CRC.size
        return offset

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


def encode_record(lsn: int, kind: int, a: int, b: int, weight: float = 0.0) -> bytes:
    if kind in (KIND_ADD_EDGE, KIND_REMOVE_EDGE, KIND_REMOVE_ASSOC):
        payload = _PAYLOAD_PAIR.pack(a, b)
    elif kind == KIND_ADD_ASSOC:
        payload = _PAYLOAD_TRIPLE.pack(a, b, weight)
    else:
        raise ValueError(f"unknown record kind {kind}")
    header = _REC_HEADER.pack(lsn, kind, len(payload))
    return header + payload + _REC_CRC.pack(zlib.crc32(header + payload))


def _decode_payload(kind: int, payload: bytes) -> tuple[int, int, float]:
    if kind == KIND_ADD_ASSOC:
        a, b, weight = _PAYLOAD_TRIPLE.unpack(payload)
        return a, b, weight
    a, b = _PAYLOAD_PAIR.unpack(payload)
    return a, b, 0.0


def segment_name(first_lsn: int) -> str:
    return f"{first_lsn:016d}{SEGMENT_SUFFIX}"


def parse_records(data: bytes) -> list[LogRecord]:
    """Strictly decode a buffer of concatenated encoded records.

    The replication wire moves raw record bytes between logs; unlike
    :func:`scan_segment` (which tolerates a torn tail) any malformation
    here — truncation, a CRC mismatch, an unknown kind — raises
    :class:`LogCorruption`, because a replication frame was already
    CRC-framed in transit and must decode completely or not at all.
    """
    records: list[LogRecord] = []
    offset = 0
    size = len(data)
    while offset < size:
        if size - offset < _REC_HEADER.size:
            raise LogCorruption("record buffer truncated mid-header")
        lsn, kind, payload_len = _REC_HEADER.unpack_from(data, offset)
        if kind not in _PAYLOAD_SIZE or payload_len != _PAYLOAD_SIZE[kind]:
            raise LogCorruption(f"bad record header (kind={kind}, len={payload_len})")
        end = offset + _REC_HEADER.size + payload_len + _REC_CRC.size
        if end > size:
            raise LogCorruption("record buffer truncated mid-body")
        body = data[offset : offset + _REC_HEADER.size + payload_len]
        (crc,) = _REC_CRC.unpack_from(data, end - _REC_CRC.size)
        if crc != zlib.crc32(body):
            raise LogCorruption(f"record checksum mismatch at LSN {lsn}")
        a, b, weight = _decode_payload(kind, data[offset + _REC_HEADER.size : end - _REC_CRC.size])
        records.append(LogRecord(lsn, kind, a, b, weight))
        offset = end
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
    epoch = 1
    header_size = _SEG_HEADER_V1.size

    def info(n_records: int, first_lsn: int, valid: int, error: str | None):
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
        return [], info(0, 0, 0, "bad_header: file shorter than segment header")
    magic, version = _SEG_PREFIX.unpack_from(data, 0)
    if magic != _SEG_MAGIC:
        return [], info(0, 0, 0, f"bad_header: bad magic {magic!r}")
    if version == 1:
        # Pre-replication segments: no epoch field, implicitly epoch 1.
        if size < _SEG_HEADER_V1.size:
            return [], info(0, 0, 0, "bad_header: file shorter than segment header")
        _, _, first_lsn = _SEG_HEADER_V1.unpack_from(data, 0)
    elif version == FORMAT_VERSION:
        if size < _SEG_HEADER.size:
            return [], info(0, 0, 0, "bad_header: file shorter than segment header")
        _, _, first_lsn, epoch = _SEG_HEADER.unpack_from(data, 0)
        header_size = _SEG_HEADER.size
        if epoch < 1:
            return [], info(0, first_lsn, 0, f"bad_header: bad epoch {epoch}")
    else:
        return [], info(0, 0, 0, f"bad_header: unsupported format version {version}")
    try:
        named = int(path.name[: -len(SEGMENT_SUFFIX)])
    except ValueError:
        named = -1
    if named != first_lsn:
        return [], info(0, first_lsn, 0, f"bad_header: file named for LSN {named} but header says {first_lsn}")

    records: list[LogRecord] = []
    offset = header_size
    while offset < size:
        valid = offset
        if size - offset < _REC_HEADER.size:
            return records, info(len(records), first_lsn, valid, "torn_tail: truncated record header")
        lsn, kind, payload_len = _REC_HEADER.unpack_from(data, offset)
        expected_lsn = first_lsn + len(records)
        if lsn != expected_lsn:
            return records, info(
                len(records), first_lsn, valid, f"bad_lsn: expected {expected_lsn}, found {lsn}"
            )
        if kind not in _PAYLOAD_SIZE or payload_len != _PAYLOAD_SIZE[kind]:
            return records, info(
                len(records), first_lsn, valid, f"torn_tail: bad record header (kind={kind}, len={payload_len})"
            )
        end = offset + _REC_HEADER.size + payload_len + _REC_CRC.size
        if end > size:
            return records, info(len(records), first_lsn, valid, "torn_tail: truncated record body")
        body = data[offset : offset + _REC_HEADER.size + payload_len]
        (crc,) = _REC_CRC.unpack_from(data, end - _REC_CRC.size)
        if crc != zlib.crc32(body):
            return records, info(len(records), first_lsn, valid, "torn_tail: record checksum mismatch")
        a, b, weight = _decode_payload(kind, data[offset + _REC_HEADER.size : end - _REC_CRC.size])
        records.append(LogRecord(lsn, kind, a, b, weight))
        offset = end
    return records, info(len(records), first_lsn, offset, None)


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

    def _segment_paths(self) -> list[Path]:
        return sorted(p for p in self.root.glob(f"*{SEGMENT_SUFFIX}") if p.is_file())

    # -- read path ------------------------------------------------------
    def records(self, start_lsn: int = 0) -> Iterator[LogRecord]:
        """Yield records with ``lsn > start_lsn`` in LSN order.

        Reads the files fresh, so it is safe from any thread.  A torn
        tail on the final segment ends iteration silently (an in-flight
        append looks exactly like one); corruption elsewhere raises
        :class:`LogCorruption`.
        """
        paths = self._segment_paths()
        for i, path in enumerate(paths):
            if i + 1 < len(paths):
                try:
                    next_first = int(paths[i + 1].name[: -len(SEGMENT_SUFFIX)])
                except ValueError:
                    next_first = None
                if next_first is not None and next_first - 1 <= start_lsn:
                    continue  # wholly before the requested suffix
            records, seg = scan_segment(path)
            if seg.error is not None and i + 1 < len(paths):
                raise LogCorruption(f"{path.name}: {seg.error}")
            for rec in records:
                if rec.lsn > start_lsn:
                    yield rec

    def replay(
        self, start_lsn: int = 0, *, end_lsn: int | None = None, directed: bool = True
    ) -> tuple[GraphDelta, int]:
        """Fold records in ``(start_lsn, end_lsn]`` into one delta.

        Returns ``(delta, last_lsn_folded)``; when no records qualify the
        delta is empty and ``last_lsn_folded == start_lsn``.
        """
        last = start_lsn
        folded: list[LogRecord] = []
        for rec in self.records(start_lsn):
            if end_lsn is not None and rec.lsn > end_lsn:
                break
            folded.append(rec)
            last = rec.lsn
        return fold_records(folded, directed=directed), last

    def inspect(self) -> dict:
        """Segment-by-segment summary for ``repro log``."""
        segments = [scan_segment(path)[1].as_dict() for path in self._segment_paths()]
        n_records = sum(s["records"] for s in segments)
        return {
            "root": str(self.root),
            "segments": segments,
            "n_segments": len(segments),
            "n_records": n_records,
            "first_lsn": segments[0]["first_lsn"] if segments else 0,
            "last_lsn": segments[-1]["last_lsn"] if segments else 0,
            "epoch": segments[-1]["epoch"] if segments else 1,
            "size_bytes": sum(s["bytes"] for s in segments),
            "max_bytes": getattr(self, "max_bytes", None),
            "torn": [s["segment"] for s in segments if s["error"]],
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
        paths = self._segment_paths()
        last_lsn = 0
        total = 0
        current: Path | None = None
        last_epoch = 0
        epoch_starts: dict[int, int] = {}
        for i, path in enumerate(paths):
            records, seg = scan_segment(path)
            is_last = i == len(paths) - 1
            if seg.error is not None:
                if not is_last or seg.valid_bytes == 0:
                    raise LogCorruption(
                        f"{path.name}: {seg.error} (run `repro fsck --wal {self.root}` to repair)"
                    )
                with path.open("r+b") as handle:
                    handle.truncate(seg.valid_bytes)
                self.recovered.append(
                    f"truncated torn tail of {path.name} at byte {seg.valid_bytes} "
                    f"(last valid LSN {seg.last_lsn}): {seg.error}"
                )
                seg = scan_segment(path)[1]
            if last_lsn and seg.first_lsn != last_lsn + 1:
                raise LogCorruption(
                    f"{path.name}: bad_lsn gap — segment starts at LSN {seg.first_lsn} "
                    f"but the previous segment ends at {last_lsn} "
                    f"(run `repro fsck --wal {self.root}` to repair)"
                )
            if seg.epoch < last_epoch:
                raise LogCorruption(
                    f"{path.name}: epoch_regression — segment carries epoch "
                    f"{seg.epoch} after epoch {last_epoch} "
                    f"(run `repro fsck --wal {self.root}` to repair)"
                )
            epoch_starts.setdefault(seg.epoch, seg.first_lsn)
            last_epoch = seg.epoch
            last_lsn = seg.last_lsn
            total += seg.valid_bytes
            current = path
        self._last_lsn = last_lsn
        self._total_bytes = total
        if current is not None:
            self._handle = current.open("r+b")
            self._handle.seek(0, os.SEEK_END)
            self._segment_size = self._handle.tell()
        else:
            self._segment_size = 0
        self._load_epochs(epoch_starts, last_epoch)

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
        removed: list[str] = []
        with self._lock:
            paths = self._segment_paths()
            for i, path in enumerate(paths[:-1]):
                try:
                    next_first = int(paths[i + 1].name[: -len(SEGMENT_SUFFIX)])
                except ValueError:
                    break
                if next_first - 1 > lsn:
                    break
                size = path.stat().st_size
                path.unlink()
                self._total_bytes -= size
                removed.append(path.name)
        return removed

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
