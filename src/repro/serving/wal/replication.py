"""Streaming WAL replication: primary feed, standby tail, fencing.

The primary ships the log, the standby replays it (the LogBase recipe:
a log-structured store gets replication almost for free).  Three pieces
live here:

``build_feed`` / the frame codec
    The primary side of ``GET /v1/replicate?from_lsn=N``.  A response is
    a *finite* sequence of CRC-guarded binary frames — a ``hello`` frame
    describing the primary (epoch, durable LSN), zero or more
    ``records`` frames carrying raw encoded WAL records, and a
    ``heartbeat`` frame when the long-poll expired with nothing new.
    Long-poll plus finite responses keeps the thread-per-connection HTTP
    server happy (no infinite chunked stream to babysit) while still
    giving sub-poll-interval latency: the handler parks until records
    arrive or ``wait_s`` elapses.

``ReplicationHub``
    Primary-side bookkeeping.  Every feed request's ``from_lsn`` doubles
    as the standby's cumulative ack — everything below it is fsync'd on
    the standby — so the hub learns replication progress for free.
    ``wait_replicated`` turns that into semi-synchronous acks: with
    ``--ack-replicas N`` armed, an upsert ack additionally waits until
    ``N`` standbys have acknowledged its LSN (timeout -> structured 503,
    never an ack that a failover could lose).

``StandbyReplicator``
    The standby's tail thread: long-polls the primary with
    retry/backoff, appends through the standby's own :class:`DeltaLog`
    (same fsync-then-ack discipline), and surfaces a ``status()`` dict
    for describe/healthz/metrics.  Fencing outcomes are terminal: a
    primary whose epoch is older than ours is refused
    (``state="fenced"``), and a primary that rejects our tail as
    diverged gets a ``DIVERGED`` marker written next to the segments for
    ``repro fsck --wal --repair`` to quarantine the diverged suffix.

Wire format (all little-endian, one frame)::

    <4s magic "RWF1"> <B type> <Q epoch> <Q arg> <I payload_len>
    <payload bytes> <I crc32(header + payload)>

This is the seal every WAL record carries (``header | payload | crc32``,
:func:`~repro.serving.wal.log.seal`), decoded by the same loop.
``type`` is 1=hello (arg = primary durable LSN, payload = JSON metadata),
2=records (arg = first LSN in payload, payload = concatenated encoded
records, epoch = the term those records were written under), 3=heartbeat
(arg = primary durable LSN, empty payload).  Records within one frame
share one epoch; the feed splits batches at epoch boundaries so the
standby can stamp its segments faithfully.
"""

from __future__ import annotations

import itertools
import json
import struct
import threading
import time
import urllib.parse
from pathlib import Path
from typing import NamedTuple

from repro.utils.fs import atomic_write
from repro.serving.wal.log import (
    DeltaLog,
    EpochFenced,
    LogCorruption,
    LogRecord,
    LogWriteError,
    encode_record,
    parse_records,
    seal,
    unseal,
)

FRAME_MAGIC = b"RWF1"
FRAME_HELLO = 1
FRAME_RECORDS = 2
FRAME_HEARTBEAT = 3
_FRAME_HEADER = struct.Struct("<4sBQQI")  # magic, type, epoch, arg, payload len

# Cap one records frame at this many payload bytes so a standby far
# behind streams in bounded responses instead of one giant body.
MAX_FRAME_BYTES = 256 << 10

DIVERGED_FILE = "DIVERGED"
DIVERGED_SCHEMA = "repro.serving.wal.diverged/v1"

REPLICATION_CONTENT_TYPE = "application/x-repro-wal"


class ReplicationWireError(RuntimeError):
    """A feed response failed to decode (truncated stream, bad CRC)."""


class FeedRejected(RuntimeError):
    """The primary refused to serve the feed; maps to a structured 409.

    ``code`` is one of ``diverged_tail`` (the requester holds LSNs the
    primary's newer epoch re-owns), ``log_pruned`` (the requester is so
    far behind that the segments it needs were pruned; it must reseed),
    or ``stale_epoch`` (the requester claims a *newer* epoch than this
    server — this server is not primary any more and must not feed).
    """

    def __init__(self, code: str, message: str, details: dict | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.details = details or {}


class Frame(NamedTuple):
    type: int
    epoch: int
    arg: int
    payload: bytes = b""


def encode_frame(type: int, epoch: int, arg: int, payload: bytes = b"") -> bytes:
    return seal(_FRAME_HEADER.pack(FRAME_MAGIC, type, epoch, arg, len(payload)), payload)


def _frame_header_problem(fields: tuple, _: int) -> str | None:
    return None if fields[0] == FRAME_MAGIC else f"bad frame magic {fields[0]!r}"


def _frame(fields: tuple, payload: memoryview) -> Frame:
    return Frame(*fields[1:4], bytes(payload))


def decode_frames(body: bytes) -> list[Frame]:
    """Decode a full feed response; any malformation raises.

    Truncation raises :class:`ReplicationWireError` rather than yielding
    a valid prefix: a torn response means the transfer failed and the
    standby should simply re-request — ``from_lsn`` makes the feed
    idempotent, so dropping the whole body is always safe.
    """
    frames, _, problem = unseal(body, _FRAME_HEADER, _frame_header_problem, _frame)
    if problem is not None:
        raise ReplicationWireError(f"feed frame: {problem}")
    if not frames:
        raise ReplicationWireError("empty feed response")
    return frames


# ---------------------------------------------------------------------------
# Primary side: feed builder
# ---------------------------------------------------------------------------


def check_feed_request(log: DeltaLog, from_lsn: int, requester_epoch: int | None) -> None:
    """Fencing and availability checks; raises :class:`FeedRejected`.

    The requester's ``from_lsn`` is its durable tail and ``epoch`` the
    term it believes is current.  Divergence is decided against the
    epoch history: every LSN at or past the start of the first epoch
    *newer* than the requester's was re-assigned by a promotion the
    requester never saw, so a tail reaching into that range cannot be
    extended — only repaired (``fsck --wal --repair``).
    """
    if requester_epoch is not None and requester_epoch > log.epoch:
        raise FeedRejected(
            "stale_epoch",
            f"this server's epoch {log.epoch} is older than the requester's "
            f"{requester_epoch}; it was superseded and must not serve the feed",
            {"epoch": log.epoch, "requester_epoch": requester_epoch},
        )
    if requester_epoch is not None and requester_epoch < log.epoch:
        boundary = min(
            (e["start_lsn"] for e in log.epoch_history() if e["epoch"] > requester_epoch),
            default=log.last_lsn + 1,
        )
        if from_lsn >= boundary:
            raise FeedRejected(
                "diverged_tail",
                f"requester tail LSN {from_lsn} was written under epoch "
                f"{requester_epoch}, but LSNs >= {boundary} belong to a newer "
                f"epoch on this primary; the diverged suffix must be repaired",
                {
                    "first_diverged_lsn": boundary,
                    "epoch": log.epoch,
                    "requester_epoch": requester_epoch,
                },
            )
    if from_lsn > log.last_lsn:
        # Same (or unstated) epoch yet ahead of us: a dual writer we
        # cannot reconcile.  Fencing should make this unreachable.
        raise FeedRejected(
            "diverged_tail",
            f"requester tail LSN {from_lsn} is past this primary's durable "
            f"LSN {log.last_lsn} under the same epoch",
            {"first_diverged_lsn": log.last_lsn + 1, "epoch": log.epoch},
        )
    oldest = log.first_lsn
    if from_lsn + 1 < oldest:
        raise FeedRejected(
            "log_pruned",
            f"records after LSN {from_lsn} were pruned (feed starts at "
            f"{oldest}); the standby must reseed from a published version",
            {"first_lsn_available": oldest},
        )


def build_feed(
    log: DeltaLog,
    from_lsn: int,
    *,
    requester_epoch: int | None = None,
    max_records: int = 4096,
    wait_s: float = 0.0,
    poll_s: float = 0.05,
    faults=None,
    abort=None,
) -> bytes:
    """Build one feed response body (the primary side of the protocol).

    Parks up to ``wait_s`` waiting for records past ``from_lsn`` (the
    long poll), then returns ``hello`` + ``records...`` frames, or
    ``hello`` + ``heartbeat`` when nothing arrived.  Reads segment files
    fresh, so any thread may call it concurrently with appends.
    ``abort`` (a nullary callable) cuts the park short — the server
    passes its draining flag so a parked feed cannot stall a shutdown.
    """
    if faults is not None:
        faults.replicate_stall()
    check_feed_request(log, from_lsn, requester_epoch)

    deadline = time.monotonic() + max(0.0, wait_s)
    batches: list[tuple[int, list[LogRecord]]] = []
    while True:
        if log.last_lsn > from_lsn:
            feed = log.records(from_lsn, with_epoch=True)
            for epoch, rec in itertools.islice(feed, max_records):
                if batches and batches[-1][0] == epoch:
                    batches[-1][1].append(rec)
                else:
                    batches.append((epoch, [rec]))
        if batches or time.monotonic() >= deadline:
            break
        if abort is not None and abort():
            break
        # Park on the log's append condition: the writer wakes us the
        # moment new records are durable.  ``poll_s`` only bounds how
        # often the abort flag is rechecked.
        log.wait_for_lsn(
            from_lsn, min(poll_s, max(0.0, deadline - time.monotonic()))
        )

    epoch = log.epoch
    durable = log.last_lsn
    if faults is not None:
        epoch = faults.replicate_epoch(epoch)
    hello_meta = json.dumps(
        {"epoch_start_lsn": log.epoch_start_lsn, "first_lsn_available": log.first_lsn}
    ).encode("utf-8")
    body = bytearray(encode_frame(FRAME_HELLO, epoch, durable, hello_meta))
    for batch_epoch, records in batches:
        if faults is not None:
            batch_epoch = faults.replicate_epoch(batch_epoch)
        payload = bytearray()
        first = records[0].lsn
        for rec in records:
            payload += encode_record(rec.lsn, rec.kind, rec.a, rec.b, rec.weight)
            if len(payload) >= MAX_FRAME_BYTES:
                body += encode_frame(FRAME_RECORDS, batch_epoch, first, bytes(payload))
                payload = bytearray()
                first = rec.lsn + 1
        if payload:
            body += encode_frame(FRAME_RECORDS, batch_epoch, first, bytes(payload))
    if not batches:
        body += encode_frame(FRAME_HEARTBEAT, epoch, durable)
    out = bytes(body)
    if faults is not None:
        out = faults.replicate_truncate(out)
    return out


# ---------------------------------------------------------------------------
# Primary side: standby tracking + semi-sync acks
# ---------------------------------------------------------------------------


class ReplicationHub:
    """Tracks standby acknowledgement progress on the primary.

    ``note_poll`` is called by the feed handler on every request: the
    ``from_lsn`` a standby asks for is a cumulative ack (it only
    advances past records its own log fsync'd).  ``wait_replicated``
    blocks until ``min_replicas`` standbys have acked an LSN — the
    semi-sync write path: with ``--ack-replicas`` armed the upsert
    handler calls it before acking the client, so an ack implies the
    write survives primary loss.
    """

    # A standby silent for this long no longer counts toward acks.
    STALE_AFTER_S = 15.0

    def __init__(self, *, journal=None) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._journal = journal
        self._standbys: dict[str, dict] = {}

    def note_poll(self, standby_id: str, ack_lsn: int, *, durable_lsn: int) -> None:
        with self._cond:
            entry = self._standbys.get(standby_id)
            if entry is None:
                entry = {"ack_lsn": 0, "ts": 0.0, "caught_up": False}
                self._standbys[standby_id] = entry
                if self._journal is not None:
                    self._journal.emit("standby_connected", standby=standby_id, ack_lsn=ack_lsn)
            entry["ack_lsn"] = max(entry["ack_lsn"], ack_lsn)
            entry["ts"] = time.monotonic()
            if not entry["caught_up"] and entry["ack_lsn"] >= durable_lsn:
                entry["caught_up"] = True
                if self._journal is not None:
                    self._journal.emit("standby_caught_up", standby=standby_id, lsn=ack_lsn)
            self._cond.notify_all()

    def _live(self) -> list[tuple[str, dict]]:
        cutoff = time.monotonic() - self.STALE_AFTER_S
        return [(sid, e) for sid, e in self._standbys.items() if e["ts"] >= cutoff]

    def acked(self, lsn: int) -> int:
        """How many live standbys have acked ``lsn``.  Lock held or not."""
        return sum(1 for _, e in self._live() if e["ack_lsn"] >= lsn)

    def wait_replicated(self, lsn: int, *, min_replicas: int = 1, timeout_s: float = 5.0) -> bool:
        """Block until ``min_replicas`` standbys acked ``lsn`` (or timeout)."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while self.acked(lsn) < min_replicas:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def status(self) -> dict:
        with self._lock:
            now = time.monotonic()
            live = self._live()
            return {
                "n_standbys": len(live),
                "min_ack_lsn": min((e["ack_lsn"] for _, e in live), default=0),
                "standbys": [
                    {
                        "id": sid,
                        "ack_lsn": e["ack_lsn"],
                        "age_s": round(now - e["ts"], 3),
                        "caught_up": e["caught_up"],
                    }
                    for sid, e in sorted(self._standbys.items())
                ],
            }


# ---------------------------------------------------------------------------
# Divergence marker (read by fsck --wal)
# ---------------------------------------------------------------------------


def write_diverged_marker(
    root: str | Path,
    *,
    first_diverged_lsn: int,
    local_epoch: int,
    primary_epoch: int,
    primary_url: str = "",
) -> Path:
    """Record that LSNs >= ``first_diverged_lsn`` were fenced out.

    The replicator writes this when the primary rejects its tail, then
    halts; ``repro fsck --wal`` reports ``diverged_tail`` and
    ``--repair`` quarantines the suffix and clears the marker.
    """
    path = Path(root) / DIVERGED_FILE
    payload = {
        "schema": DIVERGED_SCHEMA,
        "first_diverged_lsn": int(first_diverged_lsn),
        "local_epoch": int(local_epoch),
        "primary_epoch": int(primary_epoch),
        "primary_url": primary_url,
    }
    atomic_write(path, lambda h: h.write(json.dumps(payload, indent=2) + "\n"), text=True)
    return path


def read_diverged_marker(root: str | Path) -> dict | None:
    path = Path(root) / DIVERGED_FILE
    try:
        raw = json.loads(path.read_text())
    except OSError:
        return None
    except ValueError:
        return {"schema": DIVERGED_SCHEMA, "error": "unreadable marker"}
    return raw if isinstance(raw, dict) else None


def clear_diverged_marker(root: str | Path) -> None:
    path = Path(root) / DIVERGED_FILE
    try:
        path.unlink()
    except FileNotFoundError:
        pass


# ---------------------------------------------------------------------------
# Standby side: the tail thread
# ---------------------------------------------------------------------------


class StandbyReplicator(threading.Thread):
    """Tails a primary's replication feed into a local :class:`DeltaLog`.

    States (``status()["state"]``): ``connecting`` (no successful round
    yet), ``streaming`` (replicating, behind), ``caught_up`` (local
    durable LSN matches the primary's), and the terminal ones —
    ``fenced`` (the primary's epoch is older than ours: it was
    superseded; never extend our log from it), ``diverged`` (the primary
    fenced *us* out; a ``DIVERGED`` marker was written for fsck),
    ``pruned`` (the primary no longer holds the records we need; the
    standby must reseed), and ``stopped``.

    Transient failures (connection refused, timeouts, torn responses)
    retry with exponential backoff capped at ``max_backoff_s``; fencing
    outcomes stop the thread — they require an operator (or fsck).
    """

    def __init__(
        self,
        primary_url: str,
        log: DeltaLog,
        *,
        standby_id: str,
        journal=None,
        wait_s: float = 5.0,
        timeout_s: float = 10.0,
        max_records: int = 4096,
        max_backoff_s: float = 2.0,
        on_append=None,
    ) -> None:
        super().__init__(name="standby-replicator", daemon=True)
        self.primary_url = primary_url.rstrip("/")
        split = urllib.parse.urlsplit(self.primary_url)
        self._address = (split.hostname, split.port or 80)
        self._path = f"{split.path}/v1/replicate"
        # One keep-alive connection to the primary, owned by this thread.
        self._connection = None
        self.log = log
        self.standby_id = standby_id
        self.wait_s = float(wait_s)
        self.timeout_s = float(timeout_s)
        self.max_records = int(max_records)
        self.max_backoff_s = float(max_backoff_s)
        self._journal = journal
        self._on_append = on_append
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        self._state = "connecting"
        self._primary_epoch = 0
        self._primary_lsn = 0
        self._last_contact = 0.0
        self._rounds = 0
        self._records_replicated = 0
        self._bytes_replicated = 0
        self._errors = 0
        self._last_error: str | None = None
        self._was_behind = True

    # -- lifecycle ------------------------------------------------------
    def stop(self, *, timeout_s: float | None = None) -> None:
        self._stop_event.set()
        if timeout_s is not None and self.is_alive():
            self.join(timeout=timeout_s)

    def run(self) -> None:  # pragma: no cover - exercised via e2e tests
        backoff = 0.05
        try:
            while not self._stop_event.is_set():
                try:
                    advanced = self._poll_once()
                except _FatalReplicationError:
                    return
                except Exception as exc:  # transient: retry with backoff
                    self._note_error(str(exc))
                    self._stop_event.wait(backoff)
                    backoff = min(backoff * 2, self.max_backoff_s)
                    continue
                backoff = 0.05 if advanced else min(max(backoff, 0.05), self.max_backoff_s)
            self._set_state("stopped")
        finally:
            self._disconnect()

    def _disconnect(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # -- one round ------------------------------------------------------
    def _poll_once(self) -> bool:
        """One feed round-trip; returns True when records were appended."""
        query = urllib.parse.urlencode(
            {
                "from_lsn": self.log.last_lsn,
                "epoch": self.log.epoch,
                "standby_id": self.standby_id,
                "wait_s": f"{self.wait_s:g}",
                "max_records": self.max_records,
            }
        )
        from repro.serving.http import wire

        try:
            if self._connection is None:
                self._connection = wire.Connection(
                    *self._address, self.wait_s + self.timeout_s
                )
            response = self._connection.exchange(
                "GET", f"{self._path}?{query}",
                {"Accept": REPLICATION_CONTENT_TYPE},
            )
        except OSError:
            self._disconnect()  # a torn exchange leaves the stream unframed
            raise
        if response.will_close:
            self._disconnect()
        if not 200 <= response.status < 300:
            self._handle_http_error(response.status, response.body)
            return False

        frames = decode_frames(response.body)
        with self._lock:
            self._last_contact = time.monotonic()
            self._rounds += 1
        appended = False
        for frame in frames:
            if frame.type == FRAME_HELLO:
                if frame.epoch < self.log.epoch:
                    self._fence(frame.epoch)
                with self._lock:
                    self._primary_epoch = frame.epoch
                    self._primary_lsn = frame.arg
            elif frame.type == FRAME_HEARTBEAT:
                with self._lock:
                    self._primary_lsn = max(self._primary_lsn, frame.arg)
            elif frame.type == FRAME_RECORDS:
                appended = self._apply_records(frame) or appended
            else:
                raise ReplicationWireError(f"unknown frame type {frame.type}")
        self._refresh_state()
        return appended

    def _apply_records(self, frame: Frame) -> bool:
        records = parse_records(frame.payload)
        if not records:
            return False
        if frame.arg != records[0].lsn:
            raise ReplicationWireError(
                f"records frame claims first LSN {frame.arg} but payload "
                f"starts at {records[0].lsn}"
            )
        # Drop any prefix we already hold (a retried response overlaps).
        records = [r for r in records if r.lsn > self.log.last_lsn]
        if not records:
            return False
        if records[0].lsn != self.log.last_lsn + 1:
            raise ReplicationWireError(
                f"records frame skips LSNs: log ends at {self.log.last_lsn}, "
                f"frame resumes at {records[0].lsn}"
            )
        try:
            self.log.append_replicated(records, epoch=frame.epoch)
        except EpochFenced as exc:
            self._fence(exc.writer_epoch)
        except (LogWriteError, LogCorruption) as exc:
            self._note_error(f"local append failed: {exc}")
            raise _FatalReplicationError from exc
        with self._lock:
            self._records_replicated += len(records)
            self._bytes_replicated += len(frame.payload)
        if self._on_append is not None:
            self._on_append(records[-1].lsn)
        return True

    def _handle_http_error(self, status: int, body: bytes) -> None:
        from repro.serving.http.protocol import ApiError

        try:
            error = ApiError.from_body(status, json.loads(body.decode("utf-8")))
        except Exception:
            error = None
        code = error.code if error is not None else f"http_{status}"
        message = str(error) if error is not None else f"HTTP Error {status}"
        details = error.details if error is not None else {}
        if code == "diverged_tail":
            first = int(details.get("first_diverged_lsn", self.log.last_lsn + 1))
            primary_epoch = int(details.get("epoch", 0))
            write_diverged_marker(
                self.log.root,
                first_diverged_lsn=first,
                local_epoch=self.log.epoch,
                primary_epoch=primary_epoch,
                primary_url=self.primary_url,
            )
            self._emit(
                "replication_diverged",
                first_diverged_lsn=first,
                local_epoch=self.log.epoch,
                primary_epoch=primary_epoch,
            )
            self._note_error(message)
            self._set_state("diverged")
            raise _FatalReplicationError
        if code == "log_pruned":
            self._emit(
                "replication_pruned",
                first_lsn_available=details.get("first_lsn_available"),
                lsn_durable=self.log.last_lsn,
            )
            self._note_error(message)
            self._set_state("pruned")
            raise _FatalReplicationError
        if code == "stale_epoch":
            # The primary admits it is older than us; treat like fencing
            # from our side — we must not follow it.
            self._fence(int(details.get("epoch", 0)))
        # Anything else (not_primary while it catches up, 503s, ...) is
        # transient: surface and retry.
        raise RuntimeError(f"feed error {code}: {message}")

    def _fence(self, primary_epoch: int) -> None:
        self._emit(
            "replication_fenced",
            local_epoch=self.log.epoch,
            primary_epoch=primary_epoch,
        )
        self._note_error(
            f"primary epoch {primary_epoch} is older than local epoch "
            f"{self.log.epoch}; refusing to replicate from a superseded primary"
        )
        self._set_state("fenced")
        raise _FatalReplicationError

    # -- bookkeeping ----------------------------------------------------
    def _refresh_state(self) -> None:
        with self._lock:
            if self._state in ("fenced", "diverged", "pruned", "stopped"):
                return
            lag = max(0, self._primary_lsn - self.log.last_lsn)
            if lag == 0:
                if self._was_behind:
                    self._was_behind = False
                    self._emit_locked("replication_caught_up", lsn=self.log.last_lsn)
                self._state = "caught_up"
            else:
                self._was_behind = True
                self._state = "streaming"

    def _set_state(self, state: str) -> None:
        with self._lock:
            self._state = state

    def _note_error(self, message: str) -> None:
        with self._lock:
            self._errors += 1
            self._last_error = message

    def _emit(self, kind: str, **fields) -> None:
        if self._journal is not None:
            self._journal.emit(kind, standby=self.standby_id, **fields)

    def _emit_locked(self, kind: str, **fields) -> None:
        # journal.emit never raises and takes no locks of ours.
        if self._journal is not None:
            self._journal.emit(kind, standby=self.standby_id, **fields)

    def status(self) -> dict:
        with self._lock:
            lag = max(0, self._primary_lsn - self.log.last_lsn) if self._primary_lsn else None
            return {
                "primary_url": self.primary_url,
                "standby_id": self.standby_id,
                "state": self._state,
                "primary_epoch": self._primary_epoch,
                "primary_lsn_durable": self._primary_lsn,
                "lsn_durable": self.log.last_lsn,
                "lag": lag,
                "last_contact_age_s": (
                    round(time.monotonic() - self._last_contact, 3) if self._last_contact else None
                ),
                "rounds": self._rounds,
                "records_replicated": self._records_replicated,
                "bytes_replicated": self._bytes_replicated,
                "errors": self._errors,
                "last_error": self._last_error,
            }


class _FatalReplicationError(RuntimeError):
    """Internal: unwinds the tail loop after a terminal state was set."""
