"""The write path of a serving deployment — one object, one owner.

Exactly one process may append to the delta log: a single-process
:class:`~repro.serving.http.server.EmbeddingServer`, or the
:class:`~repro.serving.http.supervisor.Supervisor` under ``--workers``.
Whichever it is holds one :class:`WritePath` — the pipeline (which also
runs the compaction cycle), replication hub, optional standby replicator,
ack settings, role — the only implementation of ``POST /v1/upsert``,
``POST /admin/promote``, ``GET /v1/replicate``, the ingest / replication
blocks of healthz, describe and metrics, and the ``ingest_*`` /
``replication_*`` / ``compactor_*`` scrape-time gauges.

What differs between the owners is what "served" means — one process's
active version, or the *minimum* over a fleet's workers: the
``lsn_served`` argument of the status methods (``None`` = this
process's own), not a second code path.  ``wal.compactor`` (the one
serve-side caller of the trainer) is imported only by :meth:`WritePath.open`,
so a read-only server never loads it.
"""

from __future__ import annotations

import os
import socket
import threading

import numpy as np

from repro.dynamic.delta import GraphDelta
from repro.serving.http import protocol
from repro.serving.http.protocol import ApiError
from repro.serving.obs import metrics as obs_metrics
from repro.serving.obs import trace as obs_trace
from repro.serving.obs.trace import trace_span
from repro.serving.service import json_safe
from repro.serving.wal.log import LogFull, LogWriteError
from repro.serving.wal.replication import (
    FeedRejected,
    ReplicationHub,
    StandbyReplicator,
    build_feed,
    check_feed_request,
)

# GraphDelta field -> numbers per row.
_DELTA_FIELDS = {
    "add_edges": 2,
    "remove_edges": 2,
    "add_associations": 3,
    "remove_associations": 2,
}


def _delta_from_body(body: dict) -> GraphDelta:
    """Parse the four GraphDelta fields out of a ``/v1/upsert`` body.

    Frame bodies arrive with the fields already decoded to arrays; JSON
    bodies as nested lists — both land on the same validation.
    """
    protocol.reject_unknown_fields(body, tuple(_DELTA_FIELDS))

    def as_array(name: str, width: int) -> np.ndarray | None:
        rows = body.get(name)
        if rows is None:
            return None
        try:
            array = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError):
            raise ApiError(
                400, "invalid_request", f"delta field {name!r} is malformed"
            )
        if array.size == 0:
            return None
        if array.ndim != 2 or array.shape[1] != width:
            raise ApiError(
                400, "invalid_request",
                f"delta field {name!r} must be rows of {width} numbers",
                {"shape": list(array.shape)},
            )
        return array

    return GraphDelta(
        **{name: as_array(name, width) for name, width in _DELTA_FIELDS.items()}
    )


def no_write_path(_body: dict):
    """What the three write routes answer on a server without a WAL."""
    raise ApiError(
        409, "no_write_path",
        "this server has no WAL attached (start it with --wal-dir): there "
        "is no log to upsert into, promote or replicate",
    )


def write_routes(write_path: "WritePath | None") -> dict:
    """The write path's three routes, for any front-end's table."""
    upsert, promote, replicate = (
        (write_path.upsert, write_path.promote, write_path.replicate)
        if write_path is not None
        else (no_write_path,) * 3
    )
    return {
        protocol.UPSERT: ("POST", upsert),
        protocol.PROMOTE: ("POST", promote),
        protocol.REPLICATE: ("GET", replicate),
    }


class WritePath:
    """Pipeline + replication, behind the wire contract.

    Parameters
    ----------
    pipeline:
        A bootstrapped :class:`IngestPipeline`.
    ack_replicas / ack_timeout_s:
        ``ack_replicas > 0`` makes upsert acks semi-synchronous: the ack
        is withheld until that many standbys confirmed the batch.
    journal / faults:
        Optional ops journal (standby and promote events) and fault
        injector (replication feed faults).
    """

    def __init__(
        self,
        pipeline,
        *,
        ack_replicas: int = 0,
        ack_timeout_s: float = 5.0,
        journal=None,
        faults=None,
    ) -> None:
        self.pipeline = pipeline
        self.ack_replicas = int(ack_replicas)
        self.ack_timeout_s = float(ack_timeout_s)
        self.journal = journal
        self.faults = faults
        self.hub = ReplicationHub(journal=journal)
        # A standby carries a replicator and refuses writes with 409
        # not_primary until promote() flips it.
        self.replicator: StandbyReplicator | None = None
        self._promoted = False
        self._promote_lock = threading.Lock()
        self._quiesced = False

    # -- boot / shutdown -----------------------------------------------
    @classmethod
    def open(
        cls,
        wal_dir,
        store,
        *,
        graph=None,
        bootstrap_k: int = 32,
        max_bytes: int = 64 << 20,
        **settings,
    ) -> "WritePath":
        """Open the log and recover / attach / cold-bootstrap from ``graph``.

        Runs before any query service opens the store: a cold bootstrap
        publishes the first version readers will see.
        """
        from repro.serving.wal.compactor import IngestPipeline

        pipeline = IngestPipeline(wal_dir, store, max_bytes=max_bytes)
        try:
            pipeline.ensure_ready(graph, k=bootstrap_k)
        except BaseException:
            pipeline.close()
            raise
        return cls(pipeline, **settings)

    def start(
        self,
        *,
        compact_interval_s: float,
        gc_keep: int,
        service=None,
        on_publish=None,
        standby_of: str | None = None,
        standby_id: str | None = None,
    ) -> None:
        """Start the compaction cycle and, with ``standby_of``, the standby tail.

        Each compacted version is activated on ``service`` (reads in this
        process follow the write path) and announced to ``on_publish``.
        """
        if service is not None:
            self.pipeline.bind_service(service)
        self.pipeline.start(
            interval_s=compact_interval_s,
            keep_versions=gc_keep,
            on_publish=on_publish,
            journal=self.journal,
        )
        if standby_of is not None:
            self.replicator = StandbyReplicator(
                standby_of,
                self.pipeline.log,
                standby_id=standby_id or f"{socket.gethostname()}-{os.getpid()}",
                journal=self.journal,
            )
            self.replicator.start()

    def quiesce(self) -> None:
        """Stop background work ahead of a drain; appends still land.

        No new version is published, no new feed poll goes out and
        parked replicate long-polls return.  Idempotent.
        """
        self._quiesced = True
        if self.replicator is not None:
            self.replicator.stop(timeout_s=1.0)
        self.pipeline.stop()

    def close(self) -> None:
        """Quiesce, then close the log — after the front-end has drained."""
        self.quiesce()
        self.pipeline.close()

    # -- role ----------------------------------------------------------
    @property
    def role(self) -> str:
        if self.replicator is not None and not self._promoted:
            return "standby"
        return "primary"

    # -- endpoints -----------------------------------------------------
    # Each returns (status, payload); ApiError propagates to the
    # front-end, which writes the structured error body.
    def upsert(self, body: dict) -> tuple[int, dict]:
        """Validate, append, fsync, ack — the whole ``/v1/upsert`` contract.

        With ``ack_replicas > 0`` the ack is semi-synchronous: on
        timeout the append *is* locally durable, but the client gets a
        structured 503 ``replication_timeout`` and no ack — so "every
        acked LSN survives failover" holds by construction.
        """
        # The fencing token: clients track the highest epoch they have
        # seen and refuse to write through a server that regressed.
        epoch = self.pipeline.log.epoch
        if self.role == "standby":
            status = self.replicator.status()
            raise ApiError(
                409, "not_primary",
                "this server is a standby replicating from "
                f"{status['primary_url']}; send writes to the primary "
                "(or promote this standby first)",
                {
                    "primary_url": status["primary_url"],
                    "state": status["state"],
                    "epoch": epoch,
                },
            )
        delta = _delta_from_body(body)
        try:
            with trace_span("append"):
                first, last = self.pipeline.append(delta)
        except ValueError as error:
            raise ApiError(400, "invalid_request", f"upsert rejected: {error}")
        except LogFull as error:
            # Structured backpressure: the log hit its ceiling and only
            # compaction + checkpointing can shrink it.  Raised before the
            # append touched the log, so the 503 is safe to retry; the
            # retry_after_s hint paces the client's resend.
            raise ApiError(
                503, "log_full", str(error),
                {
                    "size_bytes": error.size_bytes,
                    "max_bytes": error.max_bytes,
                    "retry_after_s": 1.0,
                },
            )
        except LogWriteError as error:
            raise ApiError(503, "wal_write_failed", str(error))
        if self.ack_replicas > 0:
            with trace_span("replicate"):
                replicated = self.hub.wait_replicated(
                    last,
                    min_replicas=self.ack_replicas,
                    timeout_s=self.ack_timeout_s,
                )
            if not replicated:
                raise ApiError(
                    503, "replication_timeout",
                    f"append is durable locally (LSN {last}) but "
                    f"{self.ack_replicas} standby ack(s) did not arrive within "
                    f"{self.ack_timeout_s:g}s; the write was NOT acked",
                    {
                        "lsn": last,
                        "required_replicas": self.ack_replicas,
                        "acked_replicas": self.hub.acked(last),
                        "retry_after_s": 1.0,
                    },
                )
        # The ack: these LSNs are fsync'd — a crash from here on loses
        # nothing the client was told about.  The trace records the acked
        # LSN range so `/debug/traces` ties a request id to durable state.
        obs_trace.annotate(first_lsn=first, lsn=last)
        return 200, json_safe(
            {
                "first_lsn": first,
                "lsn": last,
                "events": last - first + 1,
                "durable": True,
                "lsn_served": self.pipeline.lsn_served(),
                "epoch": epoch,
            }
        )

    def promote(self, body: dict) -> tuple[int, dict]:
        """Fenced promotion: stop tailing, bump the epoch, accept writes.

        On a primary this is a bare epoch bump that re-fences the log
        (standbys adopt the new term on their next poll; pollers still
        on an older one get 409s); the interesting path is a standby
        taking over after its primary died.  The bump is durable
        *before* the role flips, so a revived old primary reconnecting
        as a standby — or replaying its divergent tail — is structurally
        rejected by epoch comparison, never by luck of timing.
        """
        protocol.reject_unknown_fields(body, ("epoch",))
        target = protocol.require_int(body, "epoch", minimum=1)
        log = self.pipeline.log
        with self._promote_lock:
            previous_role = self.role
            floor = log.epoch
            if self.replicator is not None:
                # A replicator mid-append finishes against the old epoch
                # or trips EpochFenced after the bump — both safe; the
                # stop only prevents *new* polls.
                self.replicator.stop(timeout_s=2.0)
                # Never promote *behind* a primary epoch we already saw.
                floor = max(floor, self.replicator.status()["primary_epoch"])
            try:
                if target is not None and target <= floor:
                    raise ValueError(
                        f"requested epoch {target} does not exceed the "
                        f"highest epoch observed ({floor})"
                    )
                epoch = log.bump_epoch(target if target is not None else floor + 1)
            except ValueError as error:
                raise ApiError(
                    409, "stale_epoch", str(error),
                    {"epoch": floor, "requested": target},
                )
            self._promoted = True
        payload = {
            "role": "primary",
            "previous_role": previous_role,
            "epoch": epoch,
            "lsn_durable": log.last_lsn,
        }
        if self.journal is not None:
            self.journal.emit(
                "promote",
                epoch=epoch,
                previous_role=previous_role,
                lsn_durable=log.last_lsn,
            )
        return 200, payload

    def replicate(self, params: dict) -> tuple[int, "protocol.RawPayload"]:
        """The feed: raw WAL records past ``from_lsn`` as binary frames.

        ``params`` are the query parameters of ``GET /v1/replicate``.
        The response is the replication wire format, not a JSON envelope
        — but rejections still surface as structured :class:`ApiError`.
        """
        log = self.pipeline.log
        try:
            from_lsn = int(params.get("from_lsn", 0))
            epoch = int(params["epoch"]) if "epoch" in params else None
            wait_s = min(float(params.get("wait_s", 0.0)), 30.0)
            max_records = min(int(params.get("max_records", 4096)), 65536)
        except ValueError:
            raise ApiError(
                400, "invalid_request",
                "replicate query parameters must be numeric",
            )
        if from_lsn < 0 or (epoch is not None and epoch < 1) or max_records < 1:
            raise ApiError(
                400, "invalid_request",
                "replicate query parameters out of range",
            )
        try:
            # Fencing gate FIRST: a diverged or stale-epoch requester's
            # from_lsn is not a valid ack — counting it could let a
            # semi-sync upsert ack against a standby that does not
            # actually hold the record.
            check_feed_request(log, from_lsn, epoch)
            if params.get("standby_id"):
                # from_lsn is the standby's cumulative ack: everything at
                # or below it is fsync'd over there.  Note it *before*
                # parking so a waiting semi-sync upsert unblocks at once.
                self.hub.note_poll(
                    params["standby_id"], from_lsn, durable_lsn=log.last_lsn
                )
            feed = build_feed(
                log,
                from_lsn,
                requester_epoch=epoch,
                max_records=max_records,
                wait_s=wait_s,
                faults=self.faults,
                abort=lambda: self._quiesced,
            )
        except FeedRejected as error:
            raise ApiError(409, error.code, str(error), error.details)
        return 200, protocol.RawPayload(feed, protocol.REPLICATION_CONTENT_TYPE)

    # -- status documents ----------------------------------------------
    def freshness(self, lsn_served: int | None = None) -> dict:
        """``lsn_durable`` / ``lsn_applied`` / ``lsn_served`` / ``lag``."""
        fresh = self.pipeline.freshness()
        if lsn_served is not None:
            fresh["lsn_served"] = lsn_served
            fresh["lag"] = fresh["lsn_durable"] - lsn_served
        return fresh

    def health_fields(self, lsn_served: int | None = None) -> dict:
        fresh = self.freshness(lsn_served)
        fields = {
            "lsn_durable": fresh["lsn_durable"],
            "lsn_served": fresh["lsn_served"],
            "freshness_lag": fresh["lag"],
            "role": self.role,
            "epoch": self.pipeline.log.epoch,
        }
        if self.replicator is not None:
            status = self.replicator.status()
            fields["replication"] = {
                name: status[name]
                for name in ("state", "lag", "primary_url", "primary_epoch")
            }
        else:
            hub = self.hub.status()
            if hub["n_standbys"]:
                fields["replication"] = hub
        return fields

    def status_fields(self, lsn_served: int | None = None) -> dict:
        """The write path's part of the describe and metrics documents."""
        log = self.pipeline.log
        ingest = {
            **self.freshness(lsn_served),
            "wal_dir": str(self.pipeline.wal_dir),
            "log_bytes": log.size_bytes,
            "log_max_bytes": log.max_bytes,
            "counters": dict(self.pipeline.counters),
        }
        cycle = self.pipeline.cycle_status()
        if cycle is not None:
            ingest["compactor"] = cycle
        replication = {
            "role": self.role,
            "epoch": log.epoch,
            "epoch_start_lsn": log.epoch_start_lsn,
            "hub": self.hub.status(),
            "ack_replicas": self.ack_replicas,
        }
        if self.replicator is not None:
            replication["standby"] = self.replicator.status()
        return {
            "lsn_durable": ingest["lsn_durable"],
            "lsn_served": ingest["lsn_served"],
            "role": self.role,
            "epoch": log.epoch,
            "ingest": ingest,
            "replication": replication,
        }

    def collect(self, reg, lsn_served: int | None = None) -> None:
        """Mirror write-path state into ``reg`` at scrape time."""
        obs_metrics.mirror_wal_counters(reg, self.pipeline)
        fresh = self.freshness(lsn_served)
        reg.gauge("ingest_lsn_durable", "Highest fsync-acked LSN").set(
            fresh["lsn_durable"]
        )
        reg.gauge(
            "ingest_lsn_served",
            "Highest LSN visible to queries (fleet: on every live worker)",
        ).set(fresh["lsn_served"])
        reg.gauge("ingest_freshness_lag", "lsn_durable - lsn_served").set(
            fresh["lag"]
        )
        reg.gauge("wal_epoch", "Current fencing epoch of the local WAL").set(
            self.pipeline.log.epoch
        )
        hub = self.hub.status()
        reg.gauge("replication_standbys", "Standbys polling the feed (live)").set(
            hub["n_standbys"]
        )
        reg.gauge(
            "replication_min_ack_lsn", "Lowest LSN acked by every live standby"
        ).set(hub["min_ack_lsn"])
        if self.replicator is not None:
            status = self.replicator.status()
            reg.gauge(
                "replication_lag",
                "Primary lsn_durable minus this standby's (0 = caught up)",
            ).set(status["lag"] if status["lag"] is not None else -1)
            reg.gauge(
                "replication_connected",
                "1 while the standby is streaming or caught up",
            ).set(1.0 if status["state"] in ("streaming", "caught_up") else 0.0)
            for name, help, key in (
                ("replication_records_total",
                 "WAL records replicated from the primary", "records_replicated"),
                ("replication_bytes_total",
                 "WAL payload bytes replicated from the primary", "bytes_replicated"),
                ("replication_errors_total",
                 "Transient replication failures (retried)", "errors"),
            ):
                reg.counter(name, help).set_total(status[key])
        cycle = self.pipeline.cycle_status()
        if cycle is not None:
            timings = self.pipeline.timings
            for name, help, key in (
                ("compactor_fold_seconds_total",
                 "Time spent folding WAL deltas", "fold_seconds"),
                ("compactor_publish_seconds_total",
                 "Time spent publishing folded versions", "publish_seconds"),
            ):
                reg.counter(name, help).set_total(timings[key])
            reg.gauge(
                "compactor_alive", "1 while the compactor thread is running"
            ).set(1.0 if cycle["alive"] else 0.0)
