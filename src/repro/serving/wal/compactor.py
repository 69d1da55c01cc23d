"""Ingest pipeline and background compactor over the delta log.

``IngestPipeline`` owns the write path end to end: durable appends into
the :class:`~repro.serving.wal.log.DeltaLog`, a warm
:class:`~repro.dynamic.incremental.IncrementalPANE` whose graph tracks
the applied log prefix, and publication of compacted store versions with
``applied_lsn`` recorded in the manifest so a restart resumes replay at
the right offset.

Recovery contract (the LogBase recipe):

- ``base.npz`` + ``CHECKPOINT`` in the WAL directory snapshot the graph
  as of some LSN; segments at or below it may be pruned.
- The newest store version's ``metadata.applied_lsn`` names the log
  prefix its arrays reflect.
- Restart: load the checkpoint graph, replay ``(checkpoint, applied]``
  to rebuild the compactor's graph, adopt the stored embedding as the
  warm CCD seed, and fold everything past ``applied`` as usual.

``Compactor`` is the background thread that drives folding, store
version retention, and checkpoint/prune cycles while queries keep
flowing against the immutable published versions.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict
from pathlib import Path

from repro.core.config import PANEConfig
from repro.dynamic.incremental import GraphDelta, IncrementalPANE, apply_delta
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.io import load_npz, save_npz
from repro.serving.gc import collect_versions
from repro.serving.refresh import OnlineRefresher
from repro.serving.wal.log import DeltaLog, LogFull
from repro.utils.fs import atomic_write, chmod_default_file

CHECKPOINT_FILE = "CHECKPOINT"
BASE_GRAPH_FILE = "base.npz"
CHECKPOINT_SCHEMA = "repro.serving.wal/v1"


class RecoveryError(RuntimeError):
    """The WAL directory and the store disagree; manual attention needed."""


def _save_graph_atomic(graph: AttributedGraph, path: Path) -> None:
    tmp = path.with_name(f".{path.name}.tmp.npz")
    save_npz(graph, tmp)
    try:
        with tmp.open("rb") as handle:
            chmod_default_file(handle.fileno())
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class IngestPipeline:
    """The write path: durable log + warm incremental model + publisher.

    Parameters
    ----------
    wal_dir:
        Directory for segments, the base graph snapshot, and CHECKPOINT.
    store:
        The :class:`~repro.serving.store.EmbeddingStore` compacted
        versions are published into.
    service:
        Optional :class:`~repro.serving.service.QueryService`; when
        given, each compacted version is activated (atomic snapshot
        swap) so reads in this process follow the write path.
    """

    def __init__(
        self,
        wal_dir: str | Path,
        store,
        *,
        service=None,
        segment_bytes: int = 4 << 20,
        max_bytes: int = 64 << 20,
        fsync: bool = True,
        faults=None,
    ) -> None:
        self.wal_dir = Path(wal_dir)
        self.store = store
        self.service = service
        self.log = DeltaLog(
            self.wal_dir,
            segment_bytes=segment_bytes,
            max_bytes=max_bytes,
            fsync=fsync,
            faults=faults,
        )
        self._model: IncrementalPANE | None = None
        self._refresher: OnlineRefresher | None = None
        self._applied_lsn = 0
        self._checkpoint_lsn = 0
        self._compact_lock = threading.Lock()
        self._served_cache: tuple[str, int] | None = None
        self.counters = {
            "appends": 0,
            "events": 0,
            "compactions": 0,
            "records_folded": 0,
            "checkpoints": 0,
            "log_full_rejections": 0,
        }

    def bind_service(self, service) -> None:
        """Late-bind the in-process query service.

        A cold bootstrap has to publish the first version *before* a
        ``QueryService`` can open the store, so the CLI boots the
        pipeline first and wires the service in afterwards.
        """
        self.service = service
        if self._refresher is not None:
            self._refresher.service = service
        self._served_cache = None

    # -- state files ----------------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        return self.wal_dir / CHECKPOINT_FILE

    def _read_checkpoint(self) -> dict | None:
        if not self.checkpoint_path.exists():
            return None
        return json.loads(self.checkpoint_path.read_text())

    def _write_checkpoint(self, lsn: int) -> None:
        _save_graph_atomic(self._model.graph, self.wal_dir / BASE_GRAPH_FILE)
        meta = {
            "schema": CHECKPOINT_SCHEMA,
            "lsn": int(lsn),
            "graph": BASE_GRAPH_FILE,
            "model": asdict(self._model.config),
            "update_sweeps": self._model.update_sweeps,
        }
        atomic_write(
            self.checkpoint_path,
            lambda handle: handle.write(json.dumps(meta, indent=2) + "\n"),
            text=True,
        )
        self._checkpoint_lsn = int(lsn)

    # -- boot -----------------------------------------------------------
    @property
    def bootstrapped(self) -> bool:
        return self._model is not None

    def bootstrap(
        self,
        graph: AttributedGraph,
        *,
        k: int = 32,
        alpha: float = 0.5,
        epsilon: float = 0.015,
        update_sweeps: int = 2,
        seed: int | None = 0,
    ) -> str:
        """Cold-start: fit ``graph``, publish it, and checkpoint at LSN 0.

        Any records already in the log predate nothing the base graph
        contains, so they stay unapplied and the first compaction folds
        them.
        """
        if self._model is not None:
            raise RuntimeError("pipeline is already bootstrapped")
        self._model = IncrementalPANE(
            k=k, alpha=alpha, epsilon=epsilon, update_sweeps=update_sweeps, seed=seed
        )
        self._refresher = OnlineRefresher(self._model, self.store, service=self.service)
        version = self._refresher.bootstrap(
            graph, metadata={"applied_lsn": 0, "epoch": self.log.epoch}
        )
        self._applied_lsn = 0
        self._write_checkpoint(0)
        return version

    def recover(self) -> str:
        """Rebuild the warm model from checkpoint + store + log replay.

        Returns the store version the pipeline resumed from.
        """
        if self._model is not None:
            raise RuntimeError("pipeline is already bootstrapped")
        meta = self._read_checkpoint()
        if meta is None:
            raise RecoveryError(f"no {CHECKPOINT_FILE} in {self.wal_dir}")
        if meta.get("schema") != CHECKPOINT_SCHEMA:
            raise RecoveryError(f"unsupported checkpoint schema {meta.get('schema')!r}")
        latest = self.store.latest()
        if latest is None:
            raise RecoveryError(
                "WAL checkpoint exists but the store has no published version"
            )
        graph = load_npz(self.wal_dir / meta["graph"])
        stored = self.store.open(latest)
        applied = int(stored.manifest.get("metadata", {}).get("applied_lsn", meta["lsn"]))
        base_lsn = int(meta["lsn"])
        if applied < base_lsn:
            raise RecoveryError(
                f"store version {latest} is at LSN {applied}, behind the "
                f"checkpoint at LSN {base_lsn}; pruned records cannot be replayed"
            )
        delta, folded = self.log.replay(base_lsn, end_lsn=applied, directed=graph.directed)
        if folded < applied:
            raise RecoveryError(
                f"log ends at LSN {folded} but store version {latest} claims "
                f"applied_lsn={applied}"
            )
        if not delta.is_empty():
            graph = apply_delta(graph, delta)
        cfg = dict(meta["model"])
        model = IncrementalPANE(
            k=cfg["k"],
            alpha=cfg["alpha"],
            epsilon=cfg["epsilon"],
            update_sweeps=int(meta.get("update_sweeps", 2)),
            seed=cfg.get("seed"),
        )
        model.config = PANEConfig(**cfg)
        model.adopt(graph, stored.to_embedding())
        self._model = model
        self._refresher = OnlineRefresher(model, self.store, service=self.service)
        self._applied_lsn = applied
        self._checkpoint_lsn = base_lsn
        return latest

    def attach(self, graph: AttributedGraph) -> str:
        """Adopt an existing store's latest version as the WAL base.

        Upgrades a read-only deployment in place: ``graph`` must be the
        graph the latest published version was trained on; the stored
        arrays become the warm CCD seed and a checkpoint is written at
        that version's ``applied_lsn`` (0 for pre-WAL versions).
        """
        if self._model is not None:
            raise RuntimeError("pipeline is already bootstrapped")
        latest = self.store.latest()
        if latest is None:
            raise RecoveryError("attach() needs a published version; bootstrap instead")
        stored = self.store.open(latest)
        applied = int(stored.manifest.get("metadata", {}).get("applied_lsn", 0))
        model = IncrementalPANE(
            k=stored.config.k,
            alpha=stored.config.alpha,
            epsilon=stored.config.epsilon,
            seed=stored.config.seed,
        )
        model.config = stored.config
        model.adopt(graph, stored.to_embedding())
        self._model = model
        self._refresher = OnlineRefresher(model, self.store, service=self.service)
        self._applied_lsn = applied
        self._write_checkpoint(applied)
        return latest

    def ensure_ready(self, graph_path: str | Path | None = None, **bootstrap_kwargs) -> str:
        """Boot whichever way the on-disk state allows; return the version.

        Priority: recover from an existing checkpoint; else attach to a
        non-empty store; else cold-bootstrap — the latter two need
        ``graph_path`` (the base graph ``.npz``).
        """
        if self._read_checkpoint() is not None and self.store.latest() is not None:
            return self.recover()
        if graph_path is None:
            raise RecoveryError(
                f"{self.wal_dir} has no usable checkpoint; pass the base "
                "graph (.npz) to initialize the write path"
            )
        graph = load_npz(graph_path)
        if self.store.latest() is not None:
            return self.attach(graph)
        return self.bootstrap(graph, **bootstrap_kwargs)

    # -- write path -----------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self._model.graph.adjacency.shape[0] if self._model else 0

    @property
    def n_attributes(self) -> int:
        return self._model.graph.attributes.shape[1] if self._model else 0

    def append(self, delta: GraphDelta) -> tuple[int, int]:
        """Validate and durably append ``delta``; returns ``(first, last)`` LSN.

        The ack (the return) happens only after fsync.  May raise
        ``ValueError`` (bad indices/weights), :class:`~repro.serving.wal.log.LogFull`
        (backpressure), or :class:`~repro.serving.wal.log.LogWriteError`.
        """
        if self._model is None:
            raise RuntimeError("pipeline is not bootstrapped")
        delta.check(self.n_nodes, self.n_attributes)
        n_events = sum(delta.counts().values())
        if n_events == 0:
            raise ValueError("upsert contains no events")
        try:
            first, last = self.log.append_delta(delta)
        except LogFull:
            self.counters["log_full_rejections"] += 1
            raise
        self.counters["appends"] += 1
        self.counters["events"] += n_events
        return first, last

    # -- freshness ------------------------------------------------------
    @property
    def lsn_durable(self) -> int:
        return self.log.last_lsn

    @property
    def lsn_applied(self) -> int:
        """Newest LSN folded into a *published* store version."""
        return self._applied_lsn

    def lsn_served(self) -> int:
        """``applied_lsn`` of the version reads currently hit."""
        version = self.service.version if self.service is not None else self.store.latest()
        if version is None:
            return 0
        if self._served_cache is not None and self._served_cache[0] == version:
            return self._served_cache[1]
        try:
            meta = self.store.manifest(version).get("metadata", {})
        except FileNotFoundError:
            return 0
        lsn = int(meta.get("applied_lsn", 0))
        self._served_cache = (version, lsn)
        return lsn

    def freshness(self) -> dict:
        durable = self.lsn_durable
        served = self.lsn_served()
        return {
            "lsn_durable": durable,
            "lsn_applied": self._applied_lsn,
            "lsn_served": served,
            "lag": durable - served,
        }

    # -- compaction -----------------------------------------------------
    def compact_once(self) -> dict | None:
        """Fold every unapplied record into one new published version.

        Returns a summary dict, or ``None`` when the log holds nothing
        new.  Replay is idempotent: records at or below ``applied_lsn``
        are never folded twice, so re-running after a crash between
        publish and anything else is a no-op.
        """
        if self._model is None:
            raise RuntimeError("pipeline is not bootstrapped")
        with self._compact_lock:
            start = self._applied_lsn
            delta, last = self.log.replay(
                start, directed=self._model.graph.directed
            )
            if last == start:
                return None
            t0 = time.perf_counter()
            report = self._refresher.apply(
                delta, metadata={"applied_lsn": last, "epoch": self.log.epoch}
            )
            self._applied_lsn = last
            self.counters["compactions"] += 1
            self.counters["records_folded"] += last - start
            return {
                "version": report.version,
                "applied_lsn": last,
                "records": last - start,
                "seconds": time.perf_counter() - t0,
                "timings": dict(report.timings),
            }

    def checkpoint(self) -> dict:
        """Snapshot the applied graph and prune fully-covered segments.

        Safe ordering: the graph snapshot and CHECKPOINT hit disk before
        any segment is deleted, so every record is always recoverable
        from (checkpoint, segments, store) at any crash point.
        """
        if self._model is None:
            raise RuntimeError("pipeline is not bootstrapped")
        with self._compact_lock:
            lsn = self._applied_lsn
            self._write_checkpoint(lsn)
            pruned = self.log.prune_through(lsn)
            self.counters["checkpoints"] += 1
            return {"lsn": lsn, "pruned_segments": pruned}

    def close(self) -> None:
        self.log.close()


class Compactor(threading.Thread):
    """Background thread: fold → publish → retain → checkpoint, forever.

    Parameters
    ----------
    pipeline:
        The :class:`IngestPipeline` to drive.
    interval_s:
        Poll interval when the log is idle.
    keep_versions:
        When > 0, retire superseded store versions after each publish,
        keeping this many (LATEST and the actively served version are
        always kept).
    checkpoint_bytes:
        Checkpoint + prune once the log exceeds this size with all
        records applied; 0 disables checkpointing.
    on_publish:
        Optional callback ``fn(version: str)`` invoked after each
        compacted version is published (the supervisor uses this to poke
        workers onto the new version).
    journal:
        Optional :class:`~repro.serving.obs.journal.EventJournal`; when
        given, every publish, checkpoint, and GC sweep is recorded with
        its version/LSN and duration.
    """

    def __init__(
        self,
        pipeline: IngestPipeline,
        *,
        interval_s: float = 0.25,
        keep_versions: int = 0,
        checkpoint_bytes: int = 8 << 20,
        on_publish=None,
        journal=None,
    ) -> None:
        super().__init__(name="wal-compactor", daemon=True)
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if keep_versions < 0:
            raise ValueError("keep_versions must be non-negative")
        self.pipeline = pipeline
        self.interval_s = float(interval_s)
        self.keep_versions = int(keep_versions)
        self.checkpoint_bytes = int(checkpoint_bytes)
        self.on_publish = on_publish
        self.journal = journal
        self.last_error: str | None = None
        self.last_publish: dict | None = None
        # Sum-mergeable duration counters, mirrored into the metrics
        # registry by the server's collect hook (total seconds + counts
        # sum across workers; no percentile state to reconcile).
        self.timings = {
            "folds": 0,
            "fold_seconds": 0.0,
            "publishes": 0,
            "publish_seconds": 0.0,
        }
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            try:
                self.run_once()
            except Exception as exc:  # noqa: BLE001 - keep serving reads
                self.last_error = f"{type(exc).__name__}: {exc}"
            self._stop_event.wait(self.interval_s)

    def run_once(self) -> dict | None:
        """One compaction cycle (also used synchronously by tests/CLI)."""
        published = self.pipeline.compact_once()
        if published is not None:
            self.last_publish = published
            self.last_error = None
            timings = published.get("timings", {})
            publish_s = float(timings.get("publish", 0.0))
            self.timings["folds"] += 1
            self.timings["fold_seconds"] += max(
                0.0, published["seconds"] - publish_s
            )
            self.timings["publishes"] += 1
            self.timings["publish_seconds"] += publish_s
            if self.journal is not None:
                self.journal.emit(
                    "publish",
                    version=published["version"],
                    lsn=published["applied_lsn"],
                    records=published["records"],
                    seconds=round(published["seconds"], 6),
                )
            if self.on_publish is not None:
                self.on_publish(published["version"])
            if self.keep_versions:
                protect = set()
                if self.pipeline.service is not None:
                    active = self.pipeline.service.version
                    if active:
                        protect.add(active)
                swept = collect_versions(
                    self.pipeline.store, keep=self.keep_versions, protect=protect
                )
                if self.journal is not None and swept["deleted"]:
                    self.journal.emit(
                        "gc",
                        deleted=swept["deleted"],
                        reclaimed_bytes=swept["reclaimed_bytes"],
                        version=published["version"],
                    )
        if (
            self.checkpoint_bytes
            and self.pipeline.log.size_bytes >= self.checkpoint_bytes
            and self.pipeline.lsn_applied == self.pipeline.lsn_durable
        ):
            checkpointed = self.pipeline.checkpoint()
            if self.journal is not None:
                self.journal.emit(
                    "checkpoint",
                    lsn=checkpointed["lsn"],
                    pruned_segments=checkpointed["pruned_segments"],
                )
        return published

    def stop(self, timeout_s: float = 10.0) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout_s)
