"""The ingest pipeline: one owner of the delta log and its compaction cycle.

``IngestPipeline`` owns the write path end to end: durable appends into
the :class:`~repro.serving.wal.log.DeltaLog`, a warm
:class:`~repro.dynamic.incremental.IncrementalPANE` whose graph tracks
the applied log prefix, publication of compacted store versions with
``applied_lsn`` recorded in the manifest so a restart resumes replay at
the right offset, and activation of each version on the bound query
service (in-flight queries finish on the old snapshot, new ones see the
new one).

Recovery contract (the LogBase recipe):

- ``base.npz`` + ``CHECKPOINT`` in the WAL directory snapshot the graph
  as of some LSN; segments at or below it may be pruned.
- The newest store version's ``metadata.applied_lsn`` names the log
  prefix its arrays reflect.
- Restart: load the checkpoint graph, replay ``(checkpoint, applied]``
  to rebuild the compactor's graph, adopt the stored embedding as the
  warm CCD seed, and fold everything past ``applied`` as usual.

One compaction cycle (:meth:`IngestPipeline.cycle`) is fold → publish
→ activate → journal → ``on_publish`` → retain → checkpoint;
:meth:`IngestPipeline.start` runs it on a background thread, sleeping
``interval_s`` after every cycle, while queries keep flowing against the
immutable published versions.
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
from repro.serving.wal.log import DeltaLog, LogFull
from repro.utils.fs import atomic_write, chmod_default_file
from repro.utils.timing import Timer

CHECKPOINT_FILE = "CHECKPOINT"
BASE_GRAPH_FILE = "base.npz"
CHECKPOINT_SCHEMA = "repro.serving.wal/v1"
# A cycle checkpoints and prunes once the log holds this many bytes with
# every record applied.
CHECKPOINT_BYTES = 8 << 20


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
    segment_bytes / max_bytes:
        The :class:`~repro.serving.wal.log.DeltaLog`'s segment size and
        backpressure ceiling.
    """

    def __init__(
        self,
        wal_dir: str | Path,
        store,
        *,
        segment_bytes: int = 4 << 20,
        max_bytes: int = 64 << 20,
    ) -> None:
        self.wal_dir = Path(wal_dir)
        self.store = store
        self.service = None
        self.log = DeltaLog(
            self.wal_dir, segment_bytes=segment_bytes, max_bytes=max_bytes
        )
        self._model: IncrementalPANE | None = None
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
        # Sum-mergeable duration totals of compact_once, mirrored into the
        # metrics registry at scrape time (no percentile state to merge).
        self.timings = {"fold_seconds": 0.0, "publish_seconds": 0.0}
        # The background cycle (start / stop); its settings are start's.
        self.interval_s = 0.25
        self.keep_versions = 0
        self.on_publish = None
        self.journal = None
        self.last_error: str | None = None
        self.last_publish: dict | None = None
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    def bind_service(self, service) -> None:
        """Bind the in-process query service each version is activated on.

        A cold bootstrap has to publish the first version *before* a
        ``QueryService`` can open the store, so the CLI boots the
        pipeline first and wires the service in afterwards.
        """
        self.service = service
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

    def _publish(self, embedding, applied_lsn: int, timer: Timer) -> str:
        """Publish ``embedding`` stamped with ``applied_lsn`` and activate it
        on the bound service: an atomic swap, nothing is deleted, so
        :meth:`EmbeddingStore.rollback` undoes a bad version."""
        with timer.measure("publish"):
            version = self.store.publish(
                embedding,
                metadata={"applied_lsn": applied_lsn, "epoch": self.log.epoch},
            )
        if self.service is not None:
            with timer.measure("swap"):
                self.service.activate(version)
        return version

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
        """Cold-start: fit ``graph``, publish and activate it, and
        checkpoint at LSN 0.

        Any records already in the log predate nothing the base graph
        contains, so they stay unapplied and the first compaction folds
        them.
        """
        if self._model is not None:
            raise RuntimeError("pipeline is already bootstrapped")
        self._model = IncrementalPANE(
            k=k, alpha=alpha, epsilon=epsilon, update_sweeps=update_sweeps, seed=seed
        )
        version = self._publish(self._model.fit(graph), 0, Timer())
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
            timer = Timer()
            with timer.measure("update"):
                embedding = self._model.update(delta)
            version = self._publish(embedding, last, timer)
            seconds = time.perf_counter() - t0
            self._applied_lsn = last
            self.counters["compactions"] += 1
            self.counters["records_folded"] += last - start
            publish_s = timer.laps["publish"]
            self.timings["fold_seconds"] += max(0.0, seconds - publish_s)
            self.timings["publish_seconds"] += publish_s
            return {
                "version": version,
                "applied_lsn": last,
                "records": last - start,
                "seconds": seconds,
                "timings": dict(timer.laps),
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

    # -- the compaction cycle --------------------------------------------
    def cycle(self) -> dict | None:
        """One compaction cycle; returns :meth:`compact_once`'s summary.

        Fold → publish → activate (:meth:`compact_once`), then journal
        the publish, announce it to ``on_publish``, retire superseded
        versions beyond ``keep_versions`` (LATEST and the served version
        always stay) and, once the log reaches :data:`CHECKPOINT_BYTES`
        with every record applied, checkpoint and prune.
        """
        published = self.compact_once()
        if published is not None:
            self.last_publish = published
            self.last_error = None
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
                active = self.service.version if self.service is not None else None
                swept = collect_versions(
                    self.store,
                    keep=self.keep_versions,
                    protect={active} if active else set(),
                )
                if self.journal is not None and swept["deleted"]:
                    self.journal.emit(
                        "gc",
                        deleted=swept["deleted"],
                        reclaimed_bytes=swept["reclaimed_bytes"],
                        version=published["version"],
                    )
        if (
            self.log.size_bytes >= CHECKPOINT_BYTES
            and self.lsn_applied == self.lsn_durable
        ):
            checkpointed = self.checkpoint()
            if self.journal is not None:
                self.journal.emit(
                    "checkpoint",
                    lsn=checkpointed["lsn"],
                    pruned_segments=checkpointed["pruned_segments"],
                )
        return published

    def start(
        self,
        *,
        interval_s: float = 0.25,
        keep_versions: int = 0,
        on_publish=None,
        journal=None,
    ) -> None:
        """Run :meth:`cycle` on a background thread until :meth:`stop`.

        Parameters
        ----------
        interval_s:
            Sleep after every cycle.
        keep_versions:
            When > 0, store versions to retain after each publish.
        on_publish:
            Optional ``fn(version: str)`` called after each publish (the
            supervisor pokes its workers onto the new version).
        journal:
            Optional :class:`~repro.serving.obs.journal.EventJournal`;
            every publish, checkpoint and GC sweep is recorded in it.
        """
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if keep_versions < 0:
            raise ValueError("keep_versions must be non-negative")
        self.interval_s = float(interval_s)
        self.keep_versions = int(keep_versions)
        self.on_publish = on_publish
        self.journal = journal
        self._thread = threading.Thread(
            target=self._run, name="wal-compactor", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop_event.is_set():
            try:
                self.cycle()
            except Exception as exc:  # noqa: BLE001 - keep serving reads
                self.last_error = f"{type(exc).__name__}: {exc}"
            self._stop_event.wait(self.interval_s)

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the background cycle after the one in flight.  Idempotent."""
        self._stop_event.set()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout_s)

    def cycle_status(self) -> dict | None:
        """The background cycle's state; ``None`` if it was never started."""
        if self._thread is None:
            return None
        return {
            "alive": self._thread.is_alive(),
            "interval_s": self.interval_s,
            "keep_versions": self.keep_versions,
            "last_publish": self.last_publish,
            "last_error": self.last_error,
        }

    def close(self) -> None:
        self.stop()
        self.log.close()
