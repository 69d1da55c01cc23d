"""Pre-fork multi-process serving tier with a fault-tolerant supervisor.

The single-process :class:`~repro.serving.http.server.EmbeddingServer`
is GIL-bound and a single point of failure.  This module escapes both:
a :class:`Supervisor` binds ONE listening socket, spawns ``N``
shared-nothing worker processes that all ``accept()`` from it (the
classic pre-fork model — the kernel load-balances connections across
whoever is blocked in accept), and babysits them:

- **Health checking.**  Each worker runs a second, loopback *admin*
  server (same :class:`~repro.serving.service.QueryService`, ephemeral
  port) announced on stdout at boot; the supervisor probes its
  ``/healthz`` on an interval.  A worker that stops answering for
  ``hang_checks`` consecutive probes is declared hung and SIGKILLed —
  the shared listen socket means a hung worker silently sheds its share
  of the accept load, so detection has to be active.
- **Crash recovery.**  A dead worker (crash, kill, hang) is restarted
  with exponential backoff.  The parent never drops the listen socket,
  so there is no accept gap while a worker is down — surviving workers
  keep taking every connection.
- **Crash-loop circuit breaker.**  More than ``max_restarts`` restarts
  of one worker slot inside ``restart_window_s`` trips the breaker: the
  supervisor tears everything down and exits nonzero rather than
  burning CPU relaunching a worker that cannot live (bad store, OOM,
  poisoned config).
- **Rolling drain.**  SIGTERM drains workers *one at a time* (each gets
  SIGTERM and completes its in-flight requests); capacity degrades
  gradually instead of all-at-once.
- **Aggregation.**  The supervisor serves its own loopback admin
  endpoints — ``/healthz``, ``/metrics``, ``/v1/describe`` — that fan
  in across workers: the workers' metric registries merged cell by cell
  (:func:`~repro.serving.obs.metrics.merge_dicts` — the one fleet
  aggregation), per-worker served version (surfacing refresh skew),
  liveness and restart counts.
- **Write path (opt-in via ``wal_dir``).**  Exactly one process may
  append to the delta log, so the *supervisor* owns the
  :class:`~repro.serving.wal.compactor.IngestPipeline` and its
  background :class:`~repro.serving.wal.compactor.Compactor`; the admin
  surface accepts ``POST /v1/upsert`` (JSON), acks after fsync, and
  each compacted version triggers a best-effort ``/admin/refresh`` poke
  to every live worker.  Fleet ``lsn_served`` is the *minimum* across
  live workers — the freshness a client can rely on no matter which
  worker accepts its connection.

Workers are separate *processes* launched by re-exec (``python -m
repro.serving.http._worker`` with a :data:`WORKER_SPEC_ENV` JSON
spec), not forks: the supervisor has running threads by the time it
restarts anything, and fork-with-threads is how you inherit a locked
lock.  The listen socket rides along via ``pass_fds``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

from repro.serving.http import protocol
from repro.serving.http.client import ServingClient
from repro.serving.http.protocol import ApiError
from repro.serving.http.server import (
    EmbeddingServer,
    apply_upsert,
    serve_replicate_feed,
)
from repro.serving.obs import metrics as obs_metrics
from repro.serving.obs.journal import EventJournal
from repro.serving.obs.metrics import MetricsRegistry, merge_dicts

WORKER_SPEC_ENV = "REPRO_WORKER_SPEC"

# The worker's boot announcement; the supervisor parses the admin URL
# out of it (the data plane is the shared socket — only the admin port
# is per-worker news).
_READY_RE = re.compile(r"admin=(http://\S+)")


@dataclass(frozen=True)
class SupervisorConfig:
    """Everything a multi-worker serving deployment needs to boot.

    The serving knobs (``backend`` … ``log_requests``) mirror the
    single-process CLI flags and are forwarded verbatim to every worker;
    the supervision knobs control the babysitting policy.
    """

    store: str
    n_workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    # -- per-worker serving knobs (mirror `repro serve --http`) --------
    backend: str = "auto"
    nprobe: int = 8
    threads: int = 1
    coalesce_window_ms: float = 0.0
    coalesce_max_batch: int = 64
    select_dtype: str = "float64"
    drain_timeout_s: float = 10.0
    log_requests: bool = False
    # Requests slower than this (milliseconds) are logged as structured
    # JSON slow-query lines on the worker's stderr; 0 disables.
    slow_query_ms: float = 0.0
    # -- write path (parent-owned WAL + compactor) ---------------------
    # Workers serve reads off the shared socket; the supervisor process
    # owns the delta log and the compactor, accepts POST /v1/upsert on
    # its admin URL, and pokes workers onto each compacted version.
    wal_dir: str | None = None
    graph: str | None = None  # base graph (.npz) for bootstrap/attach
    wal_max_bytes: int = 64 << 20
    compact_interval_s: float = 0.25
    gc_keep: int = 0  # store versions to retain (0 = never delete)
    bootstrap_k: int = 32
    # -- replication (the supervisor is always the primary side) -------
    # Standbys tail GET /v1/replicate off the admin URL; with
    # ack_replicas > 0 an upsert ack additionally waits for that many
    # standby confirmations (semi-sync — zero acked loss on failover).
    ack_replicas: int = 0
    ack_timeout_s: float = 5.0
    # -- supervision policy --------------------------------------------
    health_interval_s: float = 0.25
    health_timeout_s: float = 1.0
    hang_checks: int = 8
    backoff_base_s: float = 0.1
    backoff_max_s: float = 5.0
    max_restarts: int = 5
    restart_window_s: float = 30.0
    boot_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {self.max_restarts}")
        if self.health_interval_s <= 0:
            raise ValueError("health_interval_s must be > 0")


# ---------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------
def _open_worker_store(root: str):
    from repro.serving.sharding.store import ShardedEmbeddingStore
    from repro.serving.store import EmbeddingStore

    if ShardedEmbeddingStore.is_sharded_root(root):
        return ShardedEmbeddingStore(root)
    return EmbeddingStore(root)


def worker_main(environ=None) -> int:
    """Entry point of one worker process (re-exec'd by the supervisor).

    Reads its spec from :data:`WORKER_SPEC_ENV`, adopts the inherited
    listen socket, builds the query service, and serves until SIGTERM
    (drain) or a crash.  Prints exactly one parsable boot line so the
    supervisor learns the per-worker admin URL.
    """
    from repro.serving.faults import FaultInjector
    from repro.serving.service import QueryService

    environ = os.environ if environ is None else environ
    raw = environ.get(WORKER_SPEC_ENV)
    if not raw:
        print(
            f"error: {WORKER_SPEC_ENV} is not set; this entry point is "
            "launched by the supervisor, not by hand",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(raw)
    worker_id = int(spec["worker_id"])
    faults = FaultInjector.from_env(worker_id=worker_id)

    store = _open_worker_store(spec["store"])
    service = QueryService(
        store,
        backend=spec.get("backend", "auto"),
        nprobe=int(spec.get("nprobe", 8)),
        n_threads=max(1, int(spec.get("threads", 1))),
        index_cache=True,
        select_dtype=spec.get("select_dtype", "float64"),
    )
    try:
        server = EmbeddingServer(
            service,
            socket_fd=int(spec["listen_fd"]),
            drain_timeout_s=float(spec.get("drain_timeout_s", 10.0)),
            coalesce_window_s=float(spec.get("coalesce_window_ms", 0.0)) / 1e3,
            coalesce_max_batch=int(spec.get("coalesce_max_batch", 64)),
            log=bool(spec.get("log_requests", False)),
            worker_id=worker_id,
            faults=faults,
            slow_query_ms=float(spec.get("slow_query_ms", 0.0)),
        )
        # The shared listen socket must be non-blocking under pre-fork:
        # a new connection wakes every worker's selector, but only one
        # accept() wins — the losers must get EAGAIN back, not block
        # their serve loop until the *next* connection arrives.
        server._httpd.socket.setblocking(False)
        # Health/aggregation side-channel: same service, private port —
        # the shared data socket cannot address one specific worker.
        # stats_for makes its /metrics and /healthz report the *data*
        # server's counters and drain state, not the admin server's own.
        admin = EmbeddingServer(
            service, port=0, worker_id=worker_id, stats_for=server
        )
        admin.start()
        print(
            f"worker {worker_id} pid={os.getpid()} serving on {server.url} "
            f"admin={admin.url}",
            flush=True,
        )
        try:
            drained = server.run(signals=True)
        finally:
            admin.close()
        return 0 if drained else 1
    finally:
        service.close()


# ---------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    """One live (or recently live) worker process."""

    process: subprocess.Popen
    ready: threading.Event = field(default_factory=threading.Event)
    admin_url: str | None = None
    client: ServingClient | None = None
    reader: threading.Thread | None = None

    def alive(self) -> bool:
        return self.process.poll() is None


class _WorkerSlot:
    """The supervision state of one worker position (id is stable)."""

    def __init__(self, worker_id: int, backoff_base_s: float) -> None:
        self.worker_id = worker_id
        self.handle: _WorkerHandle | None = None
        self.backoff_s = backoff_base_s
        self.not_before = 0.0  # monotonic time before which no respawn
        self.restart_times: deque[float] = deque()
        self.health_failures = 0
        self.last_probe = 0.0
        self.restarts = 0
        self.last_exit: str | None = None
        self.last_version: str | None = None  # from the last healthz probe
        # Fleet-monotonic metric fan-in: `registry_last` is the current
        # incarnation's registry as of its last scrape; on death it folds
        # into `registry_retired` so restart cannot make an aggregate
        # counter go backwards (it is exact as-of the last scrape — the
        # growth between that scrape and the crash dies with the worker).
        self.registry_last: dict | None = None
        self.registry_retired: dict | None = None

    def fold_registry(self) -> None:
        """Retire the dead incarnation's last-scraped registry snapshot."""
        if self.registry_last is None:
            return
        # Gauges describe a live process (in-flight requests, resident
        # memory); the dead incarnation's must not add to its successor's.
        retiring = {
            "families": [
                family
                for family in self.registry_last["families"]
                if family["type"] != "gauge"
            ]
        }
        self.registry_retired = merge_dicts(
            [part for part in (self.registry_retired, retiring) if part is not None]
        )
        self.registry_last = None


class Supervisor:
    """Own the listen socket; keep ``n_workers`` processes serving it.

    Lifecycle: :meth:`start` binds, spawns, and launches the health
    loop; :meth:`wait` blocks until SIGTERM/SIGINT or a breaker trip;
    :meth:`shutdown` performs the rolling drain.  ``run()`` is the CLI
    composition of the three.  Exit codes: ``0`` clean drain, ``3``
    crash-loop breaker tripped.
    """

    BREAKER_EXIT = 3

    def __init__(self, config: SupervisorConfig) -> None:
        self.config = config
        self._slots = [
            _WorkerSlot(i, config.backoff_base_s) for i in range(config.n_workers)
        ]
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._shutdown_logged = False
        self._stop_logged = False
        self._failed: str | None = None
        self._listen: socket.socket | None = None
        self._admin_httpd: ThreadingHTTPServer | None = None
        self._admin_thread: threading.Thread | None = None
        self._health_thread: threading.Thread | None = None
        self.restarts_total = 0
        # Write path (only when config.wal_dir is set): the supervisor
        # process owns the log + compactor; workers only ever read.
        self.pipeline = None
        self.compactor = None
        # Replication hub (with the write path): tracks standby acks so
        # the admin upsert can be semi-synchronous.
        self.hub = None
        # Ops journal under the store root: worker lifecycle, breaker
        # trips, publishes/checkpoints/GC (via the compactor), drains.
        self.journal = EventJournal(config.store)
        # The supervisor's own registry (restart counts, fleet liveness,
        # WAL state); worker registries merge with it at scrape time.
        self.registry = MetricsRegistry()
        self.registry.add_collect(self._collect_supervisor_metrics)

    # -- addresses -----------------------------------------------------
    @property
    def url(self) -> str:
        assert self._listen is not None, "start() first"
        host, port = self._listen.getsockname()[:2]
        return f"http://{host}:{port}"

    @property
    def admin_url(self) -> str:
        assert self._admin_httpd is not None, "start() first"
        host, port = self._admin_httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def failed(self) -> str | None:
        """The breaker trip reason, or ``None`` while healthy."""
        return self._failed

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Supervisor":
        """Bind the shared socket, spawn every worker, begin supervising."""
        config = self.config
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((config.host, config.port))
        self._listen.listen(128)
        # The write path must be ready *before* any worker boots: a cold
        # bootstrap publishes the first store version, and workers open
        # LATEST at startup.
        if config.wal_dir is not None:
            from repro.serving.wal.compactor import Compactor, IngestPipeline
            from repro.serving.wal.replication import ReplicationHub

            self.hub = ReplicationHub(journal=self.journal)
            self.pipeline = IngestPipeline(
                config.wal_dir,
                _open_worker_store(config.store),
                max_bytes=config.wal_max_bytes,
            )
            self.pipeline.ensure_ready(config.graph, k=config.bootstrap_k)
            self.compactor = Compactor(
                self.pipeline,
                interval_s=config.compact_interval_s,
                keep_versions=config.gc_keep,
                on_publish=self._poke_workers,
                journal=self.journal,
            )
            self.compactor.start()
        self.journal.emit(
            "supervisor_start",
            n_workers=config.n_workers,
            url=self.url,
            wal=config.wal_dir is not None,
        )
        for slot in self._slots:
            self._spawn(slot)
        self._admin_httpd = ThreadingHTTPServer(
            (config.host, 0), _SupervisorAdminHandler
        )
        self._admin_httpd.daemon_threads = True
        self._admin_httpd.supervisor = self  # type: ignore[attr-defined]
        self._admin_thread = threading.Thread(
            target=self._admin_httpd.serve_forever,
            name="supervisor-admin",
            daemon=True,
        )
        self._admin_thread.start()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="supervisor-health", daemon=True
        )
        self._health_thread.start()
        return self

    def wait(self, *, signals: bool = True) -> int:
        """Block until shutdown is requested, then drain; return exit code."""
        if signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_: self._stop.set())
        self._stop.wait()
        self.shutdown()
        if self._failed is not None:
            print(f"error: {self._failed}", file=sys.stderr, flush=True)
            return self.BREAKER_EXIT
        return 0

    def run(self, *, signals: bool = True) -> int:
        self.start()
        return self.wait(signals=signals)

    def shutdown(self) -> None:
        """Rolling drain: SIGTERM workers one at a time, then tear down."""
        self._stop.set()
        if not self._shutdown_logged:
            self._shutdown_logged = True
            self.journal.emit(
                "drain", reason=self._failed or "shutdown requested"
            )
        # Quiesce the write path first so no new version lands (and no
        # worker gets poked) mid-drain; the log itself closes last.
        if self.compactor is not None:
            self.compactor.stop()
            self.compactor = None
        if self._health_thread is not None:
            self._health_thread.join(timeout=10.0)
            self._health_thread = None
        for slot in self._slots:
            with self._lock:
                handle = slot.handle
            if handle is None:
                continue
            if handle.alive():
                handle.process.send_signal(signal.SIGTERM)
                try:
                    # Sequential by design: the next worker keeps serving
                    # at full tilt until this one has finished draining.
                    handle.process.wait(
                        timeout=self.config.drain_timeout_s + 5.0
                    )
                except subprocess.TimeoutExpired:
                    handle.process.kill()
                    handle.process.wait()
            self._reap(handle)
        if self._admin_httpd is not None:
            self._admin_httpd.shutdown()
            self._admin_httpd.server_close()
            if self._admin_thread is not None:
                self._admin_thread.join(timeout=5.0)
                self._admin_thread = None
        if self._listen is not None:
            self._listen.close()
        if self.pipeline is not None:
            self.pipeline.close()
            self.pipeline = None
        if not self._stop_logged:
            self._stop_logged = True
            self.journal.emit("supervisor_stop", failed=self._failed)

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- worker management ---------------------------------------------
    def _worker_spec(self) -> dict:
        config = self.config
        assert self._listen is not None
        return {
            "store": config.store,
            "listen_fd": self._listen.fileno(),
            "backend": config.backend,
            "nprobe": config.nprobe,
            "threads": config.threads,
            "coalesce_window_ms": config.coalesce_window_ms,
            "coalesce_max_batch": config.coalesce_max_batch,
            "select_dtype": config.select_dtype,
            "drain_timeout_s": config.drain_timeout_s,
            "log_requests": config.log_requests,
            "slow_query_ms": config.slow_query_ms,
        }

    def _spawn(self, slot: _WorkerSlot) -> bool:
        """Launch slot's worker and wait for its boot announcement."""
        spec = self._worker_spec()
        spec["worker_id"] = slot.worker_id
        env = dict(os.environ)
        env[WORKER_SPEC_ENV] = json.dumps(spec)
        # The child re-imports repro by name; make sure it resolves to
        # *this* checkout even when the parent got it from sys.path
        # manipulation rather than an installed package.
        package_root = str(Path(__file__).resolve().parents[3])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.http._worker"],
            env=env,
            pass_fds=(self._listen.fileno(),),
            stdout=subprocess.PIPE,
            stderr=None,  # worker tracebacks land on the supervisor's stderr
            text=True,
        )
        handle = _WorkerHandle(process=process)
        handle.reader = threading.Thread(
            target=self._read_worker_output,
            args=(handle, slot.worker_id),
            name=f"worker-{slot.worker_id}-stdout",
            daemon=True,
        )
        handle.reader.start()
        # Poll rather than one long wait: a worker that dies during boot
        # (bad store, import error) should hit the death path *now*, not
        # after the full boot timeout.
        deadline = time.monotonic() + self.config.boot_timeout_s
        while (
            not handle.ready.is_set()
            and handle.alive()
            and time.monotonic() < deadline
        ):
            handle.ready.wait(timeout=0.05)
        if not handle.ready.is_set() or not handle.alive():
            # Died during boot (or never announced): goes through the
            # normal death path so backoff and the breaker apply.
            if handle.alive():
                handle.process.kill()
            handle.process.wait()
            self._reap(handle)
            with self._lock:
                slot.handle = None
            self._register_death(
                slot,
                f"worker {slot.worker_id} failed to boot "
                f"(exit {handle.process.returncode})",
                pid=handle.process.pid,
                exit_code=handle.process.returncode,
            )
            return False
        handle.client = ServingClient(
            handle.admin_url,
            timeout_s=self.config.health_timeout_s,
            retries=0,
            backoff_s=0.0,
        )
        with self._lock:
            slot.handle = handle
            slot.health_failures = 0
            slot.last_probe = time.monotonic()
        self.journal.emit(
            "worker_start",
            worker=slot.worker_id,
            worker_pid=handle.process.pid,
            admin=handle.admin_url,
        )
        return True

    def _read_worker_output(self, handle: _WorkerHandle, worker_id: int) -> None:
        assert handle.process.stdout is not None
        for line in handle.process.stdout:
            line = line.rstrip()
            match = _READY_RE.search(line)
            if match and handle.admin_url is None:
                handle.admin_url = match.group(1)
                handle.ready.set()
            elif line:
                print(f"[worker {worker_id}] {line}", file=sys.stderr, flush=True)
        handle.process.stdout.close()

    def _reap(self, handle: _WorkerHandle) -> None:
        if handle.client is not None:
            handle.client.close()
        if handle.reader is not None:
            handle.reader.join(timeout=5.0)

    def _register_death(
        self,
        slot: _WorkerSlot,
        reason: str,
        *,
        pid: int | None = None,
        exit_code: int | None = None,
    ) -> None:
        """Record a death; schedule backoff respawn or trip the breaker."""
        now = time.monotonic()
        slot.last_exit = reason
        with self._lock:
            # The dead incarnation's counters fold into the slot's
            # retired pile so the fleet aggregate stays monotonic.
            slot.fold_registry()
        self.journal.emit(
            "worker_exit",
            worker=slot.worker_id,
            worker_pid=pid,
            exit=exit_code,
            reason=reason,
        )
        slot.restart_times.append(now)
        window = self.config.restart_window_s
        while slot.restart_times and now - slot.restart_times[0] > window:
            slot.restart_times.popleft()
        if len(slot.restart_times) > self.config.max_restarts:
            self._failed = (
                f"crash loop: worker {slot.worker_id} needed "
                f"{len(slot.restart_times)} restarts inside {window:.0f}s "
                f"(last: {reason}); giving up"
            )
            self.journal.emit(
                "breaker_trip", worker=slot.worker_id, reason=self._failed
            )
            self._stop.set()
            return
        slot.not_before = now + slot.backoff_s
        slot.backoff_s = min(slot.backoff_s * 2, self.config.backoff_max_s)

    def _health_loop(self) -> None:
        config = self.config
        while not self._stop.is_set():
            for slot in self._slots:
                if self._stop.is_set():
                    break
                with self._lock:
                    handle = slot.handle
                if handle is None:
                    if time.monotonic() >= slot.not_before:
                        slot.restarts += 1
                        self.restarts_total += 1
                        self.journal.emit(
                            "worker_restart",
                            worker=slot.worker_id,
                            restarts=slot.restarts,
                            last_exit=slot.last_exit,
                        )
                        self._spawn(slot)
                    continue
                if not handle.alive():
                    code = handle.process.returncode
                    pid = handle.process.pid
                    self._reap(handle)
                    with self._lock:
                        slot.handle = None
                    self._register_death(
                        slot,
                        f"worker {slot.worker_id} exited with code {code}",
                        pid=pid,
                        exit_code=code,
                    )
                    continue
                now = time.monotonic()
                if now - slot.last_probe < config.health_interval_s:
                    continue
                slot.last_probe = now
                try:
                    probe = handle.client.healthz()
                except Exception:
                    slot.health_failures += 1
                    if slot.health_failures >= config.hang_checks:
                        # Unresponsive but alive: a hung worker sheds its
                        # accept share invisibly — kill it so the restart
                        # path can restore capacity.
                        handle.process.kill()
                        handle.process.wait()
                        self._reap(handle)
                        with self._lock:
                            slot.handle = None
                        self._register_death(
                            slot,
                            f"worker {slot.worker_id} hung "
                            f"({slot.health_failures} failed probes)",
                            pid=handle.process.pid,
                            exit_code=handle.process.returncode,
                        )
                else:
                    slot.health_failures = 0
                    slot.last_version = probe.get("version")
                    # A worker answering health checks is not crash-looping:
                    # let the next incident start from a fresh backoff.
                    slot.backoff_s = config.backoff_base_s
            self._stop.wait(timeout=config.health_interval_s / 2)

    # -- write path ----------------------------------------------------
    def _poke_workers(self, version: str) -> None:
        """Nudge every live worker onto the just-compacted version.

        Best-effort by design: a worker that misses the poke (dead,
        mid-restart, admin hiccup) converges on its own — it reopens
        LATEST on its next refresh and the freshness gap shows up in
        ``lsn_served`` until it does.
        """
        for slot, handle in self._worker_views():
            if handle is None or not handle.alive():
                continue
            try:
                handle.client.refresh()
            except Exception:
                pass

    def _version_applied_lsn(self, version: str | None) -> int:
        """The log position baked into ``version``'s manifest (0 if none)."""
        if version is None or self.pipeline is None:
            return 0
        try:
            manifest = self.pipeline.store.manifest(version)
        except Exception:
            return 0
        return int((manifest.get("metadata") or {}).get("applied_lsn", 0))

    def _lsn_fields(self, worker_versions) -> dict:
        """``lsn_durable``/``lsn_served`` across the fleet.

        ``lsn_served`` is the *minimum* over live workers — the write a
        client is guaranteed to see regardless of which worker the
        kernel hands its connection to.
        """
        assert self.pipeline is not None
        served = [
            self._version_applied_lsn(version) for version in worker_versions
        ]
        return {
            "lsn_durable": self.pipeline.lsn_durable,
            "lsn_served": min(served) if served else 0,
        }

    # -- aggregation ---------------------------------------------------
    def _worker_views(self) -> list[tuple[_WorkerSlot, _WorkerHandle | None]]:
        with self._lock:
            return [(slot, slot.handle) for slot in self._slots]

    def _collect_supervisor_metrics(self) -> None:
        """Scrape-time mirror of supervision + write-path state."""
        reg = self.registry
        reg.counter(
            "supervisor_restarts_total", "Worker restarts performed"
        ).set_total(self.restarts_total)
        views = self._worker_views()
        live = sum(
            1 for _, handle in views if handle is not None and handle.alive()
        )
        reg.gauge("supervisor_workers_live", "Live worker processes").set(live)
        reg.gauge(
            "supervisor_workers_configured", "Configured worker slots"
        ).set(len(self._slots))
        versions = {
            slot.last_version
            for slot, handle in views
            if handle is not None and handle.alive() and slot.last_version
        }
        reg.gauge(
            "supervisor_version_skew",
            "1 while live workers serve different store versions",
        ).set(1.0 if len(versions) > 1 else 0.0)
        reg.gauge(
            "supervisor_breaker_tripped", "1 after the crash-loop breaker fired"
        ).set(1.0 if self._failed is not None else 0.0)
        if self.pipeline is not None:
            obs_metrics.mirror_wal_counters(reg, self.pipeline)
            served = [
                self._version_applied_lsn(slot.last_version)
                for slot, handle in views
                if handle is not None and handle.alive() and slot.last_version
            ]
            lsn_served = min(served) if served else 0
            durable = self.pipeline.lsn_durable
            reg.gauge("ingest_lsn_durable", "Highest fsync-acked LSN").set(
                durable
            )
            reg.gauge(
                "ingest_lsn_served",
                "Highest LSN every live worker is guaranteed to serve",
            ).set(lsn_served)
            reg.gauge(
                "ingest_freshness_lag", "lsn_durable - fleet lsn_served"
            ).set(durable - lsn_served)
            reg.gauge("wal_epoch", "Current WAL fencing epoch").set(
                self.pipeline.log.epoch
            )
            if self.hub is not None:
                hub = self.hub.status()
                reg.gauge(
                    "replication_standbys", "Standbys polling the feed"
                ).set(hub["n_standbys"])
                reg.gauge(
                    "replication_min_ack_lsn",
                    "Lowest cumulative ack across live standbys",
                ).set(
                    hub["min_ack_lsn"]
                    if hub["min_ack_lsn"] is not None
                    else -1
                )
            if self.compactor is not None:
                timings = self.compactor.timings
                reg.counter(
                    "compactor_fold_seconds_total", "Time spent folding WAL deltas"
                ).set_total(timings["fold_seconds"])
                reg.counter(
                    "compactor_publish_seconds_total",
                    "Time spent publishing folded versions",
                ).set_total(timings["publish_seconds"])
                reg.counter(
                    "compactor_publishes_total",
                    "Versions published by the compactor",
                ).set_total(timings["publishes"])

    def registry_snapshot(self) -> dict:
        """The fleet registry: supervisor families + every worker's cells.

        Retired (dead-incarnation) snapshots merge with the live workers'
        last-scraped snapshots, so counters are monotonic across worker
        restarts; cells with identical labels sum exactly.
        """
        parts = [self.registry.as_dict()]
        with self._lock:
            for slot in self._slots:
                if slot.registry_retired is not None:
                    parts.append(slot.registry_retired)
                if slot.registry_last is not None:
                    parts.append(slot.registry_last)
        return merge_dicts(parts)

    def prometheus_text(self) -> str:
        """The fleet registry rendered as Prometheus text exposition."""
        return obs_metrics.render_text_from_dict(self.registry_snapshot())

    def handle_promote(self, body: dict) -> dict:
        """``POST /admin/promote``: bump the WAL epoch (fencing).

        A supervisor is always on the primary side of replication, so
        "promotion" here is the epoch bump alone — used to fence off a
        dead peer's term after this deployment took over its data, or
        to pre-empt a suspect writer.  Standbys adopt the new epoch on
        their next poll; pollers still on an older term get 409s.
        """
        protocol.reject_unknown_fields(body, ("epoch",))
        if self.pipeline is None:
            raise ApiError(
                409, "no_write_path",
                "this supervisor has no WAL attached; there is no "
                "epoch to bump",
            )
        target = protocol.require_int(body, "epoch", minimum=1)
        log = self.pipeline.log
        try:
            epoch = log.bump_epoch(target)
        except ValueError as error:
            raise ApiError(
                409, "stale_epoch", str(error),
                {"epoch": log.epoch, "requested": target},
            )
        self.journal.emit(
            "promote",
            epoch=epoch,
            previous_role="primary",
            lsn_durable=log.last_lsn,
        )
        return {
            "role": "primary",
            "previous_role": "primary",
            "epoch": epoch,
            "lsn_durable": log.last_lsn,
        }

    def _replication_status(self) -> dict:
        log = self.pipeline.log
        return {
            "role": "primary",
            "epoch": log.epoch,
            "epoch_start_lsn": log.epoch_start_lsn,
            "hub": self.hub.status() if self.hub is not None else None,
            "ack_replicas": self.config.ack_replicas,
        }

    def aggregate_healthz(self) -> tuple[int, dict]:
        workers = []
        versions = set()
        live_versions = []
        n_live = 0
        for slot, handle in self._worker_views():
            entry: dict = {
                "worker": slot.worker_id,
                "alive": False,
                "restarts": slot.restarts,
            }
            if slot.last_exit is not None:
                entry["last_exit"] = slot.last_exit
            if handle is not None and handle.alive():
                entry["pid"] = handle.process.pid
                try:
                    probe = handle.client.healthz()
                except Exception as error:
                    entry["error"] = f"{type(error).__name__}: {error}"
                else:
                    entry["alive"] = True
                    entry["version"] = probe.get("version")
                    entry["draining"] = probe.get("draining")
                    versions.add(probe.get("version"))
                    live_versions.append(probe.get("version"))
                    n_live += 1
            workers.append(entry)
        status = (
            "ok"
            if n_live == len(self._slots)
            else ("degraded" if n_live else "down")
        )
        payload = {
            "status": status,
            "n_workers": len(self._slots),
            "n_live": n_live,
            "version_skew": len(versions) > 1,
            "restarts_total": self.restarts_total,
            "workers": workers,
        }
        if self.pipeline is not None:
            lsn = self._lsn_fields(live_versions)
            payload.update(lsn)
            payload["freshness_lag"] = lsn["lsn_durable"] - lsn["lsn_served"]
            payload["role"] = "primary"
            payload["epoch"] = self.pipeline.log.epoch
            if self.hub is not None:
                hub = self.hub.status()
                if hub["n_standbys"]:
                    payload["replication"] = hub
        return (200 if n_live else 503), payload

    def aggregate_describe(self) -> tuple[int, dict]:
        base: dict | None = None
        workers = []
        versions = set()
        for slot, handle in self._worker_views():
            entry: dict = {"worker": slot.worker_id, "alive": False}
            if handle is not None and handle.alive():
                try:
                    info = handle.client.describe()
                except Exception as error:
                    entry["error"] = f"{type(error).__name__}: {error}"
                else:
                    entry["alive"] = True
                    entry["version"] = info.get("version")
                    versions.add(info.get("version"))
                    if base is None:
                        base = info
            workers.append(entry)
        if base is None:
            raise ApiError(503, "no_workers", "no live worker to describe")
        payload = dict(base)
        payload.pop("worker", None)  # supervisor-level view, not one worker's
        payload["supervisor"] = {
            "n_workers": len(self._slots),
            "workers": workers,
            "version_skew": len(versions) > 1,
        }
        if self.pipeline is not None:
            live = [w["version"] for w in workers if w.get("alive")]
            lsn = self._lsn_fields(live)
            payload.update(lsn)
            payload["ingest"] = {
                **self.pipeline.freshness(),
                # Fleet view: the pipeline's own lsn_served tracks the
                # store's LATEST; what matters here is the slowest worker.
                "lsn_served": lsn["lsn_served"],
                "lag": lsn["lsn_durable"] - lsn["lsn_served"],
                "wal_dir": str(self.pipeline.wal_dir),
                "log_bytes": self.pipeline.log.size_bytes,
                "log_max_bytes": self.pipeline.log.max_bytes,
            }
            payload["replication"] = self._replication_status()
        return 200, payload

    def aggregate_metrics(self) -> tuple[int, dict]:
        """Fan-in ``/metrics``: per-worker payloads plus the fleet registry.

        The fleet view is ``registry`` and nothing else: every worker
        cell (counters, gauges, histogram buckets) sums exactly through
        :func:`merge_dicts`, so request, error, query and latency totals
        — and any quantile — are read off the merged families.  The raw
        per-worker payloads sit alongside under ``workers``.
        """
        per_worker: dict[str, dict] = {}
        for slot, handle in self._worker_views():
            if handle is None or not handle.alive():
                continue
            try:
                metrics = handle.client.metrics()
            except Exception:
                continue
            per_worker[str(slot.worker_id)] = metrics
            registry = metrics.get("registry")
            if isinstance(registry, dict):
                with self._lock:
                    slot.registry_last = registry
        payload = {
            "schema": protocol.PROTOCOL_SCHEMA,
            "supervisor": {
                "n_workers": len(self._slots),
                "n_reporting": len(per_worker),
                "restarts_total": self.restarts_total,
            },
            "workers": per_worker,
        }
        if self.pipeline is not None:
            ingest = {
                **self.pipeline.freshness(),
                "counters": dict(self.pipeline.counters),
                "log_bytes": self.pipeline.log.size_bytes,
                "log_max_bytes": self.pipeline.log.max_bytes,
            }
            if self.compactor is not None:
                ingest["compactor"] = {
                    "alive": self.compactor.is_alive(),
                    "interval_s": self.compactor.interval_s,
                    "keep_versions": self.compactor.keep_versions,
                    "last_publish": self.compactor.last_publish,
                    "last_error": self.compactor.last_error,
                }
            payload["ingest"] = ingest
            payload["replication"] = self._replication_status()
        payload["registry"] = self.registry_snapshot()
        return 200, payload


class _SupervisorAdminHandler(BaseHTTPRequestHandler):
    """The supervisor's own tiny admin surface (JSON by default)."""

    protocol_version = "HTTP/1.1"
    timeout = 30

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:
        supervisor: Supervisor = self.server.supervisor  # type: ignore[attr-defined]
        split = urlsplit(self.path)
        path = split.path
        try:
            if path == protocol.REPLICATE:
                # Binary feed, not a JSON envelope — rejections still
                # surface below as structured ApiError JSON.
                if supervisor.pipeline is None:
                    raise ApiError(
                        409, "no_write_path",
                        "this supervisor has no WAL attached; there is "
                        "no log to replicate",
                    )
                feed = serve_replicate_feed(
                    supervisor.pipeline.log,
                    supervisor.hub,
                    split.query,
                    abort=supervisor._stop.is_set,
                )
                self._send(200, feed, protocol.REPLICATION_CONTENT_TYPE)
                return
            if path == protocol.HEALTHZ:
                status, payload = supervisor.aggregate_healthz()
            elif path == protocol.METRICS:
                if "text/plain" in (self.headers.get("Accept") or ""):
                    # Prometheus scrape: fan in the worker registries
                    # first so the fleet snapshot is as of this scrape.
                    supervisor.aggregate_metrics()
                    self._respond_text(200, supervisor.prometheus_text())
                    return
                status, payload = supervisor.aggregate_metrics()
            elif path == protocol.DESCRIBE:
                status, payload = supervisor.aggregate_describe()
            else:
                raise ApiError(
                    404, "unknown_endpoint", f"no supervisor endpoint at {path!r}"
                )
        except ApiError as error:
            status, payload = error.status, error.body()
        except Exception as error:
            status, payload = 500, ApiError(
                500, "internal", f"{type(error).__name__}: {error}"
            ).body()
        self._respond(status, payload)

    def do_POST(self) -> None:
        # The write path lives on the *supervisor's* admin port in
        # multi-worker mode: exactly one process may append to the log,
        # and the shared data socket cannot address a specific process.
        # JSON only — the binary frame wire stays a data-plane affair.
        supervisor: Supervisor = self.server.supervisor  # type: ignore[attr-defined]
        path = urlsplit(self.path).path
        try:
            if path not in (protocol.UPSERT, protocol.PROMOTE):
                raise ApiError(
                    404, "unknown_endpoint", f"no supervisor endpoint at {path!r}"
                )
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                raise ApiError(400, "invalid_request", "request body is not JSON")
            if not isinstance(body, dict):
                raise ApiError(400, "invalid_request", "request body must be an object")
            if path == protocol.PROMOTE:
                status, payload = 200, supervisor.handle_promote(body)
            else:
                config = supervisor.config
                status, payload = apply_upsert(
                    supervisor.pipeline,
                    body,
                    hub=supervisor.hub,
                    ack_replicas=config.ack_replicas,
                    ack_timeout_s=config.ack_timeout_s,
                    epoch=(
                        supervisor.pipeline.log.epoch
                        if supervisor.pipeline is not None
                        else None
                    ),
                )
        except ApiError as error:
            status, payload = error.status, error.body()
        except Exception as error:
            status, payload = 500, ApiError(
                500, "internal", f"{type(error).__name__}: {error}"
            ).body()
        self._respond(status, payload)

    def _respond(self, status: int, payload: dict) -> None:
        body = protocol.dump_json(payload)
        self._send(status, body, protocol.JSON_CONTENT_TYPE)

    def _respond_text(self, status: int, text: str) -> None:
        self._send(status, text.encode("utf-8"), obs_metrics.TEXT_CONTENT_TYPE)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True


if __name__ == "__main__":
    raise SystemExit(worker_main())
