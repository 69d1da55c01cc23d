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
  liveness and restart counts.  Its admin port and every worker's are
  the same :class:`~repro.serving.http.server.HttpFrontEnd` as the data
  port, over their own routes.
- **Write path (opt-in via ``wal_dir``).**  Exactly one process may
  append to the delta log, so the *supervisor* holds the deployment's
  :class:`~repro.serving.http.write_path.WritePath`; its admin port
  routes ``POST /v1/upsert`` (JSON), ``/admin/promote`` and the
  replication feed to it, and each compacted version triggers a
  best-effort ``/admin/refresh`` poke to every live worker.  Fleet
  ``lsn_served`` is the *minimum* across live workers — the freshness a
  client can rely on no matter which worker accepts its connection.

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
from pathlib import Path

from repro.serving.http import protocol
from repro.serving.http.client import ServingClient
from repro.serving.http.protocol import ApiError
from repro.serving.http.server import EmbeddingServer, HttpFrontEnd
from repro.serving.http.write_path import WritePath, write_routes
from repro.serving.obs.journal import EventJournal
from repro.serving.obs.metrics import MetricsRegistry, merge_dicts
from repro.serving.store import EmbeddingStore

WORKER_SPEC_ENV = "REPRO_WORKER_SPEC"

# The worker's boot announcement; the supervisor parses the admin URL
# out of it (the data plane is the shared socket — only the admin port
# is per-worker news).
_READY_RE = re.compile(r"admin=(http://\S+)")

# The SupervisorConfig fields forwarded verbatim to every worker, which
# reads each one (worker_main): the whole spec, no defaults on that side.
_WORKER_KNOBS = (
    "store", "threads", "drain_timeout_s",
    "log_requests", "slow_query_ms",
)


@dataclass(frozen=True)
class SupervisorConfig:
    """Everything a multi-worker serving deployment needs to boot.

    The serving knobs (``threads`` … ``slow_query_ms``) mirror the
    single-process CLI flags and are forwarded verbatim to every worker;
    the supervision knobs control the babysitting policy.
    """

    store: str
    n_workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    # -- per-worker serving knobs (mirror `repro serve --http`) --------
    threads: int = 1
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

    store = EmbeddingStore(spec["store"])
    # Every key is required: the supervisor always writes the whole spec
    # (_WORKER_KNOBS), so a missing one is a boot error, not a silently
    # different server.
    service = QueryService(store, n_threads=max(1, int(spec["threads"])))
    try:
        server = EmbeddingServer(
            service,
            socket_fd=int(spec["listen_fd"]),
            drain_timeout_s=float(spec["drain_timeout_s"]),
            log=bool(spec["log_requests"]),
            worker_id=worker_id,
            faults=faults,
            slow_query_ms=float(spec["slow_query_ms"]),
        )
        # Health/aggregation side-channel on a private port (the shared
        # data socket cannot address one specific worker): the *data*
        # server's own handlers, so /healthz and /metrics report its
        # counters and drain state; no registry, so probes are neither
        # traced nor counted.
        admin = HttpFrontEnd(
            {
                protocol.HEALTHZ: ("GET", server.handle_healthz),
                protocol.DESCRIBE: ("GET", server.handle_describe),
                protocol.METRICS: ("GET", server.handle_metrics),
                protocol.TRACES: ("GET", server.handle_traces),
                protocol.REFRESH: ("POST", server.handle_refresh),
            }
        ).start()
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
    :meth:`shutdown` performs the rolling drain.  Exit codes: ``0``
    clean drain, ``3`` crash-loop breaker tripped.
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
        self._admin: HttpFrontEnd | None = None
        self._health_thread: threading.Thread | None = None
        self.restarts_total = 0
        # Only when config.wal_dir is set: the supervisor process owns
        # the log, compactor and replication hub; workers only ever read.
        self.write_path: WritePath | None = None
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
        assert self._admin is not None, "start() first"
        return self._admin.url

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
            self.write_path = WritePath.open(
                config.wal_dir,
                EmbeddingStore(config.store),
                graph=config.graph,
                bootstrap_k=config.bootstrap_k,
                max_bytes=config.wal_max_bytes,
                ack_replicas=config.ack_replicas,
                ack_timeout_s=config.ack_timeout_s,
                journal=self.journal,
            )
            self.write_path.start(
                compact_interval_s=config.compact_interval_s,
                gc_keep=config.gc_keep,
                on_publish=self._poke_workers,
            )
        self.journal.emit(
            "supervisor_start",
            n_workers=config.n_workers,
            url=self.url,
            wal=config.wal_dir is not None,
        )
        for slot in self._slots:
            self._spawn(slot)
        # The write routes live on the admin port: the shared data socket
        # cannot address the one process that owns the log.  JSON only —
        # the binary frame wire stays a data-plane affair.
        self._admin = HttpFrontEnd(
            {
                protocol.HEALTHZ: ("GET", self.aggregate_healthz),
                protocol.DESCRIBE: ("GET", self.aggregate_describe),
                protocol.METRICS: ("GET", self.aggregate_metrics),
                **write_routes(self.write_path),
            },
            host=config.host,
            drain_timeout_s=config.drain_timeout_s,
            registry=self.registry,
        ).start()
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
        if self.write_path is not None:
            self.write_path.quiesce()
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
        if self._admin is not None:
            # An in-flight admin upsert completes (late ones get 503
            # draining) before the log under it closes.
            self._admin.close()
        if self._listen is not None:
            self._listen.close()
        if self.write_path is not None:
            self.write_path.close()
        if not self._stop_logged:
            self._stop_logged = True
            self.journal.emit("supervisor_stop", failed=self._failed)

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- worker management ---------------------------------------------
    def _spawn(self, slot: _WorkerSlot) -> bool:
        """Launch slot's worker and wait for its boot announcement."""
        assert self._listen is not None
        spec = {name: getattr(self.config, name) for name in _WORKER_KNOBS}
        spec["listen_fd"] = self._listen.fileno()
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
            self._bury(slot, handle, "failed to boot (exit {code})")
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

    def _bury(self, slot: _WorkerSlot, handle: _WorkerHandle, why: str) -> None:
        """Kill the worker if it still runs, reap it, vacate its slot and
        take the death path; ``{code}`` in ``why`` is its exit code."""
        if handle.alive():
            handle.process.kill()
        handle.process.wait()
        self._reap(handle)
        with self._lock:
            slot.handle = None
        code = handle.process.returncode
        self._register_death(
            slot,
            f"worker {slot.worker_id} " + why.format(code=code),
            pid=handle.process.pid,
            exit_code=code,
        )

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
                    self._bury(slot, handle, "exited with code {code}")
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
                        self._bury(
                            slot, handle,
                            f"hung ({slot.health_failures} failed probes)",
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

    def _fleet_lsn_served(self, versions=None) -> int:
        """``lsn_served`` across the fleet: the *minimum* over live workers
        — the write a client is guaranteed to see whichever worker the
        kernel hands its connection to.  ``versions`` are the live
        workers' when the caller just probed them, else the health
        loop's last readings."""
        if versions is None:
            versions = [
                slot.last_version
                for slot, handle in self._worker_views()
                if handle is not None and handle.alive() and slot.last_version
            ]
        store = self.write_path.pipeline.store
        served = []
        for version in versions:
            try:
                # The log position baked into the version's manifest.
                metadata = store.manifest(version).get("metadata") or {}
                served.append(int(metadata.get("applied_lsn", 0)))
            except Exception:
                served.append(0)
        return min(served, default=0)

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
        if self.write_path is not None:
            self.write_path.collect(reg, self._fleet_lsn_served(versions))

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

    def aggregate_healthz(self, _body: dict) -> tuple[int, dict]:
        workers = []
        versions = set()
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
        if self.write_path is not None:
            payload.update(
                self.write_path.health_fields(self._fleet_lsn_served(versions))
            )
        return (200 if n_live else 503), payload

    def aggregate_describe(self, _body: dict) -> tuple[int, dict]:
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
        if self.write_path is not None:
            # Fleet view: the pipeline's own lsn_served tracks the store's
            # LATEST; what matters here is the slowest worker.
            payload.update(
                self.write_path.status_fields(self._fleet_lsn_served(versions))
            )
        return 200, payload

    def aggregate_metrics(self, _body: dict) -> tuple[int, dict]:
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
        if self.write_path is not None:
            payload.update(
                self.write_path.status_fields(self._fleet_lsn_served())
            )
        payload["registry"] = self.registry_snapshot()
        return 200, payload


if __name__ == "__main__":
    raise SystemExit(worker_main())
