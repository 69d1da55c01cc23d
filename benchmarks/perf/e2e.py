"""The untraced runs: what a user of the system would see.

``run_fit`` times ``PANE.fit`` ops back to back in this process.
``run_serve`` boots ``repro serve --http 0`` as a subprocess and drives it
with **one closed-loop client on one keep-alive connection** (a caller
that waits for each reply), so nothing queues and latency is the sum of
the layers.  Both return a :class:`RunResult` holding the seven
end-to-end metrics plus what the run *observed* about single layers from
outside (client tails, cache hit ratio, compactor counters) for the
traced report.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import measure
from workloads import digest, fit_inputs, serve_inputs

#: Set-up is repeated and its median reported, so one slow fsync or import
#: does not decide ``setup_s``.
SETUP_REPEATS = 3
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
DRAIN_TIMEOUT_S = 60.0


@dataclass
class RunResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    reason: str | None = None  # first failed correctness check, one line
    end_to_end: dict[str, float] = field(default_factory=dict)
    observed: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.reason is None

    def fail(self, reason: str) -> None:
        if self.reason is None:
            self.reason = f"{self.workload}: {reason}"


@dataclass
class OpLog:
    """What the closed-loop client saw, kept for the correctness checks."""

    keep: frozenset = frozenset()  # op indices whose answers are re-checked
    answers: dict = field(default_factory=dict)  # op index -> HTTPQueryResult
    acks: list = field(default_factory=list)  # (op index, first_lsn, last_lsn)
    uncached: list = field(default_factory=list)  # per read: missed the cache?
    first_error: str | None = None


class Scratch:
    """Owns every temp dir and child process of one benchmark invocation.

    ``close`` is safe to call from ``finally``, ``atexit`` and after a
    SIGTERM: it kills each server's process group, reaps it, and removes
    the temp root, so no exit path leaves a child or a directory behind.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self._procs: list[subprocess.Popen] = []

    def tempdir(self, label: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.root))

    def spawn_server(self, label: str, store: Path, *args: str):
        """Start ``repro serve --http 0`` in its own process group.

        Returns ``(process, url)`` once the boot line names the bound port.
        """
        from repro.serving.http.loadgen import cli_subprocess_env

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store),
             "--http", "0", "--backend", "exact", *args],
            env=cli_subprocess_env(),  # inherits the pinned BLAS thread counts
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        self._procs.append(proc)
        watchdog = threading.Timer(BOOT_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = re.search(r"on (http://\S+:\d+)", line)
        if not match:
            rest = "" if proc.poll() is None else proc.stdout.read()
            self.stop(proc)
            raise RuntimeError(
                f"{label}: server did not boot within {BOOT_TIMEOUT_S:.0f}s; "
                f"output: {(line + rest).strip()[-400:]!r}"
            )
        return proc, match.group(1)

    def stop(self, proc: subprocess.Popen) -> int:
        """SIGTERM the server's group, escalate to SIGKILL, always reap."""
        if proc.poll() is None:
            _signal_group(proc, signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _signal_group(proc, signal.SIGKILL)
                proc.wait(timeout=STOP_TIMEOUT_S)
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self._procs:
            self._procs.remove(proc)
        return proc.returncode

    def close(self) -> None:
        for proc in list(self._procs):
            _signal_group(proc, signal.SIGKILL)
            self.stop(proc)
        shutil.rmtree(self.root, ignore_errors=True)


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


# -- shared bookkeeping --------------------------------------------------
def _finish(result: RunResult, chunks: list[dict], setups: list[float],
            host: dict, *, peak_rss_mb: float, quality: float) -> None:
    """Turn per-chunk figures into the seven end-to-end metrics."""
    if not chunks:
        result.fail("no op completed, so there is nothing to report")
        return
    op_ms = [c["op_p50_ms"] for c in chunks if c["op_p50_ms"] is not None]
    write_ms = [c["write_p50_ms"] for c in chunks if c.get("write_p50_ms") is not None]
    if not op_ms:
        result.fail("no read completed, so there is no op latency")
        return
    op_p50 = measure.quiet(op_ms)
    result.end_to_end = {
        "setup_s": float(np.median(setups)),
        "op_p50_ms": op_p50,
        "ops_per_s": measure.quiet([c["ops"] / c["wall_s"] for c in chunks], "higher"),
        "cpu_ms_per_op": measure.quiet([c["cpu_s"] * 1e3 / c["ops"] for c in chunks]),
        "peak_rss_mb": peak_rss_mb,
        "quality": quality,
        # A workload without writes repeats its op latency here: the gate
        # wants every end-to-end metric on every workload and none at 0.
        "write_p50_ms": measure.quiet(write_ms) if write_ms else op_p50,
    }
    result.detail.update(chunks=chunks, setups_s=setups, host=host)


def _host_before() -> dict:
    total, steal = measure.host_ticks()
    return {"calib_before_ms": measure.calibrate(), "_ticks": (total, steal)}


def _host_after(host: dict) -> dict:
    total0, steal0 = host.pop("_ticks")
    total, steal = measure.host_ticks()
    host["calib_after_ms"] = measure.calibrate()
    host["steal_share"] = (steal - steal0) / max(1, total - total0)
    return host


# -- fit -----------------------------------------------------------------
def run_fit(spec, seed: int, n_ops: int, setup_repeats: int = SETUP_REPEATS):
    """``n_ops`` back-to-back ``PANE.fit`` calls on the seeded residual graph.

    Returns ``(result, inputs)``; the traced run reuses the inputs.
    """
    from repro.core.pane import PANE

    result = RunResult(spec.name)
    setups = []
    for _ in range(setup_repeats):
        start = time.perf_counter()
        inputs = fit_inputs(spec, seed)
        model = PANE(k=spec.k, n_threads=spec.n_threads,
                     ccd_block_size=spec.ccd_block_size)
        for _ in range(spec.warmup_fits):
            model.fit(inputs.residual)
        setups.append(time.perf_counter() - start)
    result.detail["inputs_sha256"] = digest(inputs)

    host = _host_before()
    chunks, first, last = [], None, None
    for _ in range(n_ops):
        result.attempted += 1
        cpu0, start = measure.cpu_seconds(), time.perf_counter()
        try:
            last = model.fit(inputs.residual)
        except Exception as error:  # a fit that raises is a failed op
            result.failed += 1
            result.fail(f"fit raised {type(error).__name__}: {error}")
            continue
        wall = time.perf_counter() - start
        chunks.append({"ops": 1, "wall_s": wall, "op_p50_ms": wall * 1e3,
                       "cpu_s": measure.cpu_seconds() - cpu0})
        if first is None:
            first = last.x_forward.copy()
    host = _host_after(host)

    quality = 0.0
    if last is not None:
        quality = float(inputs.task.evaluate_embedding(last).auc)
        shapes = (last.x_forward.shape, last.x_backward.shape, last.y.shape)
        half = spec.k // 2
        if shapes != ((spec.n, half), (spec.n, half), (spec.d, half)):
            result.fail(f"embedding shapes {shapes} do not match n/d/k")
        elif not all(np.isfinite(a).all() for a in (last.x_forward, last.x_backward, last.y)):
            result.fail("embedding holds non-finite values")
        elif quality < spec.auc_floor:
            result.fail(f"link-prediction AUC {quality:.4f} below floor {spec.auc_floor}")
        elif spec.n_threads == 1 and not np.array_equal(first, last.x_forward):
            result.fail("single-thread fit is not bit-reproducible on equal inputs")
    _finish(result, chunks, setups, host,
            peak_rss_mb=measure.peak_rss_mb(), quality=quality)
    return result, inputs


# -- serve ---------------------------------------------------------------
def _boot(scratch: Scratch, spec, inputs):
    """Publish/bootstrap into a fresh temp dir and start the server."""
    work = scratch.tempdir(spec.name)
    store = work / "store"
    if spec.kind == "serve_exact":
        from repro.serving.store import EmbeddingStore

        EmbeddingStore(store).publish(inputs.embedding)
        args = ()
    else:
        from repro.graph.io import save_npz

        save_npz(inputs.graph, work / "graph.npz")
        args = ("--wal-dir", str(work / "wal"), "--graph", str(work / "graph.npz"),
                "--wal-k", str(spec.wal_k), "--gc-keep", "4")
    proc, url = scratch.spawn_server(spec.name, store, *args)
    return work, proc, url


def _drive(client, spec, inputs, lo: int, hi: int, log: OpLog) -> dict:
    """Ops ``[lo, hi)`` of the stream, closed loop; returns latencies."""
    reads, writes, failed = [], [], 0
    for i in range(lo, hi):
        start = time.perf_counter()
        try:
            if inputs.is_write[i]:
                ack = client.upsert(add_edges=inputs.edges[i],
                                    add_associations=inputs.assocs[i])
                writes.append(time.perf_counter() - start)
                log.acks.append((i, int(ack["first_lsn"]), int(ack["lsn"])))
                continue
            answer = client.top_k(int(inputs.nodes[i]), spec.top_k)
            elapsed = time.perf_counter() - start
            if answer.ids.shape != (spec.top_k,) or np.any(np.diff(answer.scores) > 0):
                raise ValueError("malformed top_k answer")
            reads.append(elapsed)
            log.uncached.append(not answer.cached)
            if i in log.keep:
                log.answers[i] = answer
        except Exception as error:  # refused or errored request: failed op
            failed += 1
            if log.first_error is None:
                log.first_error = f"op {i}: {type(error).__name__}: {error}"
    return {"reads": reads, "writes": writes, "failed": failed}


def run_serve(scratch: Scratch, spec, seed: int, n_ops: int,
              setup_repeats: int = SETUP_REPEATS):
    """Closed-loop HTTP run against a subprocess server; returns ``(result, inputs)``."""
    from repro.serving.http.client import ServingClient

    result = RunResult(spec.name)
    setups = []
    proc = client = None
    try:
        for _ in range(setup_repeats):
            if proc is not None:  # only the last set-up is measured against
                client.close()
                scratch.stop(proc)
                shutil.rmtree(work)
            start = time.perf_counter()
            inputs = serve_inputs(spec, seed, n_ops)
            work, proc, url = _boot(scratch, spec, inputs)
            client = ServingClient(url, wire="json", retries=0, timeout_s=30.0)
            warm_log = OpLog()
            warm = _drive(client, spec, inputs, 0, spec.warmup_ops, warm_log)
            setups.append(time.perf_counter() - start)
            if warm["failed"]:
                result.fail(f"warm-up had {warm['failed']} failed ops "
                            f"({warm_log.first_error})")
        result.detail["inputs_sha256"] = digest(inputs)
        result.detail["server_pid"] = proc.pid

        # Warm-up upserts were acked too, so they stay in the durability check.
        log = OpLog(keep=frozenset((spec.warmup_ops + inputs.quality_ops).tolist()),
                    acks=warm_log.acks)
        before = client.metrics()
        host = _host_before()
        chunks, lags, all_reads = [], [], []
        for lo, hi in measure.chunk_bounds(n_ops):
            own0, child0 = measure.cpu_seconds(), measure.cpu_seconds(proc.pid)
            start = time.perf_counter()
            got = _drive(client, spec, inputs, spec.warmup_ops + lo,
                         spec.warmup_ops + hi, log)
            wall = time.perf_counter() - start
            own = measure.cpu_seconds() - own0
            child = measure.cpu_seconds(proc.pid) - child0
            result.attempted += hi - lo
            result.failed += got["failed"]
            done = len(got["reads"]) + len(got["writes"])
            if done:
                chunks.append({
                    "ops": done, "wall_s": wall, "cpu_s": own + child,
                    "client_cpu_s": own,
                    "op_p50_ms": float(np.median(got["reads"])) * 1e3 if got["reads"] else None,
                    "write_p50_ms": float(np.median(got["writes"])) * 1e3 if got["writes"] else None,
                })
            all_reads += got["reads"]
            if spec.kind == "serve_rw":  # between chunks, outside their clocks
                lags.append(client.healthz()["freshness_lag"])
        host = _host_after(host)
        if result.failed:
            result.fail(f"{result.failed} of {result.attempted} ops failed "
                        f"({log.first_error})")

        observed = _observe(client, spec, before, all_reads, log, chunks, lags)
        rss = measure.peak_rss_mb(proc.pid)
        if spec.kind == "serve_exact":
            quality = _bit_identical_share(result, spec, inputs, work / "store", log)
        else:
            observed.update(_drain(result, client, spec))
            observed.update(_write_amplification(client, work, log))
            client.close()
            if scratch.stop(proc) != 0:
                result.fail(f"server exited with code {proc.returncode} on SIGTERM")
            quality = _acked_events_found(result, inputs, work / "wal", log)
        result.observed = observed
        _finish(result, chunks, setups, host, peak_rss_mb=rss, quality=quality)
        return result, inputs
    finally:
        if client is not None:
            client.close()
        if proc is not None:
            scratch.stop(proc)


def _observe(client, spec, before: dict, reads: list[float], log: OpLog,
             chunks: list[dict], lags: list[int]) -> dict:
    """Layer figures visible from outside the server during the run."""
    after = client.metrics()
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    reads_ms = np.asarray(reads) * 1e3
    uncached = reads_ms[np.asarray(log.uncached, dtype=bool)]
    wall = sum(c["wall_s"] for c in chunks)
    out = {
        "service.cache_hit_ratio": hits / max(1, hits + misses),
        "client.op_median_ms": measure.percentile(reads_ms, 50),
        "client.op_p95_ms": measure.percentile(reads_ms, 95),
        "client.op_p99_ms": measure.percentile(reads_ms, 99),
        "client.op_max_ms": float(reads_ms.max()) if reads_ms.size else 0.0,
        "client.uncached_p50_ms": measure.percentile(uncached, 50),
    }
    if spec.kind == "serve_rw":
        counters = lambda doc: doc["ingest"]["counters"]
        busy = lambda doc: sum(
            _registry_total(doc, f"compactor_{part}_seconds_total")
            for part in ("fold", "publish")
        )
        out["compactor.compactions"] = float(
            counters(after)["compactions"] - counters(before)["compactions"])
        out["compactor.busy_share"] = (busy(after) - busy(before)) / wall
        out["freshness.lag_p50_lsn"] = measure.percentile(lags, 50)
    return out


def _registry_total(metrics: dict, name: str) -> float:
    """Sum of one counter family in the ``/metrics`` registry document."""
    for family in metrics.get("registry", {}).get("families", ()):
        if family["name"].endswith(name):
            return float(sum(cell["value"] for cell in family["cells"]))
    return 0.0


def _bit_identical_share(result: RunResult, spec, inputs, store: Path,
                         log: OpLog) -> float:
    """Share of sampled HTTP answers equal, id for id and score byte for
    score byte, to in-process ``QueryService.search`` on the same store."""
    from repro.serving.service import QueryService, SearchRequest
    from repro.serving.store import EmbeddingStore

    same = 0
    with QueryService(EmbeddingStore(store), backend="exact", cache_size=0) as service:
        for op in inputs.quality_ops + spec.warmup_ops:
            remote = log.answers.get(int(op))
            if remote is None:
                continue
            local = service.search(
                SearchRequest(node=int(inputs.nodes[op]), k=spec.top_k))
            same += (remote.version == local.version
                     and np.array_equal(remote.ids, local.ids)
                     and remote.scores.tobytes() == local.scores.tobytes())
    share = same / len(inputs.quality_ops)
    if share != 1.0:
        result.fail(f"only {same} of {len(inputs.quality_ops)} sampled answers "
                    "are bit-identical to in-process search")
    return share


def _drain(result: RunResult, client, spec) -> dict:
    """Wait until every durable LSN is served; how long that took."""
    start = time.perf_counter()
    while True:
        health = client.healthz()
        if health["lsn_served"] == health["lsn_durable"]:
            return {"freshness.drain_s": time.perf_counter() - start}
        if time.perf_counter() - start > DRAIN_TIMEOUT_S:
            result.fail(f"compactor did not catch up within {DRAIN_TIMEOUT_S:.0f}s "
                        f"(served {health['lsn_served']} of {health['lsn_durable']})")
            return {"freshness.drain_s": DRAIN_TIMEOUT_S}
        time.sleep(0.02)


def _write_amplification(client, work: Path, log: OpLog) -> dict:
    """(log bytes + bytes of every version published) / user payload bytes."""
    metrics = client.metrics()
    published = int(metrics["ingest"]["counters"]["compactions"])
    version_bytes = [
        sum(f.stat().st_size for f in version.iterdir() if f.is_file())
        for version in (work / "store").iterdir() if version.is_dir()
    ]
    payload = len(log.acks) * (2 * 16 + 2 * 24)  # 2 edges + 2 weighted assocs
    per_version = float(np.mean(version_bytes)) if version_bytes else 0.0
    return {"wal.write_amp": (metrics["ingest"]["log_bytes"] + published * per_version)
            / max(1, payload)}


def _acked_events_found(result: RunResult, inputs, wal_dir: Path,
                        log: OpLog) -> float:
    """After SIGTERM: share of acked events the re-opened WAL still holds."""
    from repro.serving.wal.log import KIND_ADD_ASSOC, KIND_ADD_EDGE, LogReader

    records = {rec.lsn: rec for rec in LogReader(wal_dir).records()}
    acked = found = 0
    for op, first, last in log.acks:
        sent = [(KIND_ADD_EDGE, int(u), int(v), 0.0) for u, v in inputs.edges[op]]
        sent += [(KIND_ADD_ASSOC, int(n), int(a), float(w)) for n, a, w in inputs.assocs[op]]
        if last - first + 1 != len(sent):
            result.fail(f"ack for op {op} covers {last - first + 1} LSNs, sent {len(sent)}")
        for lsn, event in zip(range(first, last + 1), sent):
            acked += 1
            rec = records.get(lsn)
            found += rec is not None and (rec.kind, rec.a, rec.b, rec.weight) == event
    if acked == 0:
        result.fail("no upsert was acked, so durability was not exercised")
        return 0.0
    if found != acked:
        result.fail(f"only {found} of {acked} acked events survive in the WAL")
    return found / acked
