"""Closed-loop HTTP load generator for the embedding server.

Drives ``POST /v1/topk`` (or the batch endpoint) from ``concurrency``
worker threads, each with its own seeded node stream, and reports
client-observed QPS and latency percentiles.  Shared by the
``bench-http`` CLI subcommand and ``benchmarks/bench_http.py`` so the
committed numbers and ad-hoc runs measure the same loop.

Closed-loop means each worker issues its next request when the previous
one returns — the standard serving-benchmark shape: QPS is the
throughput the server sustained at this concurrency, and percentiles
are per-request wall times including the wire.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serving.http.client import ServingClient
from repro.serving.http.protocol import ApiError
from repro.serving.obs.metrics import proc_status_kib
from repro.serving.service import SearchRequest


@dataclass
class LoadReport:
    """What one load run produced (all latencies client-observed).

    ``p50_ms``/``p99_ms`` are per-*request* wall times (a batch request
    counts once, however many queries it carried); the ``per_query_*``
    fields divide each request's wall time by its batch size first, so
    batch and single-query rows are directly comparable — a 64-query
    batch at 1464 ms is 22.9 ms/query, not three orders of magnitude
    slower than a 6 ms single.
    """

    requests: int
    queries: int  # requests × batch size
    errors: int
    concurrency: int
    seconds: float
    qps: float
    query_qps: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    per_query_p50_ms: float = 0.0
    per_query_p99_ms: float = 0.0
    per_query_mean_ms: float = 0.0
    wire: str = "auto"
    error_messages: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "queries": self.queries,
            "errors": self.errors,
            "concurrency": self.concurrency,
            "seconds": self.seconds,
            "qps": self.qps,
            "query_qps": self.query_qps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "per_query_p50_ms": self.per_query_p50_ms,
            "per_query_p99_ms": self.per_query_p99_ms,
            "per_query_mean_ms": self.per_query_mean_ms,
            "wire": self.wire,
            "error_messages": self.error_messages[:10],
        }


def cli_subprocess_env() -> dict:
    """Environment for running ``python -m repro.cli`` as a subprocess.

    Prepends this package's ``src`` to ``PYTHONPATH`` and unbuffers
    stdout (the boot line must arrive promptly).  One builder shared by
    :func:`spawn_cli_server` and the CI smoke's other CLI invocations.
    """
    import os
    from pathlib import Path

    src = Path(__file__).resolve().parents[3]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn_cli_server(store_root, *extra_args: str, url_timeout_s: float = 30.0):
    """Start ``repro serve --http 0`` as a subprocess; return ``(proc, url)``.

    The one boot-and-discover implementation shared by the CI server
    smoke and the CLI tests: builds a ``PYTHONPATH`` pointing at this
    package's ``src``, spawns the CLI with an ephemeral port, and parses
    the bound URL from the startup line — so a change to that line's
    format breaks one regex, not several silently-diverging copies.
    The caller owns the process (terminate/kill it when done); its
    stdout stays attached for reading later lines.
    """
    import re
    import subprocess
    import sys

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--store", str(store_root), "--http", "0", *extra_args,
        ],
        env=cli_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    timer = threading.Timer(url_timeout_s, process.kill)
    timer.start()
    try:
        line = process.stdout.readline()
    finally:
        timer.cancel()
    match = re.search(r"on (http://\S+:\d+)", line)
    if not match:
        process.kill()
        process.wait(timeout=30)
        raise RuntimeError(f"could not parse server URL from: {line!r}")
    return process, match.group(1)


def process_footprint(pid: int) -> dict | None:
    """What process ``pid`` holds, read from ``/proc`` (``None`` without one).

    The KiB fields of its ``status`` (``VmHWM``, ``VmRSS``, ``RssAnon``,
    ``RssFile``, …) plus ``"scipy_objects"``: the files it has mapped
    out of an installed ``scipy`` (or ``scipy.libs``) directory.  A
    read-only ``repro serve`` must map none; the CI server smoke and
    ``tests/serving/test_import_closure.py`` both assert it through this
    one reader.  The match is on a directory, not a substring: numpy
    wheels vendor their BLAS as ``numpy.libs/libscipy_openblas*.so``.
    """
    try:
        footprint: dict = proc_status_kib(pid)
        with open(f"/proc/{pid}/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps if "/" in line}
    except OSError:
        return None
    footprint["scipy_objects"] = sorted(
        path for path in paths if "/scipy/" in path or "/scipy.libs/" in path
    )
    return footprint


def assert_bit_identical(client, service, nodes, k: int = 10) -> int:
    """Exact top-k over HTTP must match the in-process answer bitwise.

    The wire contract both CI checks assert (one implementation, so they
    cannot drift): ids equal, score *bytes* equal — JSON floats
    round-trip exactly — and the answering version identical.  Returns
    the number of nodes checked.
    """
    checked = 0
    for node in nodes:
        remote = client.top_k(int(node), k)
        local = service.search(SearchRequest(node=int(node), k=k))
        assert remote.version == local.version, (remote.version, local.version)
        assert np.array_equal(remote.ids, local.ids), (
            f"ids diverge at node {node}"
        )
        assert remote.scores.tobytes() == local.scores.tobytes(), (
            f"scores not bit-identical at node {node}"
        )
        checked += 1
    return checked


class DrainBurst:
    """A burst of concurrent batch requests with classified outcomes.

    The shared half of every drain-under-fire check (``bench_http.py``
    closes an in-process server mid-burst; ``server_smoke.py`` SIGTERMs
    a subprocess): fire ``n_requests`` concurrent ``/v1/topk:batch``
    calls with no retries, record one outcome string per request —
    ``"ok:<version>"`` (completed), ``"status:<code>:<api-code>"`` (a
    structured refusal), or ``"conn:<ExcName>"`` (connection-level
    failure) — and let the caller assert the drain contract with
    :meth:`server_errors`.  Keeping the taxonomy in one place means the
    two CI checks cannot drift into asserting different contracts.
    """

    def __init__(
        self,
        urls: list[str] | str,
        *,
        n_nodes: int,
        k: int = 10,
        n_requests: int = 8,
        batch: int = 256,
        timeout_s: float = 30.0,
    ) -> None:
        self.outcomes: list[str] = []
        self._lock = threading.Lock()
        self.started = threading.Event()  # set once the first client fires
        self.n_requests = n_requests

        def fire(seed: int) -> None:
            client = ServingClient(urls, retries=0, timeout_s=timeout_s)
            nodes = np.random.default_rng(seed).integers(n_nodes, size=batch)
            self.started.set()
            try:
                result = client.batch_top_k(nodes, k)
                outcome = f"ok:{result.version}"
            except ApiError as error:
                outcome = f"status:{error.status}:{error.code}"
            except OSError as error:
                outcome = f"conn:{type(error).__name__}"
            finally:
                client.close()  # don't pin a draining server's threads
            with self._lock:
                self.outcomes.append(outcome)

        self._threads = [
            threading.Thread(target=fire, args=(seed,), daemon=True)
            for seed in range(n_requests)
        ]
        for thread in self._threads:
            thread.start()

    def any_alive(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def join(self, timeout_s: float = 30.0) -> list[str]:
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        return self.outcomes

    @property
    def completed(self) -> int:
        """Requests that finished with a real 200 answer."""
        with self._lock:
            return sum(1 for o in self.outcomes if o.startswith("ok:"))

    def server_errors(self) -> list[str]:
        """Outcomes that violate the drain contract: any 5xx except 503."""
        with self._lock:
            return [
                o
                for o in self.outcomes
                if o.startswith("status:5") and not o.startswith("status:503")
            ]


def run_load(
    urls: list[str] | str,
    *,
    n_nodes: int,
    requests: int = 512,
    concurrency: int = 4,
    k: int = 10,
    nprobe: int | None = None,
    batch: int = 0,
    timeout_s: float = 30.0,
    retries: int = 2,
    seed: int = 0,
    wire: str = "auto",
) -> LoadReport:
    """Fire ``requests`` top-k requests and measure the client view.

    ``batch > 0`` switches to ``/v1/topk:batch`` with ``batch`` nodes per
    request (fanned across replicas by the client).  Node ids are drawn
    uniformly from ``[0, n_nodes)`` with one seeded stream per worker, so
    a run is reproducible regardless of thread interleaving.  ``wire``
    selects the client wire format (``auto``/``json``/``binary``) so the
    bench can measure the formats against each other.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    client = ServingClient(urls, timeout_s=timeout_s, retries=retries, wire=wire)
    per_worker = [
        requests // concurrency + (1 if w < requests % concurrency else 0)
        for w in range(concurrency)
    ]
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    failures: list[list[str]] = [[] for _ in range(concurrency)]
    barrier = threading.Barrier(concurrency + 1)
    params = {"nprobe": nprobe} if nprobe is not None else None

    def worker(index: int) -> None:
        rng = np.random.default_rng(seed + index)
        barrier.wait()
        for _ in range(per_worker[index]):
            tick = time.perf_counter()
            try:
                if batch > 0:
                    nodes = rng.integers(n_nodes, size=batch)
                    client.batch_top_k(nodes, k, params=params)
                else:
                    node = int(rng.integers(n_nodes))
                    client.top_k(node, k, params=params)
            except Exception as error:
                failures[index].append(f"{type(error).__name__}: {error}")
            else:
                latencies[index].append(time.perf_counter() - tick)

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()  # all workers armed: the clock measures pure load time
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    # Release the pooled keep-alive sockets: a bench makes many runs
    # against one long-lived server, and every leaked idle connection
    # pins a handler thread there until its read times out.
    client.close()

    flat = np.array([l for per in latencies for l in per], dtype=np.float64)
    errors = sum(len(per) for per in failures)
    completed = int(flat.size)
    queries = completed * (batch if batch > 0 else 1)
    # Per-query view: each request's wall time amortized over its batch
    # size, so batch rows compare directly with single-query rows.
    per_query = flat / max(1, batch)
    return LoadReport(
        requests=completed,
        queries=queries,
        errors=errors,
        concurrency=concurrency,
        seconds=seconds,
        qps=completed / seconds if seconds > 0 else 0.0,
        query_qps=queries / seconds if seconds > 0 else 0.0,
        p50_ms=float(np.percentile(flat, 50) * 1e3) if completed else 0.0,
        p99_ms=float(np.percentile(flat, 99) * 1e3) if completed else 0.0,
        mean_ms=float(flat.mean() * 1e3) if completed else 0.0,
        max_ms=float(flat.max() * 1e3) if completed else 0.0,
        per_query_p50_ms=(
            float(np.percentile(per_query, 50) * 1e3) if completed else 0.0
        ),
        per_query_p99_ms=(
            float(np.percentile(per_query, 99) * 1e3) if completed else 0.0
        ),
        per_query_mean_ms=(
            float(per_query.mean() * 1e3) if completed else 0.0
        ),
        wire=wire,
        error_messages=[m for per in failures for m in per],
    )
