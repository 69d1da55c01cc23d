"""The exact read path never pages in the float64 rows (ROADMAP item 4).

Checked from outside a real ``repro serve`` process, as the kernel sees
it: after exact queries the ``x_forward.npy`` and ``x_backward.npy``
mappings hold no resident page (``/proc/<pid>/smaps``), because query
rows, rescore candidates and the float32 selection copy are all derived
from rows read with ``pread`` (a version stores no ``features.npy`` to
map; ROADMAP item 20); and the row
readers' descriptors die with their version, so a compactor that swaps
versions for as long as the server lives leaks none (``/proc/<pid>/fd``).

Contract: The read-path footprint test boots real servers: exact queries
must leave the x_forward.npy and x_backward.npy mappings at Rss 0
(/proc/<pid>/smaps) and a new version must hold no features.npy, and 50
compactor swaps must leave no descriptor into a retired version
(/proc/<pid>/fd).
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.graph.generators import attributed_sbm
from repro.graph.io import save_npz
from repro.serving.http import ServingClient
from repro.serving.http.loadgen import mapped_rss_kib, spawn_cli_server
from repro.serving.store import EmbeddingStore
from repro.serving.synth import synthetic_embedding

pytestmark = [
    pytest.mark.contract,
    pytest.mark.skipif(
        not Path("/proc/self/smaps").exists(), reason="needs /proc/<pid>/smaps"
    ),
]


def _stop(process: subprocess.Popen) -> int:
    process.send_signal(signal.SIGTERM)
    return process.wait(timeout=30)


def _kill_if_running(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
        process.wait(timeout=30)


def test_exact_queries_leave_the_features_mapping_unpaged(tmp_path):
    n = 4096
    store_root = tmp_path / "store"
    version = EmbeddingStore(store_root).publish(synthetic_embedding(n, 32, seed=0))
    assert not (store_root / "versions" / version / "features.npy").exists()
    # Concurrent singles cross engine admission (queued ones drain as a
    # batch), batches the two-thread worker pool, so every read path that
    # fetches query rows runs.
    process, url = spawn_cli_server(
        store_root, "--backend", "exact", "--threads", "2",
    )
    try:
        client = ServingClient(url)
        nodes = np.random.default_rng(0).permutation(n)[:500]

        cached: list[bool] = []

        def singles(part: np.ndarray) -> None:
            for node in part:
                cached.append(client.top_k(int(node), 10).cached)

        threads = [
            threading.Thread(target=singles, args=(part,))
            for part in np.array_split(nodes[:400], 8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(cached) == 400 and not any(cached)
        for chunk in np.array_split(nodes[400:], 4):
            assert client.batch_top_k(chunk, 10).ids.shape == (chunk.size, 10)
        client.similar_by_vector(np.ones(32), 10)
        assert mapped_rss_kib(process.pid, "x_forward.npy") == 0
        assert mapped_rss_kib(process.pid, "x_backward.npy") == 0
        client.close()
        assert _stop(process) == 0
    finally:
        _kill_if_running(process)


def _version_fds(pid: int) -> set[str]:
    """Versions under ``versions/`` the process holds a descriptor into."""
    held = set()
    for entry in os.scandir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(entry.path)
        except OSError:
            continue  # closed between the listing and the readlink
        parts = Path(target).parts
        if "versions" in parts and parts.index("versions") + 1 < len(parts):
            held.add(parts[parts.index("versions") + 1])
    return held


def test_compactor_swaps_leak_no_descriptor_into_a_retired_version(tmp_path):
    graph_file = tmp_path / "graph.npz"
    save_npz(attributed_sbm(n_nodes=60, n_attributes=20, seed=1), graph_file)
    process, url = spawn_cli_server(
        tmp_path / "store",
        "--backend", "exact",
        "--wal-dir", str(tmp_path / "wal"),
        "--graph", str(graph_file),
        "--wal-k", "8",
        "--compact-interval", "0.01",
        "--gc-keep", "2",
    )
    try:
        client = ServingClient(url)
        rng = np.random.default_rng(1)
        deadline = time.monotonic() + 120
        compactions = 0
        while compactions < 50:
            assert time.monotonic() < deadline, f"only {compactions} compactions"
            client.upsert(add_edges=rng.integers(0, 60, size=(1, 2)))
            client.top_k(int(rng.integers(60)), 5)  # pins versions mid-swap
            compactions = client.metrics()["ingest"]["counters"]["compactions"]
        # Quiesce: the compactor folds what is left, no request pins a
        # version, and only the served one may still hold descriptors.
        while True:
            health = client.healthz()
            if health["lsn_served"] == health["lsn_durable"]:
                break
            assert time.monotonic() < deadline, "compactor never caught up"
            time.sleep(0.05)
        served = client.describe()["version"]
        settle = time.monotonic() + 5
        while (held := _version_fds(process.pid)) - {served}:
            assert time.monotonic() < settle, f"{held} held, {served} served"
            time.sleep(0.05)
        assert held == {served}
        client.close()
        assert _stop(process) == 0
    finally:
        _kill_if_running(process)
