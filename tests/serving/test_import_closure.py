"""A serve process imports only what it serves (ROADMAP item 13).

Checked from outside a real ``repro serve`` process — what the kernel
says it has mapped — and from inside a fresh interpreter's
``sys.modules``.  The trainer and scipy may load only when ``--wal-dir``
puts the compactor in the process, and then of scipy only ``scipy.sparse``
(``tests/test_fit_import_closure.py``).  The stdlib HTTP stack never loads:
both ends of the wire speak ``repro.serving.http.wire``.

Contract: A real `repro serve` subprocess must map no scipy object
(/proc/<pid>/maps) and a fresh interpreter importing the serve path must not
load the trainer.  A module-level import added to the read path fails here
before the full suite starts.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.graph.generators import attributed_sbm
from repro.graph.io import save_npz
from repro.serving.http import ServingClient
from repro.serving.http.loadgen import (
    cli_subprocess_env,
    process_footprint,
    spawn_cli_server,
)
from repro.serving.store import EmbeddingStore
from repro.serving.synth import synthetic_embedding

pytestmark = pytest.mark.contract

SERVE_PATH_MODULES = (
    "repro.cli",
    "repro.serving.http.server",
    "repro.serving.http.supervisor",
    "repro.serving.http.client",
)

# Modules, or packages with everything under them.
TRAINER_ONLY = (
    "scipy",
    "repro.core.pane",
    "repro.core.kernels",
    "repro.core.randsvd",
    "repro.dynamic.incremental",
    "repro.graph",
    "repro.serving.wal.compactor",
)


# The stdlib HTTP server and clients, and the email parser they drag in.
STDLIB_HTTP = ("http.server", "http.client", "email", "urllib.request")


def _banned(loaded: list[str], banned: tuple[str, ...]) -> list[str]:
    return [
        name
        for name in loaded
        if any(name == ban or name.startswith(ban + ".") for ban in banned)
    ]


@pytest.fixture(scope="module")
def serve_path_modules() -> list[str]:
    """``sys.modules`` of a fresh interpreter that imported the serve path."""
    probe = (
        "import json, sys\n"
        f"import {', '.join(SERVE_PATH_MODULES)}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=cli_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _stop(process: subprocess.Popen) -> int:
    process.send_signal(signal.SIGTERM)
    return process.wait(timeout=30)


def _kill_if_running(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
        process.wait(timeout=30)


def test_serve_path_imports_no_trainer_and_no_scipy(serve_path_modules):
    assert _banned(serve_path_modules, TRAINER_ONLY) == []
    # The two dataclasses the store and the WAL need came from their
    # kernel-free homes.
    assert "repro.core.embedding" in serve_path_modules
    assert "repro.dynamic.delta" in serve_path_modules


def test_serve_path_imports_no_stdlib_http(serve_path_modules):
    assert _banned(serve_path_modules, STDLIB_HTTP) == []
    assert "repro.serving.http.wire" in serve_path_modules


def test_read_only_server_maps_no_scipy(tmp_path):
    store_root = tmp_path / "store"
    EmbeddingStore(store_root).publish(synthetic_embedding(64, 8, seed=0))
    process, url = spawn_cli_server(store_root, "--backend", "exact")
    try:
        client = ServingClient(url)
        assert len(client.top_k(3, 5).ids) == 5
        assert client.healthz()["status"] == "ok"
        assert "registry" in client.metrics()
        footprint = process_footprint(process.pid)
        if footprint is None:
            pytest.skip("no /proc on this platform")
        assert footprint["scipy_objects"] == []
        assert footprint["VmHWM"] > 0
        assert _stop(process) == 0
    finally:
        _kill_if_running(process)


def test_wal_server_loads_the_compactor_and_serves_an_upsert(tmp_path):
    graph_file = tmp_path / "graph.npz"
    save_npz(attributed_sbm(n_nodes=60, n_attributes=20, seed=1), graph_file)
    process, url = spawn_cli_server(
        tmp_path / "store",
        "--backend", "exact",
        "--wal-dir", str(tmp_path / "wal"),
        "--graph", str(graph_file),
        "--wal-k", "8",
    )
    try:
        client = ServingClient(url)
        ack = client.upsert(add_edges=np.array([[0, 5]]))
        assert ack["durable"] is True and ack["lsn"] >= 1
        assert len(client.top_k(0, 3).ids) == 3
        footprint = process_footprint(process.pid)
        if footprint is not None:
            # The in-process compactor is the one serve-side caller of
            # the trainer: here scipy.sparse is legitimately mapped.
            assert footprint["scipy_objects"] != []
        assert _stop(process) == 0
    finally:
        _kill_if_running(process)
