"""End-to-end server smoke: CLI process boundary, curl, refresh, drain.

The CI ``server-smoke`` step runs this script.  Unlike
``bench_http.py`` (which hosts the server in-process), everything here
crosses a real process boundary, exactly like a deployment:

1. build a tiny embedding, save it, publish it with
   ``repro serve --publish`` (one CLI process);
2. start ``repro serve --http 0`` as a **subprocess** and parse the
   bound URL from its stdout;
3. hit ``/healthz`` with real ``curl`` (falling back to urllib where
   curl is not installed) and require HTTP 200;
4. query through :class:`ServingClient` and require the exact top-k
   answers to be **bit-identical** to an in-process
   :class:`QueryService` over the same store — ids equal, score bytes
   equal — for the JSON wire *and* the binary frame wire (the server is
   started with admission coalescing on, so the single-query answers
   also cross the coalescer);
5. publish a second version out-of-band, drive ``POST /admin/refresh``,
   and require the server to swap and serve the new version
   bit-identically too (query → refresh → query);
6. SIGTERM the server while a burst of batch requests is in flight and
   require: no response with a 5xx status other than the structured 503
   ``draining``, and a clean exit code from the drained process;
7. require the store's ops journal (``events.jsonl``) to have recorded
   both publishes and the drain;
8. print the server's peak RSS (``VmHWM``) and require that it mapped
   no ``scipy`` object — a read-only server imports only what it serves.

The journal and the last Prometheus scrape are copied into
``smoke-artifacts/`` so a CI failure uploads them for offline
diagnosis.

Exit code 0 = pass.  Run::

    PYTHONPATH=src python benchmarks/server_smoke.py
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.serving.http import ServingClient  # noqa: E402
from repro.serving.http.loadgen import (  # noqa: E402
    assert_bit_identical,
    cli_subprocess_env,
    process_footprint,
    spawn_cli_server,
)
from repro.serving.obs.journal import read_events  # noqa: E402
from repro.serving.obs.metrics import family_total  # noqa: E402
from repro.serving.service import QueryService  # noqa: E402
from repro.serving.store import EmbeddingStore  # noqa: E402
from repro.serving.synth import synthetic_embedding  # noqa: E402

N_NODES, DIM, K = 512, 16, 10
SAMPLE = 32
ARTIFACTS = Path("smoke-artifacts")


def scrape_prometheus(url: str) -> str:
    """Scrape /metrics as Prometheus text (for the failure artifact)."""
    request = urllib.request.Request(
        f"{url}/metrics", headers={"Accept": "text/plain"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read().decode("utf-8")


def dump_artifacts(store_dir: Path, scrape: str | None) -> None:
    """Copy the journal + last scrape where CI can upload them."""
    ARTIFACTS.mkdir(exist_ok=True)
    if scrape is not None:
        (ARTIFACTS / "server_smoke_metrics.prom").write_text(scrape)
    for path in sorted(store_dir.glob("events.jsonl*")):
        shutil.copy(path, ARTIFACTS / f"server_smoke_{path.name}")


def run_cli(*args: str) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=cli_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if result.returncode != 0:
        raise AssertionError(
            f"cli {' '.join(args)} failed rc={result.returncode}:\n"
            f"{result.stdout}\n{result.stderr}"
        )


def curl_healthz(url: str) -> None:
    """200 from /healthz, via real curl when available."""
    target = f"{url}/healthz"
    if shutil.which("curl"):
        result = subprocess.run(
            ["curl", "-fsS", "-m", "10", target],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 0, f"curl {target} failed: {result.stderr}"
        body = result.stdout
    else:
        with urllib.request.urlopen(target, timeout=10) as response:
            assert response.status == 200, response.status
            body = response.read().decode()
    assert '"status":"ok"' in body.replace(" ", ""), body
    print(f"  healthz ok: {body.strip()}")


def check_bit_identical(
    client: ServingClient, service: QueryService, label: str
) -> None:
    nodes = np.random.default_rng(7).choice(N_NODES, size=SAMPLE, replace=False)
    checked = assert_bit_identical(client, service, nodes, K)
    print(f"  {label}: {checked} nodes bit-identical over HTTP")


def drain_under_fire(url: str, server: subprocess.Popen) -> None:
    """SIGTERM mid-burst: in-flight completes, nothing answers 5xx≠503."""
    from repro.serving.http.loadgen import DrainBurst

    burst = DrainBurst(url, n_nodes=N_NODES, k=K)
    burst.started.wait(5.0)
    time.sleep(0.05)  # let the burst reach the server
    server.send_signal(signal.SIGTERM)
    outcomes = burst.join(timeout_s=60.0)
    rc = server.wait(timeout=60)
    assert not burst.server_errors(), (
        f"drain produced server errors: {burst.server_errors()}"
    )
    assert len(outcomes) == burst.n_requests, "a request never returned"
    assert rc == 0, f"server exited rc={rc} after SIGTERM"
    print(
        f"  drain ok: {burst.completed}/{len(outcomes)} completed, "
        f"{len(outcomes) - burst.completed} rejected cleanly, server rc=0"
    )


def check_footprint(pid: int) -> None:
    """Print the server's peak RSS; a read-only server must map no scipy."""
    footprint = process_footprint(pid)
    if footprint is None:
        print("  no /proc here: footprint not checked")
        return
    print(
        "  server VmHWM {:.1f} MiB (anon {:.1f}, file {:.1f})".format(
            *(footprint[name] / 1024 for name in ("VmHWM", "RssAnon", "RssFile"))
        )
    )
    assert footprint["scipy_objects"] == [], (
        "a read-only `repro serve` mapped scipy — something on the serve "
        f"path imports the trainer: {footprint['scipy_objects'][:3]}"
    )


def main() -> int:
    scrape: str | None = None
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        store_dir = tmp_path / "store"
        emb1, emb2 = tmp_path / "emb1.npz", tmp_path / "emb2.npz"
        synthetic_embedding(N_NODES, DIM, seed=0).save(emb1)
        synthetic_embedding(N_NODES, DIM, seed=1).save(emb2)

        print("publishing v1 through the CLI...")
        run_cli("serve", "--store", str(store_dir), "--publish", str(emb1))

        print("starting repro serve --http 0 subprocess...")
        server, url = spawn_cli_server(
            store_dir, "--backend", "exact", "--threads", "2",
            # Exercise the admission coalescer across the process
            # boundary too: single queries below flow through it.
            "--coalesce-window-ms", "1",
        )
        try:
            print(f"  server up at {url}")

            curl_healthz(url)
            client = ServingClient(url)
            binary_client = ServingClient(url, wire="binary")
            info = binary_client.describe()
            assert "binary" in info["wire_formats"], info
            assert info["coalescing"]["enabled"] is True, info

            store = EmbeddingStore(store_dir)
            with QueryService(store, backend="exact") as local:
                check_bit_identical(client, local, "v1 exact (json wire)")
                check_bit_identical(
                    binary_client, local, "v1 exact (binary wire)"
                )

            print("publishing v2 + POST /admin/refresh...")
            run_cli("serve", "--store", str(store_dir), "--publish", str(emb2))
            before = client.describe()["version"]
            report = client.refresh()
            assert report["swapped"], report
            assert report["previous_version"] == before == "v00000001", report
            assert report["version"] == "v00000002", report

            with QueryService(store, backend="exact") as local:
                assert local.version == "v00000002"
                check_bit_identical(client, local, "v2 exact after refresh")

            metrics = client.metrics()
            queries = metrics["service"]["queries"]
            assert queries > 0, metrics
            # The JSON section is derived from the service's own counter:
            # the registry in the same document must say the same number.
            assert family_total(
                metrics["registry"], "service_queries_total"
            ) == queries, metrics
            scrape = scrape_prometheus(url)
            check_footprint(server.pid)
            client.close()  # release pooled sockets before the drain
            binary_client.close()

            print("SIGTERM under fire...")
            drain_under_fire(url, server)

            kinds = [event["kind"] for event in read_events(store_dir)]
            assert kinds.count("publish") == 2, kinds
            assert "drain" in kinds, kinds
            print(f"  journal ok: kinds {kinds}")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            dump_artifacts(store_dir, scrape)
    print("server smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
