"""End-to-end observability smoke: scrape, trace, journal — over processes.

The CI ``obs-smoke`` step runs this script.  Everything crosses a real
process boundary, like ``server_smoke.py``:

1. publish v1 through the CLI and require the publish to land in the
   store's ops journal (``events.jsonl``);
2. start ``repro serve --http 0 --slow-query-ms 0.0001`` as a
   subprocess and parse the bound URL;
3. issue queries, then **curl** ``/metrics`` with ``Accept:
   text/plain`` and validate the body with the stdlib-only Prometheus
   parser (:func:`repro.serving.obs.metrics.parse_text`) — counters
   present, histogram buckets cumulative, ``_count`` consistent — and
   require ``repro stat --url`` (which reads the same registry as JSON)
   to report the same request and query totals as the scrape;
4. require the ``X-Request-Id`` a caller supplies to be echoed on the
   response and discoverable in ``GET /debug/traces`` with per-stage
   spans;
5. require the slow-query threshold to have produced structured JSON
   slow-query lines on the server's stderr;
6. exercise ``repro events --json`` and ``repro stat --json`` against
   the same store and require the journal roll-up to agree;
7. SIGTERM the server and require the drain to be journaled.

The live scrape and the journal are copied into ``smoke-artifacts/``
so a CI failure uploads them for offline diagnosis.

Exit code 0 = pass.  Run::

    PYTHONPATH=src python benchmarks/obs_smoke.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.serving.http import ServingClient  # noqa: E402
from repro.serving.http.loadgen import (  # noqa: E402
    cli_subprocess_env,
    spawn_cli_server,
)
from repro.serving.obs.journal import read_events  # noqa: E402
from repro.serving.obs.metrics import family_total, parse_text  # noqa: E402
from repro.serving.synth import synthetic_embedding  # noqa: E402

N_NODES, DIM, K = 512, 16, 10
ARTIFACTS = Path("smoke-artifacts")


def run_cli(*args: str) -> subprocess.CompletedProcess:
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
    return result


def curl_text_metrics(url: str) -> str:
    """Scrape /metrics as Prometheus text, via real curl when available."""
    target = f"{url}/metrics"
    if shutil.which("curl"):
        result = subprocess.run(
            ["curl", "-fsS", "-m", "10", "-H", "Accept: text/plain", target],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 0, f"curl {target} failed: {result.stderr}"
        return result.stdout
    request = urllib.request.Request(
        target, headers={"Accept": "text/plain"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        content_type = response.headers.get("Content-Type", "")
        assert content_type.startswith("text/plain"), content_type
        return response.read().decode("utf-8")


def dump_artifacts(store_dir: Path, scrape: str | None) -> None:
    """Copy the journal + last scrape where CI can upload them."""
    ARTIFACTS.mkdir(exist_ok=True)
    if scrape is not None:
        (ARTIFACTS / "metrics.prom").write_text(scrape)
    for path in sorted(store_dir.glob("events.jsonl*")):
        shutil.copy(path, ARTIFACTS / path.name)


def check_trace(url: str) -> None:
    """Supplied request id: echoed on the response, found in the buffer."""
    request = urllib.request.Request(
        f"{url}/v1/describe", headers={"X-Request-Id": "obs-smoke-1"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.headers.get("X-Request-Id") == "obs-smoke-1"
    deadline = time.monotonic() + 5.0
    trace = None
    while trace is None and time.monotonic() < deadline:
        with urllib.request.urlopen(f"{url}/debug/traces", timeout=10) as resp:
            payload = json.loads(resp.read())
        trace = next(
            (
                entry
                for entry in payload["traces"]
                if entry["request_id"] == "obs-smoke-1"
            ),
            None,
        )
        if trace is None:
            time.sleep(0.02)
    assert trace is not None, "supplied request id never surfaced in traces"
    names = [span["name"] for span in trace["spans"]]
    assert "parse" in names and "serialize" in names, names
    print(f"  trace ok: id echoed, spans {names}")


def main() -> int:
    scrape: str | None = None
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        store_dir = tmp_path / "store"
        emb = tmp_path / "emb.npz"
        synthetic_embedding(N_NODES, DIM, seed=0).save(emb)

        try:
            print("publishing v1 through the CLI...")
            run_cli("serve", "--store", str(store_dir), "--publish", str(emb))
            publishes = list(read_events(store_dir, kinds=["publish"]))
            assert publishes and publishes[0]["version"] == "v00000001", (
                publishes
            )
            print("  publish journaled")

            print("starting repro serve --http 0 --slow-query-ms 0.0001...")
            server, url = spawn_cli_server(
                store_dir, "--backend", "exact", "--threads", "2",
                "--slow-query-ms", "0.0001",
            )
            try:
                client = ServingClient(url)
                for node in range(5):
                    client.top_k(node, k=K)
                client.close()

                check_trace(url)

                scrape = curl_text_metrics(url)
                parsed = parse_text(scrape)
                requests_total = parsed["http_requests_total"]
                assert requests_total["type"] == "counter", requests_total
                topk = requests_total["samples"][
                    ("http_requests_total", (("endpoint", "/v1/topk"),))
                ]
                assert topk >= 5, f"scrape undercounts topk: {topk}"
                assert parsed["http_request_seconds"]["type"] == "histogram"
                queries = parsed["service_queries_total"]["samples"][
                    ("service_queries_total", ())
                ]
                assert queries == topk, (queries, topk)
                print(
                    f"  scrape ok: {len(parsed)} families validated, "
                    f"topk count {topk:.0f}"
                )

                # One instrument, two renderings: `repro stat` reads the
                # registry as JSON and must agree with the text scrape.
                live = json.loads(
                    run_cli(
                        "stat", "--store", str(store_dir), "--url", url, "--json"
                    ).stdout
                )["metrics"]["registry"]
                assert family_total(
                    live, "http_requests_total", endpoint="/v1/topk"
                ) == topk, live
                assert family_total(live, "service_queries_total") == queries
                text = run_cli("stat", "--store", str(store_dir), "--url", url)
                assert f"{queries:.0f} queries" in text.stdout, text.stdout
                print("  repro stat agrees with the scrape")

                print("SIGTERM: drain...")
                server.send_signal(signal.SIGTERM)
                rc = server.wait(timeout=60)
                tail = server.stdout.read()
                assert rc == 0, f"server exited rc={rc}:\n{tail}"
                slow_lines = [
                    line for line in tail.splitlines() if '"slow_query"' in line
                ]
                assert slow_lines, f"no slow-query lines on stderr:\n{tail}"
                record = json.loads(slow_lines[0])["slow_query"]
                assert record["request_id"], record
                print(f"  slow-query log ok: {len(slow_lines)} line(s)")
            finally:
                if server.poll() is None:
                    server.kill()
                    server.wait(timeout=30)

            drains = list(read_events(store_dir, kinds=["drain"]))
            assert drains, "drain was not journaled"

            print("repro events / repro stat...")
            events_out = run_cli(
                "events", "--store", str(store_dir), "--json"
            )
            lines = [
                json.loads(line)
                for line in events_out.stdout.splitlines()
                if line.strip()
            ]
            kinds = [event["kind"] for event in lines]
            assert "publish" in kinds and "drain" in kinds, kinds
            stat_out = run_cli("stat", "--store", str(store_dir), "--json")
            summary = json.loads(stat_out.stdout)["journal"]
            assert summary["events"] == len(lines), (summary, len(lines))
            assert summary["kinds"].get("publish", 0) >= 1, summary
            print(f"  journal ok: {summary['events']} events, kinds {kinds}")
        finally:
            dump_artifacts(store_dir, scrape)
    print("obs smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
