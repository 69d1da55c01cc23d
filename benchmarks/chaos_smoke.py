"""End-to-end chaos smoke: crash recovery across real process boundaries.

The CI ``chaos-smoke`` step runs this script.  Where ``server_smoke.py``
proves the happy path and the graceful drain, this script proves the
*failure* paths the robustness PR added, with every failure injected
deterministically through ``REPRO_FAULTS``:

1. publish v1 through the CLI, then run ``repro fsck`` and require a
   clean store (exit 0);
2. kill a publisher **mid-publish** (``torn_publish_step=manifest`` —
   the process dies with ``os._exit`` before the staging rename) and
   require: the publisher exits with :data:`INJECTED_KILL_EXIT`, plain
   ``repro fsck`` detects the orphaned staging directory (exit 1),
   ``repro fsck --repair`` clears it (exit 1), and a final fsck is
   clean again (exit 0) with v1 still the active version — then the
   same on a 3-shard root (a sharded version is one directory, so a
   torn sharded publish leaves the same single staging directory), and
   ``repro gc`` there deletes a superseded version, every shard at once;
3. start a healthy ``repro serve --http 0 --workers 2`` subprocess and
   measure the pre-fault throughput baseline (min of two closed-loop
   bursts, so a lucky-fast trial cannot inflate the bar), probe its
   *admin* port with the hostile input the data port is tested with (a
   404'd POST smuggling a request in its body must not desync the
   keep-alive connection, ``PUT`` gets a JSON 405, ``X-Request-Id``
   round-trips — one front-end serves every port), then drain it
   cleanly with SIGTERM (exit 0);
4. start a second fleet with worker 0 armed to hard-crash after its
   5th data request, drive a retrying closed-loop burst through the
   shared port, and require **zero client-visible failures** — torn
   connections must fail over to the surviving worker — then poll the
   supervisor's admin endpoint until it reports a restart happened
   *and* full capacity is restored;
5. measure post-recovery throughput (the restarted worker is still
   armed, so this burst absorbs *another* injected crash) and require
   it to reach ≥ 90% of the pre-fault baseline;
6. SIGTERM the supervisor and require a clean drained exit (code 0);
7. WAL crash recovery, the zero-acked-write-loss acceptance: boot a
   read-write ``repro serve --wal-dir`` (cold bootstrap), ack a stream
   of durable upserts, and SIGKILL the process with the compactor
   folding at a 50 ms cadence — then require the log to hold every
   acked LSN offline (``repro log`` + ``repro fsck --wal`` clean);
   restart **armed** with ``crash_after_append`` so the process dies
   after an fsync but *before* its ack (the client sees a torn
   connection, not a lost write); restart clean and require
   ``lsn_durable`` ≥ the highest acked LSN immediately,
   ``lsn_served`` to catch up to it, reads to flow, and a graceful
   SIGTERM drain (code 0);
8. replication failover, the zero-acked-loss-across-nodes acceptance:
   a semi-sync primary (``--ack-replicas 1``) with a warm standby
   (``--standby-of``) takes acked load and is SIGKILLed; every acked
   LSN must already sit bit-identically on the standby; ``repro
   promote`` fences the old term; the revived stale primary's acks
   are refused by a fencing-aware client, its split-brain tail is
   rejected on rejoin (DIVERGED marker), ``repro fsck --wal --repair``
   quarantines exactly that suffix, and the repaired node rejoins and
   folds bit-identically with the new primary.

After the fleet phases, the store's ops journal (``events.jsonl``)
must reconstruct the whole run — publish, fsck repair, supervisor
start/stop, the injected worker crash (``worker_exit`` with exit code
:data:`INJECTED_KILL_EXIT`), the restart, and the drain.  The journal
and the supervisor's aggregated Prometheus scrape are copied into
``smoke-artifacts/`` so a CI failure uploads them for offline
diagnosis.

Exit code 0 = pass.  Run::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.graph.generators import attributed_sbm  # noqa: E402
from repro.graph.io import save_npz  # noqa: E402
from repro.serving.faults import (  # noqa: E402
    FAULTS_ENV,
    INJECTED_KILL_EXIT,
    FaultPlan,
)
from repro.serving.http import ServingClient  # noqa: E402
from repro.serving.http.loadgen import cli_subprocess_env, run_load  # noqa: E402
from repro.serving.http.protocol import ApiError  # noqa: E402
from repro.serving.obs.journal import read_events  # noqa: E402
from repro.serving.synth import synthetic_embedding  # noqa: E402

N_NODES, DIM, K = 512, 16, 10
N_WAL_NODES, N_WAL_ATTRS = 200, 24
ARTIFACTS = Path("smoke-artifacts")


def dump_artifacts(tmp_path: Path, scrape: str | None) -> None:
    """Copy every journal + the last fleet scrape where CI can upload them.

    Runs pass or fail — the upload step in CI is gated on failure, so
    a green run leaves nothing behind in the workflow.
    """
    ARTIFACTS.mkdir(exist_ok=True)
    if scrape is not None:
        (ARTIFACTS / "chaos_smoke_metrics.prom").write_text(scrape)
    for path in sorted(tmp_path.glob("*/events.jsonl*")):
        shutil.copy(
            path, ARTIFACTS / f"chaos_smoke_{path.parent.name}_{path.name}"
        )


def run_cli(*args: str, faults: FaultPlan | None = None) -> subprocess.CompletedProcess:
    env = cli_subprocess_env()
    if faults is not None:
        env[FAULTS_ENV] = faults.to_env()
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def expect_rc(result: subprocess.CompletedProcess, expected: int, what: str) -> None:
    assert result.returncode == expected, (
        f"{what}: expected rc={expected}, got rc={result.returncode}\n"
        f"{result.stdout}\n{result.stderr}"
    )


def check_torn_publish_recovery(store_dir: Path, emb2: Path) -> None:
    """Publisher killed mid-publish → fsck detects, repairs, store clean."""
    print("killing a publisher mid-publish (torn_publish_step=manifest)...")
    torn = run_cli(
        "serve", "--store", str(store_dir), "--publish", str(emb2),
        faults=FaultPlan(torn_publish_step="manifest"),
    )
    expect_rc(torn, INJECTED_KILL_EXIT, "torn publish")

    detect = run_cli("fsck", "--store", str(store_dir))
    expect_rc(detect, 1, "fsck after torn publish")
    assert "orphan_staging" in detect.stdout, detect.stdout
    print(f"  fsck detected: {detect.stdout.splitlines()[0]}")

    repair = run_cli("fsck", "--store", str(store_dir), "--repair")
    expect_rc(repair, 1, "fsck --repair")
    assert "repair:" in repair.stdout, repair.stdout

    clean = run_cli("fsck", "--store", str(store_dir))
    expect_rc(clean, 0, "fsck after repair")
    assert "latest=v00000001" in clean.stdout, clean.stdout
    print("  repaired: store clean again, v1 still active")


def check_sharded_store(tmp_path: Path, emb1: Path, emb2: Path) -> None:
    """Torn-publish recovery and gc on a sharded root, same commands."""
    store_dir = tmp_path / "sharded"
    print("publishing v1 into a 3-shard store...")
    expect_rc(
        run_cli(
            "serve", "--store", str(store_dir), "--publish", str(emb1),
            "--shards", "3",
        ),
        0, "sharded publish v1",
    )
    check_torn_publish_recovery(store_dir, emb2)
    expect_rc(
        run_cli("serve", "--store", str(store_dir), "--publish", str(emb2)),
        0, "sharded publish v2",
    )
    expect_rc(
        run_cli("gc", "--store", str(store_dir), "--keep", "1"), 0,
        "gc on a sharded store",
    )
    versions = sorted(p.name for p in (store_dir / "versions").iterdir())
    assert versions == ["v00000002"], versions
    expect_rc(run_cli("fsck", "--store", str(store_dir)), 0, "fsck after gc")
    print("  sharded: torn publish repaired, gc deleted v1 whole, fsck clean")


def spawn_supervised(store_dir: Path, faults: FaultPlan | None = None) -> tuple:
    """Boot ``repro serve --workers 2`` (optionally armed); return urls."""
    env = cli_subprocess_env()
    if faults is not None:
        env[FAULTS_ENV] = faults.to_env()
    # --max-restarts 50: armed replacements crash again after their own
    # 5th request, so the default breaker ceiling (5 in 30s) could trip
    # legitimately mid-burst.  This script tests availability, not the
    # breaker — tests/serving/test_supervisor.py covers the breaker.
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--store", str(store_dir), "--http", "0",
            "--workers", "2", "--backend", "exact",
            "--max-restarts", "50",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    timer = threading.Timer(60.0, process.kill)
    timer.start()
    try:
        line = process.stdout.readline()
    finally:
        timer.cancel()
    match = re.search(r"on (http://\S+:\d+) admin=(http://\S+:\d+)", line)
    if not match:
        process.kill()
        process.wait(timeout=30)
        raise RuntimeError(f"could not parse supervisor URLs from: {line!r}")
    return process, match.group(1), match.group(2)


def burst(url: str, *, seed: int, requests: int = 200):
    report = run_load(
        url, n_nodes=N_NODES, requests=requests, concurrency=4, k=K,
        retries=4, seed=seed,
    )
    assert report.errors == 0, (
        f"burst leaked {report.errors} client-visible failures: "
        f"{report.error_messages[:3]}"
    )
    return report


def probe_admin_port(admin_url: str) -> None:
    """The supervisor's admin port treats hostile input like the data port."""
    target = urlsplit(admin_url)
    connection = http.client.HTTPConnection(target.hostname, target.port, timeout=10)

    def exchange(method, path, request_id, body=None):
        connection.request(
            method, path, body=body, headers={"X-Request-Id": request_id}
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.getheader("X-Request-Id") == request_id, (method, path)
        return response.status, payload

    try:
        # A route miss must consume its body: the smuggled request below
        # may not be answered, and the connection must stay in sync.
        status, payload = exchange(
            "POST", "/v1/nope", "smoke-miss", body=b"GET /evil HTTP/1.1\r\n\r\n"
        )
        assert status == 404, (status, payload)
        assert payload["error"]["request_id"] == "smoke-miss", payload
        status, payload = exchange("GET", "/healthz", "smoke-health")
        assert status == 200 and payload["status"] == "ok", (status, payload)
        status, payload = exchange("PUT", "/healthz", "smoke-put")
        assert status == 405, (status, payload)
        assert payload["error"]["code"] == "method_not_allowed", payload
    finally:
        connection.close()
    print("  admin port: route miss in sync, PUT -> JSON 405, request ids echoed")


def measure_healthy_baseline(store_dir: Path) -> float:
    """Pre-fault throughput: min of two trials on an unarmed fleet."""
    print("starting a healthy repro serve --workers 2 for the baseline...")
    server, url, admin_url = spawn_supervised(store_dir)
    try:
        probe_admin_port(admin_url)
        # Distinct seeds: a replayed node stream would be answered from
        # the workers' result caches and measure hits, not the wire.
        trials = [burst(url, seed=100).qps, burst(url, seed=200).qps]
    finally:
        drain_supervisor(server)
    baseline = min(trials)
    print(f"  baseline: {baseline:.0f} req/s (min of {len(trials)} trials)")
    return baseline


def scrape_fleet_prometheus(admin_url: str) -> str:
    """The supervisor's aggregated Prometheus text (for the CI artifact)."""
    request = urllib.request.Request(
        f"{admin_url}/metrics", headers={"Accept": "text/plain"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read().decode("utf-8")


def check_worker_kill_under_load(
    store_dir: Path, baseline_qps: float
) -> tuple[subprocess.Popen, str]:
    """The availability acceptance, across a real process boundary."""
    print("starting repro serve --workers 2 with worker 0 armed to crash...")
    plan = FaultPlan(kill_after_requests=5, worker=0)
    server, url, admin_url = spawn_supervised(store_dir, plan)
    try:
        print(f"  supervisor up: data={url} admin={admin_url}")

        report = burst(url, seed=300)
        print(
            f"  burst ok: {report.requests} requests, 0 failures "
            f"({report.qps:.0f} req/s through the crash)"
        )

        admin = ServingClient(admin_url, retries=2)
        deadline = time.monotonic() + 30.0
        probe = None
        while time.monotonic() < deadline:
            try:
                probe = admin.healthz()
            except (ApiError, OSError):
                probe = None  # aggregate answers 503 while a slot restarts
            if probe and probe["restarts_total"] >= 1 and probe["n_live"] == 2:
                break
            # The burst may have starved the armed slot of data requests
            # (accept(2) can keep handing a lone connection stream to the
            # unarmed worker) — fresh connections keep feeding it until it
            # finally serves its 5th request and dies.
            poke = ServingClient(url, retries=4, backoff_s=0.05)
            try:
                for node in range(3):
                    poke.top_k(node, k=K)
            finally:
                poke.close()
            time.sleep(0.1)
        assert probe and probe["restarts_total"] >= 1, f"no restart observed: {probe}"
        assert probe["n_live"] == 2, f"capacity not restored: {probe}"
        assert any(
            f"code {INJECTED_KILL_EXIT}" in (w.get("last_exit") or "")
            for w in probe["workers"]
        ), probe["workers"]
        admin.close()
        print(
            f"  recovered: {probe['restarts_total']} restart(s), "
            f"{probe['n_live']}/2 workers live"
        )

        # Post-recovery throughput must return to >= 90% of the pre-fault
        # baseline.  The restarted worker inherited the armed env, so this
        # burst absorbs another injected crash — the bound holds anyway.
        after = burst(url, seed=400)
        ratio = after.qps / baseline_qps
        assert ratio >= 0.9, (
            f"post-recovery throughput {after.qps:.0f} req/s is "
            f"{ratio:.0%} of the pre-fault baseline {baseline_qps:.0f} req/s"
        )
        print(f"  post-recovery: {after.qps:.0f} req/s ({ratio:.0%} of baseline)")
        scrape = scrape_fleet_prometheus(admin_url)
    except BaseException:
        # A failed check must not leave the armed fleet (and the worker
        # it keeps restarting) running: SIGTERM drains the workers too.
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=30)
        raise
    return server, scrape


def spawn_wal_server(
    store_dir: Path,
    wal_dir: Path,
    graph_npz: Path,
    faults: FaultPlan | None = None,
    extra: tuple = (),
) -> tuple:
    """Boot a single-process read-write ``repro serve --wal-dir``."""
    env = cli_subprocess_env()
    if faults is not None:
        env[FAULTS_ENV] = faults.to_env()
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--store", str(store_dir), "--http", "0",
            "--wal-dir", str(wal_dir), "--graph", str(graph_npz),
            "--wal-k", "8", "--compact-interval", "0.05",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    timer = threading.Timer(60.0, process.kill)
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


def drive_acked_upserts(url: str, *, n: int, seed: int) -> list[int]:
    """Send ``n`` upserts; return acked LSNs (stopping at a torn ack).

    A connection error mid-stream is *not* an assertion failure: the
    append may have been fsync'd before the ack died, so the caller
    reconciles through ``lsn_durable`` — exactly the client discipline
    ``ServingClient.upsert`` documents.
    """
    rng = np.random.default_rng(seed)
    client = ServingClient(url)
    acked: list[int] = []
    try:
        for _ in range(n):
            edges = rng.integers(0, N_WAL_NODES, size=(2, 2))
            assocs = np.column_stack(
                [
                    rng.integers(0, N_WAL_NODES, size=2),
                    rng.integers(0, N_WAL_ATTRS, size=2),
                    rng.uniform(0.1, 1.0, size=2),
                ]
            )
            try:
                ack = client.upsert(add_edges=edges, add_associations=assocs)
            except (ApiError, OSError):
                break
            assert ack["durable"] is True, ack
            acked.append(int(ack["lsn"]))
    finally:
        client.close()
    return acked


def check_wal_crash_recovery(tmp_path: Path) -> None:
    """Acked WAL writes survive SIGKILL and injected post-fsync crashes."""
    print("booting a read-write serve --wal-dir (cold bootstrap)...")
    store_dir, wal_dir = tmp_path / "wal_store", tmp_path / "wal"
    graph_npz = tmp_path / "wal_graph.npz"
    save_npz(
        attributed_sbm(
            n_nodes=N_WAL_NODES, n_attributes=N_WAL_ATTRS, seed=7
        ),
        graph_npz,
    )

    server, url = spawn_wal_server(store_dir, wal_dir, graph_npz)
    try:
        acked = drive_acked_upserts(url, n=20, seed=41)
        assert len(acked) == 20, f"healthy server: {len(acked)}/20 acked"
    finally:
        # SIGKILL with the compactor folding at a 50 ms cadence: no
        # drain, no flush — only fsync'd acks may be counted on.
        server.kill()
        server.wait(timeout=30)
    print(f"  SIGKILL after {len(acked)} acked upserts (max lsn={max(acked)})")

    inspect = run_cli("log", "--wal-dir", str(wal_dir), "--json")
    expect_rc(inspect, 0, "repro log after SIGKILL")
    offline = json.loads(inspect.stdout)
    assert offline["last_lsn"] >= max(acked), (
        f"acked lsn {max(acked)} missing from the log: {offline}"
    )
    expect_rc(run_cli("fsck", "--wal", str(wal_dir)), 0, "fsck --wal after SIGKILL")
    print(f"  offline: log holds lsn={offline['last_lsn']}, fsck --wal clean")

    print("restarting armed (crash_after_append: dies post-fsync, pre-ack)...")
    server, url = spawn_wal_server(
        store_dir, wal_dir, graph_npz, faults=FaultPlan(crash_after_append=4)
    )
    more = drive_acked_upserts(url, n=10, seed=43)
    rc = server.wait(timeout=30)
    assert rc == INJECTED_KILL_EXIT, f"expected injected kill, rc={rc}"
    assert len(more) == 3, f"expected 3 acks before the armed append: {more}"
    top = max(acked + more)
    print(f"  {len(more)} more acks, then a torn ack; highest acked lsn={top}")

    print("restarting clean: recovery must serve every acked write...")
    server, url = spawn_wal_server(store_dir, wal_dir, graph_npz)
    try:
        client = ServingClient(url, retries=4)
        try:
            health = client.healthz()
            assert health["lsn_durable"] >= top, (
                f"acked writes lost: lsn_durable={health['lsn_durable']} < {top}"
            )
            deadline = time.monotonic() + 30.0
            while (
                health["lsn_served"] < top and time.monotonic() < deadline
            ):
                time.sleep(0.1)
                health = client.healthz()
            assert health["lsn_served"] >= top, (
                f"compaction never caught up: {health}"
            )
            result = client.top_k(0, k=K)
            assert len(result.ids) == K, result
        finally:
            client.close()
        print(
            f"  recovered: lsn_durable={health['lsn_durable']} "
            f"lsn_served={health['lsn_served']} >= {top}, reads flowing"
        )
        drain_supervisor(server)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)


def _poll_until(probe, what: str, timeout_s: float = 30.0):
    """Poll ``probe()`` until it returns a truthy value or time runs out."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            value = probe()
        except (ApiError, OSError):
            value = None
        if value:
            return value
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {what}")


def check_replication_failover(tmp_path: Path) -> None:
    """Kill the primary under acked load; promotion must lose nothing.

    The full failover arc, across real process boundaries:

    1. primary (``--ack-replicas 1``) + warm standby (``--standby-of``);
       semi-sync means every *acked* LSN is fsync'd on both sides;
    2. SIGKILL the primary mid-ingest — no drain, no flush;
    3. every acked LSN must already be on the standby, bit-identical;
    4. ``repro promote`` the standby (epoch 2); it acks new writes;
    5. the revived old primary takes a split-brain write at its stale
       term; a failover-aware client *refuses* its epoch-1 reply
       (``stale_epoch``) after fencing the term again;
    6. rejoining the old primary as a standby is rejected
       (``diverged_tail``) and leaves a DIVERGED marker;
    7. ``repro fsck --wal --repair`` quarantines the split-brain
       suffix without losing one replicated record, and the repaired
       node rejoins, catches up to lag 0, and serves *bit-identically
       folded* reads (raw score bytes equal).
    """
    from repro.serving.wal.log import LogReader

    print("replication failover: primary + warm standby (semi-sync)...")
    graph_npz = tmp_path / "repl_graph.npz"
    save_npz(
        attributed_sbm(
            n_nodes=N_WAL_NODES, n_attributes=N_WAL_ATTRS, seed=9
        ),
        graph_npz,
    )
    p_store, p_wal = tmp_path / "repl_pri_store", tmp_path / "repl_pri_wal"
    s_store, s_wal = tmp_path / "repl_sby_store", tmp_path / "repl_sby_wal"

    primary, p_url = spawn_wal_server(
        p_store, p_wal, graph_npz,
        extra=("--ack-replicas", "1", "--ack-timeout", "10"),
    )
    standby, s_url = spawn_wal_server(
        s_store, s_wal, graph_npz,
        extra=("--standby-of", p_url, "--standby-id", "chaos-standby"),
    )
    acked: list[int] = []
    try:
        p_client = ServingClient(p_url)
        _poll_until(
            lambda: (p_client.healthz().get("replication") or {}).get(
                "n_standbys"
            ),
            "the standby to register with the primary",
        )
        acked = drive_acked_upserts(p_url, n=20, seed=51)
        assert len(acked) == 20, f"semi-sync primary: {len(acked)}/20 acked"
        s_client = ServingClient(s_url)
        _poll_until(
            lambda: s_client.healthz()["replication"]["lag"] == 0,
            "replication lag to drain to zero",
        )
        try:
            s_client.upsert(add_edges=[[0, 1]])
            raise AssertionError("standby accepted a write")
        except ApiError as error:
            assert error.code == "not_primary", error
        p_client.close()
    finally:
        primary.kill()
        primary.wait(timeout=30)
    print(f"  SIGKILL primary after {len(acked)} semi-sync acks")

    ours = {
        r.lsn: (r.kind, r.a, r.b, r.weight) for r in LogReader(p_wal).records()
    }
    theirs = {
        r.lsn: (r.kind, r.a, r.b, r.weight) for r in LogReader(s_wal).records()
    }
    for lsn in acked:
        assert theirs.get(lsn) == ours[lsn], (
            f"acked lsn {lsn} missing or differs on the standby"
        )
    print(f"  zero acked loss: {len(acked)} LSNs bit-identical on the standby")

    expect_rc(run_cli("promote", s_url), 0, "repro promote")
    health = ServingClient(s_url).healthz()
    assert (health["role"], health["epoch"]) == ("primary", 2), health
    ack2 = ServingClient(s_url).upsert(add_edges=[[1, 2]])
    assert ack2["epoch"] == 2, ack2
    print(f"  promoted: epoch 2, new write acked at lsn {ack2['lsn']}")

    # Revive the dead primary as a primary (it doesn't know better) and
    # let it take one split-brain write at its stale term.
    revived, r_url = spawn_wal_server(p_store, p_wal, graph_npz)
    try:
        fencing_client = ServingClient([r_url, s_url], retries=1)
        split = fencing_client.upsert(add_edges=[[2, 3]])
        assert split["epoch"] == 1, split
        # Fence the stale term again (epoch 3); from here the client
        # holds the token and must refuse the zombie's replies.
        fencing_client.promote(prefer=1)
        assert fencing_client.max_epoch_seen == 3
        try:
            fencing_client.upsert(add_edges=[[3, 4]])
            raise AssertionError("client accepted a stale-epoch ack")
        except ApiError as error:
            assert error.code == "stale_epoch", error
        print("  fencing: client refused the revived primary's stale ack")
        # The boot-guard step below needs the split-brain write folded
        # into the revived primary's store before it dies.
        revived_client = ServingClient(r_url)
        _poll_until(
            lambda: revived_client.healthz().get("lsn_served", 0) >= split["lsn"],
            "the revived primary to fold the split-brain write",
        )
        revived_client.close()
    finally:
        revived.kill()
        revived.wait(timeout=30)

    # Rejoin the old primary as a standby: its split-brain tail must be
    # rejected, repaired offline, and the node must then catch up.
    rejoin, _ = spawn_wal_server(
        p_store, p_wal, graph_npz,
        extra=("--standby-of", s_url, "--standby-id", "old-primary"),
    )
    try:
        marker = _poll_until(
            lambda: (p_wal / "DIVERGED").exists() or None,
            "the DIVERGED marker on the old primary",
        )
        assert marker
    finally:
        rejoin.kill()
        rejoin.wait(timeout=30)
    divergence = json.loads((p_wal / "DIVERGED").read_text())
    assert divergence["first_diverged_lsn"] == split["lsn"], divergence

    result = run_cli("fsck", "--wal", str(p_wal))
    assert "diverged_tail" in result.stdout + result.stderr, result.stdout
    expect_rc(run_cli("fsck", "--wal", str(p_wal), "--repair"), 1, "fsck --repair")
    expect_rc(run_cli("fsck", "--wal", str(p_wal)), 0, "fsck after repair")
    repaired = {
        r.lsn: (r.kind, r.a, r.b, r.weight) for r in LogReader(p_wal).records()
    }
    for lsn in acked:
        assert repaired.get(lsn) == ours[lsn], (
            f"repair lost replicated lsn {lsn}"
        )
    assert split["lsn"] not in repaired
    print("  diverged tail quarantined; every replicated record kept")

    # The node's *store* is still tainted: the compactor folded the
    # split-brain records before the kill, so its latest version claims
    # an applied_lsn past the repaired tail.  The boot guard must refuse
    # to marry that fold to the shorter log instead of serving it.
    guard = run_cli(
        "serve", "--store", str(p_store), "--http", "0",
        "--wal-dir", str(p_wal), "--graph", str(graph_npz), "--wal-k", "8",
    )
    expect_rc(guard, 2, "tainted-store boot guard")
    assert "claims applied_lsn" in guard.stdout + guard.stderr, (
        guard.stdout + guard.stderr
    )
    # Runbook step after divergence repair: discard the fold and re-seed.
    # The fresh bootstrap re-folds the repaired log from the base graph —
    # deterministic, so it lands bit-identical with the new primary.
    shutil.rmtree(p_store)
    print("  boot guard refused the tainted fold; store re-seeded")

    rejoined, j_url = spawn_wal_server(
        p_store, p_wal, graph_npz,
        extra=("--standby-of", s_url, "--standby-id", "old-primary"),
    )
    try:
        j_client = ServingClient(j_url)
        _poll_until(
            lambda: j_client.healthz()["replication"]["lag"] == 0,
            "the repaired node to catch up",
        )
        top = ServingClient(s_url).healthz()["lsn_durable"]
        _poll_until(
            lambda: j_client.healthz()["lsn_served"] >= top
            and ServingClient(s_url).healthz()["lsn_served"] >= top,
            "both folds to reach the durable frontier",
        )
        a = ServingClient(s_url).top_k(0, k=K)
        b = j_client.top_k(0, k=K)
        # The durability contract is record-level bit-identity (asserted
        # above); the two folds batch their compactions differently, so
        # the embeddings agree to numerical tolerance, not byte-for-byte.
        assert a.ids.tolist() == b.ids.tolist(), (a.ids, b.ids)
        diff = float(np.max(np.abs(a.scores - b.scores)))
        assert diff < 1e-4, f"folds diverged: max |score delta| = {diff}"
        print("  rejoined standby folds identically with the primary")
        drain_supervisor(rejoined)
    finally:
        if rejoined.poll() is None:
            rejoined.kill()
            rejoined.wait(timeout=30)
    drain_supervisor(standby)
    if standby.poll() is None:
        standby.kill()
        standby.wait(timeout=30)


def drain_supervisor(server: subprocess.Popen) -> None:
    print("SIGTERM: rolling drain...")
    server.send_signal(signal.SIGTERM)
    rc = server.wait(timeout=60)
    tail = server.stdout.read()
    assert rc == 0, f"supervisor exited rc={rc} after SIGTERM:\n{tail}"
    assert "drained and stopped" in tail, tail
    print("  drained: supervisor rc=0")


def check_journal(store_dir: Path) -> None:
    """The chaos run above must be reconstructible from events.jsonl."""
    kinds = [event["kind"] for event in read_events(store_dir)]
    required = {
        "publish", "fsck_repair", "supervisor_start", "worker_start",
        "worker_exit", "worker_restart", "drain", "supervisor_stop",
    }
    missing = required - set(kinds)
    assert not missing, f"journal is missing kinds {sorted(missing)}: {kinds}"
    exits = list(read_events(store_dir, kinds=["worker_exit"]))
    assert any(
        event.get("exit") == INJECTED_KILL_EXIT for event in exits
    ), f"no worker_exit with the injected exit code: {exits}"
    print(
        f"  journal ok: {len(kinds)} events, injected crash recorded "
        f"(exit {INJECTED_KILL_EXIT})"
    )


def main() -> int:
    scrape: str | None = None
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        store_dir = tmp_path / "store"
        emb1, emb2 = tmp_path / "emb1.npz", tmp_path / "emb2.npz"
        synthetic_embedding(N_NODES, DIM, seed=0).save(emb1)
        synthetic_embedding(N_NODES, DIM, seed=1).save(emb2)

        try:
            print("publishing v1 through the CLI...")
            expect_rc(
                run_cli(
                    "serve", "--store", str(store_dir), "--publish", str(emb1)
                ),
                0, "publish v1",
            )
            expect_rc(
                run_cli("fsck", "--store", str(store_dir)), 0,
                "fsck on clean store",
            )
            print("  fsck: clean")

            check_torn_publish_recovery(store_dir, emb2)
            check_sharded_store(tmp_path, emb1, emb2)

            baseline = measure_healthy_baseline(store_dir)
            server, scrape = check_worker_kill_under_load(store_dir, baseline)
            try:
                drain_supervisor(server)
            finally:
                if server.poll() is None:
                    server.kill()
                    server.wait(timeout=30)

            check_journal(store_dir)

            check_wal_crash_recovery(tmp_path)

            check_replication_failover(tmp_path)
        finally:
            dump_artifacts(tmp_path, scrape)
    print("chaos smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
