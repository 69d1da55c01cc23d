"""Serving-layer benchmarks — emits a ``BENCH_serving.json`` perf record.

Measures the exact search backend of :mod:`repro.serving.index` on a
seeded clustered dataset shaped like real embedding matrices (cluster
centers + Gaussian noise, unit rows):

- ``exact``   — batched brute-force QPS (float32 GEMM over the backend's
  resident copy, certified band, canonical float64 rescore) and
  single-query latency, asserted **bit-identical** to the float64 engine
  on every run, smoke included.
- ``filtered`` — predicate-filtered exact search under random allow masks
  at 50%/10%/1% selectivity, QPS against the unfiltered scan.
- ``sharded`` — exact scatter-gather through a
  :class:`~repro.serving.sharding.router.ShardRouter` over range-partitioned
  shards; asserts the results are **bit-identical** to unsharded exact.
- ``service`` — a :class:`~repro.serving.service.QueryService` smoke: store
  publish → cold query → cached query → version swap, so the bench fails
  fast if the serving path itself regresses.
- ``ingest`` — the write path: sustained fsync'd upserts through an
  :class:`~repro.serving.wal.IngestPipeline` running its background
  compaction cycle, and concurrent reader threads;
  reports acked upserts/s, read QPS under write load, compaction
  cadence, and the durable→served freshness lag, which is asserted to
  drain to zero on every run, smoke included.
- ``replication`` — semi-sync streaming replication: a real
  primary/standby HTTP pair (the wiring ``repro serve --standby-of``
  builds) with ``ack_replicas=1``, so every acked upsert is fsync'd on
  both nodes before the 200 returns; reports the semi-sync ack rate and
  latency, replicated-record throughput, and the replication + standby
  fold lags, both asserted to drain to zero on every run, smoke
  included, with the two logs compared record-for-record.

Run as a script (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_serving.py           # full record
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # CI-sized

Exact and sharded bit-identity, ingestion freshness drain and
replication drain are asserted at every size, smoke included — they are
correctness properties, not tuning properties.  The full configuration
(n=131072) additionally asserts filtered exact ≥ 0.5× the unfiltered
exact QPS at 50% selectivity.  The JSON record (schema
``bench_serving/v6``; v5 without the ``ivf`` section and the IVF half of
``filtered``) stores machine info, parameters and per-section numbers so
future changes have a regression trajectory next to
``BENCH_kernels.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import scipy

from repro.parallel.pool import WorkerPool
from repro.search.knn import CompiledFilter, exact_top_k
from repro.serving.index import ExactBackend
from repro.serving.sharding import Partitioner, ShardRouter
from repro.serving.synth import clustered_unit_vectors


def bench_exact(features: np.ndarray, query_nodes: np.ndarray, k: int) -> dict:
    backend = ExactBackend(features)
    queries = features[query_nodes]

    start = time.perf_counter()
    ids, scores = backend.search(queries, k, exclude=query_nodes)
    batch_seconds = time.perf_counter() - start
    # The backend selects in float32; the certified band makes its answer
    # the float64 engine's, id for id and score byte for score byte.
    ref_ids, ref_scores = exact_top_k(
        features, queries, k, assume_normalized=True, exclude=query_nodes
    )
    assert np.array_equal(ids, ref_ids), "exact backend ids differ from float64"
    assert scores.tobytes() == ref_scores.tobytes(), (
        "exact backend scores are not bit-identical to the float64 engine"
    )

    # Single-query latency over a subsample (the per-request serving path).
    sample = query_nodes[:64]
    latencies = []
    for node in sample:
        tick = time.perf_counter()
        backend.search(features[node], k, exclude=np.array([node]))
        latencies.append(time.perf_counter() - tick)

    return {
        "truth_ids": ids,
        "truth_scores": scores,
        "record": {
            "batch_seconds": batch_seconds,
            "qps_batch": query_nodes.size / batch_seconds,
            "p50_single_ms": float(np.percentile(latencies, 50) * 1e3),
        },
    }


def bench_filtered(
    features: np.ndarray,
    query_nodes: np.ndarray,
    k: int,
    exact_qps: float,
    *,
    seed: int,
) -> dict:
    """Predicate-filtered exact search at fixed selectivities.

    Random allow masks at 50% / 10% / 1% selectivity, pushed natively
    into the exact backend via :class:`CompiledFilter`.  :func:`main`
    asserts the floor on full runs: filtered-exact QPS ≥ 0.5× unfiltered
    exact at 50% selectivity.
    """
    backend = ExactBackend(features)
    queries = features[query_nodes]
    n = features.shape[0]
    rng = np.random.default_rng(seed + 5)
    levels = {}
    for fraction in (0.5, 0.1, 0.01):
        mask = rng.random(n) < fraction
        compiled = CompiledFilter(mask)
        start = time.perf_counter()
        backend.search(queries, k, exclude=query_nodes, node_filter=compiled)
        exact_seconds = time.perf_counter() - start
        exact_qps_filtered = query_nodes.size / exact_seconds
        levels[f"{fraction:g}"] = {
            "selectivity": compiled.selectivity,
            "n_allowed": compiled.n_allowed,
            "exact_qps": exact_qps_filtered,
            "exact_qps_vs_unfiltered": exact_qps_filtered / exact_qps,
        }
    return levels


def bench_sharded(
    features: np.ndarray,
    query_nodes: np.ndarray,
    k: int,
    truth_ids: np.ndarray,
    truth_scores: np.ndarray,
    exact_qps: float,
    *,
    n_shards: int,
    n_threads: int,
) -> dict:
    """Exact scatter-gather over ``n_shards`` range shards.

    Asserts bit-identity with the unsharded exact ground truth — the
    property the canonical scoring engine guarantees — then reports the
    batched QPS of the scatter (one worker task per shard).
    """
    partitioner = Partitioner.build("range", n_shards, features.shape[0])
    backends = [
        ExactBackend(np.ascontiguousarray(features[partitioner.shard_members(s)]))
        for s in range(n_shards)
    ]
    queries = features[query_nodes]
    with WorkerPool(n_threads) as pool:
        router = ShardRouter(backends, partitioner, pool=pool)
        start = time.perf_counter()
        ids, scores = router.search(queries, k, exclude=query_nodes)
        batch_seconds = time.perf_counter() - start
    identical = bool(
        np.array_equal(ids, truth_ids) and np.array_equal(scores, truth_scores)
    )
    assert identical, "sharded exact search diverged from unsharded exact"
    return {
        "n_shards": n_shards,
        "n_threads": n_threads,
        "partition": "range",
        "qps_batch": query_nodes.size / batch_seconds,
        "speedup_vs_exact": (query_nodes.size / batch_seconds) / exact_qps,
        "identical_to_exact": identical,
    }


def bench_service(features_n: int, dim: int, k: int, seed: int) -> dict:
    """Publish → query → cached query → swap through the real service."""
    from repro.serving.service import QueryService, SearchRequest
    from repro.serving.store import EmbeddingStore
    from repro.serving.synth import synthetic_embedding

    embedding = synthetic_embedding(features_n, dim, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        store = EmbeddingStore(tmp)
        start = time.perf_counter()
        store.publish(embedding)
        publish_seconds = time.perf_counter() - start
        with QueryService(store, backend="exact") as service:
            tick = time.perf_counter()
            cold = service.search(SearchRequest(node=0, k=k))
            cold_ms = (time.perf_counter() - tick) * 1e3
            tick = time.perf_counter()
            warm = service.search(SearchRequest(node=0, k=k))
            warm_ms = (time.perf_counter() - tick) * 1e3
            assert warm.cached and np.array_equal(cold.ids, warm.ids)
            store.publish(embedding)
            tick = time.perf_counter()
            service.refresh_to_latest()
            swap_ms = (time.perf_counter() - tick) * 1e3
            assert service.version == "v00000002"
    return {
        "publish_seconds": publish_seconds,
        "cold_query_ms": cold_ms,
        "cached_query_ms": warm_ms,
        "swap_ms": swap_ms,
    }


def bench_ingest(
    n_nodes: int,
    n_attributes: int,
    k: int,
    seed: int,
    *,
    n_upserts: int,
    events_per_upsert: int = 4,
    n_readers: int = 2,
    drain_ceiling_s: float = 60.0,
) -> dict:
    """Sustained fsync'd upserts with concurrent reads; drain the lag.

    A writer thread acks ``n_upserts`` durable appends through an
    :class:`IngestPipeline` while ``n_readers`` threads hammer the live
    :class:`QueryService`; the pipeline's background compaction cycle
    folds the log into new versions under that load.  After the writer finishes the
    bench waits for the durable→served lag to drain to zero (bounded by
    ``drain_ceiling_s``) — the steady-state freshness contract that
    :func:`main` asserts before writing the record.
    """
    from repro.dynamic.incremental import GraphDelta
    from repro.graph.generators import attributed_sbm
    from repro.serving.service import QueryService, SearchRequest
    from repro.serving.store import EmbeddingStore
    from repro.serving.wal import IngestPipeline

    graph = attributed_sbm(n_nodes=n_nodes, n_attributes=n_attributes, seed=seed)
    rng = np.random.default_rng(seed + 7)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        pipeline = IngestPipeline(root / "wal", EmbeddingStore(root / "store"))
        t0 = time.perf_counter()
        pipeline.bootstrap(graph, k=k, update_sweeps=1, seed=seed)
        bootstrap_seconds = time.perf_counter() - t0
        try:
            with QueryService(pipeline.store, backend="exact") as service:
                pipeline.bind_service(service)
                pipeline.start(interval_s=0.05, keep_versions=4)
                stop = threading.Event()
                reads = [0] * n_readers

                def read_loop(slot: int) -> None:
                    node_rng = np.random.default_rng(seed + 100 + slot)
                    while not stop.is_set():
                        service.search(
                            SearchRequest(node=int(node_rng.integers(n_nodes)), k=k)
                        )
                        reads[slot] += 1

                readers = [
                    threading.Thread(target=read_loop, args=(i,), daemon=True)
                    for i in range(n_readers)
                ]
                for thread in readers:
                    thread.start()

                append_ms = np.empty(n_upserts)
                write_start = time.perf_counter()
                for i in range(n_upserts):
                    edges = rng.integers(0, n_nodes, size=(events_per_upsert // 2, 2))
                    assocs = np.column_stack(
                        [
                            rng.integers(0, n_nodes, size=events_per_upsert // 2),
                            rng.integers(0, n_attributes, size=events_per_upsert // 2),
                            rng.uniform(0.1, 1.0, size=events_per_upsert // 2),
                        ]
                    )
                    tick = time.perf_counter()
                    pipeline.append(
                        GraphDelta(add_edges=edges, add_associations=assocs)
                    )
                    append_ms[i] = (time.perf_counter() - tick) * 1e3
                write_seconds = time.perf_counter() - write_start

                # Drain: keep reads flowing while the compactor catches up.
                drain_start = time.perf_counter()
                deadline = drain_start + drain_ceiling_s
                while (
                    pipeline.freshness()["lag"] > 0
                    and time.perf_counter() < deadline
                ):
                    time.sleep(0.02)
                drain_seconds = time.perf_counter() - drain_start
                stop.set()
                for thread in readers:
                    thread.join(timeout=10)
                freshness = pipeline.freshness()
                counters = dict(pipeline.counters)
                pipeline.stop()
        finally:
            pipeline.close()

    total_reads = sum(reads)
    return {
        "n_nodes": n_nodes,
        "n_attributes": n_attributes,
        "k": k,
        "bootstrap_seconds": bootstrap_seconds,
        "upserts": n_upserts,
        "events": int(counters["events"]),
        "upserts_per_s": n_upserts / write_seconds,
        "events_per_s": counters["events"] / write_seconds,
        "p50_append_ms": float(np.percentile(append_ms, 50)),
        "p99_append_ms": float(np.percentile(append_ms, 99)),
        "reads_under_writes": total_reads,
        "read_qps_under_writes": total_reads / (write_seconds + drain_seconds),
        "compactions": int(counters["compactions"]),
        "checkpoints": int(counters["checkpoints"]),
        "lsn_durable": freshness["lsn_durable"],
        "lsn_served": freshness["lsn_served"],
        "freshness_lag": freshness["lag"],
        "drain_seconds": drain_seconds,
    }


def bench_replication(
    n_nodes: int,
    n_attributes: int,
    k: int,
    seed: int,
    *,
    n_upserts: int,
    drain_ceiling_s: float = 60.0,
) -> dict:
    """Semi-sync replication: acked ingest through a primary/standby pair.

    Boots a real primary and standby on loopback — the same wiring
    ``repro serve --standby-of`` builds — with the primary in semi-sync
    mode (``ack_replicas=1``): every acked upsert is fsync'd on *both*
    nodes before its 200 returns.  Measures the semi-sync ack rate and
    latency, then waits for the replication lag (primary durable LSN
    minus standby ack) and the standby's own durable→served fold lag to
    drain to zero — the zero-acked-loss freshness contract that
    :func:`main` asserts before writing the record — and finishes with
    a record-for-record comparison of the two logs.
    """
    from repro.graph.generators import attributed_sbm
    from repro.serving.http import ServingClient
    from repro.serving.http.server import EmbeddingServer
    from repro.serving.http.write_path import WritePath
    from repro.serving.service import QueryService
    from repro.serving.store import EmbeddingStore
    from repro.serving.wal import IngestPipeline
    from repro.serving.wal.log import LogReader
    from repro.serving.wal.replication import StandbyReplicator

    graph = attributed_sbm(n_nodes=n_nodes, n_attributes=n_attributes, seed=seed)
    rng = np.random.default_rng(seed + 11)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        primary = IngestPipeline(
            root / "primary-wal", EmbeddingStore(root / "primary-store")
        )
        primary.bootstrap(graph, k=k, update_sweeps=1, seed=seed)
        standby = IngestPipeline(
            root / "standby-wal", EmbeddingStore(root / "standby-store")
        )
        standby.bootstrap(graph, k=k, update_sweeps=1, seed=seed)
        try:
            with (
                QueryService(primary.store, backend="exact") as p_service,
                QueryService(standby.store, backend="exact") as s_service,
            ):
                primary.bind_service(p_service)
                standby.bind_service(s_service)
                primary.start(interval_s=0.05, keep_versions=4)
                standby.start(interval_s=0.05, keep_versions=4)
                with EmbeddingServer(
                    p_service,
                    ingest=WritePath(primary, ack_replicas=1, ack_timeout_s=10.0),
                ) as server:
                    replicator = StandbyReplicator(
                        server.url,
                        standby.log,
                        standby_id="bench-standby",
                        wait_s=0.3,
                    )
                    replicator.start()
                    try:
                        client = ServingClient(server.url, retries=0)
                        ack_ms = np.empty(n_upserts)
                        write_start = time.perf_counter()
                        for i in range(n_upserts):
                            edges = rng.integers(0, n_nodes, size=(2, 2))
                            tick = time.perf_counter()
                            ack = client.upsert(add_edges=edges.tolist())
                            ack_ms[i] = (time.perf_counter() - tick) * 1e3
                            assert ack["durable"], ack
                        write_seconds = time.perf_counter() - write_start

                        drain_start = time.perf_counter()
                        deadline = drain_start + drain_ceiling_s
                        while time.perf_counter() < deadline:
                            status = replicator.status()
                            if status["state"] == "caught_up" and status["lag"] == 0:
                                break
                            time.sleep(0.02)
                        replication_drain = time.perf_counter() - drain_start
                        status = replicator.status()
                        deadline = time.perf_counter() + drain_ceiling_s
                        while (
                            standby.freshness()["lag"] > 0
                            and time.perf_counter() < deadline
                        ):
                            time.sleep(0.02)
                        freshness = standby.freshness()
                        client.close()
                    finally:
                        replicator.stop(timeout_s=5.0)
                primary.stop()
                standby.stop()
            ours = [
                (r.lsn, r.kind, r.a, r.b, r.weight)
                for r in LogReader(root / "primary-wal").records()
            ]
            theirs = [
                (r.lsn, r.kind, r.a, r.b, r.weight)
                for r in LogReader(root / "standby-wal").records()
            ]
            assert ours == theirs, (
                f"standby log diverged from the primary: "
                f"{len(ours)} vs {len(theirs)} records"
            )
        finally:
            standby.close()
            primary.close()

    return {
        "n_nodes": n_nodes,
        "n_attributes": n_attributes,
        "k": k,
        "ack_replicas": 1,
        "upserts": n_upserts,
        "acked_upserts_per_s": n_upserts / write_seconds,
        "p50_ack_ms": float(np.percentile(ack_ms, 50)),
        "p99_ack_ms": float(np.percentile(ack_ms, 99)),
        "records_replicated": status["records_replicated"],
        "replication_state": status["state"],
        "replication_lag": status["lag"],
        "replication_drain_seconds": replication_drain,
        "standby_lsn_durable": freshness["lsn_durable"],
        "standby_lsn_served": freshness["lsn_served"],
        "standby_freshness_lag": freshness["lag"],
        "identical_logs": True,  # implied by the record comparison above
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=131_072, help="vectors")
    parser.add_argument("--dim", type=int, default=64, help="embedding dim")
    parser.add_argument("--clusters", type=int, default=256, help="data clusters")
    parser.add_argument("--queries", type=int, default=1024)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--shards", type=int, default=4, help="router shards")
    parser.add_argument(
        "--shard-threads", type=int, default=4, help="scatter worker threads"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_serving.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (n=8192); skips the filtered-QPS floor",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.n, args.dim, args.clusters = 8_192, 32, 64
        args.queries = 256

    record = {
        "meta": {
            "schema": "bench_serving/v6",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "smoke": bool(args.smoke),
        },
        "params": {
            "n": args.n,
            "dim": args.dim,
            "clusters": args.clusters,
            "queries": args.queries,
            "k": args.k,
            "shards": args.shards,
            "seed": args.seed,
        },
    }

    print(
        f"dataset: n={args.n} dim={args.dim} clusters={args.clusters}",
        flush=True,
    )
    features = clustered_unit_vectors(
        args.n, args.dim, args.clusters, seed=args.seed
    )
    rng = np.random.default_rng(args.seed + 1)
    query_nodes = np.sort(rng.choice(args.n, size=args.queries, replace=False))

    print("exact backend...", flush=True)
    exact = bench_exact(features, query_nodes, args.k)
    record["exact"] = exact["record"]

    print("filtered exact search (50%/10%/1% selectivity)...", flush=True)
    record["filtered"] = bench_filtered(
        features,
        query_nodes,
        args.k,
        exact["record"]["qps_batch"],
        seed=args.seed,
    )

    print("sharded exact router...", flush=True)
    record["sharded"] = bench_sharded(
        features,
        query_nodes,
        args.k,
        exact["truth_ids"],
        exact["truth_scores"],
        exact["record"]["qps_batch"],
        n_shards=args.shards,
        n_threads=args.shard_threads,
    )

    print("query service...", flush=True)
    record["service"] = bench_service(
        min(args.n, 20_000), args.dim, args.k, args.seed
    )

    print("ingestion (WAL + compactor under concurrent reads)...", flush=True)
    record["ingest"] = bench_ingest(
        300 if args.smoke else 1_000,
        32 if args.smoke else 64,
        8 if args.smoke else 16,
        args.seed,
        n_upserts=120 if args.smoke else 500,
    )

    print("replication (semi-sync primary/standby pair)...", flush=True)
    record["replication"] = bench_replication(
        300 if args.smoke else 1_000,
        32 if args.smoke else 64,
        8 if args.smoke else 16,
        args.seed,
        n_upserts=80 if args.smoke else 300,
    )

    lag = record["ingest"]["freshness_lag"]
    assert lag == 0, (
        f"ingestion lag did not drain: lsn_served="
        f"{record['ingest']['lsn_served']} is {lag} records behind "
        f"lsn_durable={record['ingest']['lsn_durable']} after "
        f"{record['ingest']['drain_seconds']:.1f}s"
    )
    assert record["ingest"]["lsn_durable"] > 0, "no durable writes recorded"
    rep = record["replication"]
    assert rep["replication_lag"] == 0, (
        f"replication lag did not drain: standby is "
        f"{rep['replication_lag']} records behind after "
        f"{rep['replication_drain_seconds']:.1f}s"
    )
    assert rep["standby_freshness_lag"] == 0, (
        f"standby fold lag did not drain: lsn_served="
        f"{rep['standby_lsn_served']} vs lsn_durable="
        f"{rep['standby_lsn_durable']}"
    )
    assert rep["records_replicated"] >= rep["upserts"], rep
    if not args.smoke:
        exact_ratio = record["filtered"]["0.5"]["exact_qps_vs_unfiltered"]
        assert exact_ratio >= 0.5, (
            f"filtered exact at 50% selectivity holds only "
            f"{exact_ratio:.2f}x of unfiltered QPS (< 0.5x)"
        )

    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(
        f"exact    {record['exact']['qps_batch']:10.0f} QPS  "
        f"(p50 single {record['exact']['p50_single_ms']:.2f} ms)"
    )
    for level, row in record["filtered"].items():
        print(
            f"filtered {row['exact_qps']:10.0f} QPS at {float(level):.0%} "
            f"selectivity ({row['exact_qps_vs_unfiltered']:.2f}x of unfiltered)"
        )
    print(
        f"sharded  {record['sharded']['qps_batch']:10.0f} QPS  "
        f"({record['sharded']['n_shards']} shards, bit-identical to exact, "
        f"{record['sharded']['speedup_vs_exact']:.1f}x)"
    )
    print(
        f"service  cold {record['service']['cold_query_ms']:.2f} ms, "
        f"cached {record['service']['cached_query_ms']:.3f} ms, "
        f"swap {record['service']['swap_ms']:.1f} ms"
    )
    print(
        f"ingest   {record['ingest']['upserts_per_s']:10.0f} upserts/s  "
        f"(p50 append {record['ingest']['p50_append_ms']:.2f} ms, "
        f"{record['ingest']['compactions']} compactions, "
        f"{record['ingest']['read_qps_under_writes']:.0f} reads/s alongside, "
        f"lag drained in {record['ingest']['drain_seconds']:.1f}s)"
    )
    print(
        f"repl     {record['replication']['acked_upserts_per_s']:10.0f} "
        f"acked upserts/s  (semi-sync, p50 ack "
        f"{record['replication']['p50_ack_ms']:.2f} ms, "
        f"{record['replication']['records_replicated']} records replicated, "
        f"lag drained in "
        f"{record['replication']['replication_drain_seconds']:.1f}s)"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
