"""Command-line interface: generate data, embed graphs, evaluate tasks.

Usage::

    python -m repro.cli generate --dataset cora_sim --out graph.npz
    python -m repro.cli embed --graph graph.npz --out emb.npz --k 64 --threads 4
    python -m repro.cli evaluate --graph graph.npz --task link --k 64
    python -m repro.cli serve --store store/ --publish emb.npz
    python -m repro.cli serve --store store/ --publish emb.npz --shards 4
    python -m repro.cli serve --store store/ --http 8080
    python -m repro.cli query --store store/ --node 0 --k 5
    python -m repro.cli bench-http --url http://127.0.0.1:8080 --requests 512
    python -m repro.cli datasets

``query`` auto-detects sharded store roots (created with ``serve
--shards N``) and scatter-gathers across the segments.  ``serve --http
PORT`` exposes the store over the JSON HTTP API (see
``docs/SERVING.md``); ``bench-http`` is the matching client-side load
generator.

The CLI wraps the same public API the examples use; it exists so the
embedding pipeline can run without writing Python.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_datasets(_: argparse.Namespace) -> int:
    from repro.eval.datasets import DATASETS, load_dataset

    for name, spec in DATASETS.items():
        graph = load_dataset(name)
        print(
            f"{name:15s} ({spec.paper_name:9s} analogue, {spec.scale}) "
            f"n={graph.n_nodes} m={graph.n_edges} d={graph.n_attributes} "
            f"|L|={graph.n_labels} — {spec.description}"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.eval.datasets import load_dataset
    from repro.graph.io import save_npz

    graph = load_dataset(args.dataset)
    save_npz(graph, args.out)
    print(f"wrote {args.out}: {graph.summary()}")
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    from repro.core.pane import PANE
    from repro.graph.io import load_npz

    graph = load_npz(args.graph)
    model = PANE(
        k=args.k,
        alpha=args.alpha,
        epsilon=args.epsilon,
        n_threads=args.threads,
        seed=args.seed,
        ccd_block_size=args.ccd_block_size,
    )
    embedding = model.fit(graph, compute_objective=True)
    embedding.save(args.out)
    timings = ", ".join(f"{k}={v:.2f}s" for k, v in embedding.timings.items())
    print(f"wrote {args.out}: objective={embedding.objective:.2f} ({timings})")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.pane import PANE
    from repro.graph.io import load_npz

    graph = load_npz(args.graph)
    model = PANE(
        k=args.k,
        n_threads=args.threads,
        seed=args.seed,
        ccd_block_size=args.ccd_block_size,
    )

    if args.task == "link":
        from repro.tasks.link_prediction import LinkPredictionTask

        result = LinkPredictionTask(graph, seed=args.seed).evaluate(model)
        print(f"link prediction: AUC={result.auc:.3f} AP={result.ap:.3f}")
    elif args.task == "attribute":
        from repro.tasks.attribute_inference import AttributeInferenceTask

        result = AttributeInferenceTask(graph, seed=args.seed).evaluate(model)
        print(f"attribute inference: AUC={result.auc:.3f} AP={result.ap:.3f}")
    else:
        from repro.tasks.node_classification import NodeClassificationTask

        if graph.labels is None:
            print("error: graph has no labels", file=sys.stderr)
            return 2
        task = NodeClassificationTask(
            graph, train_fractions=(0.1, 0.5, 0.9), n_repeats=2, seed=args.seed
        )
        result = task.evaluate(model)
        for fraction, micro, macro in zip(
            result.train_fractions, result.micro, result.macro
        ):
            print(
                f"classification @ {fraction:.0%} train: "
                f"micro-F1={micro:.3f} macro-F1={macro:.3f}"
            )
    return 0


def _cmd_neighbors(args: argparse.Namespace) -> int:
    from repro.core.embedding import PANEEmbedding
    from repro.search.knn import top_k_similar

    embedding = PANEEmbedding.load(args.embedding)
    features = embedding.node_embeddings()
    neighbors, similarities = top_k_similar(features, args.node, args.k)
    for node, similarity in zip(neighbors, similarities):
        print(f"{node}\t{similarity:.4f}")
    return 0


def _open_store(root: str, *, shards: int = 0, partition: str | None = None):
    """A plain or sharded store handle for ``root``.

    Existing sharded roots are auto-detected (their ``sharding.json`` is
    authoritative); ``--shards N`` creates a new sharded root.  A layout
    request that conflicts with an existing store — shards on a plain
    store, or a different shard count / partitioning on a sharded one —
    is an error rather than a silent reinterpretation.
    """
    from repro.serving.sharding.store import ShardedEmbeddingStore
    from repro.serving.store import EmbeddingStore

    if ShardedEmbeddingStore.is_sharded_root(root):
        # Forward any explicit layout request so the store's own conflict
        # checks fire instead of quietly serving the recorded layout.
        return ShardedEmbeddingStore(
            root, n_shards=shards or None, partition=partition
        )
    if partition is not None and shards == 0:
        raise ValueError(
            "--partition only applies to sharded stores; pass --shards N "
            "to create one (or point --store at an existing sharded root)"
        )
    if shards > 0:
        from pathlib import Path

        if (Path(root) / "versions").is_dir():
            raise ValueError(
                f"{root} is an existing unsharded store; --shards only "
                "applies when creating a new store root"
            )
        return ShardedEmbeddingStore(root, n_shards=shards, partition=partition)
    return EmbeddingStore(root)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.sharding.store import ShardedEmbeddingStore

    try:
        store = _open_store(
            args.store, shards=args.shards, partition=args.partition
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sharded = isinstance(store, ShardedEmbeddingStore)
    layout = f" [{store.n_shards} {store.partition} shards]" if sharded else ""
    if args.publish:
        from repro.core.embedding import PANEEmbedding

        embedding = PANEEmbedding.load(args.publish)
        version = store.publish(embedding)
        manifest = store.manifest(version)
        from repro.serving.obs.journal import EventJournal

        EventJournal(args.store).emit(
            "publish",
            version=version,
            source="cli",
            n_nodes=manifest["n_nodes"],
        )
        print(
            f"published {version}{layout}: n={manifest['n_nodes']} "
            f"d={manifest['n_attributes']} k={manifest['k']}"
        )
    if args.rollback:
        try:
            version = store.rollback()
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"rolled back to {version}")
    if args.http is not None:
        return _serve_http(store, args)
    if not args.publish and not args.rollback:
        latest = store.latest()
        versions = store.versions()
        if not versions:
            print(f"store {args.store}{layout}: empty")
        for name in versions:
            marker = " (latest)" if name == latest else ""
            manifest = store.manifest(name)
            print(
                f"{name}{marker}{layout}: n={manifest['n_nodes']} "
                f"d={manifest['n_attributes']} k={manifest['k']}"
            )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Check (and with --repair, recover) a store root and/or a delta log.

    Exit codes are the contract scripts build on: 0 = clean, 1 = issues
    found and all of them repairable (repaired when --repair was given),
    2 = unrecoverable (not a store, or no clean version survives).  When
    both --store and --wal are checked the exit code is the worse of the
    two sweeps.
    """
    import json as json_module

    from repro.serving.fsck import fsck, fsck_wal
    from repro.serving.obs.journal import EventJournal

    if args.store is None and args.wal is None:
        print("error: pass --store and/or --wal", file=sys.stderr)
        return 2

    def _verdict(report) -> str:
        if report.clean:
            return "clean"
        if report.unrecoverable:
            return "unrecoverable"
        return "repaired" if report.repaired else "repairable (run --repair)"

    def _print_issues(report) -> None:
        for issue in report.issues:
            tag = "" if issue.repairable else " [unrecoverable]"
            print(f"{issue.code}{tag}: {issue.detail}")
        for action in report.actions:
            print(f"repair: {action}")

    reports: dict[str, dict] = {}
    code = 0
    if args.store is not None:
        journal = EventJournal(args.store) if args.repair else None
        report = fsck(args.store, repair=args.repair, journal=journal)
        reports["store"] = report.as_dict()
        code = max(code, report.exit_code())
        if not args.json:
            _print_issues(report)
            print(
                f"{args.store}: {_verdict(report)} — "
                f"{len(report.clean_versions)} clean / "
                f"{len(report.corrupt_versions)} corrupt version(s), "
                f"latest={report.latest}"
            )
    if args.wal is not None:
        # Repairs journal into the *store* when one was named alongside
        # --wal, so the fleet's events.jsonl holds the full story.
        journal = (
            EventJournal(args.store or args.wal) if args.repair else None
        )
        report = fsck_wal(args.wal, repair=args.repair, journal=journal)
        reports["wal"] = report.as_dict()
        code = max(code, report.exit_code())
        if not args.json:
            _print_issues(report)
            print(
                f"{args.wal}: {_verdict(report)} — "
                f"{len(report.clean_versions)} readable / "
                f"{len(report.corrupt_versions)} damaged segment(s), "
                f"last valid {report.latest or 'lsn=0'}"
            )
    if args.json:
        payload = reports[next(iter(reports))] if len(reports) == 1 else reports
        print(json_module.dumps(payload, indent=2))
    return code


def _cmd_log(args: argparse.Namespace) -> int:
    """Inspect a delta-log directory without touching it.

    Read-only on purpose: opening a :class:`DeltaLog` performs torn-tail
    recovery (it truncates), which an *inspection* command must never
    do.  Exit 0 on a readable log, 1 when damage is visible (run
    ``repro fsck --wal`` to repair), 2 when the directory is not a log.
    """
    import json as json_module
    from pathlib import Path

    from repro.serving.wal.compactor import CHECKPOINT_FILE
    from repro.serving.wal.log import fold_records, scan_segment

    root = Path(args.wal_dir)
    segments = sorted(root.glob("*.wal")) if root.is_dir() else []
    checkpoint_path = root / CHECKPOINT_FILE
    if not segments and not checkpoint_path.exists():
        print(f"error: {root} is not a delta-log directory", file=sys.stderr)
        return 2

    checkpoint = None
    if checkpoint_path.exists():
        try:
            raw = json_module.loads(checkpoint_path.read_text())
            checkpoint = {"lsn": raw.get("lsn"), "graph": raw.get("graph")}
        except (OSError, ValueError):
            checkpoint = {"error": "unreadable"}

    records = []
    infos = []
    damaged = False
    for path in segments:
        segment_records, info = scan_segment(path)
        records.extend(segment_records)
        infos.append(info)
        damaged = damaged or info.error is not None

    payload: dict = {
        "wal_dir": str(root),
        "checkpoint": checkpoint,
        "n_segments": len(infos),
        "n_records": len(records),
        "first_lsn": records[0].lsn if records else 0,
        "last_lsn": records[-1].lsn if records else 0,
        "size_bytes": sum(info.size_bytes for info in infos),
        "damaged": damaged,
        "segments": [info.as_dict() for info in infos],
    }
    if args.replay:
        delta = fold_records(records, directed=not args.undirected)
        payload["replay"] = {
            "records_folded": len(records),
            "add_edges": 0 if delta.add_edges is None else len(delta.add_edges),
            "remove_edges": 0 if delta.remove_edges is None else len(delta.remove_edges),
            "add_associations": 0
            if delta.add_associations is None
            else len(delta.add_associations),
            "remove_associations": 0
            if delta.remove_associations is None
            else len(delta.remove_associations),
        }
    if args.json:
        print(json_module.dumps(payload, indent=2))
        return 1 if damaged else 0

    base = f"checkpoint lsn={checkpoint['lsn']}" if checkpoint else "no checkpoint"
    print(
        f"{root}: {payload['n_segments']} segment(s), "
        f"{payload['n_records']} record(s) "
        f"[{payload['first_lsn']}..{payload['last_lsn']}], "
        f"{payload['size_bytes']} bytes, {base}"
    )
    for info in infos:
        status = f" DAMAGED ({info.error})" if info.error else ""
        print(
            f"  {Path(info.path).name}: lsn {info.first_lsn}.."
            f"{info.last_lsn} ({info.n_records} records, "
            f"{info.size_bytes} bytes){status}"
        )
    if args.replay:
        replay = payload["replay"]
        print(
            f"  replay folds to: +{replay['add_edges']}/-{replay['remove_edges']} "
            f"edges, +{replay['add_associations']}/-{replay['remove_associations']} "
            "associations"
        )
    if damaged:
        print("run `repro fsck --wal` to repair", file=sys.stderr)
        return 1
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    """Delete store versions superseded by newer ones (``repro gc``).

    Versions pinned by a dataset name (``repro dataset assign``) are
    never deleted, whatever ``--keep`` says.
    """
    import json as json_module

    from repro.serving.datasets import retain

    from repro.serving.sharding.store import ShardedEmbeddingStore

    try:
        store = _open_store(args.store)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if isinstance(store, ShardedEmbeddingStore):
        print(
            "error: gc supports unsharded stores only (logical versions "
            "pin per-shard segment versions)",
            file=sys.stderr,
        )
        return 2
    try:
        result = retain(store, keep=args.keep, dry_run=args.dry_run)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json_module.dumps(result, indent=2))
        return 0
    verb = "would delete" if args.dry_run else "deleted"
    print(
        f"{args.store}: {verb} {len(result['deleted'])} version(s) "
        f"({result['reclaimed_bytes']} bytes), kept {len(result['kept'])}"
    )
    for version in result["deleted"]:
        print(f"  - {version}")
    for version in result["protected"]:
        print(f"  pinned by a dataset: {version}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    """Named datasets: ``repro dataset list/assign/drop/diff/retain``."""
    import json as json_module

    from repro.serving.datasets import (
        DatasetError,
        DatasetRegistry,
        diff_versions,
        retain,
    )

    try:
        store = _open_store(args.store)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    registry = DatasetRegistry(store)
    try:
        if args.dataset_command == "list":
            rows = registry.list_rows()
            if args.json:
                print(json_module.dumps(rows, indent=2))
                return 0
            if not rows:
                print("no datasets")
                return 0
            for row in rows:
                mark = "" if row["exists"] else "  [MISSING VERSION]"
                latest = "  (latest)" if row["is_latest"] else ""
                lsn = (
                    f"  lsn={row['applied_lsn']}"
                    if row.get("applied_lsn") is not None
                    else ""
                )
                print(f"{row['name']}\t{row['version']}{lsn}{latest}{mark}")
            return 0
        if args.dataset_command == "assign":
            version = args.version or store.latest()
            if version is None:
                print("error: store has no versions", file=sys.stderr)
                return 2
            registry.assign(args.name, version, note=args.note)
            print(f"{args.name} -> {version}")
            return 0
        if args.dataset_command == "drop":
            entry = registry.remove(args.name)
            print(f"dropped {args.name} (was {entry['version']})")
            return 0
        if args.dataset_command == "diff":
            from repro.serving.wal.log import LogReader

            # Read-only view: diffing must never trigger the torn-tail
            # truncation a DeltaLog open performs.
            report, _ = diff_versions(
                store,
                LogReader(args.wal_dir),
                args.ref_a,
                args.ref_b,
                directed=not args.undirected,
            )
            if args.json:
                print(json_module.dumps(report, indent=2))
                return 0
            span = report["lsn_range"]
            window = f"LSNs {span[0]}..{span[1]}" if span else "no new records"
            print(
                f"{report['from']['version']} -> {report['to']['version']} "
                f"({window})"
            )
            for kind, count in report["events"].items():
                if count:
                    print(f"  {kind}: {count}")
            print(f"  changed nodes: {report['n_changed_nodes']}")
            return 0
        # retain
        result = retain(store, keep=args.keep, dry_run=args.dry_run)
        if args.json:
            print(json_module.dumps(result, indent=2))
            return 0
        verb = "would delete" if args.dry_run else "deleted"
        print(
            f"{verb} {len(result['deleted'])} version(s), "
            f"kept {len(result['kept'])}, "
            f"{len(result['protected'])} pinned by datasets"
        )
        return 0
    except DatasetError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _serve_supervised(store, args: argparse.Namespace) -> int:
    """Serve through the pre-fork supervisor (``--workers N``, N >= 2)."""
    from repro.serving.http import Supervisor, SupervisorConfig

    config = SupervisorConfig(
        store=args.store,
        n_workers=args.workers,
        host=args.http_host,
        port=args.http,
        backend=args.backend,
        nprobe=args.nprobe,
        threads=args.threads,
        coalesce_window_ms=args.coalesce_window_ms,
        coalesce_max_batch=args.coalesce_max_batch,
        select_dtype=args.select_dtype,
        drain_timeout_s=args.drain_timeout,
        log_requests=args.log_requests,
        slow_query_ms=args.slow_query_ms,
        max_restarts=args.max_restarts,
        wal_dir=args.wal_dir,
        graph=args.graph,
        wal_max_bytes=args.wal_max_bytes,
        compact_interval_s=args.compact_interval,
        gc_keep=args.gc_keep,
        bootstrap_k=args.wal_k,
        ack_replicas=args.ack_replicas,
        ack_timeout_s=args.ack_timeout,
    )
    supervisor = Supervisor(config)
    supervisor.start()
    # Same parsable "on <url>" shape as the single-process boot line, so
    # existing wrappers discover the data-plane port unchanged.
    print(
        f"serving {args.store} [{args.workers} workers] on {supervisor.url} "
        f"admin={supervisor.admin_url}",
        flush=True,
    )
    code = supervisor.wait()
    if code == 0:
        print("drained and stopped", flush=True)
    return code


def _serve_http(store, args: argparse.Namespace) -> int:
    """Block serving the store over HTTP until SIGTERM/SIGINT.

    The server owns a :class:`QueryService` built from the CLI knobs and
    drains gracefully on shutdown: in-flight requests complete, late
    arrivals get a structured 503.  With ``--workers N`` (N >= 2) the
    pre-fork :class:`~repro.serving.http.Supervisor` takes over instead.
    """
    from repro.serving.http import EmbeddingServer
    from repro.serving.obs.journal import EventJournal
    from repro.serving.service import QueryService

    # Reject contradictory flags up front, one line each.
    problem = None
    if args.workers < 1:
        problem = f"--workers must be >= 1, got {args.workers}"
    elif args.standby_of is not None and args.wal_dir is None:
        problem = (
            "--standby-of needs --wal-dir (the standby keeps its own "
            "durable copy of the log)"
        )
    elif args.standby_of is not None and args.workers > 1:
        problem = (
            "--standby-of requires --workers 1 (replication is owned by "
            "the serving process)"
        )
    elif args.standby_of is not None and args.ack_replicas:
        problem = (
            "--ack-replicas is a primary-side knob; a standby takes no "
            "client writes to ack"
        )
    elif args.ack_replicas and args.wal_dir is None:
        problem = (
            "--ack-replicas needs --wal-dir (without a log there are no "
            "writes to replicate)"
        )
    elif args.coalesce_window_ms > 0 and args.coalesce_max_batch < 1:
        # The coalescer would raise a bare ValueError from deep inside
        # QueryService.make_coalescer otherwise.
        problem = f"--coalesce-max-batch must be >= 1, got {args.coalesce_max_batch}"
    elif args.wal_dir is None and store.latest() is None:
        problem = "store has no published versions"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workers > 1:
        # The supervisor owns the write path in multi-worker mode (one
        # log writer per deployment); don't open the WAL here too.
        return _serve_supervised(store, args)
    journal = EventJournal(args.store)
    write_path = None
    try:
        if args.wal_dir is not None:
            # The write path boots before the query service: a cold
            # bootstrap publishes the first version the service will open.
            from repro.serving.http.write_path import WritePath

            try:
                write_path = WritePath.open(
                    args.wal_dir,
                    store,
                    graph=args.graph,
                    bootstrap_k=args.wal_k,
                    max_bytes=args.wal_max_bytes,
                    ack_replicas=args.ack_replicas,
                    ack_timeout_s=args.ack_timeout,
                    journal=journal,
                )
            except Exception as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        if store.latest() is None:
            print("error: store has no published versions", file=sys.stderr)
            return 2
        with QueryService(
            store,
            backend=args.backend,
            nprobe=args.nprobe,
            n_threads=args.threads,
            index_cache=True,
            select_dtype=args.select_dtype,
        ) as service:
            if write_path is not None:
                # Reads in this process follow the write path: each
                # compacted version is atomically activated on the service.
                write_path.start(
                    compact_interval_s=args.compact_interval,
                    gc_keep=args.gc_keep,
                    service=service,
                    standby_of=args.standby_of,
                    standby_id=args.standby_id,
                )
            server = EmbeddingServer(
                service,
                host=args.http_host,
                port=args.http,
                drain_timeout_s=args.drain_timeout,
                coalesce_window_s=args.coalesce_window_ms / 1e3,
                coalesce_max_batch=args.coalesce_max_batch,
                log=args.log_requests,
                ingest=write_path,
                slow_query_ms=args.slow_query_ms,
                journal=journal,
            )
            wal = f" wal={args.wal_dir}" if args.wal_dir else ""
            role = f" standby-of={args.standby_of}" if args.standby_of else ""
            # One parsable line so wrappers (CI smoke, scripts) can discover
            # the bound port when --http 0 asked for an ephemeral one.
            print(
                f"serving {args.store} [{service.describe()['backend_kind']}]"
                f"{wal}{role} on {server.url}",
                flush=True,
            )
            if server.run():
                print("drained and stopped", flush=True)
                return 0
            print(
                "error: drain timed out; in-flight requests were abandoned",
                file=sys.stderr,
                flush=True,
            )
            return 1
    finally:
        if write_path is not None:
            write_path.close()


def _parse_since(raw: str | None) -> float | None:
    """``--since``: a unix timestamp, or a relative ``30s``/``5m``/``2h``."""
    import time as time_module

    if raw is None:
        return None
    text = raw.strip()
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    if text and text[-1].lower() in units:
        return time_module.time() - float(text[:-1]) * units[text[-1].lower()]
    return float(text)


def _format_event(event: dict) -> str:
    import time as time_module

    ts = event.get("ts")
    stamp = (
        time_module.strftime("%H:%M:%S", time_module.localtime(ts))
        if isinstance(ts, (int, float))
        else "--:--:--"
    )
    kind = event.get("kind", "?")
    rest = " ".join(
        f"{key}={value}"
        for key, value in event.items()
        if key not in ("ts", "kind")
    )
    return f"{stamp} {kind:<16s} {rest}"


def _cmd_events(args: argparse.Namespace) -> int:
    """Print (or tail, with --follow) the ops event journal."""
    import json as json_module

    from repro.serving.obs.journal import follow_events, read_events

    try:
        since = _parse_since(args.since)
    except ValueError:
        print(f"error: cannot parse --since {args.since!r}", file=sys.stderr)
        return 2
    kinds = frozenset(args.kind) if args.kind else None
    source = (
        follow_events(args.store, kinds=kinds, since=since)
        if args.follow
        else read_events(args.store, kinds=kinds, since=since)
    )
    seen = 0
    try:
        for event in source:
            seen += 1
            if args.json:
                print(json_module.dumps(event), flush=True)
            else:
                print(_format_event(event), flush=True)
    except KeyboardInterrupt:
        return 0
    if seen == 0 and not args.follow:
        print("no matching events", file=sys.stderr)
    return 0


def _cmd_stat(args: argparse.Namespace) -> int:
    """One-shot fleet summary: journal roll-up plus live server metrics."""
    import json as json_module

    from repro.serving.obs.journal import summarize_events

    summary = summarize_events(args.store)
    metrics = None
    if args.url:
        from repro.serving.http import ApiError, ServingClient

        try:
            metrics = ServingClient(args.url, timeout_s=args.timeout).metrics()
        except (ApiError, OSError) as error:
            print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
            if args.json:
                print(json_module.dumps({"journal": summary}, indent=2))
            return 2
    if args.json:
        payload = {"journal": summary}
        if metrics is not None:
            payload["metrics"] = metrics
        print(json_module.dumps(payload, indent=2))
        return 0
    print(f"{args.store}: {summary['events']} journal event(s)")
    for kind in sorted(summary["kinds"]):
        last = summary["last_by_kind"][kind]
        print(f"  {kind:<16s} x{summary['kinds'][kind]:<5d} last: "
              f"{_format_event(last)}")
    if metrics is not None:
        supervisor = metrics.get("supervisor")
        if supervisor is not None:
            print(
                f"fleet: {supervisor.get('n_reporting')}/"
                f"{supervisor.get('n_workers')} workers reporting, "
                f"{supervisor.get('restarts_total')} restart(s)"
            )
        registry = metrics.get("registry")
        if registry is not None:
            # One server's registry or a supervisor's fleet merge: the
            # same families, so the same three sums either way.
            from repro.serving.obs.metrics import family_total

            print(
                "http: {:.0f} requests, {:.0f} queries, {:.0f} cache hits".format(
                    family_total(registry, "http_requests_total"),
                    family_total(registry, "service_queries_total"),
                    family_total(registry, "service_cache_served_total"),
                )
            )
            workers = sorted(
                cell["labels"]["worker"]
                for family in registry["families"]
                if family["name"] == "process_modules_loaded"
                for cell in family["cells"]
            )
            for worker in workers:
                rss, peak, modules = (
                    family_total(registry, name, worker=worker)
                    for name in (
                        "process_resident_memory_bytes",
                        "process_peak_resident_memory_bytes",
                        "process_modules_loaded",
                    )
                )
                print(
                    f"process: worker {worker} rss={rss / 2**20:.1f} MiB "
                    f"peak={peak / 2**20:.1f} MiB modules={modules:.0f}"
                )
        ingest = metrics.get("ingest")
        if ingest is not None:
            print(
                f"ingest: durable lsn={ingest.get('lsn_durable')} "
                f"served lsn={ingest.get('lsn_served')} "
                f"lag={ingest.get('lag')}"
            )
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    """Promote a standby to primary via ``POST /admin/promote``.

    Exit 0 on success, 1 when the server refused (e.g. the requested
    epoch is stale), 2 when it cannot be reached.
    """
    import json as json_module

    from repro.serving.http import ApiError, ServingClient, ServingUnavailable

    client = ServingClient(args.url, retries=0, timeout_s=args.timeout)
    try:
        ack = client.promote(epoch=args.epoch)
    except ApiError as error:
        print(f"error: promote refused: {error}", file=sys.stderr)
        return 1
    except (ServingUnavailable, OSError) as error:
        print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json_module.dumps(ack, indent=2))
        return 0
    print(
        f"promoted {args.url}: {ack.get('previous_role')} -> "
        f"{ack.get('role')} at epoch {ack.get('epoch')} "
        f"(durable lsn {ack.get('lsn_durable')})"
    )
    return 0


def _cmd_bench_http(args: argparse.Namespace) -> int:
    """Client-side load generator against running embedding servers."""
    from repro.serving.http import ApiError, ServingClient, run_load

    client = ServingClient(args.url, timeout_s=args.timeout)
    try:
        n_nodes = args.nodes or int(client.describe()["n_nodes"])
    except (ApiError, OSError) as error:
        print(f"error: cannot reach server: {error}", file=sys.stderr)
        return 2
    report = run_load(
        args.url,
        n_nodes=n_nodes,
        requests=args.requests,
        concurrency=args.concurrency,
        k=args.k,
        nprobe=args.nprobe,
        batch=args.batch,
        timeout_s=args.timeout,
        seed=args.seed,
        wire=args.wire,
    )
    shape = f"batch={args.batch}" if args.batch else "single"
    per_query = (
        f" ({report.per_query_p50_ms:.2f}ms/query p50)" if args.batch else ""
    )
    print(
        f"{report.requests} requests ({shape}, c={report.concurrency}, "
        f"wire={args.wire}) in "
        f"{report.seconds:.2f}s: {report.qps:.0f} req/s "
        f"({report.query_qps:.0f} queries/s)  "
        f"p50={report.p50_ms:.2f}ms p99={report.p99_ms:.2f}ms{per_query} "
        f"errors={report.errors}"
    )
    for message in report.error_messages[:5]:
        print(f"  error: {message}", file=sys.stderr)
    return 0 if report.errors == 0 else 1


def _parse_query_filter(args: argparse.Namespace):
    """The ``--filter-*`` flags → a NodeFilter (or ``None``)."""
    import json as json_module

    from repro.search.knn import NodeFilter

    flag_filters = (args.filter_allow, args.filter_deny, args.filter_attribute)
    if args.filter_json is not None:
        if any(value is not None for value in flag_filters):
            raise ValueError(
                "--filter-json is exclusive with the other --filter-* flags"
            )
        return NodeFilter.from_json(json_module.loads(args.filter_json))
    if all(value is None for value in flag_filters):
        return None

    def ids(raw):
        return (
            None
            if raw is None
            else [int(part) for part in raw.split(",") if part.strip()]
        )

    attributes = []
    for spec in args.filter_attribute or ():
        attr, _, min_weight = spec.partition(":")
        attributes.append((int(attr), float(min_weight) if min_weight else 0.0))
    return NodeFilter(
        allow=ids(args.filter_allow),
        deny=ids(args.filter_deny),
        attributes=attributes,
    )


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serving.service import QueryService, SearchRequest

    store = _open_store(args.store)
    if store.latest() is None:
        print("error: store has no published versions", file=sys.stderr)
        return 2
    try:
        node_filter = _parse_query_filter(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with QueryService(
        store,
        backend=args.backend,
        nprobe=args.nprobe,
        version=args.version,
        select_dtype=args.select_dtype,
        # Persist trained IVF/PQ artifacts into the version directory so a
        # one-shot CLI process loads them instead of retraining per query.
        index_cache=True,
    ) as service:
        if args.attribute is not None:
            if node_filter is not None:
                print(
                    "error: --filter-* does not apply to --attribute queries",
                    file=sys.stderr,
                )
                return 2
            result = service.top_nodes_for_attribute(args.attribute, args.k)
        else:
            try:
                result = service.search(
                    SearchRequest(node=args.node, k=args.k, filter=node_filter)
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        print(f"# version={result.version} latency={result.latency_s * 1e3:.2f}ms")
        for node, score in zip(result.ids, result.scores):
            if node < 0:
                continue  # IVF padding for sparsely populated probes
            print(f"{node}\t{score:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="PANE attributed network embedding"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered benchmark datasets")

    generate = sub.add_parser("generate", help="materialize a dataset to .npz")
    generate.add_argument("--dataset", required=True)
    generate.add_argument("--out", required=True)

    embed = sub.add_parser("embed", help="embed a graph with PANE")
    embed.add_argument("--graph", required=True)
    embed.add_argument("--out", required=True)
    embed.add_argument("--k", type=int, default=128)
    embed.add_argument("--alpha", type=float, default=0.5)
    embed.add_argument("--epsilon", type=float, default=0.015)
    embed.add_argument("--threads", type=int, default=1)
    embed.add_argument("--seed", type=int, default=0)
    embed.add_argument(
        "--ccd-block-size",
        type=int,
        default=1,
        help="CCD update order: 1 = the paper's per-coordinate order, "
        "B>1 = block Gauss-Seidel over blocks of B coordinates (same cost)",
    )

    evaluate = sub.add_parser("evaluate", help="run an evaluation protocol")
    evaluate.add_argument("--graph", required=True)
    evaluate.add_argument(
        "--task", choices=("link", "attribute", "classify"), default="link"
    )
    evaluate.add_argument("--k", type=int, default=64)
    evaluate.add_argument("--threads", type=int, default=1)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--ccd-block-size", type=int, default=1)

    neighbors = sub.add_parser(
        "neighbors", help="top-k most similar nodes from a saved embedding"
    )
    neighbors.add_argument("--embedding", required=True)
    neighbors.add_argument("--node", type=int, required=True)
    neighbors.add_argument("--k", type=int, default=10)

    serve = sub.add_parser(
        "serve", help="manage a versioned embedding store (publish/rollback/list)"
    )
    serve.add_argument("--store", required=True, help="store root directory")
    serve_action = serve.add_mutually_exclusive_group()
    serve_action.add_argument(
        "--publish", metavar="EMB_NPZ", help="publish a saved embedding as a new version"
    )
    serve_action.add_argument(
        "--rollback", action="store_true", help="point LATEST at the previous version"
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="create the store root sharded across N mmap segments "
        "(0 = unsharded; existing sharded roots are auto-detected)",
    )
    serve.add_argument(
        "--partition",
        choices=("range", "hash"),
        default=None,
        help="row partitioning for a new sharded store (default range; "
        "must match the recorded layout of an existing sharded root)",
    )
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the store over the JSON HTTP API on this port "
        "(0 = ephemeral; the bound URL is printed) until SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--http-host",
        default="127.0.0.1",
        help="bind address for --http (default loopback only)",
    )
    serve.add_argument(
        "--backend",
        choices=("auto", "exact", "ivf", "pq", "ivfpq"),
        default="exact",
        help="search backend behind --http (default exact; trained "
        "artifacts persist into the store version directory)",
    )
    serve.add_argument(
        "--nprobe", type=int, default=8, help="IVF cells probed per query"
    )
    serve.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for batch fan-out behind --http",
    )
    serve.add_argument(
        "--coalesce-window-ms",
        type=float,
        default=0.0,
        help="admission-coalescing window for concurrent single-query "
        "HTTP requests (0 = off): concurrent POST /v1/topk handlers "
        "merge into one batch GEMM against a single snapshot",
    )
    serve.add_argument(
        "--coalesce-max-batch",
        type=int,
        default=64,
        help="wake the coalescing leader early once this many queued",
    )
    serve.add_argument(
        "--select-dtype",
        choices=("float64", "float32"),
        default="float64",
        help="selection precision for exact/IVF backends: float32 "
        "selects an oversampled shortlist at half the memory traffic, "
        "then rescores in canonical float64 (returned scores unchanged)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    serve.add_argument(
        "--log-requests",
        action="store_true",
        help="log one line per HTTP request to stderr",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="serve --http from N supervised worker processes sharing "
        "one listen socket (1 = in-process single server): crashed or "
        "hung workers are restarted with backoff, SIGTERM drains them "
        "one at a time, and a crash loop exits nonzero",
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="crash-loop breaker: more than this many restarts of one "
        "worker slot inside a 30s window stops the supervisor (exit 3)",
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="enable the write path: POST /v1/upsert appends to a "
        "durable delta log in DIR (acked after fsync) and a background "
        "compactor folds it into new store versions while reads flow",
    )
    serve.add_argument(
        "--graph",
        default=None,
        metavar="NPZ",
        help="base graph for --wal-dir: bootstraps an empty store "
        "(trains PANE) or attaches the write path to an existing one",
    )
    serve.add_argument(
        "--wal-k",
        type=int,
        default=32,
        help="embedding dimension when --wal-dir cold-bootstraps",
    )
    serve.add_argument(
        "--wal-max-bytes",
        type=int,
        default=64 << 20,
        help="delta-log ceiling; appends past it get 503 log_full "
        "until compaction + checkpointing shrink the log",
    )
    serve.add_argument(
        "--compact-interval",
        type=float,
        default=0.25,
        help="seconds between background compaction passes",
    )
    serve.add_argument(
        "--gc-keep",
        type=int,
        default=0,
        help="retain only the newest N store versions after each "
        "compaction (0 = never delete; LATEST and the served version "
        "are always kept)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=0.0,
        help="emit a structured slow-query log line (JSON, with the "
        "request trace) for any request slower than this; 0 disables",
    )
    serve.add_argument(
        "--standby-of",
        default=None,
        metavar="URL",
        help="run as a warm standby: tail URL's GET /v1/replicate into "
        "this node's own WAL (requires --wal-dir, --workers 1), fold "
        "and serve reads, refuse writes with 409 not_primary; promote "
        "with `repro promote`",
    )
    serve.add_argument(
        "--standby-id",
        default=None,
        metavar="ID",
        help="stable identity reported to the primary's replication "
        "hub (default: host-pid)",
    )
    serve.add_argument(
        "--ack-replicas",
        type=int,
        default=0,
        help="semi-synchronous replication: withhold each upsert ack "
        "until this many standbys confirmed the LSN (0 = ack after "
        "local fsync only)",
    )
    serve.add_argument(
        "--ack-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for standby acks before answering 503 "
        "replication_timeout (the append stays durable locally)",
    )

    promote = sub.add_parser(
        "promote",
        help="promote a standby server to primary (bumps the WAL "
        "fencing epoch; stale-epoch writers are rejected from then on)",
    )
    promote.add_argument("url", help="server or supervisor-admin URL")
    promote.add_argument(
        "--epoch",
        type=int,
        default=None,
        help="force a specific new epoch (default: bump past every "
        "epoch the node has seen)",
    )
    promote.add_argument("--timeout", type=float, default=10.0)
    promote.add_argument("--json", action="store_true")

    fsck = sub.add_parser(
        "fsck",
        help="check a store for torn publishes and corruption "
        "(exit 0 clean / 1 repairable / 2 unrecoverable)",
    )
    fsck.add_argument("--store", default=None, help="store root directory")
    fsck.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="also (or only) check a delta-log directory: torn segment "
        "tails, LSN chain breaks, checkpoint integrity; --repair "
        "truncates torn segments at the last valid record and "
        "quarantines unreachable ones",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="remove staging debris, quarantine corrupt versions under "
        "<store>/quarantine/, and repoint LATEST at the newest clean one",
    )
    fsck.add_argument(
        "--json",
        action="store_true",
        help="print the full report as JSON instead of one line per issue",
    )

    log = sub.add_parser(
        "log",
        help="inspect a delta-log directory (read-only; exit 1 if damaged)",
    )
    log.add_argument(
        "--wal-dir", required=True, metavar="DIR", help="delta-log directory"
    )
    log.add_argument(
        "--replay",
        action="store_true",
        help="also fold every record and summarize the resulting delta",
    )
    log.add_argument(
        "--undirected",
        action="store_true",
        help="fold edge records with undirected (canonicalized) keys",
    )
    log.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )

    gc = sub.add_parser(
        "gc",
        help="delete store versions superseded by newer ones "
        "(LATEST is never deleted)",
    )
    gc.add_argument("--store", required=True, help="store root directory")
    gc.add_argument(
        "--keep",
        type=int,
        required=True,
        help="number of newest versions to retain (>= 1)",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be deleted without touching the store",
    )
    gc.add_argument(
        "--json", action="store_true", help="print the result as JSON"
    )

    dataset = sub.add_parser(
        "dataset",
        help="named datasets over store versions: list, assign, drop, "
        "diff (WAL fold), retain (dataset-aware gc)",
    )
    dsub = dataset.add_subparsers(dest="dataset_command", required=True)
    ds_list = dsub.add_parser("list", help="list dataset names and versions")
    ds_list.add_argument("--store", required=True, help="store root directory")
    ds_list.add_argument("--json", action="store_true")
    ds_assign = dsub.add_parser(
        "assign", help="point NAME at a version (default: latest)"
    )
    ds_assign.add_argument("name")
    ds_assign.add_argument(
        "--version", default=None, help="version id (default: LATEST target)"
    )
    ds_assign.add_argument("--store", required=True, help="store root directory")
    ds_assign.add_argument("--note", default=None, help="free-form annotation")
    ds_drop = dsub.add_parser("drop", help="remove a dataset name")
    ds_drop.add_argument("name")
    ds_drop.add_argument("--store", required=True, help="store root directory")
    ds_diff = dsub.add_parser(
        "diff",
        help="fold the WAL records between two versions (old -> new); "
        "refs are dataset names or version ids",
    )
    ds_diff.add_argument("ref_a", help="older dataset name or version id")
    ds_diff.add_argument("ref_b", help="newer dataset name or version id")
    ds_diff.add_argument("--store", required=True, help="store root directory")
    ds_diff.add_argument(
        "--wal-dir", required=True, metavar="DIR", help="delta-log directory"
    )
    ds_diff.add_argument(
        "--undirected",
        action="store_true",
        help="fold edge records with undirected (canonicalized) keys",
    )
    ds_diff.add_argument("--json", action="store_true")
    ds_retain = dsub.add_parser(
        "retain",
        help="gc superseded versions; dataset-pinned versions always survive",
    )
    ds_retain.add_argument("--store", required=True, help="store root directory")
    ds_retain.add_argument(
        "--keep", type=int, required=True, help="newest versions to retain (>= 1)"
    )
    ds_retain.add_argument("--dry-run", action="store_true")
    ds_retain.add_argument("--json", action="store_true")

    query = sub.add_parser("query", help="query a published embedding store")
    query.add_argument("--store", required=True, help="store root directory")
    query.add_argument("--node", type=int, default=0, help="query node id")
    query.add_argument(
        "--attribute",
        type=int,
        default=None,
        help="rank nodes for this attribute instead of node neighbors",
    )
    query.add_argument("--k", type=int, default=10)
    query.add_argument(
        "--backend",
        choices=("auto", "exact", "ivf", "pq", "ivfpq"),
        # A one-shot CLI process answers a single query and exits; exact
        # stays the default, but non-exact backends now persist their
        # trained artifacts into the store version directory on first use
        # and load them afterwards, so --backend ivf/pq only pays the
        # build once per version instead of per invocation.
        default="exact",
        help="search backend (default exact; ivf/pq/ivfpq train once per "
        "store version, persist the artifact, and reload it afterwards)",
    )
    query.add_argument(
        "--nprobe", type=int, default=8, help="IVF cells probed per query"
    )
    query.add_argument(
        "--select-dtype",
        choices=("float64", "float32"),
        default="float64",
        help="selection precision for exact/IVF backends "
        "(see serve --select-dtype)",
    )
    query.add_argument(
        "--version", default=None, help="pin a store version (default: latest)"
    )
    query.add_argument(
        "--filter-allow",
        default=None,
        metavar="IDS",
        help="comma-separated node ids the result may contain",
    )
    query.add_argument(
        "--filter-deny",
        default=None,
        metavar="IDS",
        help="comma-separated node ids the result must not contain",
    )
    query.add_argument(
        "--filter-attribute",
        action="append",
        default=None,
        metavar="ATTR[:MIN_WEIGHT]",
        help="only nodes whose affinity for ATTR is >= MIN_WEIGHT "
        "(repeatable; conjunctive)",
    )
    query.add_argument(
        "--filter-json",
        default=None,
        metavar="OBJ",
        help="full filter as a JSON object (same grammar as the wire "
        "'filter' field; exclusive with the other --filter-* flags)",
    )

    bench_http = sub.add_parser(
        "bench-http", help="load-generate against running embedding servers"
    )
    bench_http.add_argument(
        "--url",
        action="append",
        required=True,
        help="server base URL (repeat for replicas; batches fan out)",
    )
    bench_http.add_argument(
        "--nodes",
        type=int,
        default=0,
        help="query-id range (default: the server's n_nodes via /v1/describe)",
    )
    bench_http.add_argument("--requests", type=int, default=512)
    bench_http.add_argument("--concurrency", type=int, default=4)
    bench_http.add_argument("--k", type=int, default=10)
    bench_http.add_argument(
        "--nprobe", type=int, default=None, help="IVF cells probed per query"
    )
    bench_http.add_argument(
        "--batch",
        type=int,
        default=0,
        help="nodes per request via /v1/topk:batch (0 = single-node /v1/topk)",
    )
    bench_http.add_argument("--timeout", type=float, default=30.0)
    bench_http.add_argument("--seed", type=int, default=0)
    bench_http.add_argument(
        "--wire",
        choices=("auto", "json", "binary"),
        default="auto",
        help="client wire format: auto negotiates binary frames and "
        "falls back to JSON against older servers",
    )

    events = sub.add_parser(
        "events",
        help="print (or --follow) the ops event journal under a store root",
    )
    events.add_argument("--store", required=True, help="store root directory")
    events.add_argument(
        "--follow",
        action="store_true",
        help="replay history, then stream new events until Ctrl-C",
    )
    events.add_argument(
        "--json",
        action="store_true",
        help="one JSON object per line instead of the human format",
    )
    events.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="KIND",
        help="only events of this kind (repeatable): publish, checkpoint, "
        "gc, worker_start, worker_exit, worker_restart, breaker_trip, "
        "fsck_repair, drain, ...",
    )
    events.add_argument(
        "--since",
        default=None,
        metavar="WHEN",
        help="unix timestamp, or relative like 30s / 5m / 2h",
    )

    stat = sub.add_parser(
        "stat",
        help="one-shot fleet summary: journal roll-up + live /metrics",
    )
    stat.add_argument("--store", required=True, help="store root directory")
    stat.add_argument(
        "--url",
        default=None,
        help="also scrape /metrics from a running server or supervisor "
        "admin URL",
    )
    stat.add_argument("--timeout", type=float, default=5.0)
    stat.add_argument("--json", action="store_true")

    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "embed": _cmd_embed,
    "evaluate": _cmd_evaluate,
    "neighbors": _cmd_neighbors,
    "serve": _cmd_serve,
    "promote": _cmd_promote,
    "fsck": _cmd_fsck,
    "log": _cmd_log,
    "gc": _cmd_gc,
    "dataset": _cmd_dataset,
    "query": _cmd_query,
    "bench-http": _cmd_bench_http,
    "events": _cmd_events,
    "stat": _cmd_stat,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
