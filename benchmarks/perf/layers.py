"""The traced run: per-layer metrics from spans the benchmark records.

Spans are recorded *from this file*, around the calls the benchmark makes
into each layer's public functions (spans inside the program are a later
change).  Fit phases are called one after the other exactly as
``PANE.fit`` calls them.  Serving ops run in process against an
``EmbeddingServer`` that is never started: the benchmark hands
``handle_topk``/``handle_upsert`` the parsed body and wraps the public
calls beneath (``QueryService.pin``, ``PinnedView.search``,
``backend.search``, ``exact_top_k``, ``DeltaLog.append_events``) so one
execution of an op yields properly nested spans and a layer's self time
is its span minus its children.

Each function returns the metrics of the layers its workload enters;
``run.py`` reports every ``per_layer`` name of BENCHMARK.json on every
workload, 0 for a layer the workload never enters.
"""

from __future__ import annotations

import os
import time

import numpy as np

import measure

#: Upserts between two traced compactions: a fixed 40-event backlog.
UPSERTS_PER_COMPACTION = 10


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _host_layers(untraced) -> dict:
    host = untraced.detail["host"]
    return {
        "host.cpus": float(os.cpu_count() or 1),
        "host.calib_ms": (host["calib_before_ms"] + host["calib_after_ms"]) / 2,
        "host.steal_share": host["steal_share"],
        # Plain median over the ops (serve runs report it over every read).
        "client.op_median_ms": _median(
            [c["op_p50_ms"] for c in untraced.detail["chunks"]
             if c["op_p50_ms"] is not None]),
    }


# -- fit -----------------------------------------------------------------
def trace_fit(spec, inputs, seed: int, spans, untraced) -> dict:
    """Per-layer metrics of a fit workload (``untraced`` ran just before)."""
    from repro.core.affinity import iterations_for_epsilon
    from repro.core.greedy_init import greedy_init, sm_greedy_init
    from repro.core.pane import PANE
    from repro.core.randsvd import randsvd
    from repro.core.svd_ccd import cached_objective, refine
    from repro.graph.generators import power_law_attributed
    from repro.graph.matrices import normalized_attribute_matrices, random_walk_matrix
    from repro.parallel.pool import WorkerPool

    graph = inputs.residual
    model = PANE(k=spec.k, n_threads=spec.n_threads,
                 ccd_block_size=spec.ccd_block_size)
    cfg = model.config
    sweeps = iterations_for_epsilon(cfg.epsilon, cfg.alpha)
    threaded = cfg.n_threads > 1
    single = PANE(k=spec.k, n_threads=1, ccd_block_size=spec.ccd_block_size)

    with spans.span("graph.generate"):
        power_law_attributed(spec.n, spec.d, out_degree=8, n_communities=16,
                             attrs_per_node=8, seed=seed)
    objective = 0.0
    for op in range(spec.trace_fits):
        with spans.op(op):
            # The untraced op, then the three calls it makes, in its order
            # and on its one pool; paired in time so host drift cancels.
            with spans.span("core.pane.fit"):
                model.fit(graph)
            if threaded:  # the same fit on one thread, for the speed-up
                with spans.span("core.pane.fit_1t"):
                    single.fit(graph)
            with spans.span("core.pane.phases"):
                pool = WorkerPool(cfg.n_threads) if threaded else None
                try:
                    with spans.span("core.affinity"):
                        affinity = model.compute_affinity(graph, pool=pool)
                    with spans.span("core.greedy_init"):
                        if threaded:
                            state = sm_greedy_init(
                                affinity.forward, affinity.backward, cfg.k,
                                n_threads=cfg.n_threads,
                                svd_iterations=cfg.svd_power_iterations,
                                seed=cfg.seed, pool=pool)
                        else:
                            state = greedy_init(
                                affinity.forward, affinity.backward, cfg.k,
                                svd_iterations=cfg.svd_power_iterations,
                                seed=cfg.seed)
                    with spans.span("core.svd_ccd"):
                        refine(state, sweeps, n_threads=cfg.n_threads,
                               block_size=cfg.ccd_block_size, pool=pool)
                finally:
                    if pool is not None:
                        pool.close()
            # Public calls beneath affinity and init, timed on their own.
            with spans.span("graph.transition_build"):
                random_walk_matrix(graph, dangling=cfg.dangling)
                normalized_attribute_matrices(graph)
            with spans.span("core.randsvd"):
                randsvd(affinity.forward, cfg.half_dim,
                        cfg.svd_power_iterations, seed=cfg.seed)
            objective = cached_objective(state)
            del affinity, state

    busy = {name: _median(spans.ms(f"core.{name}"))
            for name in ("affinity", "greedy_init", "svd_ccd")}
    phases = sum(busy.values())
    traced_op = _median(spans.ms("core.pane.phases"))
    untraced_op = _median(spans.ms("core.pane.fit"))
    n, d, k = graph.n_nodes, graph.n_attributes, cfg.k
    nnz = graph.adjacency.nnz
    out = _host_layers(untraced)
    out.update({
        "graph.generate_ms": _median(spans.ms("graph.generate")),
        "graph.transition_build_ms": _median(spans.ms("graph.transition_build")),
        "affinity.busy_ms": busy["affinity"],
        "affinity.share": busy["affinity"] / phases,
        # Computed, not measured: t hops forward and t backward, each one
        # CSR pass that gathers a d-wide dense row per non-zero, plus the
        # scale-and-restart pass over two n x d buffers.
        "affinity.spmm_calls": float(2 * sweeps),
        "affinity.bytes_moved_mb": 2 * sweeps * (nnz * (12 + 8 * d) + 24 * n * d) / 2**20,
        "init.busy_ms": busy["greedy_init"],
        "init.share": busy["greedy_init"] / phases,
        "randsvd.busy_ms": _median(spans.ms("core.randsvd")),
        "ccd.busy_ms": busy["svd_ccd"],
        "ccd.share": busy["svd_ccd"] / phases,
        "ccd.sweeps": float(sweeps),
        "ccd.ms_per_sweep": busy["svd_ccd"] / sweeps,
        "ccd.objective": objective,
        # Computed: per sweep each of k/2 coordinates costs 16nd flops and
        # streams the two n x d residuals 10 times (80nd bytes per
        # coordinate); a rank-B block streams them once per B coordinates.
        "ccd.flops_g": sweeps * 8 * n * d * k / 1e9,
        "ccd.bytes_moved_gb": sweeps * 80 * n * d * k / cfg.ccd_block_size / 1e9,
        "fit.unattributed_ms": untraced_op - phases,
        "trace.overhead_share": traced_op / untraced_op - 1.0,
    })
    if threaded:
        out["pool.dispatch_us"] = _pool_dispatch_us(WorkerPool, cfg.n_threads)
        out["parallel.speedup_2t"] = (
            _median(spans.ms("core.pane.fit_1t")) / untraced_op)
    return out


def _pool_dispatch_us(pool_class, n_threads: int, rounds: int = 500) -> float:
    """Median cost of one ``run_blocks`` over no-op blocks."""
    blocks = list(range(n_threads))
    samples = []
    with pool_class(n_threads) as pool:
        pool.run_blocks(lambda i, block: None, blocks)  # starts the threads
        for _ in range(rounds):
            start = time.perf_counter()
            pool.run_blocks(lambda i, block: None, blocks)
            samples.append(time.perf_counter() - start)
    return _median(samples) * 1e6


# -- serve ---------------------------------------------------------------
def trace_serve(scratch, spec, inputs, seed: int, spans, untraced) -> dict:
    """Per-layer metrics of a serve workload, ops run in process."""
    import repro.serving.index as index_module
    from repro.serving.http import EmbeddingServer, protocol
    from repro.serving.index import make_backend
    from repro.serving.service import QueryService
    from repro.serving.store import EmbeddingStore

    work = scratch.tempdir(f"{spec.name}-trace")
    store = EmbeddingStore(work / "store")
    pipeline = None
    if spec.kind == "serve_exact":
        with spans.span("serving.store.publish"):
            store.publish(inputs.embedding)
    else:
        from repro.graph.generators import power_law_attributed
        from repro.serving.wal.compactor import IngestPipeline

        with spans.span("graph.generate"):
            power_law_attributed(spec.n, spec.dim, seed=seed)
        pipeline = IngestPipeline(work / "wal", store)
        pipeline.bootstrap(inputs.graph, k=spec.wal_k)
    with spans.span("serving.store.open"):
        stored = store.open()
    with spans.span("serving.index.build"):
        make_backend(stored.features, "exact")
    vector_bytes = sum(
        f.stat().st_size for f in stored.path.iterdir() if f.is_file()
    ) / stored.n_nodes

    service = QueryService(store, backend="exact")
    server = EmbeddingServer(service, ingest=pipeline)  # never started
    original_top_k = index_module.exact_top_k
    index_module.exact_top_k = spans.wrap("search.knn.exact_top_k", original_top_k)
    try:
        with spans.span("serving.service.activate"):
            service.activate()
        _wrap_service(service, spans)
        if pipeline is not None:
            pipeline.log.append_events = spans.wrap(
                "serving.wal.log.append_events", pipeline.log.append_events)
            log_before = (pipeline.log.fsyncs, pipeline.log.fsynced_bytes)
        response_bytes, publish_ms, pending, upserts = [], [], 0, 0
        miss_wall = {True: [], False: []}  # uncached reads, traced or not
        first = spec.warmup_ops
        for op in range(first, first + spec.trace_ops):
            # Every other op runs through the same wrappers unrecorded;
            # the gap between the two sets is the tracing overhead.
            spans.enabled = (op - first) % 2 == 0
            write = bool(inputs.is_write[op])
            if write:
                raw = protocol.dump_json({
                    "add_edges": inputs.edges[op].tolist(),
                    "add_associations": inputs.assocs[op].tolist()})
                handler, handle = "serving.http.server.handle_upsert", server.handle_upsert
            else:
                raw = protocol.dump_json(
                    {"node": int(inputs.nodes[op]), "k": spec.top_k})
                handler, handle = "serving.http.server.handle_topk", server.handle_topk
            start = time.perf_counter()
            with spans.op(op):
                with spans.span("serving.http.protocol.parse"):
                    body = protocol.parse_json_body(raw)
                with spans.span(handler):
                    status, payload = handle(body)
                with spans.span("serving.http.protocol.encode"):
                    reply = protocol.dump_json(
                        payload if write else payload.to_json())
            wall = time.perf_counter() - start
            if status != 200:
                raise RuntimeError(f"{spec.name}: traced op {op} answered {status}")
            if not write:
                response_bytes.append(len(reply))
                if not payload.result.cached:
                    miss_wall[spans.enabled].append(wall)
                continue
            pending += 1
            upserts += 1
            if pending == UPSERTS_PER_COMPACTION:
                pending = 0
                spans.enabled = True
                with spans.span("serving.wal.compactor.compact_once"):
                    report = pipeline.compact_once()
                publish_ms.append(report["timings"].get("publish", 0.0) * 1e3)
                with spans.span("serving.service.activate"):
                    service.refresh_to_latest()
                _wrap_backend(service, spans)
    finally:
        spans.enabled = True
        index_module.exact_top_k = original_top_k
        server.close()
        service.close()
        if pipeline is not None:
            pipeline.close()

    handle_by_op = spans.ms_by_op("serving.http.server.handle_topk")
    search_by_op = spans.ms_by_op("serving.service.search")
    index_by_op = spans.ms_by_op("serving.index.search")
    for op, handle_ms in handle_by_op.items():
        if not handle_ms >= search_by_op.get(op, 0.0) >= index_by_op.get(op, 0.0):
            raise RuntimeError(
                f"{spec.name}: spans of op {op} do not nest "
                f"(handle {handle_ms:.3f} ms, search {search_by_op.get(op)}, "
                f"index {index_by_op.get(op)})")

    observed = untraced.observed
    chunks = untraced.detail["chunks"]
    handle_ms = _median(spans.ms("serving.http.server.handle_topk"))
    # Reads that missed the result cache, in both runs: the in-process
    # handle span of a miss against the client-observed latency of a miss.
    miss_ms = _median([handle_by_op[op] for op in index_by_op])
    parse_ms = _median(spans.ms("serving.http.protocol.parse"))
    encode_ms = _median(spans.ms("serving.http.protocol.encode"))
    out = _host_layers(untraced)
    out.update(observed)
    out.update({
        "graph.generate_ms": _median(spans.ms("graph.generate")),
        "store.publish_ms": _median(spans.ms("serving.store.publish") or publish_ms),
        "store.open_ms": _median(spans.ms("serving.store.open")),
        "store.bytes_per_vector": vector_bytes,
        "index.build_ms": _median(spans.ms("serving.index.build")),
        "index.search_ms": _median(spans.ms("serving.index.search")),
        "knn.exact_top_k_ms": _median(spans.ms("search.knn.exact_top_k")),
        # Computed: an exact search streams the whole float64 matrix.
        "index.bytes_scanned_mb": stored.n_nodes * stored.features.shape[1] * 8 / 2**20,
        "service.search_ms": _median(spans.ms("serving.service.search")),
        "service.self_ms": _median(spans.self_ms("serving.service.search")),
        "service.pin_us": _median(spans.ms("serving.service.pin")) * 1e3,
        "service.activate_ms": _median(spans.ms("serving.service.activate")),
        "protocol.parse_us": parse_ms * 1e3,
        "protocol.encode_us": encode_ms * 1e3,
        "protocol.response_bytes": _median(response_bytes),
        "server.handle_ms": handle_ms,
        "server.self_ms": _median(spans.self_ms("serving.http.server.handle_topk")),
        "client.cpu_ms_per_op": _median(
            [c["client_cpu_s"] * 1e3 / c["ops"] for c in chunks]),
        "http.unattributed_ms": out.pop("client.uncached_p50_ms")
        - miss_ms - parse_ms - encode_ms,
        "trace.overhead_share": _median(miss_wall[True])
        / max(1e-9, _median(miss_wall[False])) - 1.0,
    })
    if pipeline is not None:
        out.update({
            "server.handle_upsert_ms": _median(
                spans.ms("serving.http.server.handle_upsert")),
            "wal.append_ms": _median(spans.ms("serving.wal.log.append_events")),
            "wal.fsyncs": float(pipeline.log.fsyncs - log_before[0]),
            "wal.bytes_per_upsert": (pipeline.log.fsynced_bytes - log_before[1])
            / max(1, upserts),
            "compactor.compact_ms": _median(
                spans.ms("serving.wal.compactor.compact_once")),
            "incremental.update_ms": _incremental_update_ms(spec, inputs),
        })
    return out


def _wrap_service(service, spans) -> None:
    """Record ``pin`` and the pinned view's ``search`` as nested spans."""
    pin = service.pin

    def traced_pin():
        with spans.span("serving.service.pin"):
            view = pin()
        view.search = spans.wrap("serving.service.search", view.search)
        return view

    service.pin = traced_pin
    _wrap_backend(service, spans)


def _wrap_backend(service, spans) -> None:
    """(Re-)wrap the active backend; every version swap builds a new one."""
    backend = service.backend
    if "search" not in vars(backend):
        backend.search = spans.wrap("serving.index.search", backend.search)


def _incremental_update_ms(spec, inputs, rounds: int = 5) -> float:
    """``IncrementalPANE.update`` on the compactor's fixed 40-event delta."""
    from repro.dynamic.incremental import GraphDelta, IncrementalPANE

    model = IncrementalPANE(k=spec.wal_k)
    model.fit(inputs.graph)
    writes = np.flatnonzero(inputs.is_write)
    samples = []
    for r in range(rounds):
        ops = writes[r * UPSERTS_PER_COMPACTION:(r + 1) * UPSERTS_PER_COMPACTION]
        if ops.size == 0:
            break
        delta = GraphDelta(add_edges=inputs.edges[ops].reshape(-1, 2),
                           add_associations=inputs.assocs[ops].reshape(-1, 3))
        start = time.perf_counter()
        model.update(delta)
        samples.append((time.perf_counter() - start) * 1e3)
    return _median(samples)
