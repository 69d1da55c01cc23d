"""The four benchmark workloads: sizes and seeded input generation.

Everything the program under test receives is built here from ``--seed``
(the same seed gives byte-identical inputs, see ``digest``); nothing in
this module times anything.  Sizes come in two sets: the reference sizes
the gate is measured at, and ``--smoke`` sizes for the tier-1 test.  Why
each workload exists is recorded next to its name in ``BENCHMARK.json``
and at length in ``README.md``.

Op counts are fixed, not durations, so counters repeat run to run: a run
asked to measure for ``--seconds S`` performs ``ref_ops_per_s * S`` ops,
where ``ref_ops_per_s`` is the rate sized on the 2-core reference host
(``README.md``).  A faster program therefore finishes the same ops sooner.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

@dataclass(frozen=True)
class FitWorkload:
    name: str
    n: int
    d: int
    k: int
    n_threads: int
    ccd_block_size: int
    warmup_fits: int
    ref_ops_per_s: float
    smoke_ops: int
    trace_fits: int
    auc_floor: float
    kind: str = field(default="fit", init=False)


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    kind: str  # "serve_exact" (read-only store) or "serve_rw" (WAL + compactor)
    n: int
    dim: int
    warmup_ops: int
    ref_ops_per_s: float
    smoke_ops: int
    trace_ops: int
    top_k: int = 10
    write_share: float = 0.0
    zipf_s: float = 0.0
    quality_samples: int = 256
    wal_k: int = 32


def workload(name: str, *, smoke: bool = False, cpus: int = 2):
    """The size set of one workload (reference sizes unless ``smoke``)."""
    threads = min(2, cpus)
    if name == "fit_exact_1t":
        shape = dict(n_threads=1, ccd_block_size=1)
        if smoke:
            return FitWorkload(name, n=400, d=32, k=16, warmup_fits=1,
                               ref_ops_per_s=0, smoke_ops=2, trace_fits=2,
                               auc_floor=0.6, **shape)
        return FitWorkload(name, n=3000, d=128, k=64, warmup_fits=2,
                           ref_ops_per_s=1.3, smoke_ops=0, trace_fits=3,
                           auc_floor=0.9, **shape)
    if name == "fit_blocked_mt":
        shape = dict(n_threads=threads, ccd_block_size=16)
        if smoke:
            return FitWorkload(name, n=600, d=32, k=32, warmup_fits=1,
                               ref_ops_per_s=0, smoke_ops=2, trace_fits=2,
                               auc_floor=0.6, **shape)
        return FitWorkload(name, n=6000, d=256, k=128, warmup_fits=2,
                           ref_ops_per_s=1.3, smoke_ops=0, trace_fits=3,
                           auc_floor=0.9, **shape)
    if name == "serve_exact_uniform":
        if smoke:
            return ServeWorkload(name, "serve_exact", n=2048, dim=32,
                                 warmup_ops=20, ref_ops_per_s=0, smoke_ops=150,
                                 trace_ops=100, quality_samples=32)
        return ServeWorkload(name, "serve_exact", n=131072, dim=64,
                             warmup_ops=300, ref_ops_per_s=230.0, smoke_ops=0,
                             trace_ops=1000)
    if name == "serve_rw_zipf":
        shape = dict(write_share=0.1, zipf_s=1.1)
        if smoke:
            return ServeWorkload(name, "serve_rw", n=300, dim=16, warmup_ops=40,
                                 ref_ops_per_s=0, smoke_ops=200, trace_ops=120,
                                 wal_k=8, **shape)
        return ServeWorkload(name, "serve_rw", n=2000, dim=64, warmup_ops=1500,
                             ref_ops_per_s=800.0, smoke_ops=0, trace_ops=1000,
                             **shape)
    raise KeyError(f"unknown workload {name!r}")


def measured_ops(spec, seconds: float) -> int:
    """How many ops the measured phase performs (fixed for a given input)."""
    if spec.smoke_ops:
        return spec.smoke_ops
    return max(4, round(spec.ref_ops_per_s * seconds))


# -- fit inputs ----------------------------------------------------------
@dataclass
class FitInputs:
    graph: object  # AttributedGraph, full
    task: object  # LinkPredictionTask holding the 30% held-out split

    @property
    def residual(self):
        return self.task.split.residual_graph

    def arrays(self) -> list[np.ndarray]:
        split = self.task.split
        return [
            *_csr_arrays(self.graph.adjacency),
            *_csr_arrays(self.graph.attributes),
            *_csr_arrays(split.residual_graph.adjacency),
            split.test_sources, split.test_targets, split.test_labels,
        ]


def fit_inputs(spec: FitWorkload, seed: int) -> FitInputs:
    from repro.graph.generators import power_law_attributed
    from repro.tasks.link_prediction import LinkPredictionTask

    graph = power_law_attributed(
        spec.n, spec.d, out_degree=8, n_communities=16, attrs_per_node=8,
        seed=seed,
    )
    return FitInputs(graph, LinkPredictionTask(graph, test_fraction=0.3, seed=seed))


# -- serve inputs --------------------------------------------------------
@dataclass
class ServeInputs:
    """One seeded op stream: warm-up ops first, measured ops after."""

    embedding: object | None  # PANEEmbedding to publish (serve_exact)
    graph: object | None  # AttributedGraph to bootstrap from (serve_rw)
    nodes: np.ndarray  # query node per op
    is_write: np.ndarray  # bool per op
    edges: np.ndarray  # (n_ops, 2, 2) int64; rows of non-writes unused
    assocs: np.ndarray  # (n_ops, 2, 3) float64 (node, attribute, weight)
    quality_ops: np.ndarray  # measured-op indices re-checked in process

    def arrays(self) -> list[np.ndarray]:
        out = [self.nodes, self.is_write, self.edges, self.assocs, self.quality_ops]
        if self.embedding is not None:
            out += [self.embedding.x_forward, self.embedding.x_backward,
                    self.embedding.y]
        if self.graph is not None:
            out += [*_csr_arrays(self.graph.adjacency),
                    *_csr_arrays(self.graph.attributes)]
        return out


def serve_inputs(spec: ServeWorkload, seed: int, n_measured: int) -> ServeInputs:
    total = spec.warmup_ops + n_measured
    rng = np.random.default_rng([seed, 0xBE7C])
    embedding = graph = None
    if spec.kind == "serve_exact":
        from repro.serving.synth import synthetic_embedding

        embedding = synthetic_embedding(spec.n, spec.dim, seed=seed)
        nodes = rng.integers(0, spec.n, size=total)
    else:
        from repro.graph.generators import power_law_attributed

        graph = power_law_attributed(spec.n, spec.dim, seed=seed)
        # Zipf popularity over a seeded permutation, so hot nodes are not
        # the generator's early (high in-degree) ones.
        weights = np.arange(1, spec.n + 1, dtype=np.float64) ** -spec.zipf_s
        ranks = rng.choice(spec.n, size=total, p=weights / weights.sum())
        nodes = rng.permutation(spec.n)[ranks]
    is_write = rng.random(total) < spec.write_share
    edges = rng.integers(0, spec.n, size=(total, 2, 2))
    assocs = np.stack(
        [
            rng.integers(0, spec.n, size=(total, 2)).astype(np.float64),
            rng.integers(0, spec.dim, size=(total, 2)).astype(np.float64),
            # Dyadic weights survive the JSON round trip bit for bit.
            rng.integers(1, 9, size=(total, 2)) / 8.0,
        ],
        axis=2,
    )
    reads = np.flatnonzero(~is_write[spec.warmup_ops:])
    quality_ops = np.sort(
        rng.choice(reads, size=min(spec.quality_samples, reads.size), replace=False)
    )
    return ServeInputs(embedding, graph, nodes, is_write, edges, assocs, quality_ops)


# -- hashing -------------------------------------------------------------
def _csr_arrays(matrix) -> list[np.ndarray]:
    matrix = matrix.tocsr()
    return [matrix.indptr, matrix.indices, matrix.data]


def digest(inputs) -> str:
    """SHA-256 over every generated array (dtype, shape and bytes)."""
    sha = hashlib.sha256()
    for array in inputs.arrays():
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()
