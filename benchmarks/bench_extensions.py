"""Bench for the incremental-update extension (paper Sec. 7 future work).

Not part of the paper's evaluation section; it quantifies warm
``IncrementalPANE`` updates against cold refits with the same harness.
"""

import numpy as np

from repro.core.pane import PANE
from repro.dynamic import GraphDelta, IncrementalPANE
from repro.eval.datasets import load_dataset
from repro.eval.reporting import format_table
from repro.tasks.link_prediction import LinkPredictionTask
from repro.utils.timing import time_call


def test_extension_incremental_updates(benchmark, report):
    """Warm updates vs cold refits after small edge deltas."""
    graph = load_dataset("cora_sim")
    model = IncrementalPANE(k=32, seed=0, update_sweeps=2)
    model.fit(graph)
    rng = np.random.default_rng(0)
    delta = GraphDelta(add_edges=rng.integers(0, graph.n_nodes, size=(20, 2)))

    warm_seconds, _ = time_call(model.update, delta)
    cold_seconds, cold = time_call(PANE(k=32, seed=0).fit, model.graph)

    task = LinkPredictionTask(model.graph, seed=1)
    warm_auc = task.evaluate_embedding(model.embedding).auc
    cold_auc = task.evaluate_embedding(cold).auc

    benchmark.pedantic(
        lambda: model.update(
            GraphDelta(add_edges=rng.integers(0, graph.n_nodes, size=(5, 2)))
        ),
        rounds=1,
        iterations=1,
    )
    report(
        format_table(
            {
                "warm update": {"seconds": warm_seconds, "AUC": warm_auc},
                "cold refit": {"seconds": cold_seconds, "AUC": cold_auc},
            },
            title="Extension — incremental PANE, cora_sim +20 edges",
        )
    )
    assert abs(warm_auc - cold_auc) < 0.05
