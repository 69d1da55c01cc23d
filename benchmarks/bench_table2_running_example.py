"""Table 2 — exact affinity targets on the Fig. 1 running example.

Regenerates the per-pair forward/backward affinity values on the 6-node
toy graph (α = 0.15) and checks the qualitative orderings the paper reads
off the table.  The exact topology of Fig. 1 is reconstructed from the
properties the text states (see repro.graph.toy), so magnitudes are
comparable but not identical.
"""

import numpy as np

from repro.core.affinity import exact_affinity, exact_probabilities
from repro.eval.paper_numbers import TABLE2_FORWARD as PAPER_FORWARD
from repro.eval.reporting import format_table
from repro.graph.random_walks import WalkSimulator
from repro.graph.toy import running_example_graph


def test_table2_running_example(benchmark, report):
    graph = running_example_graph()
    pair = benchmark.pedantic(
        lambda: exact_affinity(graph, alpha=0.15), rounds=3, iterations=1
    )

    rows = {}
    for i, node in enumerate(graph.node_names):
        rows[f"F[{node}]"] = {
            attr: pair.forward[i, j]
            for j, attr in enumerate(graph.attribute_names)
        }
        rows[f"B[{node}]"] = {
            attr: pair.backward[i, j]
            for j, attr in enumerate(graph.attribute_names)
        }
    paper_rows = {
        f"paper F[{node}]": dict(zip(("r1", "r2", "r3"), vals))
        for node, vals in PAPER_FORWARD.items()
    }
    report(format_table(rows, title="Table 2 (ours): exact affinities, alpha=0.15"))
    report(format_table(paper_rows, title="Table 2 (paper, forward rows)"))

    # the orderings the paper highlights
    combined = pair.forward + pair.backward
    assert pair.forward[4, 2] > pair.forward[4, 0]  # v5: F prefers r3
    assert combined[4, 0] > combined[4, 2]  # F+B fixes the v5 anomaly
    assert np.argmax(pair.forward[:, 2]) == 5  # v6 owns r3


def test_table2_monte_carlo_agreement(benchmark, report):
    """The sampled-walk definition agrees with the closed form (Sec. 2.2)."""
    graph = running_example_graph()
    simulator = WalkSimulator(graph, alpha=0.15, seed=0)
    empirical = benchmark.pedantic(
        lambda: simulator.forward_probabilities(walks_per_node=400),
        rounds=1,
        iterations=1,
    )
    exact, _ = exact_probabilities(graph, alpha=0.15)
    from repro.utils.sparse import dense_row_normalize

    agreement = np.abs(empirical - dense_row_normalize(exact)).max()
    report(f"Table 2 support: max |MC - closed form| = {agreement:.3f} (400 walks/node)")
    assert agreement < 0.1
