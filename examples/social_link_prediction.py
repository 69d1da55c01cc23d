"""Link prediction on a social network (the paper's Table 5 workload).

30% of friendships are hidden; methods rank the hidden edges against
random non-edges.  Demonstrates the directed forward/backward scoring of
Eq. (22) and the paper's comparison protocol.

Run:  python examples/social_link_prediction.py
"""

from repro import PANE, attributed_sbm
from repro.baselines import BANE, CANLite, NRP, RandomEmbedding, TADW
from repro.eval.reporting import format_table
from repro.tasks import LinkPredictionTask

# An undirected multi-label social graph, Facebook-style.
graph = attributed_sbm(
    n_nodes=400,
    n_communities=8,
    n_attributes=80,
    p_in=0.08,
    p_out=0.005,
    directed=False,
    multilabel=True,
    seed=11,
)
print("social graph:", graph.summary())

task = LinkPredictionTask(graph, test_fraction=0.3, seed=0)

rows = {}
for model in (
    PANE(k=32, seed=0),
    PANE(k=32, seed=0, n_threads=4),
    NRP(k=32, seed=0),
    TADW(k=32, seed=0),
    BANE(k=32, seed=0),
    CANLite(k=32, seed=0, n_epochs=80),
    RandomEmbedding(k=32, seed=0),
):
    name = getattr(model, "name", None) or "PANE"
    if isinstance(model, PANE):
        name = f"PANE (nb={model.config.n_threads})"
    rows[name] = task.evaluate(model).as_row()

print()
print(format_table(rows, title="Link prediction AUC/AP (cf. paper Table 5)"))
print()
print("Expected shape: both PANE variants lead; parallel PANE matches the")
print("single-thread version up to the rounding of its span sums.")
