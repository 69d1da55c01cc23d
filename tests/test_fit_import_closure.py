"""A fit process imports only what it fits (ROADMAP item 28).

The trainer and evaluation side of ``tests/serving/test_import_closure.py``:
each row of :data:`CLOSURE` runs one entrypoint in a fresh interpreter and
then reads that interpreter's ``sys.modules``.  The public scipy
subpackages it holds must lie within the row's allowed set.  A
module-level import of ``scipy.optimize`` or ``scipy.linalg`` in
``repro.core``, ``repro.tasks`` or ``repro.eval`` puts ≈ 7–25 MiB into
every process that fits PANE, and fails here.

Contract: The fit import closure runs PANE.fit with the link/attribute
tasks, `repro embed`, `repro evaluate` per task and a compacting `repro
serve --wal-dir`, each in a fresh interpreter, and checks the scipy
subpackages in its sys.modules against one table: scipy.sparse only,
scipy.optimize only for classification and only once a classifier fits.  A
module-level import of a scipy subpackage in repro.core, repro.tasks or
repro.eval fails here; in particular an eigensolve in the fit must use
np.linalg.eigh, since scipy.linalg costs about +7 MiB (51.4 -> 58.5 MiB on
the fit path).
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.graph.generators import attributed_sbm
from repro.graph.io import save_npz
from repro.serving.http import ServingClient
from repro.serving.http.loadgen import cli_subprocess_env
from repro.serving.http.protocol import ApiError

pytestmark = pytest.mark.contract

SPARSE = frozenset({"sparse"})
# "optimize" stands for scipy.optimize and whatever importing it loads
# (linalg, special, ... as the installed scipy has it).
SPARSE_AND_OPTIMIZE = frozenset({"sparse", "optimize"})

# Entrypoint -> (code run in a fresh interpreter, its argv, the public
# scipy subpackages its sys.modules may hold once the code has run).
# ``{graph}`` and ``{tmp}`` in the argv are filled in per test.
RUN_CLI = "from repro.cli import main\nassert main(sys.argv[1:]) == 0\n"
FIT_AND_SCORE = """
import repro.eval, repro.tasks
from repro.core.pane import PANE
from repro.graph.io import load_npz
from repro.tasks.attribute_inference import AttributeInferenceTask
from repro.tasks.link_prediction import LinkPredictionTask
graph = load_npz(sys.argv[1])
model = PANE(k=8, n_threads=2, ccd_block_size=4, seed=1)
assert LinkPredictionTask(graph, seed=1).evaluate(model).auc > 0.5
AttributeInferenceTask(graph, seed=1).evaluate(model)
"""
CLASSIFY = """
from repro.core.pane import PANE
from repro.graph.io import load_npz
from repro.tasks import NodeClassificationTask
graph = load_npz(sys.argv[1])
task = NodeClassificationTask(graph, train_fractions=(0.5,), n_repeats=1, seed=0)
features = PANE(k=8, seed=1).fit(graph).node_embeddings()
assert "scipy.optimize" not in sys.modules
task.evaluate_features(features)
assert "scipy.optimize" in sys.modules
"""
CLOSURE = {
    "PANE.fit + link/attribute tasks": (FIT_AND_SCORE, ("{graph}",), SPARSE),
    "repro embed": (
        RUN_CLI,
        ("embed", "--graph", "{graph}", "--out", "{tmp}/e.npz", "--k", "8"),
        SPARSE,
    ),
    "repro evaluate --task link": (
        RUN_CLI, ("evaluate", "--graph", "{graph}", "--task", "link", "--k", "8"), SPARSE,
    ),
    "repro evaluate --task attribute": (
        RUN_CLI,
        ("evaluate", "--graph", "{graph}", "--task", "attribute", "--k", "8"),
        SPARSE,
    ),
    "repro evaluate --task classify": (
        RUN_CLI,
        ("evaluate", "--graph", "{graph}", "--task", "classify", "--k", "8"),
        SPARSE_AND_OPTIMIZE,
    ),
    "NodeClassificationTask, optimize on first fit": (
        CLASSIFY, ("{graph}",), SPARSE_AND_OPTIMIZE,
    ),
    "repro serve --wal-dir": (
        RUN_CLI,
        (
            "serve", "--store", "{tmp}/store", "--http", "0", "--backend", "exact",
            "--wal-dir", "{tmp}/wal", "--graph", "{graph}", "--wal-k", "8",
        ),
        SPARSE,
    ),
}
SERVE_ROW = "repro serve --wal-dir"

MARKER = "scipy subpackages:"
REPORT = f"""
import json
print({MARKER!r}, json.dumps(sorted(
    name[len("scipy."):] for name, module in list(sys.modules.items())
    if name.startswith("scipy.") and name.count(".") == 1
    and not name.startswith("scipy._") and hasattr(module, "__path__")
)))
"""


def _probe(row: str, graph_file, tmp_path) -> list[str]:
    code, argv, _ = CLOSURE[row]
    filled = [arg.format(graph=graph_file, tmp=tmp_path) for arg in argv]
    return [sys.executable, "-c", "import sys\n" + code + REPORT, *filled]


def _reported(output: str) -> set[str]:
    for line in output.splitlines():
        if line.startswith(MARKER):
            return set(json.loads(line[len(MARKER):]))
    raise AssertionError(f"no {MARKER!r} line in:\n{output}")


def _allowed(row: str, optimize_closure: set[str]) -> set[str]:
    allowed = set(CLOSURE[row][2])
    return allowed | optimize_closure if "optimize" in allowed else allowed


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("closure") / "graph.npz"
    save_npz(attributed_sbm(n_nodes=120, n_attributes=24, seed=1), path)
    return path


@pytest.fixture(scope="module")
def optimize_closure() -> set[str]:
    """The public scipy subpackages that ``import scipy.optimize`` loads."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys, scipy.optimize\n" + REPORT],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return _reported(done.stdout)


@pytest.mark.parametrize("row", [row for row in CLOSURE if row != SERVE_ROW])
def test_entrypoint_loads_only_its_scipy(row, graph_file, tmp_path, optimize_closure):
    done = subprocess.run(
        _probe(row, graph_file, tmp_path),
        env=cli_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    loaded = _reported(done.stdout)
    assert "sparse" in loaded
    assert loaded - _allowed(row, optimize_closure) == set()
    if CLOSURE[row][2] == SPARSE_AND_OPTIMIZE:
        assert "optimize" in loaded


def test_compactor_loads_only_scipy_sparse(graph_file, tmp_path, optimize_closure):
    """``repro serve --wal-dir`` folds an upsert in, drains, then reports."""
    process = subprocess.Popen(
        _probe(SERVE_ROW, graph_file, tmp_path),
        env=cli_subprocess_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        boot = process.stdout.readline()
        match = re.search(r"on (http://\S+:\d+)", boot)
        assert match, boot
        client = ServingClient(match.group(1), retries=0)
        ack = client.upsert(add_edges=np.array([[0, 5]]))
        for _ in range(600):  # until the compactor's fit has published it
            try:
                client.top_k(0, 3, min_lsn=ack["lsn"])
                break
            except ApiError as error:
                assert error.code == "stale_read", error
                time.sleep(0.05)
        else:
            pytest.fail("the compactor never published the upsert")
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    assert process.returncode == 0, output
    loaded = _reported(output)
    assert "sparse" in loaded
    assert loaded - _allowed(SERVE_ROW, optimize_closure) == set()
