"""One HTTP front-end, one write path and one store, checked on the syntax tree.

The supervisor once carried its own request handler, its own listener
wiring and its own copy of the write-path gauges, and the copies drifted
(keep-alive desync, no body cap, no request ids on the admin port).  The
fork must not quietly come back, on any stdlib base a handler or a
listener can be built on; nor may a second HTTP client dial the wire
beside the one codec both ends share.  Likewise the sharded store once had its
own publish, manifest and fsck sweep beside the unsharded one's, and a
torn sharded publish leaked shard data no sweep could see.  And the
exact engine once had a float32 shortlist with a fixed oversample, a
float64 boundary-repair loop and an IVF top-k without a tie band: three
answers to one question, now one certified band — and one engine, since
the approximate IVF backend beside it is gone.  And single-node
queries once had two paths into the engine, one of them an opt-in
coalescer with a window knob; now there is one admission path.  And the
delta log's segments were once walked by four loops and its checksummed
bytes decoded by three, which disagreed about a missing segment; now one
function lists and chain-checks the segments, and WAL records and
replication frames share one seal and one decode loop.  And every
version once stored its search rows twice — as ``Xf`` / ``Xb`` and as a
``features.npy`` nothing checked against them; now one function derives
a search row and no version stores one.  And one compaction cycle was
once split across a refresher, the ingest pipeline and a compactor
thread that read the pipeline's store, service, log and LSNs from
outside; now the pipeline publishes, activates and runs the cycle on a
thread it starts itself.

Contract: The structure test reads the syntax tree: one subclass of a stdlib
request-handler base, one module building a stdlib listener, one module
dialing a connection (the wire codec), one function writing the write-path
gauges - a second HTTP front-end, HTTP client or write path fails here too,
and so does a second candidate band, a selection-precision knob, a second
walk over the WAL segments, a second codec for checksummed WAL records and
feed frames, or a second publisher of store versions beside the pipeline.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.contract

SRC = Path(repro.__file__).resolve().parent

# Every stdlib base a request handler or a listener can be built on.
HANDLER_BASES = {
    "BaseRequestHandler",
    "StreamRequestHandler",
    "DatagramRequestHandler",
    "BaseHTTPRequestHandler",
    "SimpleHTTPRequestHandler",
}
LISTENER_CLASSES = {
    "TCPServer",
    "ThreadingTCPServer",
    "ForkingTCPServer",
    "UnixStreamServer",
    "ThreadingUnixStreamServer",
    "HTTPServer",
    "ThreadingHTTPServer",
}

# One family per group the two owners used to write separately.
WRITE_PATH_FAMILIES = (
    "ingest_lsn_durable",
    "replication_standbys",
    "compactor_publish_seconds_total",
)


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scan():
    """(handler subclasses, listener modules, dialing modules, family definitions)."""
    handlers, listeners, dialers = [], set(), set()
    families = {name: set() for name in WRITE_PATH_FAMILIES}
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {_name(base) for base in node.bases}
                if bases & HANDLER_BASES:
                    handlers.append(f"{module}:{node.name}")
                if bases & LISTENER_CLASSES:
                    listeners.add(module)
            elif isinstance(node, ast.Call):
                if _name(node.func) in LISTENER_CLASSES:
                    listeners.add(module)
                elif _name(node.func) in ("create_connection", "HTTPConnection"):
                    dialers.add(module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Constant) and inner.value in families:
                        families[inner.value].add(f"{module}:{node.name}")
    return handlers, listeners, dialers, families


def test_one_request_handler_one_listener_one_gauge_writer():
    handlers, listeners, dialers, families = _scan()
    assert handlers == ["serving/http/server.py:_Handler"]
    assert listeners == {"serving/http/server.py"}
    assert dialers == {"serving/http/wire.py"}
    for name, writers in families.items():
        assert writers == {"serving/http/write_path.py:collect"}, name


def _calls(node: ast.AST) -> set[str]:
    return {_name(inner.func) for inner in ast.walk(node) if isinstance(inner, ast.Call)}


def test_one_store_one_publish_one_verify_one_sweep():
    stores, functions = set(), {}
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and {"publish", "rollback"} <= {
                item.name for item in node.body if isinstance(item, ast.FunctionDef)
            }:
                stores.add(f"{module}:{node.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[f"{module}:{node.name}"] = node

    def callers(callee: str) -> set[str]:
        return {key for key, node in functions.items() if callee in _calls(node)}

    assert stores == {"serving/store.py:EmbeddingStore"}
    # Staging debris (what fsck GCs) has one producer: the one publish.
    staging = {
        key
        for key in callers("mkdtemp") | callers("mkstemp")
        if any(
            isinstance(node, ast.Name) and node.id == "STAGING_PREFIX"
            for node in ast.walk(functions[key])
        )
    }
    assert staging == {"serving/store.py:publish"}
    assert callers("_read_npy_header") == {"serving/fsck.py:verify_version"}
    assert callers("find_orphans") == {"serving/fsck.py:_sweep"}


def _identifiers(node: ast.AST) -> list[str]:
    """Every name a node spells: variables, attributes, arguments, keywords,
    definitions and string constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.arg, ast.keyword)):
        return [node.arg or ""]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    name = _name(node)
    return [name] if name else []


def test_one_certified_band_and_no_precision_knob():
    """One function computes the exact engine's candidate band, every
    rescoring selector goes through the one function that applies it, and
    the selection-precision knob it replaced is gone from the tree."""
    functions, knob = {}, []
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, []).append((module, node))
            knob += [
                f"{module}:{node.lineno}"
                for name in _identifiers(node)
                if "select_dtype" in name
            ]

    def callers(callee: str) -> set[str]:
        return {
            f"{module}:{name}"
            for name, defs in functions.items()
            for module, node in defs
            if callee in _calls(node)
        }

    assert [module for module, _ in functions["certified_band"]] == ["search/knn.py"]
    assert callers("certified_band") == {"search/knn.py:select_band"}
    assert callers("select_band") == {"search/knn.py:_select_and_rescore"}
    assert knob == []


def test_one_search_engine_and_no_probe_knob():
    """The exact backend is the one search engine (the shard router only
    scatters to it), and no name of the approximate backend it replaced
    — its class, its probe width, its per-request hints, its artifact
    cache — is spelled anywhere in the tree."""
    backends, leftovers = set(), []
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and "SearchBackend" in {
                _name(base) for base in node.bases
            }:
                backends.add(f"{module}:{node.name}")
            leftovers += [
                f"{module}:{node.lineno}:{name}"
                for name in _identifiers(node)
                if any(word in name.lower() for word in
                       ("ivf", "nprobe", "nlist", "searchparams", "index_cache"))
            ]
    assert backends == {
        "serving/index.py:ExactBackend",
        "serving/sharding/router.py:ShardRouter",
    }
    assert leftovers == []


def test_one_single_query_path_and_no_coalescing_knob(capsys):
    """Single-node misses reach the backend through one admission path
    (QueryService._select, called by the direct run and the drain alike);
    the opt-in coalescer it replaced, with its window and batch knobs, is
    gone from the tree and from the CLI."""
    from repro.cli import main

    functions, coalesce = {}, []
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[f"{module}:{node.name}"] = node
            coalesce += [
                f"{module}:{node.lineno}:{name}"
                for name in _identifiers(node)
                if "coalesce" in name.lower()
            ]
    assert coalesce == []
    service = "serving/service.py"

    def calls_backend_search(node: ast.AST) -> bool:
        return any(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "search"
            and _name(inner.func.value) == "backend"
            for inner in ast.walk(node)
        )

    assert {
        key for key, node in functions.items()
        if key.startswith(service) and calls_backend_search(node)
    } == {
        f"{service}:_select",
        f"{service}:_batch_top_k_on",
        f"{service}:work",  # _batch_top_k_on's pool task
        f"{service}:_similar_by_vector_on",
    }
    assert {
        key for key, node in functions.items() if "_select" in _calls(node)
    } == {f"{service}:_admit", f"{service}:_drain"}

    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--store", "s", "--coalesce-window-ms", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --coalesce-window-ms 1" in capsys.readouterr().err


def test_one_segment_walk_and_one_checksummed_frame_codec():
    """One function lists the WAL segment files, and every reader of the
    log consumes its chain check; one function seals and one decodes the
    ``header | payload | crc32`` frames of WAL records and the feed."""
    functions = {}
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[f"{module}:{node.name}"] = node

    def callers(callee: str) -> set[str]:
        return {key for key, node in functions.items() if callee in _calls(node)}

    def names_segments(node: ast.AST) -> bool:
        return any(
            name == "SEGMENT_SUFFIX" or ".wal" in name
            for inner in ast.walk(node)
            for name in _identifiers(inner)
        )

    listing = {"glob", "rglob", "iterdir", "listdir", "scandir"}
    assert {
        key for key, node in functions.items()
        if _calls(node) & listing and names_segments(node)
    } == {"serving/wal/log.py:walk_segments"}
    log = "serving/wal/log.py"
    assert callers("walk_segments") == {
        f"{log}:_recover_on_open",
        f"{log}:records",
        f"{log}:inspect",
        f"{log}:prune_through",
        "serving/fsck.py:fsck_wal",
    }
    assert callers("crc32") == {f"{log}:seal", f"{log}:unseal"}
    assert callers("seal") == {
        f"{log}:encode_record",
        "serving/wal/replication.py:encode_frame",
    }
    assert callers("unseal") == {
        f"{log}:scan_segment",
        f"{log}:parse_records",
        "serving/wal/replication.py:decode_frames",
    }


def test_one_search_row_definition_and_no_stored_rows():
    """``feature_rows`` is the one definition of a search row: the store's
    derived view and the knn oracle's input call it, ``repro neighbors``
    ranks the oracle's rows, and no code names a ``features.npy``."""
    from repro.serving.store import _ARRAY_FILES

    functions, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {
            id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        functions[f"{module}:{node.name}.{item.name}"] = item
            elif isinstance(node, ast.FunctionDef) and node.col_offset == 0:
                functions[f"{module}:{node.name}"] = node
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "features.npy" in node.value
                and id(node) not in docstrings
            ):
                named.add(module)

    def callers(callee: str) -> set[str]:
        return {key for key, node in functions.items() if callee in _calls(node)}

    assert callers("feature_rows") == {
        "serving/store.py:SearchRows.__getitem__",
        "serving/store.py:search_features",
    }
    assert "cli.py:_cmd_neighbors" in callers("search_features")
    assert "features" not in _ARRAY_FILES
    assert named == set()


def test_one_compaction_cycle():
    """Under ``serving/`` one function publishes a store version: the
    ingest pipeline's, which also activates it on the bound service.  The
    cycle runs on a thread the pipeline starts, so no compaction class
    subclasses ``threading.Thread`` to drive the pipeline from outside."""
    publishers, compaction_threads = set(), set()
    for path in sorted((SRC / "serving").rglob("*.py")):
        module = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "publish"
                    for inner in ast.walk(node)
                ):
                    publishers.add(f"{module}:{node.name}")
            elif (
                isinstance(node, ast.ClassDef)
                and "Thread" in {_name(base) for base in node.bases}
                and (module == "serving/wal/compactor.py"
                     or "compact" in node.name.lower())
            ):
                compaction_threads.add(f"{module}:{node.name}")
    assert publishers == {"serving/wal/compactor.py:_publish"}
    assert compaction_threads == set()
