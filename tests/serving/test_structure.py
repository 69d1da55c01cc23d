"""One HTTP front-end and one write path, checked on the syntax tree.

The supervisor once carried its own request handler, its own listener
wiring and its own copy of the write-path gauges, and the copies drifted
(keep-alive desync, no body cap, no request ids on the admin port).  The
fork must not quietly come back before the event loop (ROADMAP item 1)
replaces the one that is left.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

# One family per group the two owners used to write separately.
WRITE_PATH_FAMILIES = (
    "ingest_lsn_durable",
    "replication_standbys",
    "compactor_publishes_total",
)


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scan():
    """(handler subclasses, listener constructions, family definitions)."""
    handlers, listeners = [], set()
    families = {name: set() for name in WRITE_PATH_FAMILIES}
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                _name(base) == "BaseHTTPRequestHandler" for base in node.bases
            ):
                handlers.append(f"{module}:{node.name}")
            elif (
                isinstance(node, ast.Call)
                and _name(node.func) == "ThreadingHTTPServer"
            ):
                listeners.add(module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Constant) and inner.value in families:
                        families[inner.value].add(f"{module}:{node.name}")
    return handlers, listeners, families


def test_one_request_handler_one_listener_one_gauge_writer():
    handlers, listeners, families = _scan()
    assert handlers == ["serving/http/server.py:_Handler"]
    assert listeners == {"serving/http/server.py"}
    for name, writers in families.items():
        assert writers == {"serving/http/write_path.py:collect"}, name
