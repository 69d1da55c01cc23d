"""HTTP serving front-end: server, wire protocol, client, load generator.

The network layer over :class:`~repro.serving.service.QueryService`:

- :class:`EmbeddingServer` — threaded stdlib HTTP server with JSON
  endpoints, structured errors, and graceful drain (``server.py``);
- :mod:`~repro.serving.http.protocol` — the wire schema both sides
  share: validation, error envelope, bit-exact score encoding;
- :class:`ServingClient` — retrying, replica-fanning client
  (``client.py``);
- :func:`run_load` — the closed-loop load generator behind
  ``repro bench-http`` and ``benchmarks/bench_http.py`` (``loadgen.py``);
- :class:`Supervisor` — the pre-fork multi-process tier: one shared
  listen socket, N worker processes, health checks, backoff restarts,
  a crash-loop breaker, rolling drain, and aggregated admin endpoints
  (``supervisor.py``).

Everything is standard library + numpy — no new dependencies.
"""

from repro.serving.http.client import (
    DeadlineExceeded,
    HTTPQueryResult,
    ServingClient,
    ServingUnavailable,
)
from repro.serving.http.loadgen import LoadReport, run_load
from repro.serving.http.protocol import PROTOCOL_SCHEMA, ApiError
from repro.serving.http.server import EmbeddingServer
from repro.serving.http.supervisor import Supervisor, SupervisorConfig

__all__ = [
    "ApiError",
    "DeadlineExceeded",
    "EmbeddingServer",
    "HTTPQueryResult",
    "LoadReport",
    "PROTOCOL_SCHEMA",
    "ServingClient",
    "ServingUnavailable",
    "Supervisor",
    "SupervisorConfig",
    "run_load",
]
