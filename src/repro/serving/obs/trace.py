"""Request tracing: ids, per-stage spans, and a ring buffer of recent traces.

A :class:`Trace` follows one request across layers — HTTP dispatch,
snapshot pinning, engine admission, backend selection, WAL append —
without threading a context argument through every call: the active
trace rides a :mod:`contextvars` context variable, which is per-thread
under ``ThreadingHTTPServer`` (each request runs in its own handler
thread), so :func:`trace_span` and :func:`annotate` called deep inside
:class:`~repro.serving.service.QueryService` attach to the right
request automatically and cost one context-var read when no trace is
active (the in-process, non-HTTP path).

The request id is the correlation key: ``X-Request-Id`` is taken from
the request when the caller supplied one (the
:class:`~repro.serving.http.client.ServingClient` generates one per
logical request and re-sends the *same* id on every retry/failover
attempt), generated server-side otherwise, echoed on every response and
error envelope, and recorded in the server's :class:`TraceBuffer` —
``GET /debug/traces`` serves the buffer, so one id can be followed from
the client's attempt log to the handling worker's span breakdown.

Every trace lock-protects its mutable state, so any thread holding a
trace may add a span or an annotation to it.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager

# The correlation header.  Lives here (not protocol.py) so non-HTTP
# layers can import it without pulling in the wire module.
REQUEST_ID_HEADER = "X-Request-Id"

# Caller-supplied ids are truncated to this, so a hostile header cannot
# bloat the trace buffer or the journal.
MAX_REQUEST_ID_CHARS = 128


def new_request_id() -> str:
    """A fresh 32-hex-char request id (uuid4, no dashes)."""
    return uuid.uuid4().hex


def clean_request_id(raw: str | None) -> str | None:
    """Sanitize a caller-supplied id: strip, bound, reject empties.

    Ids with control characters are rejected outright (``None``) — the
    id is echoed into a response header, so a ``\\r\\n`` smuggled into
    it must never survive to :func:`_send_bytes`.
    """
    if not raw:
        return None
    cleaned = raw.strip()[:MAX_REQUEST_ID_CHARS]
    if not cleaned or not cleaned.isprintable():
        return None
    return cleaned


_CURRENT: contextvars.ContextVar["Trace | None"] = contextvars.ContextVar(
    "repro_current_trace", default=None
)


def current_trace() -> "Trace | None":
    """The trace of the request running on this thread, if any."""
    return _CURRENT.get()


def set_current(trace: "Trace | None") -> contextvars.Token:
    return _CURRENT.set(trace)


def reset_current(token: contextvars.Token) -> None:
    _CURRENT.reset(token)


@contextmanager
def trace_span(name: str, **meta):
    """Record a named stage span on the current trace (no-op without one).

    Yields the :class:`Span` (or ``None``), so callers can attach
    result-dependent metadata::

        with trace_span("select") as span:
            result = backend.top_k(...)
            if span is not None:
                span.meta["n"] = len(result)
    """
    trace = _CURRENT.get()
    if trace is None:
        yield None
        return
    with trace.span(name, **meta) as span:
        yield span


def annotate(**fields) -> None:
    """Attach key/value annotations to the current trace (no-op without one)."""
    trace = _CURRENT.get()
    if trace is not None:
        trace.annotate(**fields)


class Span:
    """One timed stage inside a trace; offsets are relative to trace start."""

    __slots__ = ("name", "start_ms", "duration_ms", "meta")

    def __init__(self, name: str, start_ms: float, meta: dict) -> None:
        self.name = name
        self.start_ms = start_ms
        self.duration_ms: float | None = None  # None while still open
        self.meta = meta

    def as_dict(self) -> dict:
        entry = {
            "name": self.name,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": (
                round(self.duration_ms, 3) if self.duration_ms is not None else None
            ),
        }
        if self.meta:
            entry["meta"] = dict(self.meta)
        return entry


class Trace:
    """The spans and annotations of one request, keyed by its request id."""

    def __init__(self, request_id: str, endpoint: str, *, method: str = "") -> None:
        self.request_id = request_id
        self.endpoint = endpoint
        self.method = method
        self.started_at = time.time()  # wall clock, for operators
        self._t0 = time.perf_counter()  # monotonic, for span offsets
        self.spans: list[Span] = []
        self.annotations: dict = {}
        self.status: int | None = None
        self.duration_ms: float | None = None
        self._lock = threading.Lock()

    def annotate(self, **fields) -> None:
        with self._lock:
            self.annotations.update(fields)

    @contextmanager
    def span(self, name: str, **meta):
        span = Span(name, (time.perf_counter() - self._t0) * 1e3, meta)
        with self._lock:
            self.spans.append(span)
        try:
            yield span
        finally:
            span.duration_ms = (
                (time.perf_counter() - self._t0) * 1e3 - span.start_ms
            )

    def finish(self, status: int) -> float:
        """Seal the trace with its response status; returns duration in s."""
        duration_s = time.perf_counter() - self._t0
        with self._lock:
            self.status = status
            self.duration_ms = duration_s * 1e3
        return duration_s

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "request_id": self.request_id,
                "endpoint": self.endpoint,
                "method": self.method,
                "started_at": round(self.started_at, 6),
                "status": self.status,
                "duration_ms": (
                    round(self.duration_ms, 3)
                    if self.duration_ms is not None
                    else None
                ),
                "spans": [span.as_dict() for span in self.spans],
                "annotations": dict(self.annotations),
            }


class TraceBuffer:
    """A bounded, thread-safe ring of finished traces (newest first)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._added = 0

    def add(self, trace_dict: dict) -> None:
        with self._lock:
            self._ring.append(trace_dict)
            self._added += 1

    def snapshot(self) -> list[dict]:
        """Recent traces, newest first."""
        with self._lock:
            return list(reversed(self._ring))

    def find(self, request_id: str) -> dict | None:
        with self._lock:
            for trace in reversed(self._ring):
                if trace.get("request_id") == request_id:
                    return trace
        return None

    @property
    def total_added(self) -> int:
        with self._lock:
            return self._added
