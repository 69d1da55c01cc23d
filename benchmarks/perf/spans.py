"""In-memory span recorder for the traced run.

The benchmark wraps the calls it makes into each layer's public functions
in a span: name, start, end, the span that caused it, and the id of the
op it belongs to.  Spans stay in memory until :meth:`SpanRecorder.dump`
writes them out when the run ends.  A layer's *self time* is its span
minus the spans directly beneath it.

Single-threaded on purpose: every traced call is made from the
benchmark's main thread (work the program fans out to its own pools is
inside the enclosing span).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        # [name, start_s, end_s, parent_index | None, op_id | None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        #: Switch off to run an op through the same wrappers unrecorded
        #: (how the traced run measures its own overhead).
        self.enabled = True

    @contextmanager
    def op(self, op_id: int):
        """Spans recorded inside share ``op_id``."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    # -- reading -----------------------------------------------------------
    def ms(self, name: str) -> list[float]:
        """Duration in ms of every finished span called ``name``."""
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name]

    def ms_by_op(self, name: str) -> dict[int, float]:
        """Summed ms of spans called ``name``, per op id."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s[0] == name and s[4] is not None:
                out[s[4]] = out.get(s[4], 0.0) + (s[2] - s[1]) * 1e3
        return out

    def self_ms(self, name: str) -> list[float]:
        """Per span called ``name``: its duration minus its direct children."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s[3] is not None:
                children[s[3]] = children.get(s[3], 0.0) + (s[2] - s[1]) * 1e3
        return [
            (s[2] - s[1]) * 1e3 - children.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s[0] == name
        ]

    def dump(self, path: Path) -> None:
        keys = ("name", "start_s", "end_s", "parent", "op")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))
