"""Persistent worker pool shared across PANE phases.

The seed implementation created (and tore down) a fresh
``ThreadPoolExecutor`` for every parallel call — two per CCD sweep, one
per PAPMI/SMGreedyInit phase — so thread spawn/join cost was paid dozens
of times per ``fit``.  :class:`WorkerPool` is the long-lived replacement:
``PANE.fit`` acquires one pool up front and threads it through PAPMI,
the init's Gram dispatch and CCD's write of ``X``; the underlying executor is created
lazily on the first multi-block call and reused until :meth:`close`.

Lifecycle
---------
``WorkerPool(n)`` is cheap (no threads yet).  Threads start on the first
``run_blocks`` call that actually fans out; ``close()`` (or leaving a
``with`` block) joins them.  A closed pool refuses further parallel work
but still executes single-block/single-thread calls inline, mirroring
:func:`repro.parallel.executor.run_blocks` semantics.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerPool:
    """A reusable thread pool with ``run_blocks`` semantics.

    Results are returned in block order; worker exceptions propagate.
    Single-block or single-thread calls run inline (bit-identical to the
    serial algorithms and with simple stack traces), exactly like the
    module-level :func:`repro.parallel.executor.run_blocks`.
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.n_threads = n_threads
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        # Guards the lazy executor creation: concurrent first callers (e.g.
        # HTTP handler threads fanning out batch queries) must agree on one
        # executor instead of racing two into existence and leaking one.
        self._init_lock = threading.Lock()

    @property
    def is_active(self) -> bool:
        """Whether worker threads have been started and not yet joined."""
        return self._executor is not None and not self._closed

    def run_blocks(
        self, work: Callable[[int, T], R], blocks: Sequence[T]
    ) -> list[R]:
        """Apply ``work(block_index, block)`` to every block, possibly in parallel."""
        if not blocks:
            return []
        if len(blocks) == 1 or self.n_threads == 1:
            return [work(i, block) for i, block in enumerate(blocks)]
        with self._init_lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.n_threads, thread_name_prefix="pane-worker"
                )
            # Submit under the lock: a concurrent close() between the
            # closed-check and the submits would shut the executor down
            # and turn them into opaque RuntimeErrors.  Submission only
            # enqueues (cheap); the blocking result() waits stay outside.
            futures = [
                self._executor.submit(work, i, block)
                for i, block in enumerate(blocks)
            ]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Join the worker threads; further parallel calls raise."""
        with self._init_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
