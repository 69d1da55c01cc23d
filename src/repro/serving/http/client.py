"""HTTP client for the embedding server: retries, replicas, fan-out.

:class:`ServingClient` is the reference consumer of the wire protocol in
:mod:`repro.serving.http.protocol`:

- **Idempotent-read retries.**  Every read endpoint (top-k, describe,
  health, metrics) only reads an immutable snapshot server-side, so a
  connection error or a 503 (a draining replica) is safely retried on
  the next replica with a small backoff.  ``/admin/refresh`` mutates
  serving state and is never retried — a timeout there must surface to
  the caller, who knows whether re-applying is safe.
- **Keep-alive reuse.**  Each replica keeps a small pool of idle
  :class:`~repro.serving.http.wire.Connection` objects; a request
  checks one out, exchanges, and returns it unless the server asked to
  close.  No TCP handshake per
  request — the single biggest fixed cost of the old
  connection-per-request scheme.  Non-idempotent requests always use a
  fresh connection, so a stale pooled socket can never fail a refresh.
- **Binary wire negotiation** (``wire="auto"``, the default).  Data
  requests advertise the binary frame format in ``Accept``; a JSON-only
  server ignores that and answers JSON (which the client always
  accepts), while a binary-capable server answers raw frames.  Once a
  replica has demonstrated it speaks binary, request *bodies* (query
  vectors, node batches) upgrade to frames too — so the client works
  unchanged against old servers, with zero extra round trips.
  ``wire="json"`` pins the legacy behavior; ``wire="binary"`` sends
  frames from the first request (for servers known to be current).
- **Replica fan-out.**  ``batch_top_k`` splits a node batch into
  contiguous chunks, one per healthy replica, issues them concurrently,
  and reassembles the rows in caller order.  Replicas must answer from
  the same store version (the chunks are one logical batch); a version
  skew — one replica mid-swap — raises ``replica_version_skew`` so the
  caller can retry the batch rather than silently mixing versions.

The client keeps no latency statistics of its own: every
:class:`HTTPQueryResult` carries the client-observed and server-measured
seconds of its request, and the fleet view is the servers'
``http_request_seconds`` histogram (:meth:`ServingClient.metrics`).
"""

from __future__ import annotations

import operator
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import urlsplit

import numpy as np

from repro.search.knn import NodeFilter
from repro.serving.http import protocol, wire
from repro.serving.http.protocol import ApiError
from repro.serving.obs.trace import new_request_id


def _as_given(value):
    """An integral scalar as a Python ``int``; anything else unchanged.

    numpy integers become ``int`` so they encode; a float, a bool or a
    string is sent as the caller gave it, so ``top_k(0.7)`` is the
    server's 400 (its ``require_int`` decides), never node 0.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    try:
        return operator.index(value)
    except TypeError:
        return value


def _merge_filter(body: dict, node_filter) -> None:
    """Fold a ``filter=`` kwarg into a request body.

    Accepts a :class:`NodeFilter` or its plain JSON-object form.  The
    encoded object rides in the JSON body or the binary frame *header*
    unchanged, so one encoding serves both wire formats.
    """
    if node_filter is not None:
        obj = (
            node_filter.to_json()
            if isinstance(node_filter, NodeFilter)
            else dict(node_filter)
        )
        if obj:
            body["filter"] = obj


class ServingUnavailable(ApiError):
    """No replica could answer: connection failures / 503s all around."""

    def __init__(self, message: str, details: dict | None = None) -> None:
        super().__init__(503, "unavailable", message, details)


# Structured 503 codes after which re-sending an upsert is provably safe:
# each is raised *before* the append touches the log (log_full's LogFull
# check, the draining gate, and the pre-dispatch deadline shed all
# precede the first byte written), so a retry can never double-apply.
# Anything else on the write path — a torn connection, wal_write_failed,
# replication_timeout — may have become durable and is never retried.
_SAFE_UPSERT_RETRY_CODES = frozenset({"log_full", "draining", "deadline_exceeded"})


class DeadlineExceeded(ApiError):
    """The caller's per-request budget ran out before any replica answered.

    Distinct from :class:`ServingUnavailable`: the replicas may be fine —
    it is *this request's* time that is spent.  Retrying immediately with
    the same budget is reasonable; waiting longer needs a bigger budget.
    """

    def __init__(self, message: str, details: dict | None = None) -> None:
        super().__init__(504, "deadline_exceeded", message, details)


@dataclass(frozen=True)
class HTTPQueryResult:
    """A query answer as observed by the client.

    ``latency_s`` is the client-side wall time (network included);
    ``server_latency_s`` is what the server measured for the backend
    work, so the gap between the two is the wire + queueing cost.
    ``queries`` is how many logical queries the request carried (the
    batch size; 1 for single-node requests), making
    :attr:`per_query_latency_s` directly comparable between single and
    batch rows.
    """

    version: str
    ids: np.ndarray
    scores: np.ndarray
    latency_s: float
    server_latency_s: float
    cached: bool = False
    queries: int = 1

    @property
    def per_query_latency_s(self) -> float:
        """Client wall time amortized over the request's logical queries."""
        return self.latency_s / max(1, self.queries)


# Idle keep-alive connections kept per replica.  Sized for the client's
# realistic concurrency (loadgen workers, batch fan-out threads); excess
# connections are simply closed on release.
_POOL_SIZE = 16


class _Replica:
    """One base URL plus its keep-alive connection pool."""

    def __init__(self, base_url: str) -> None:
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme != "http":
            raise ValueError(f"only http:// replicas are supported, got {base_url!r}")
        if split.hostname is None:
            raise ValueError(f"replica URL needs a host: {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        # A path component is a mount prefix (reverse proxy); endpoint
        # paths are appended to it.
        self.prefix = split.path.rstrip("/")
        self.base_url = f"http://{self.host}:{self.port}{self.prefix}"
        # Has this replica ever answered with a binary frame?  Once yes,
        # request bodies may upgrade to frames too (wire="auto").
        self.binary_seen = False
        self._idle: list[wire.Connection] = []
        self._pool_lock = threading.Lock()
        self._closed = False

    def _acquire(self, timeout_s: float, fresh: bool) -> tuple[wire.Connection, bool]:
        """A connection plus whether it came from the pool (= may be stale)."""
        if not fresh:
            with self._pool_lock:
                if self._idle:
                    return self._idle.pop(), True
        return wire.Connection(self.host, self.port, timeout_s), False

    def _release(self, connection: wire.Connection) -> None:
        with self._pool_lock:
            # close() must be final: a request that was in flight when the
            # pool drained would otherwise resurrect its socket into the
            # empty pool, leaking it (and a server handler thread) forever.
            if not self._closed and len(self._idle) < _POOL_SIZE:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        with self._pool_lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for connection in idle:
            connection.close()

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None,
        content_type: str,
        accept: str,
        timeout_s: float,
        *,
        fresh: bool = False,
        extra_headers: dict | None = None,
    ) -> tuple[int, dict, int | None]:
        """One HTTP exchange; returns (status, payload, lsn_served).

        ``lsn_served`` is the server's ``X-Lsn-Served`` read-freshness
        stamp (``None`` when the server did not send one — no write
        path, or a non-data endpoint).

        Pops an idle keep-alive connection (or dials a new one) and
        returns it to the pool unless the exchange failed or the server
        signalled close.  Checkout semantics keep the replica safe to
        share across fan-out threads — a connection is only ever used by
        the thread that holds it.  ``fresh=True`` (non-idempotent
        requests) always dials: a pooled socket must never be the reason
        a refresh fails.

        A *pooled* connection may have been closed by the server while
        idle (handler timeout, drain) — the standard keep-alive hazard.
        An exchange that fails on one is transparently redialed once on
        a fresh connection here, so staleness never consumes one of the
        caller's retry attempts: with several stale sockets queued up, a
        retry loop burning one attempt per stale socket could exhaust
        itself against a perfectly healthy server.  (Only idempotent
        requests ever use the pool, so re-sending is safe.)

        The response parses by its ``Content-Type``: binary frames are
        decoded to a payload dict with ndarray fields (and mark the
        replica binary-capable); anything else parses as JSON.
        """
        headers = {"Accept": accept}
        if extra_headers:
            headers.update(extra_headers)
        if body is not None:
            headers["Content-Type"] = content_type
        while True:
            connection, pooled = self._acquire(timeout_s, fresh)
            try:
                if pooled:
                    # A pooled socket keeps the timeout it was dialed
                    # with; deadline-capped attempts need *this*
                    # attempt's budget.  (A dead pooled socket raises
                    # here and takes the stale-redial path below.)
                    connection.sock.settimeout(timeout_s)
                response = connection.exchange(
                    method, self.prefix + path, headers, body
                )
            except OSError:
                connection.close()
                if pooled:
                    continue  # stale keep-alive socket: redial, don't charge
                raise
            if response.will_close:
                connection.close()
            else:
                self._release(connection)
            break
        status, raw = response.status, response.body
        response_type = response.headers.get("content-type", "").split(";")[0].strip()
        lsn_header = response.headers.get(protocol.LSN_HEADER.lower())
        try:
            lsn_served = int(lsn_header) if lsn_header is not None else None
        except ValueError:
            lsn_served = None
        if response_type == protocol.BINARY_CONTENT_TYPE:
            self.binary_seen = True
            return status, protocol.decode_frame_body(raw, response=True), lsn_served
        return status, protocol.parse_json_body(raw, response=True), lsn_served


class ServingClient:
    """Client over one or more :class:`EmbeddingServer` replicas.

    Parameters
    ----------
    base_urls:
        One URL or a sequence (``"http://127.0.0.1:8080"`` or
        ``"127.0.0.1:8080"``).  Order seeds the preference; reads rotate
        onto later replicas when earlier ones fail.
    timeout_s / retries / backoff_s:
        Per-request socket timeout; extra attempts per *read* request
        beyond the first (spread across replicas); sleep between
        attempts, doubled each retry.
    wire:
        ``"auto"`` (default) negotiates the binary frame format per
        replica and falls back to JSON against servers that predate it;
        ``"json"`` pins the legacy JSON wire; ``"binary"`` sends frames
        from the first request (fails against JSON-only servers).
    """

    def __init__(
        self,
        base_urls: str | Sequence[str],
        *,
        timeout_s: float = 10.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        wire: str = "auto",
    ) -> None:
        if isinstance(base_urls, str):
            base_urls = [base_urls]
        if not base_urls:
            raise ValueError("ServingClient needs at least one replica URL")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if wire not in ("auto", "json", "binary"):
            raise ValueError(
                f"wire must be 'auto', 'json' or 'binary', got {wire!r}"
            )
        self.replicas = [_Replica(url) for url in base_urls]
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.wire = wire
        # The fencing token: the highest WAL epoch any replica has shown
        # us (upsert acks, promote responses).  A *write* answered by a
        # server on an older epoch than this is a superseded primary —
        # the ack is surfaced as stale_epoch, never silently trusted.
        self._epoch_lock = threading.Lock()
        self._max_epoch_seen = 0
        # Client-side attempt log: one entry per *logical* request, with
        # the request id every attempt carried — the client half of the
        # server's /debug/traces (same id, both sides).
        self._trace_lock = threading.Lock()
        self._trace_ring: deque[dict] = deque(maxlen=64)

    def request_trace(self) -> list[dict]:
        """Recent logical requests (newest first): id, path, attempts."""
        with self._trace_lock:
            return list(reversed(self._trace_ring))

    # -- plumbing ------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def close(self) -> None:
        """Drop pooled keep-alive connections (idempotent, final).

        Requests still in flight on other threads complete normally but
        their connections are closed on release instead of re-pooled —
        after ``close()`` the client never holds a socket open.  Further
        requests still work (each dials a fresh connection).
        """
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def max_epoch_seen(self) -> int:
        with self._epoch_lock:
            return self._max_epoch_seen

    def _check_epoch(self, payload: dict, *, write: bool) -> None:
        """Track the fencing token; reject writes from a stale epoch."""
        epoch = payload.get("epoch") if isinstance(payload, dict) else None
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 1:
            return
        with self._epoch_lock:
            if epoch > self._max_epoch_seen:
                self._max_epoch_seen = epoch
                return
            stale = write and epoch < self._max_epoch_seen
            max_seen = self._max_epoch_seen
        if stale:
            raise ApiError(
                409, "stale_epoch",
                f"write was answered by a server at epoch {epoch}, but this "
                f"client has already seen epoch {max_seen}; the server is a "
                "superseded primary and its ack must not be trusted",
                {"epoch": epoch, "max_epoch_seen": max_seen},
            )

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        arrays: "dict[str, np.ndarray] | None" = None,
        prefer: int = 0,
        timeout_s: float | None = None,
        min_lsn: int | None = None,
    ) -> dict:
        """Issue a request, retrying reads across replicas.

        ``prefer`` rotates the replica order so fan-out chunks spread
        across replicas instead of all hammering the first.  Retryable
        outcomes — connection errors, timeouts, 503 — move on to the
        next replica; protocol errors (4xx) raise immediately, they
        would fail identically everywhere.  Non-read endpoints get
        exactly one attempt on the preferred replica (and a fresh
        connection — never a possibly-stale pooled one).

        ``timeout_s`` is a *total* per-request budget shared by every
        retry/failover attempt (``None`` keeps the legacy behavior: the
        client-level ``timeout_s`` bounds each attempt independently).
        With a budget set, each attempt's socket timeout is capped to
        what remains, the remaining budget rides along as
        ``X-Deadline-Ms`` so the server can shed an already-dead request,
        and exhaustion raises :class:`DeadlineExceeded`.

        ``arrays`` carries the request's array-valued fields (query
        vector, node batch).  Encoding is chosen per target replica:
        a binary frame when this client (and that replica) speak binary,
        else JSON with the arrays as number lists.
        """
        idempotent = path in protocol.READ_ENDPOINTS
        data = path in protocol.DATA_ENDPOINTS
        # Upserts get retry attempts too, but only consume them on the
        # provably-safe structured 503s (_SAFE_UPSERT_RETRY_CODES) —
        # transport errors and other statuses still raise immediately.
        retryable = idempotent or path == protocol.UPSERT
        attempts = 1 + (self.retries if retryable else 0)
        prefer %= len(self.replicas)
        candidates = self.replicas[prefer:] + self.replicas[:prefer]
        failures: dict[str, str] = {}
        last_503: ApiError | None = None
        backoff = self.backoff_s
        deadline = (
            time.perf_counter() + timeout_s if timeout_s is not None else None
        )
        accept = (
            f"{protocol.BINARY_CONTENT_TYPE}, {protocol.JSON_CONTENT_TYPE}"
            if data and self.wire != "json"
            else protocol.JSON_CONTENT_TYPE
        )
        # One id per *logical* request: every retry/failover attempt
        # re-sends the same X-Request-Id, so server-side traces and logs
        # across replicas join on one key.
        request_id = new_request_id()
        attempt_log: list[dict] = []
        try:
            for attempt in range(attempts):
                attempt_timeout = self.timeout_s
                extra_headers = {protocol.REQUEST_ID_HEADER: request_id}
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            f"budget of {timeout_s}s spent before {path} was answered"
                            f" ({attempt} attempt(s) made)",
                            failures,
                        )
                    attempt_timeout = min(self.timeout_s, remaining)
                    if data:
                        extra_headers[protocol.DEADLINE_HEADER] = (
                            f"{remaining * 1e3:.1f}"
                        )
                target = candidates[attempt % len(candidates)]
                send_binary = (
                    data
                    and (
                        self.wire == "binary"
                        or (self.wire == "auto" and target.binary_seen)
                    )
                )
                if body is None and not arrays:
                    encoded, content_type = None, protocol.JSON_CONTENT_TYPE
                elif send_binary:
                    encoded = protocol.encode_frame(body or {}, arrays or {})
                    content_type = protocol.BINARY_CONTENT_TYPE
                else:
                    merged = dict(body or {})
                    for name, array in (arrays or {}).items():
                        merged[name] = array.tolist()
                    encoded = protocol.dump_json(merged)
                    content_type = protocol.JSON_CONTENT_TYPE
                retry_after: float | None = None
                try:
                    status, payload, lsn_served = target.request(
                        method,
                        path,
                        encoded,
                        content_type,
                        accept,
                        attempt_timeout,
                        fresh=not idempotent,
                        extra_headers=extra_headers,
                    )
                except OSError as error:
                    failures[target.base_url] = f"{type(error).__name__}: {error}"
                    attempt_log.append(
                        {
                            "attempt": attempt,
                            "replica": target.base_url,
                            "error": f"{type(error).__name__}: {error}",
                        }
                    )
                    if not idempotent:
                        # Transport errors on a write are ambiguous — the
                        # server may or may not have applied it.  Never retry.
                        raise ServingUnavailable(
                            f"{path} failed and is not retryable", failures
                        ) from error
                else:
                    if status < 400:
                        if min_lsn is not None and (
                            lsn_served is None or lsn_served < min_lsn
                        ):
                            # Read-your-writes guard: this replica answered
                            # from state older than the caller's floor.  Try
                            # another replica; the final error is a structured
                            # retryable 503 so callers can back off and retry.
                            failures[target.base_url] = (
                                f"stale read (lsn_served={lsn_served},"
                                f" min_lsn={min_lsn})"
                            )
                            attempt_log.append(
                                {
                                    "attempt": attempt,
                                    "replica": target.base_url,
                                    "status": status,
                                    "stale_lsn_served": lsn_served,
                                }
                            )
                            last_503 = ApiError(
                                503,
                                "stale_read",
                                f"{path} answered at lsn {lsn_served},"
                                f" below the requested floor {min_lsn}",
                                details={
                                    "required_min_lsn": int(min_lsn),
                                    "lsn_served": lsn_served,
                                },
                            )
                        else:
                            attempt_log.append(
                                {
                                    "attempt": attempt,
                                    "replica": target.base_url,
                                    "status": status,
                                }
                            )
                            self._check_epoch(
                                payload,
                                write=path
                                in (protocol.UPSERT, protocol.PROMOTE),
                            )
                            return payload
                    else:
                        error = ApiError.from_body(status, payload)
                        attempt_log.append(
                            {
                                "attempt": attempt,
                                "replica": target.base_url,
                                "status": status,
                                "code": error.code,
                            }
                        )
                        if status != 503:
                            raise error
                        if (
                            not idempotent
                            and error.code not in _SAFE_UPSERT_RETRY_CODES
                        ):
                            # A 503 we can't prove was raised before the log
                            # write — retrying could double-apply.
                            raise error
                        last_503 = error
                        failures[target.base_url] = f"503 {error.code}"
                        hint = error.details.get("retry_after_s")
                        if isinstance(hint, (int, float)) and hint >= 0:
                            retry_after = float(hint)
                if attempt + 1 < attempts:
                    # The server's retry_after_s hint (e.g. from a 503
                    # log_full while the compactor drains) overrides the
                    # client's own exponential schedule for this sleep.
                    sleep = retry_after if retry_after is not None else backoff
                    if deadline is not None:
                        # Never sleep past the budget; the expiry check at the
                        # top of the loop turns a spent budget into the error.
                        sleep = min(
                            sleep, max(0.0, deadline - time.perf_counter())
                        )
                    if sleep > 0:
                        time.sleep(sleep)
                    backoff *= 2
            if deadline is not None and deadline - time.perf_counter() <= 0:
                raise DeadlineExceeded(
                    f"budget of {timeout_s}s spent before {path} was answered"
                    f" ({attempts} attempt(s) made)",
                    failures,
                )
            if last_503 is not None:
                # The server's structured refusal (e.g. ``draining``) beats a
                # generic wrapper — callers can branch on its code.
                raise last_503
            raise ServingUnavailable(
                f"all {attempts} attempt(s) at {path} failed", failures
            )
        finally:
            with self._trace_lock:
                self._trace_ring.append(
                    {
                        "request_id": request_id,
                        "method": method,
                        "path": path,
                        "attempts": attempt_log,
                    }
                )

    # -- read endpoints ------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", protocol.HEALTHZ)

    def describe(self) -> dict:
        return self._request("GET", protocol.DESCRIBE)

    def metrics(self) -> dict:
        return self._request("GET", protocol.METRICS)

    def top_k(
        self,
        node: int,
        k: int = 10,
        *,
        filter: NodeFilter | dict | None = None,
        timeout_s: float | None = None,
        min_lsn: int | None = None,
    ) -> HTTPQueryResult:
        start = time.perf_counter()
        body = {"node": _as_given(node), "k": _as_given(k)}
        _merge_filter(body, filter)
        payload = self._request(
            "POST", protocol.TOPK, body, timeout_s=timeout_s, min_lsn=min_lsn
        )
        version, ids, scores, server_latency, cached = (
            protocol.parse_result_payload(payload)
        )
        return HTTPQueryResult(
            version=version,
            ids=ids,
            scores=scores,
            latency_s=time.perf_counter() - start,
            server_latency_s=server_latency,
            cached=cached,
        )

    def similar_by_vector(
        self,
        vector: np.ndarray | Sequence[float],
        k: int = 10,
        *,
        filter: NodeFilter | dict | None = None,
        timeout_s: float | None = None,
        min_lsn: int | None = None,
    ) -> HTTPQueryResult:
        start = time.perf_counter()
        body: dict = {"k": _as_given(k)}
        _merge_filter(body, filter)
        query = np.asarray(vector, dtype=np.float64).ravel()
        payload = self._request(
            "POST", protocol.SIMILAR, body,
            arrays={"vector": query}, timeout_s=timeout_s, min_lsn=min_lsn,
        )
        version, ids, scores, server_latency, _ = (
            protocol.parse_result_payload(payload)
        )
        return HTTPQueryResult(
            version=version,
            ids=ids,
            scores=scores,
            latency_s=time.perf_counter() - start,
            server_latency_s=server_latency,
        )

    def batch_top_k(
        self,
        nodes: Sequence[int],
        k: int = 10,
        *,
        filter: NodeFilter | dict | None = None,
        timeout_s: float | None = None,
        min_lsn: int | None = None,
    ) -> HTTPQueryResult:
        """Top-k for a node batch, fanned out across the replicas.

        The batch is split into ``min(n_replicas, len(nodes))`` contiguous
        chunks issued concurrently (one thread per chunk, each pinned to
        its own replica but free to fail over); rows come back in caller
        order.  All chunks must be answered from the same store version —
        a mid-swap skew raises ``replica_version_skew`` instead of
        returning rows that mix versions.
        """
        start = time.perf_counter()
        nodes = np.asarray(nodes)  # uncast: the server's validator decides
        if nodes.size == 0:
            raise ValueError("batch_top_k needs at least one node")

        def submit(chunk: np.ndarray, prefer: int) -> dict:
            body: dict = {"k": _as_given(k)}
            _merge_filter(body, filter)
            return self._request(
                "POST", protocol.TOPK_BATCH, body,
                arrays={"nodes": chunk}, prefer=prefer, timeout_s=timeout_s,
                min_lsn=min_lsn,
            )

        n_chunks = min(len(self.replicas), int(nodes.size))
        if n_chunks == 1:
            payloads = [submit(nodes, 0)]
        else:
            chunks = np.array_split(nodes, n_chunks)
            payloads: list[dict | None] = [None] * n_chunks
            errors: list[BaseException | None] = [None] * n_chunks

            def work(index: int) -> None:
                # Preferred replica per chunk spreads the load; retries
                # inside _request still fail over to the full set.
                try:
                    payloads[index] = submit(chunks[index], index)
                except BaseException as error:  # re-raised on the caller
                    errors[index] = error

            threads = [
                threading.Thread(target=work, args=(i,), daemon=True)
                for i in range(n_chunks)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for error in errors:
                if error is not None:
                    raise error

        versions = {payload["version"] for payload in payloads}
        if len(versions) > 1:
            raise ApiError(
                409, "replica_version_skew",
                "batch chunks were answered from different store versions",
                {"versions": sorted(versions)},
            )
        parts = [protocol.parse_result_payload(payload) for payload in payloads]
        ids = np.vstack([part[1] for part in parts])
        scores = np.vstack([part[2] for part in parts])
        return HTTPQueryResult(
            version=next(iter(versions)),
            ids=ids,
            scores=scores,
            latency_s=time.perf_counter() - start,
            # Chunks ran concurrently on different replicas: the slowest
            # one is the server-side critical path (summing would put
            # server time above the client wall clock).
            server_latency_s=float(max(part[3] for part in parts)),
            queries=int(nodes.size),
        )

    # -- write path ----------------------------------------------------
    def upsert(
        self,
        *,
        add_edges=None,
        remove_edges=None,
        add_associations=None,
        remove_associations=None,
        timeout_s: float | None = None,
    ) -> dict:
        """Durably append graph changes via ``POST /v1/upsert``.

        Non-idempotent, so retries are restricted to the structured
        503s the server provably raised *before* touching the log
        (``log_full``, ``draining``, ``deadline_exceeded``) — those
        cannot double-apply, and the server's ``retry_after_s`` hint
        paces the resend.  Any other failure gets exactly one attempt,
        on a fresh connection.  A connection error here does *not*
        mean the write was lost — the append may have become durable
        before the ack died — so callers reconcile through
        ``lsn_durable`` (``healthz``/``describe``) instead of blindly
        resending.

        Returns the server's ack, e.g. ``{"lsn": 42, "first_lsn": 41,
        "events": 2, "durable": true, "lsn_served": 17}``; the named
        LSNs are fsync'd before the ack is sent.  Arrays ride the
        binary frame format when negotiated, JSON otherwise.
        """
        # Sent as given, uncast: the server's GraphDelta.check decides what
        # an id is, so [[0.7, 1.0]] gets the 400 its raw body would.
        changes = {
            "add_edges": add_edges,
            "remove_edges": remove_edges,
            "add_associations": add_associations,
            "remove_associations": remove_associations,
        }
        arrays = {
            name: np.asarray(rows) for name, rows in changes.items() if rows is not None
        }
        if not arrays:
            raise ValueError("upsert requires at least one change")
        return self._request(
            "POST", protocol.UPSERT, {}, arrays=arrays, timeout_s=timeout_s
        )

    # -- admin ---------------------------------------------------------
    def refresh(self, *, version: str | None = None) -> dict:
        """Drive ``POST /admin/refresh`` (never retried — not idempotent).

        Follows the store's ``LATEST`` or pins ``version``; graph changes
        go through :meth:`upsert`, the only write path.
        """
        body: dict = {}
        if version is not None:
            body["version"] = version
        return self._request("POST", protocol.REFRESH, body)

    def promote(self, *, epoch: int | None = None, prefer: int = 0) -> dict:
        """Promote a standby via ``POST /admin/promote`` (one attempt).

        ``prefer`` picks which replica to promote (the usual rotation —
        during failover the dead primary is skipped by pointing this at
        the surviving standby).  ``epoch`` forces a specific new term;
        by default the server bumps past every epoch it has seen.  The
        ack's epoch becomes this client's fencing floor, so replies
        from a not-yet-fenced stale primary raise ``stale_epoch``
        rather than silently accepting un-replicated writes.
        """
        body: dict = {}
        if epoch is not None:
            body["epoch"] = int(epoch)
        return self._request(
            "POST", protocol.PROMOTE, body, prefer=prefer
        )
