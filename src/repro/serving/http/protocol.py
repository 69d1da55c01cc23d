"""Wire protocol for the HTTP serving front-end.

One module owns what crosses the process boundary — request validation,
the structured error envelope, and the result encoding — so the server
(:mod:`repro.serving.http.server`) and the client
(:mod:`repro.serving.http.client`) cannot drift apart.

Design notes:

- **Bit-exact floats.** Scores are transmitted as JSON numbers.  Python
  serializes a float via ``repr`` (shortest round-trip form) and parses
  it back to the identical IEEE-754 bits, so exact top-k over HTTP is
  *bit-identical* to the in-process answer — the property the CI server
  smoke asserts.  The one non-finite value the engine produces, the
  ``-inf`` score of an id ``-1`` padding slot, is encoded as JSON
  ``null`` (standard JSON has no ``Infinity``), and decoded back.
- **Structured errors.** Every non-2xx response carries
  ``{"error": {"code", "message", "details"}}``.  ``code`` is a stable
  machine-readable string (``invalid_request``, ``node_not_found``,
  ``refresh_in_progress``, ``draining``, ...); the HTTP status carries
  the class (400 validation, 404 missing resource, 409 conflict,
  503 unavailable/draining).
- **Binary frames.** The three data endpoints also speak a raw binary
  frame (:data:`BINARY_CONTENT_TYPE`, negotiated via ``Accept`` /
  ``Content-Type``; JSON stays the default and the compatibility
  surface).  A frame is a tiny JSON header for the scalar fields plus
  the raw little-endian bytes of every array — float64 scores cross the
  wire as their exact IEEE-754 bits, so HTTP↔in-process bit-identity
  holds *by construction* rather than by ``repr`` round-trip, and the
  per-element float formatting/parsing cost disappears.  Errors are
  always JSON, whatever the request spoke.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.search.knn import FilterError, NodeFilter
from repro.serving.service import DEFAULT_PARAMS, SearchParams

# v2 has one spelling per thing: the probe width only as
# ``params.nprobe``, writes only through ``/v1/upsert``, and latency in
# ``/metrics`` only as the mergeable ``registry`` families plus count /
# sum documents (no window percentiles).
PROTOCOL_SCHEMA = "repro.serving.http/v2"

# Stable endpoint paths (the server routes on these; the client targets them).
TOPK = "/v1/topk"
TOPK_BATCH = "/v1/topk:batch"
SIMILAR = "/v1/similar_by_vector"
DESCRIBE = "/v1/describe"
UPSERT = "/v1/upsert"
REPLICATE = "/v1/replicate"
HEALTHZ = "/healthz"
METRICS = "/metrics"
REFRESH = "/admin/refresh"
PROMOTE = "/admin/promote"
TRACES = "/debug/traces"

# Endpoints that only read the active snapshot: safe for a client to
# retry on another replica after a connection error or a 503.  UPSERT is
# deliberately absent: an append may have become durable even when the
# ack was lost, so the client never retries it automatically.
READ_ENDPOINTS = frozenset(
    {TOPK, TOPK_BATCH, SIMILAR, DESCRIBE, HEALTHZ, METRICS, TRACES}
)

# Endpoints whose requests/responses carry vectors or id/score arrays —
# the only ones worth (and capable of) speaking the binary frame format.
DATA_ENDPOINTS = frozenset({TOPK, TOPK_BATCH, SIMILAR, UPSERT})

# The negotiated media type for binary frames.  A client *opts in* by
# listing it in ``Accept`` (responses) or using it as the request
# ``Content-Type`` (bodies); a server that predates it simply keeps
# answering JSON, which every client must accept.
BINARY_CONTENT_TYPE = "application/x-repro-frame"
JSON_CONTENT_TYPE = "application/json"

# Request correlation: the client sends one id per *logical* request in
# this header (the same id on every retry/failover attempt); the server
# echoes it on every response and stamps it into every error envelope
# and trace, so one id follows a request across client attempts, the
# handling worker's /debug/traces, and the slow-query log.
REQUEST_ID_HEADER = "X-Request-Id"

# Deadline propagation: the client sends its *remaining* per-request
# budget (milliseconds, recomputed before every attempt) in this header;
# a server that sees the budget already spent sheds the request with a
# structured 503 ``deadline_exceeded`` instead of burning a GEMM on an
# answer nobody is waiting for.
DEADLINE_HEADER = "X-Deadline-Ms"

# Read-freshness: servers with a write path stamp the ``applied_lsn`` of
# the snapshot that answered a data read into this response header, so a
# client's ``min_lsn=`` guard can reject replies from a replica (or a
# freshly promoted standby) that has not yet folded the caller's own
# acked writes.
LSN_HEADER = "X-Lsn-Served"

# The replication feed's response media type: a finite sequence of
# CRC-guarded binary frames (see :mod:`repro.serving.wal.replication`).
REPLICATION_CONTENT_TYPE = "application/x-repro-wal"

_FRAME_MAGIC = b"RPF1"
_FRAME_DTYPES = ("<i8", "<f8")  # the wire is explicitly little-endian 64-bit
_MAX_FRAME_HEADER_BYTES = 1 << 20
_MAX_FRAME_ARRAYS = 16


class ApiError(Exception):
    """A protocol-level failure with a wire representation.

    Raised by request validators and endpoint handlers; the server turns
    it into the structured error JSON, the client re-raises it from the
    parsed body — so both sides of the wire speak the same exception.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        details: dict | None = None,
        request_id: str | None = None,
    ) -> None:
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.details = details or {}
        # The correlation id of the failing request.  Handlers raise
        # without it; the server's dispatch stamps it before the body is
        # written, so *every* wire error envelope carries the id the
        # response header echoes (the regression test for this iterates
        # the error paths).
        self.request_id = request_id

    def body(self) -> dict:
        return {
            "error": {
                "code": self.code,
                "message": self.message,
                "details": self.details,
                "request_id": self.request_id,
            }
        }

    @classmethod
    def from_body(cls, status: int, body: dict) -> "ApiError":
        error = body.get("error", {}) if isinstance(body, dict) else {}
        return cls(
            status,
            error.get("code", "unknown"),
            error.get("message", "unknown error"),
            error.get("details") or {},
            error.get("request_id"),
        )


def parse_json_body(raw: bytes) -> dict:
    """Decode a request/response body; empty bytes mean ``{}``."""
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ApiError(400, "invalid_json", f"body is not valid JSON: {error}")
    if not isinstance(body, dict):
        raise ApiError(
            400, "invalid_request", "body must be a JSON object",
            {"got": type(body).__name__},
        )
    return body


def dump_json(payload: dict) -> bytes:
    """Serialize a response payload (compact separators, UTF-8)."""
    return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode(
        "utf-8"
    )


# -- binary frames -----------------------------------------------------
# Layout:  b"RPF1" | u32 header_len (LE) | header JSON | raw array bytes.
# The header carries the scalar fields plus an ``arrays`` list of
# ``{"name", "dtype", "shape"}`` descriptors; the array payloads follow
# concatenated in descriptor order, C-contiguous, little-endian.  Only
# ``<i8`` (ids/nodes) and ``<f8`` (vectors/scores) are legal on the
# wire, so a frame is unambiguous regardless of either side's platform.


def encode_frame(header: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize scalar fields + named arrays into one binary frame."""
    descriptors = []
    blobs = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        if array.dtype.kind == "f":
            wire = array.astype("<f8", copy=False)
        elif array.dtype.kind in "iu":
            wire = array.astype("<i8", copy=False)
        else:
            raise ValueError(f"array {name!r} has unframeable dtype {array.dtype}")
        descriptors.append(
            {"name": name, "dtype": wire.dtype.str, "shape": list(wire.shape)}
        )
        blobs.append(wire.tobytes())
    head = dict(header)
    head["arrays"] = descriptors
    head_bytes = dump_json(head)
    return b"".join(
        [_FRAME_MAGIC, struct.pack("<I", len(head_bytes)), head_bytes, *blobs]
    )


def _frame_error(message: str, details: dict | None = None) -> ApiError:
    return ApiError(400, "invalid_frame", message, details)


def decode_frame(raw: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a binary frame into (header dict, name → array).

    Every malformation — bad magic, truncated header, unknown dtype,
    byte count that disagrees with the declared shapes — raises
    :class:`ApiError` with the stable code ``invalid_frame``, so a
    client feeding garbage gets the same structured 400 envelope a
    malformed JSON body would.
    """
    if len(raw) < 8 or raw[:4] != _FRAME_MAGIC:
        raise _frame_error("not a binary frame (bad magic)")
    (header_len,) = struct.unpack("<I", raw[4:8])
    if header_len > _MAX_FRAME_HEADER_BYTES or 8 + header_len > len(raw):
        raise _frame_error(
            "frame header length out of bounds", {"header_len": header_len}
        )
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _frame_error(f"frame header is not valid JSON: {error}")
    if not isinstance(header, dict):
        raise _frame_error("frame header must be a JSON object")
    descriptors = header.pop("arrays", [])
    if not isinstance(descriptors, list) or len(descriptors) > _MAX_FRAME_ARRAYS:
        raise _frame_error("frame 'arrays' must be a short descriptor list")
    arrays: dict[str, np.ndarray] = {}
    offset = 8 + header_len
    for descriptor in descriptors:
        if (
            not isinstance(descriptor, dict)
            or not isinstance(descriptor.get("name"), str)
            or descriptor.get("dtype") not in _FRAME_DTYPES
            or not isinstance(descriptor.get("shape"), list)
        ):
            raise _frame_error("malformed array descriptor", {"got": descriptor})
        shape = descriptor["shape"]
        if len(shape) > 2 or not all(
            isinstance(extent, int) and 0 <= extent <= 2**32 for extent in shape
        ):
            raise _frame_error("array shape must be 1-D or 2-D non-negative ints")
        count = math.prod(shape)  # python ints: no overflow games via shape
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise _frame_error(
                "frame truncated: array bytes exceed the body",
                {"array": descriptor["name"]},
            )
        arrays[descriptor["name"]] = np.frombuffer(
            raw, dtype=descriptor["dtype"], count=count, offset=offset
        ).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise _frame_error(
            "frame has trailing bytes past the declared arrays",
            {"extra_bytes": len(raw) - offset},
        )
    return header, arrays


def decode_frame_body(raw: bytes) -> dict:
    """A decoded frame as one request-body dict (header fields + arrays).

    The server-side mirror of :func:`parse_json_body`: handlers see one
    flat dict either way, with array-valued fields as ndarrays instead
    of JSON lists.  A name collision between a header field and an array
    would silently shadow one of them — refuse instead.
    """
    header, arrays = decode_frame(raw)
    overlap = sorted(set(header) & set(arrays))
    if overlap:
        raise _frame_error("field appears as both header and array", {"names": overlap})
    header.update(arrays)
    return header


# -- field validators --------------------------------------------------
def require_int(
    body: dict,
    name: str,
    *,
    default: int | None = None,
    required: bool = False,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int | None:
    value = body.get(name)
    if value is None:
        if required:
            raise ApiError(400, "invalid_request", f"missing field {name!r}")
        return default
    # bool subclasses int; `"node": true` must not pass as node 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(
            400, "invalid_request", f"field {name!r} must be an integer",
            {name: value},
        )
    if minimum is not None and value < minimum:
        raise ApiError(
            400, "invalid_request", f"field {name!r} must be >= {minimum}",
            {name: value},
        )
    if maximum is not None and value > maximum:
        raise ApiError(
            400, "invalid_request", f"field {name!r} must be <= {maximum}",
            {name: value},
        )
    return value


def require_int_list(body: dict, name: str, *, max_items: int) -> list[int]:
    value = body.get(name)
    if not isinstance(value, list) or not value:
        raise ApiError(
            400, "invalid_request", f"field {name!r} must be a non-empty list"
        )
    if len(value) > max_items:
        raise ApiError(
            400, "invalid_request",
            f"field {name!r} exceeds the {max_items}-item limit",
            {"items": len(value)},
        )
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ApiError(
                400, "invalid_request",
                f"field {name!r} must contain only integers", {name: item},
            )
    return value


def require_float_list(body: dict, name: str, *, max_items: int) -> list[float]:
    value = body.get(name)
    if not isinstance(value, list) or not value:
        raise ApiError(
            400, "invalid_request", f"field {name!r} must be a non-empty list"
        )
    if len(value) > max_items:
        raise ApiError(
            400, "invalid_request",
            f"field {name!r} exceeds the {max_items}-item limit",
            {"items": len(value)},
        )
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ApiError(
                400, "invalid_request",
                f"field {name!r} must contain only numbers", {name: item},
            )
        if not math.isfinite(item):
            raise ApiError(
                400, "invalid_request",
                f"field {name!r} must contain only finite numbers",
            )
        out.append(float(item))
    return out


def require_vector_field(body: dict, name: str, *, max_items: int) -> np.ndarray:
    """A float vector field from either wire format → 1-D float64 array.

    JSON bodies carry it as a number list (validated element-wise);
    binary frames deliver an ndarray directly — validate shape, dtype
    and finiteness vectorized, without a per-element Python loop.
    """
    value = body.get(name)
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            raise ApiError(
                400, "invalid_request",
                f"field {name!r} must be a float64 array",
                {"dtype": str(value.dtype)},
            )
        if value.ndim != 1 or value.size == 0:
            raise ApiError(
                400, "invalid_request", f"field {name!r} must be a non-empty vector"
            )
        if value.size > max_items:
            raise ApiError(
                400, "invalid_request",
                f"field {name!r} exceeds the {max_items}-item limit",
                {"items": int(value.size)},
            )
        if not np.isfinite(value).all():
            raise ApiError(
                400, "invalid_request",
                f"field {name!r} must contain only finite numbers",
            )
        return value
    return np.asarray(
        require_float_list(body, name, max_items=max_items), dtype=np.float64
    )


def require_node_field(body: dict, name: str, *, max_items: int) -> np.ndarray:
    """A node-id list field from either wire format → 1-D intp array."""
    value = body.get(name)
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "i":
            raise ApiError(
                400, "invalid_request",
                f"field {name!r} must be an integer array",
                {"dtype": str(value.dtype)},
            )
        if value.ndim != 1 or value.size == 0:
            raise ApiError(
                400, "invalid_request",
                f"field {name!r} must be a non-empty id list",
            )
        if value.size > max_items:
            raise ApiError(
                400, "invalid_request",
                f"field {name!r} exceeds the {max_items}-item limit",
                {"items": int(value.size)},
            )
        return value.astype(np.intp, copy=False)
    return np.asarray(
        require_int_list(body, name, max_items=max_items), dtype=np.intp
    )


#: Cap on ids per filter family (allow / deny / partitions) on the wire.
MAX_FILTER_IDS = 65536

#: The optional predicate/tuning fields every data endpoint accepts in
#: addition to its own shape fields.  ``filter_allow``/``filter_deny``
#: are the binary-frame spelling of large id sets: raw ``<i8`` arrays
#: instead of JSON integer lists (they merge into the ``filter`` object
#: server-side and are rejected on JSON bodies).
SEARCH_OPTION_FIELDS = ("filter", "params", "filter_allow", "filter_deny")


def parse_filter_field(body: dict) -> NodeFilter | None:
    """The request's ``"filter"`` object (+ frame id arrays) → NodeFilter.

    Accepts the JSON object form on both wire formats; binary frames may
    additionally (or instead) carry ``filter_allow`` / ``filter_deny``
    as raw ``<i8`` arrays, which merge into the object's ``allow`` /
    ``deny`` families.  Any malformation raises :class:`ApiError` with
    the stable ``invalid_filter`` code.  Returns ``None`` when the
    request carries no constraint (absent or no-op filter), so the
    service's unfiltered fast path stays untouched.
    """
    obj = body.get("filter")
    frame_allow = body.get("filter_allow")
    frame_deny = body.get("filter_deny")
    if obj is None and frame_allow is None and frame_deny is None:
        return None
    if obj is not None and not isinstance(obj, dict):
        raise ApiError(
            400, "invalid_filter", "field 'filter' must be an object",
            {"got": type(obj).__name__},
        )
    spec = dict(obj or {})
    for name, array in (("allow", frame_allow), ("deny", frame_deny)):
        if array is None:
            continue
        if not isinstance(array, (np.ndarray, list)):
            raise ApiError(
                400, "invalid_filter",
                f"field 'filter_{name}' must be an id array or list",
                {"got": type(array).__name__},
            )
        if isinstance(array, np.ndarray) and array.ndim != 1:
            raise ApiError(
                400, "invalid_filter", f"field 'filter_{name}' must be 1-D",
                {"shape": list(array.shape)},
            )
        if name in spec:
            raise ApiError(
                400, "invalid_filter",
                f"filter.{name} and the filter_{name} array are mutually "
                "exclusive",
            )
        spec[name] = array
    try:
        node_filter = NodeFilter.from_json(spec)
    except FilterError as error:
        raise ApiError(400, "invalid_filter", str(error))
    for name, ids in (
        ("allow", node_filter.allow),
        ("deny", node_filter.deny),
        ("partitions", node_filter.partitions),
    ):
        if ids is not None and len(ids) > MAX_FILTER_IDS:
            raise ApiError(
                400, "invalid_filter",
                f"filter {name!r} exceeds the {MAX_FILTER_IDS}-id limit",
                {"items": len(ids)},
            )
    return None if node_filter.is_noop else node_filter


def parse_params_field(body: dict):
    """The request's ``"params"`` object → SearchParams.

    Malformed params are an ``invalid_request`` (unlike filters they
    have no dedicated error code).
    """
    obj = body.get("params")
    if obj is None:
        return DEFAULT_PARAMS
    try:
        return SearchParams.from_json(obj)
    except ValueError as error:
        raise ApiError(400, "invalid_request", str(error))


def encode_filter(
    node_filter, *, binary: bool = False
) -> tuple[dict, dict[str, np.ndarray]]:
    """A filter's wire parts: (JSON body fields, binary-frame arrays).

    The client-side mirror of :func:`parse_filter_field`.  JSON bodies
    carry the whole object under ``"filter"``; binary frames move the
    (potentially large) ``allow``/``deny`` id sets out of the JSON
    header into raw ``filter_allow``/``filter_deny`` arrays.
    """
    if node_filter is None:
        return {}, {}
    obj = (
        node_filter.to_json()
        if isinstance(node_filter, NodeFilter)
        else dict(node_filter)
    )
    if not binary:
        return ({"filter": obj} if obj else {}), {}
    arrays: dict[str, np.ndarray] = {}
    for name in ("allow", "deny"):
        ids = obj.pop(name, None)
        if ids is not None:
            arrays[f"filter_{name}"] = np.asarray(ids, dtype=np.int64)
    return ({"filter": obj} if obj else {}), arrays


def reject_unknown_fields(body: dict, allowed: Sequence[str]) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ApiError(
            400, "invalid_request", "unknown request fields",
            {"unknown": unknown, "allowed": sorted(allowed)},
        )


# -- result encoding ---------------------------------------------------
def encode_scores(scores: np.ndarray) -> list:
    """Float scores → JSON list; ``-inf`` padding becomes ``null``."""
    return [None if s == -np.inf else s for s in scores.tolist()]


def decode_scores(values: Sequence[Any]) -> np.ndarray:
    """JSON score list → float64 array; ``null`` becomes ``-inf``."""
    return np.array(
        [-np.inf if v is None else float(v) for v in values], dtype=np.float64
    )


def encode_result(result) -> dict:
    """A single :class:`~repro.serving.service.QueryResult` row → wire dict."""
    payload = {
        "version": result.version,
        "ids": [int(i) for i in result.ids.tolist()],
        "scores": encode_scores(result.scores),
        "cached": bool(result.cached),
        "latency_s": float(result.latency_s),
    }
    if getattr(result, "group", None) is not None:
        payload["group"] = int(result.group)
    return payload


def encode_batch_result(result) -> dict:
    """A stacked batch :class:`QueryResult` → wire dict (row-major)."""
    return {
        "version": result.version,
        "ids": [[int(i) for i in row] for row in result.ids.tolist()],
        "scores": [encode_scores(row) for row in np.atleast_2d(result.scores)],
        "latency_s": float(result.latency_s),
    }


class ResultPayload:
    """A data-endpoint answer before a wire format is chosen.

    Handlers return one of these; the dispatch layer encodes it as JSON
    (:meth:`to_json`, the compatibility default) or as a binary frame
    (:meth:`to_frame`) depending on what the request's ``Accept``
    negotiated.  One object, two encodings — the response content can
    never differ between formats except in representation.
    """

    def __init__(self, result) -> None:
        self.result = result

    def to_json(self) -> dict:
        if self.result.ids.ndim == 1:
            return encode_result(self.result)
        return encode_batch_result(self.result)

    def to_frame(self) -> bytes:
        result = self.result
        header: dict = {
            "version": result.version,
            "latency_s": float(result.latency_s),
        }
        if result.ids.ndim == 1:
            header["cached"] = bool(result.cached)
        if getattr(result, "group", None) is not None:
            header["group"] = int(result.group)
        # Raw float64 score bytes: -inf padding needs no null mapping,
        # and bit-identity with the in-process answer is structural.
        return encode_frame(
            header, {"ids": result.ids, "scores": result.scores}
        )


class RawPayload(NamedTuple):
    """An answer that is already bytes (the replication feed, Prometheus
    text): sent as-is under its own content type, never a JSON envelope."""

    data: bytes
    content_type: str


def parse_result_payload(payload: dict) -> tuple:
    """Normalize a JSON or frame-decoded response into result arrays.

    Returns ``(version, ids, scores, server_latency_s, cached, group)``
    with ``ids`` as intp and ``scores`` as float64 ndarrays, whichever
    wire format delivered them — the client's single decoding path.
    """
    ids = payload["ids"]
    scores = payload["scores"]
    if isinstance(ids, np.ndarray):
        ids = ids.astype(np.intp, copy=False)
        scores = np.asarray(scores, dtype=np.float64)
    elif ids and isinstance(ids[0], list):
        ids = np.asarray(ids, dtype=np.intp)
        scores = np.vstack([decode_scores(row) for row in scores])
    else:
        ids = np.asarray(ids, dtype=np.intp)
        scores = decode_scores(scores)
    return (
        payload["version"],
        ids,
        scores,
        float(payload["latency_s"]),
        bool(payload.get("cached", False)),
        payload.get("group"),
    )
