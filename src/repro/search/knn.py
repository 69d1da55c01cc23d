"""Cosine k-nearest-neighbor search over embedding matrices.

The classic downstream use of node embeddings: "find nodes like this one".
This module is the *exact* search engine: brute-force dense scoring with
certified candidate selection, tiled over queries so a batch never
materializes more than ``tile × n`` scores at once.  The serving layer
(:mod:`repro.serving.index`) wraps it as the ``ExactBackend``, its one
search backend.

All entry points accept ``assume_normalized=True`` for inputs whose rows
are already unit-length (e.g. matrices published by
:class:`repro.serving.store.EmbeddingStore`), which skips the per-call
re-normalization of the full matrix.

Returned similarities are **canonical**: candidates are *selected* with a
BLAS GEMM (fast, but its partial edge tiles make element values depend on
the matrix's row count), then the candidates are *rescored* with
:func:`rowwise_inner`, whose reduction depends only on the row bytes.  Two
engines scoring the same (row, query) pair therefore return the same
float64 bits regardless of how many other rows sit in their matrices —
the property the sharded scatter-gather router
(:mod:`repro.serving.sharding.router`) relies on to merge per-shard
results into a global top-k bit-identical to unsharded search.  Ties are
broken by ascending row id, which is partition-invariant too.

Selection is **certified** (:func:`select_band`): the GEMM runs in the
dtype of the matrix it is given (float32 or float64), and every row whose
selection score lies within the rounding bound :func:`certified_band` of
the k-th best is a candidate.  No row of the true top-k (by canonical
score, ties by id) can fall outside that band, so the rescored answer
equals a full float64 ranking by construction, whatever the selection
dtype or the BLAS summation order.  The k-th best is exact without a
partition of the whole row: the k column groups with the largest maxima
hold k scores at or above it, so only their columns are partitioned, and
the band is read by flat index.
"""

from __future__ import annotations

import hashlib

import numpy as np

# ``pairwise_cosine`` materializes n² float64 similarities; refuse beyond
# this many elements (2**27 ≈ 134M entries ≈ 1 GiB) unless overridden.
MAX_PAIRWISE_ELEMENTS = 2**27

# Query rows per tile in batched exact search: bounds the transient
# ``tile × n`` score block (128 × 1M nodes ≈ 1 GiB) independent of batch size.
DEFAULT_TILE_SIZE = 128

# Query tiles of more than one and fewer than this many rows score one
# GEMV per row instead of one GEMM: OpenBLAS sgemm packs the whole
# selection matrix on every call, which costs more than the product itself
# until a tile has about 8 rows (docs/PERFORMANCE.md § Admission); numpy
# already multiplies a single row by GEMV.  The certified band covers any summation order, so the choice
# never changes an answer.
_GEMV_ROWS = 8

# Elements gathered per canonical-rescore chunk (bounds the ``rows × dim``
# copies, 2 MiB each, when a band of near-ties holds a large fraction of
# the rows).
_RESCORE_CHUNK_ELEMENTS = 2**18

# Band candidates rescored at once (≈ 60 bytes of bookkeeping each).  A
# tile whose bands hold more — zero queries, which tie every row, or a
# duplicate-heavy corpus — is rescored a few queries at a time; one
# query's band is never split.
_BAND_CANDIDATES = 2**16

# Unit roundoff and smallest subnormal of each selection dtype.
_ROUNDING = {
    np.dtype(np.float64): (2.0**-53, 2.0**-1074),
    np.dtype(np.float32): (2.0**-24, 2.0**-149),
}


def _gamma(n: int, unit: float) -> float:
    """Higham's ``γ_n = n·u / (1 − n·u)``: the relative error bound of an
    ``n``-term dot product in any summation order."""
    return n * unit / (1.0 - n * unit)


def certified_band(dim: int, dtype) -> float:
    """How far below the k-th best selection score a true top-k row can sit.

    For unit rows ``x`` and a unit query ``q`` of ``dim`` elements, a
    selection score ``s`` computed in ``dtype`` (operands rounded to it,
    then any BLAS summation order) and the canonical float64 score ``c``
    satisfy ``|s − c| ≤ δ = γ_{d+2}(1+u)² + 2u + u² + γ⁶⁴_{d+2}``, where
    ``u`` is the unit roundoff of ``dtype`` and the cast terms vanish for
    float64.  If ``t`` is the k-th best selection score, at least ``k``
    rows have canonical score ``≥ t − δ``, so every row of the canonical
    top-k has ``s ≥ t − 2δ``.  ``d + 2`` rather than ``d`` absorbs the
    float64 rows' own norm error; the last term covers products that
    underflow into subnormals.
    """
    dtype = np.dtype(dtype)
    if dtype not in _ROUNDING:
        raise ValueError(f"selection dtype must be float32 or float64, got {dtype}")
    unit, subnormal = _ROUNDING[dtype]
    cast = 0.0 if dtype == np.float64 else unit
    terms = dim + 2
    delta = (
        _gamma(terms, unit) * (1 + cast) ** 2
        + 2 * cast
        + cast**2
        + _gamma(terms, 2.0**-53)
    )
    return 2 * delta + 2 * terms * subnormal


def select_band(scores: np.ndarray, k: int, dim: int) -> np.ndarray:
    """Boolean ``(q, m)`` mask of every candidate in each row's certified band.

    ``scores`` is ``(q, m)`` selection scores of ``dim``-element unit
    vectors, in the dtype they were computed in (higher is better,
    ``-inf`` masks a column).  A column is a candidate when its score is
    at least the row's ``k``-th best minus :func:`certified_band`, so the
    canonical top-k (ties by id) is always among a row's candidates and a
    row has at least ``k`` of them.  Masked columns are candidates only
    when a row has fewer than ``k`` live ones; callers drop them by their
    ``-inf`` score.  The one place that decides what the exact engine
    rescores.

    The ``k``-th best ``t`` is found without partitioning the whole row.
    The row's first ``g·L`` columns fall into ``L ≥ k`` disjoint strided
    groups of ``g = min(64, m // k)``.  The ``k``-th largest group maximum
    ``b`` is reached by ``k`` distinct columns, so ``b ≤ t``: a lower
    bound.  If ``b < t``, every column at or above ``t`` lies in one of
    the ``k`` groups with the largest maxima (any other group tops out at
    ``b``); if ``b = t``, each of those ``k`` groups holds one.  Either
    way their ``k·g`` columns, with the ``< g`` columns past the last
    group, hold ``k`` scores at or above ``t``, so a partition of just
    those gives ``t`` exactly — ties, ``-inf`` and NaN (ranked above
    everything, as ``np.partition`` ranks it) included.
    """
    q, m = scores.shape
    size = max(1, min(64, m // k))
    groups = m // size
    grouped = scores[:, : size * groups].reshape(q, size, groups)
    top = np.argpartition(grouped.max(axis=1), groups - k, axis=1)[:, groups - k :]
    rows = np.arange(q)[:, np.newaxis, np.newaxis]
    members = grouped[rows, np.arange(size)[:, np.newaxis], top[:, np.newaxis]]
    above = np.concatenate((members.reshape(q, -1), scores[:, size * groups :]), axis=1)
    kth = np.partition(above, above.shape[1] - k, axis=1)[:, above.shape[1] - k]
    # In float64, one ulp down for the subtraction's own rounding, then
    # rounded down into the selection dtype: the band is never narrower.
    exact = np.nextafter(
        kth.astype(np.float64) - certified_band(dim, scores.dtype), -np.inf
    )
    limit = exact.astype(scores.dtype)
    limit = np.where(
        limit > exact, np.nextafter(limit, scores.dtype.type(-np.inf)), limit
    )
    return scores >= limit[:, np.newaxis]


def normalize_rows(features: np.ndarray) -> np.ndarray:
    """Rows of ``features`` scaled to unit L2 norm (zero rows left zero)."""
    features = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    return features / np.where(norms == 0, 1.0, norms)


def rowwise_inner(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Per-row inner products whose bits depend only on each row's bytes.

    ``np.einsum('ij,ij->i')`` reduces every row independently with a fixed
    sequential kernel, so — unlike a BLAS GEMM, whose partial edge tiles
    compute the last ``n % tile`` rows with a different instruction mix —
    the result for a given (row, other) pair is identical no matter how
    the rows are batched or which sub-matrix they were sliced from.  Both
    operands are made contiguous so stride games can't change the kernel.
    """
    return np.einsum(
        "ij,ij->i", np.ascontiguousarray(rows), np.ascontiguousarray(others)
    )


def top_k_sorted_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of a 1-D score vector, descending.

    ``argpartition`` + a sort of only the selected ``k`` — O(n + k log k)
    instead of the O(n log n) full sort.  Fully deterministic: equal
    scores order by ascending index, *including* ties that straddle the
    selection boundary (``argpartition`` picks those arbitrarily, so they
    are repaired against the boundary value) — the property that keeps
    results identical no matter how the corpus is sliced into shards.
    """
    k = min(k, scores.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    top = np.argpartition(-scores, k - 1)[:k]
    boundary = scores[top].min()
    if np.count_nonzero(scores == boundary) > np.count_nonzero(
        scores[top] == boundary
    ):
        definite = np.nonzero(scores > boundary)[0]
        tied = np.nonzero(scores == boundary)[0][: k - definite.size]
        top = np.concatenate([definite, tied])
    top = np.sort(top)  # ascending index, so the stable sort breaks ties by it
    return top[np.argsort(-scores[top], kind="stable")]


# Filtered exact search switches from "score everything, mask the rest"
# to "gather the allowed rows and search the subset" once the filter keeps
# at most this fraction of the population: below it the gather+GEMM over
# the subset is cheaper than a full-matrix GEMM whose columns are mostly
# discarded.
_GATHER_SELECTIVITY = 0.125


class FilterError(ValueError):
    """A :class:`NodeFilter` that cannot be parsed or compiled.

    Subclasses ``ValueError`` so in-process callers keep catching what
    they always did, while the HTTP layer can map exactly the filter
    failures (and nothing else) onto the wire's ``invalid_filter`` code.
    """


def _validate_id_array(ids, name: str) -> np.ndarray | None:
    """Sorted unique non-negative intp ids (``None`` stays ``None``)."""
    if ids is None:
        return None
    arr = np.asarray(ids)
    if arr.dtype == np.bool_ or not np.issubdtype(arr.dtype, np.integer):
        if arr.size and not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            for v in np.ravel(ids)
        ):
            raise ValueError(f"filter {name!r} ids must be integers")
        arr = arr.astype(np.int64) if arr.size else np.empty(0, dtype=np.int64)
    arr = np.unique(arr.astype(np.intp, copy=False).ravel())
    if arr.size and arr[0] < 0:
        raise ValueError(f"filter {name!r} ids must be non-negative")
    return arr


class NodeFilter:
    """A search predicate: which rows of the corpus a query may return.

    The one filter object every layer speaks — the HTTP wire parses JSON
    into it, :class:`~repro.serving.service.QueryService` compiles it
    against the active version, and every backend honors the compiled
    form natively.  Three predicate families compose by intersection:

    - **id sets** — ``allow`` (only these ids) and ``deny`` (never these
      ids); ``deny`` wins where both name an id.
    - **attribute predicates** — ``attributes`` is a tuple of
      ``(attribute_id, min_weight)`` pairs: keep nodes whose estimated
      association with *every* listed attribute is at least the
      threshold.  Resolving the estimate needs the embedding arrays, so
      compiling requires an ``attribute_scores`` resolver.
    - **partition selector** — ``partitions`` restricts to the named
      shards/tenants of a partitioned deployment; compiling requires a
      ``partition_of`` map.

    Instances are immutable; :meth:`key` is a stable content fingerprint
    suitable for cache keys and admission grouping.
    """

    __slots__ = ("allow", "deny", "attributes", "partitions", "_key")

    def __init__(
        self,
        *,
        allow=None,
        deny=None,
        attributes=(),
        partitions=None,
    ) -> None:
        self.allow = _validate_id_array(allow, "allow")
        self.deny = _validate_id_array(deny, "deny")
        pairs = []
        for entry in attributes:
            attribute, min_weight = entry
            if isinstance(attribute, bool) or not isinstance(
                attribute, (int, np.integer)
            ):
                raise ValueError("filter attribute ids must be integers")
            if int(attribute) < 0:
                raise ValueError("filter attribute ids must be non-negative")
            min_weight = float(min_weight)
            if not np.isfinite(min_weight):
                raise ValueError("filter attribute min_weight must be finite")
            pairs.append((int(attribute), min_weight))
        self.attributes = tuple(sorted(set(pairs)))
        parts = _validate_id_array(partitions, "partitions")
        self.partitions = None if parts is None else tuple(int(p) for p in parts)
        if self.allow is not None:
            self.allow.setflags(write=False)
        if self.deny is not None:
            self.deny.setflags(write=False)
        self._key: str | None = None

    # ------------------------------------------------------------------
    @property
    def is_noop(self) -> bool:
        """True when the filter constrains nothing (treat as no filter)."""
        return (
            self.allow is None
            and (self.deny is None or self.deny.size == 0)
            and not self.attributes
            and self.partitions is None
        )

    def key(self) -> str:
        """Stable content fingerprint (hex) for cache keys and admission grouping."""
        if self._key is None:
            digest = hashlib.blake2b(digest_size=16)
            for name, ids in (("allow", self.allow), ("deny", self.deny)):
                if ids is not None:
                    digest.update(name.encode())
                    digest.update(np.asarray(ids, dtype=np.int64).tobytes())
            for attribute, min_weight in self.attributes:
                digest.update(b"attr")
                digest.update(
                    np.array([attribute], dtype=np.int64).tobytes()
                    + np.array([min_weight], dtype=np.float64).tobytes()
                )
            if self.partitions is not None:
                digest.update(b"part")
                digest.update(np.asarray(self.partitions, dtype=np.int64).tobytes())
            self._key = digest.hexdigest()
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, NodeFilter) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        parts = []
        if self.allow is not None:
            parts.append(f"allow[{self.allow.size}]")
        if self.deny is not None:
            parts.append(f"deny[{self.deny.size}]")
        if self.attributes:
            parts.append(f"attributes[{len(self.attributes)}]")
        if self.partitions is not None:
            parts.append(f"partitions{list(self.partitions)}")
        return f"NodeFilter({', '.join(parts) or 'noop'})"

    # -- wire form ------------------------------------------------------
    def to_json(self) -> dict:
        """The wire object (omits absent predicate families)."""
        obj: dict = {}
        if self.allow is not None:
            obj["allow"] = [int(v) for v in self.allow]
        if self.deny is not None:
            obj["deny"] = [int(v) for v in self.deny]
        if self.attributes:
            obj["attributes"] = [
                {"attribute": attribute, "min_weight": min_weight}
                for attribute, min_weight in self.attributes
            ]
        if self.partitions is not None:
            obj["partitions"] = list(self.partitions)
        return obj

    @classmethod
    def from_json(cls, obj) -> "NodeFilter":
        """Parse the wire object; raises :class:`FilterError` on any bad shape."""
        if not isinstance(obj, dict):
            raise FilterError("filter must be a JSON object")
        unknown = set(obj) - {"allow", "deny", "attributes", "partitions"}
        if unknown:
            raise FilterError(f"unknown filter fields: {sorted(unknown)}")
        attributes = []
        raw = obj.get("attributes")
        if raw is not None:
            if not isinstance(raw, list):
                raise FilterError("filter 'attributes' must be a list")
            for entry in raw:
                if not isinstance(entry, dict):
                    raise FilterError("filter attribute entries must be objects")
                extra = set(entry) - {"attribute", "min_weight"}
                if extra:
                    raise FilterError(
                        f"unknown filter attribute fields: {sorted(extra)}"
                    )
                if "attribute" not in entry:
                    raise FilterError("filter attribute entries need 'attribute'")
                attributes.append(
                    (entry["attribute"], entry.get("min_weight", 0.0))
                )
        try:
            return cls(
                allow=obj.get("allow"),
                deny=obj.get("deny"),
                attributes=attributes,
                partitions=obj.get("partitions"),
            )
        except FilterError:
            raise
        except (ValueError, TypeError) as error:
            raise FilterError(str(error)) from error

    # -- compilation ----------------------------------------------------
    def compile(
        self,
        n: int,
        *,
        attribute_scores=None,
        partition_of: np.ndarray | None = None,
    ) -> "CompiledFilter":
        """Resolve the predicate against a population of ``n`` rows.

        ``attribute_scores`` is a callable ``attribute_id -> (n,) float
        scores`` (required when the filter has attribute predicates);
        ``partition_of`` maps row id to partition id (required when the
        filter selects partitions).  Ids outside ``[0, n)`` are simply
        absent from the population: out-of-range ``allow`` entries match
        nothing, out-of-range ``deny`` entries exclude nothing.
        """
        mask = np.ones(n, dtype=bool)
        if self.allow is not None:
            allowed = np.zeros(n, dtype=bool)
            in_range = self.allow[self.allow < n]
            allowed[in_range] = True
            mask &= allowed
        if self.deny is not None and self.deny.size:
            mask[self.deny[self.deny < n]] = False
        for attribute, min_weight in self.attributes:
            if attribute_scores is None:
                raise FilterError(
                    "filter has attribute predicates but this deployment "
                    "has no attribute scorer"
                )
            try:
                scores = np.asarray(attribute_scores(attribute), dtype=np.float64)
            except FilterError:
                raise
            except ValueError as error:
                raise FilterError(str(error)) from error
            if scores.shape != (n,):
                raise ValueError(
                    f"attribute scorer returned shape {scores.shape}, "
                    f"expected ({n},)"
                )
            mask &= scores >= min_weight
        if self.partitions is not None:
            if partition_of is None:
                raise FilterError(
                    "filter selects partitions but this deployment is not "
                    "partitioned"
                )
            partition_of = np.asarray(partition_of)
            if partition_of.shape != (n,):
                raise ValueError(
                    f"partition map has shape {partition_of.shape}, "
                    f"expected ({n},)"
                )
            mask &= np.isin(partition_of, np.asarray(self.partitions))
        return CompiledFilter(mask, key=self.key())


class CompiledFilter:
    """A :class:`NodeFilter` resolved to a boolean row mask.

    The engine-facing form: one bit per corpus row, with the sorted
    allowed-id array derived lazily for backends that prefer id-set form
    (subset gathers, per-list candidate filtering).  ``key`` carries the
    source filter's fingerprint so services can key caches on it.
    """

    __slots__ = ("mask", "key", "n_allowed", "_allowed")

    def __init__(self, mask: np.ndarray, *, key: str = "") -> None:
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.ndim != 1:
            raise ValueError("filter mask must be one-dimensional")
        self.mask.setflags(write=False)
        self.key = key
        self.n_allowed = int(np.count_nonzero(self.mask))
        self._allowed: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    @property
    def selectivity(self) -> float:
        """Fraction of the population the filter keeps (0 = everything denied)."""
        return self.n_allowed / self.n if self.n else 0.0

    def allowed_ids(self) -> np.ndarray:
        """Sorted ids the filter keeps (computed once, then cached)."""
        if self._allowed is None:
            self._allowed = np.nonzero(self.mask)[0]
            self._allowed.setflags(write=False)
        return self._allowed

    def allows(self, ids: np.ndarray) -> np.ndarray:
        """Boolean verdict per id (ids must be in ``[0, n)``)."""
        return self.mask[ids]

    def restrict(self, member_ids: np.ndarray) -> "CompiledFilter":
        """The filter sliced to a sub-population (e.g. one shard's rows).

        ``member_ids[i]`` is the global id of local row ``i``; the result
        masks local rows, which is what a per-shard backend searches.
        """
        return CompiledFilter(self.mask[member_ids], key=self.key)


def exact_top_k(
    features: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    assume_normalized: bool = False,
    exclude: np.ndarray | None = None,
    tile_size: int = DEFAULT_TILE_SIZE,
    node_filter: CompiledFilter | None = None,
    rows=None,
    rescored=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact cosine top-k of query *vectors* against every row of ``features``.

    The engine under both :func:`top_k_similar`/:func:`batch_top_k` and the
    serving layer's ``ExactBackend``.

    Parameters
    ----------
    features:
        ``n × dim`` matrix the selection GEMM scores, float64 or float32
        (rows may be memory-mapped).  The GEMM runs in its dtype.
    queries:
        ``q × dim`` query vectors (or a single ``dim`` vector).
    k:
        Neighbors per query (clamped to the population size).
    assume_normalized:
        Skip row re-normalization of both sides (inputs already unit rows).
    exclude:
        Optional length-``q`` array of row ids masked to ``-inf`` per query
        (``-1`` = no exclusion) — how self-matches are dropped.
    tile_size:
        Query rows scored per GEMM tile.
    node_filter:
        Optional :class:`CompiledFilter` restricting which rows may be
        returned.  Selective filters (≤ ~12% of rows kept) search a
        gathered subset of the matrix; broad filters mask disallowed
        columns to ``-inf`` before selection.  Both strategies rescore
        with the same canonical reduction, so they agree bit-for-bit on
        the rows they return.  Rows the filter exhausts pad with ``-1`` /
        ``-inf``.
    rows:
        The float64 rows the canonical rescore reads: anything of
        ``features``' shape answering ``rows[ids]`` — an array, or a
        :class:`repro.serving.store.SearchRows` that derives them from
        ``Xf`` / ``Xb`` rows it ``pread``s.
        Defaults to ``features``.  Lets a caller select over a resident
        float32 copy and rescore from the float64 store; needs
        ``assume_normalized``.
    rescored:
        Optional counter (anything with ``inc(n)``, e.g. a
        :class:`repro.serving.obs.metrics.Counter`) told how many rows
        the call rescored.

    Returns
    -------
    ``(ids, scores)`` of shape ``(q, k)``, similarity-descending with ties
    broken by ascending id.  A single 1-D query returns 1-D arrays.  A row
    whose exclusion leaves fewer than ``k`` candidates pads the tail with
    id ``-1`` / similarity ``-inf`` (the same convention as the serving
    backends).  Scores are canonical (:func:`rowwise_inner` over ``rows``),
    so they are bit-identical across engines and selection dtypes — see
    the module docstring.
    """
    single = np.ndim(queries) == 1
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")
    if not assume_normalized:
        if rows is not None:
            raise ValueError("rows needs assume_normalized=True")
        features = normalize_rows(features)
        queries = normalize_rows(queries)
    if rows is None:
        rows = features
    elif tuple(rows.shape) != tuple(features.shape):
        raise ValueError(
            f"rows shape {tuple(rows.shape)} != features shape "
            f"{tuple(features.shape)}"
        )
    n = features.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if tile_size < 1:
        raise ValueError(f"tile_size must be >= 1, got {tile_size}")
    n_queries = queries.shape[0]
    if n == 0:
        # An empty population (e.g. an empty shard of a sharded store)
        # has nothing to rank: zero-width results, not an error.
        empty = (np.empty((n_queries, 0), dtype=np.intp), np.empty((n_queries, 0)))
        return (empty[0][0], empty[1][0]) if single else empty
    # Clamp to the population, not n - 1: an exclude entry of -1 means "no
    # exclusion" for that row, so it may legitimately fill all n slots.
    # Rows that do exclude an id pad their last slot instead (below).
    k = min(k, n)
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.intp)
        if exclude.shape != (n_queries,):
            raise ValueError("exclude must have one entry per query")

    columns = disallowed = None
    if node_filter is not None:
        if node_filter.n != n:
            raise ValueError(
                f"filter covers {node_filter.n} rows, matrix has {n}"
            )
        if node_filter.n_allowed == 0:
            ids = np.full((n_queries, k), -1, dtype=np.intp)
            scores = np.full((n_queries, k), -np.inf, dtype=np.float64)
            return (ids[0], scores[0]) if single else (ids, scores)
        if node_filter.selectivity <= _GATHER_SELECTIVITY:
            columns = node_filter.allowed_ids()
        elif node_filter.n_allowed < n:
            disallowed = np.nonzero(~node_filter.mask)[0]

    ids, scores, n_rescored = _select_and_rescore(
        features,
        rows,
        queries,
        k,
        exclude=exclude,
        columns=columns,
        disallowed=disallowed,
        tile_size=tile_size,
    )
    if rescored is not None:
        rescored.inc(n_rescored)
    if single:
        return ids[0], scores[0]
    return ids, scores


def _select_and_rescore(
    features: np.ndarray,
    rows,
    queries: np.ndarray,
    k: int,
    *,
    exclude: np.ndarray | None,
    columns: np.ndarray | None,
    disallowed: np.ndarray | None,
    tile_size: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Certified selection, then the canonical rescore, one query tile at a time.

    ``columns`` (ascending global ids) restricts the scan to a gathered
    subset, so subset-local order is global id order; ``disallowed``
    masks columns of the full scan.  Every candidate in
    :func:`select_band`'s band is rescored from ``rows`` and each query's
    top-k taken by ``(-score, id)``; a tile's bands are rescored in
    groups of queries holding at most :data:`_BAND_CANDIDATES` between
    them (:func:`_band_groups`).  ``k`` is already clamped to the
    population; columns a subset cannot fill pad with ``-1`` / ``-inf``.
    Also returns how many rows were rescored.
    """
    n_queries, dim = queries.shape[0], features.shape[1]
    select = features if columns is None else np.ascontiguousarray(features[columns])
    width = min(k, select.shape[0])
    select_queries = queries.astype(select.dtype, copy=False)
    if exclude is not None and columns is not None:
        # Global exclusions as subset-local columns; an excluded id the
        # filter already removed needs no exclusion at all.
        position = np.searchsorted(columns, np.clip(exclude, 0, None))
        position = np.clip(position, 0, columns.size - 1)
        hit = (exclude >= 0) & (columns[position] == exclude)
        exclude = np.where(hit, position, -1)
    ids = np.full((n_queries, k), -1, dtype=np.intp)
    scores = np.full((n_queries, k), -np.inf, dtype=np.float64)
    n_rescored = 0
    for start in range(0, n_queries, tile_size):
        stop = min(start + tile_size, n_queries)
        if 1 < stop - start < _GEMV_ROWS:
            block = np.empty((stop - start, select.shape[0]), dtype=select.dtype)
            for row in range(stop - start):
                np.dot(select, select_queries[start + row], out=block[row])
        else:
            block = select_queries[start:stop] @ select.T
        if disallowed is not None:
            block[:, disallowed] = -np.inf
        if exclude is not None:
            masked = np.nonzero(exclude[start:stop] >= 0)[0]
            block[masked, exclude[start + masked]] = -np.inf
        band = select_band(block, width, dim)
        # Row by row: ``count_nonzero`` along an axis is ≈ 7× slower.
        counts = np.array([np.count_nonzero(row) for row in band])
        if counts.min() < width:
            # Only a NaN score can leave a band short of k candidates.
            raise ValueError("selection scores are not finite; check the rows")
        for lo, hi in _band_groups(counts):
            owner, cols = np.divmod(np.flatnonzero(band[lo:hi]), band.shape[1])
            candidates = cols if columns is None else columns[cols]
            # Masked columns enter the band only when a row has fewer than
            # k live ones: they stay -inf (padding below) and are never read.
            canon = np.full(candidates.shape, -np.inf)
            live = np.nonzero(block[lo + owner, cols] > -np.inf)[0]
            canon[live] = _canonical(
                rows, candidates[live], queries, start + lo + owner[live]
            )
            n_rescored += live.size
            # Per query: canonical score descending, then ascending id —
            # what makes sharded scatter-gather bit-identical to this engine.
            order = np.lexsort((candidates, -canon, owner))
            first = np.cumsum(counts[lo:hi]) - counts[lo:hi]
            take = order[first[:, np.newaxis] + np.arange(width)]
            ids[start + lo : start + hi, :width] = candidates[take]
            scores[start + lo : start + hi, :width] = canon[take]
    ids[scores == -np.inf] = -1
    return ids, scores, n_rescored


def _band_groups(counts: np.ndarray):
    """``(lo, hi)`` runs of consecutive queries whose bands hold at most
    :data:`_BAND_CANDIDATES` candidates together (a single query's band
    may hold more, and is then a run of its own)."""
    lo, held = 0, 0
    for row, count in enumerate(counts.tolist()):
        if row > lo and held + count > _BAND_CANDIDATES:
            yield lo, row
            lo, held = row, 0
        held += count
    yield lo, counts.size


def _canonical(rows, ids: np.ndarray, queries: np.ndarray, query_rows: np.ndarray):
    """Canonical scores of ``rows[ids[i]]`` against ``queries[query_rows[i]]``."""
    out = np.empty(ids.shape[0])
    step = max(1, _RESCORE_CHUNK_ELEMENTS // max(1, queries.shape[1]))
    for lo in range(0, ids.shape[0], step):
        hi = lo + step
        out[lo:hi] = rowwise_inner(
            np.asarray(rows[ids[lo:hi]], dtype=np.float64), queries[query_rows[lo:hi]]
        )
    return out


def pairwise_cosine(
    features: np.ndarray, *, max_elements: int | None = MAX_PAIRWISE_ELEMENTS
) -> np.ndarray:
    """Full ``n × n`` cosine similarity matrix (small graphs only).

    Refuses when ``n²`` would exceed ``max_elements`` (default 2**27
    entries ≈ 1 GiB of float64) — use :func:`top_k_similar` /
    :func:`batch_top_k`, which never materialize the full matrix, or pass
    ``max_elements=None`` to override the guard deliberately.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if max_elements is not None and n * n > max_elements:
        raise ValueError(
            f"pairwise_cosine would materialize {n}×{n} = {n * n} similarities "
            f"(> max_elements={max_elements}); use top_k_similar/batch_top_k "
            "or pass max_elements=None to override"
        )
    normalized = normalize_rows(features)
    return normalized @ normalized.T


def top_k_similar(
    features: np.ndarray,
    node: int,
    k: int = 10,
    *,
    assume_normalized: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` nodes most cosine-similar to ``node`` (excluding itself).

    Returns ``(indices, similarities)`` sorted by descending similarity.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if not 0 <= node < n:
        raise IndexError(f"node {node} out of range [0, {n})")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n == 1:
        # Only the query node itself exists — no neighbors to return.
        return np.empty(0, dtype=np.intp), np.empty(0)
    if not assume_normalized:
        features = normalize_rows(features)
    return exact_top_k(
        features,
        features[node],
        min(k, n - 1),
        assume_normalized=True,
        exclude=np.array([node]),
    )


def batch_top_k(
    features: np.ndarray,
    queries: np.ndarray,
    k: int = 10,
    *,
    assume_normalized: bool = False,
    tile_size: int = DEFAULT_TILE_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k similar nodes for several query nodes at once.

    Normalizes the matrix once and scores queries in GEMM tiles — the seed
    version re-normalized all of ``features`` for every query node.

    Returns ``(indices, similarities)`` of shape ``(len(queries), k)``.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    queries = np.asarray(queries, dtype=np.intp).ravel()
    if queries.size and (queries.min() < 0 or queries.max() >= n):
        raise IndexError(f"query node out of range [0, {n})")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if tile_size < 1:
        raise ValueError(f"tile_size must be >= 1, got {tile_size}")
    if n == 1:
        return (
            np.empty((queries.shape[0], 0), dtype=np.intp),
            np.empty((queries.shape[0], 0)),
        )
    if not assume_normalized:
        features = normalize_rows(features)
    return exact_top_k(
        features,
        features[queries],
        min(k, n - 1),
        assume_normalized=True,
        exclude=queries,
        tile_size=tile_size,
    )
