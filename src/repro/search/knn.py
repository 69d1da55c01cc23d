"""Cosine k-nearest-neighbor search over embedding matrices.

The classic downstream use of node embeddings: "find nodes like this one".
This module is the *exact* search engine: brute-force dense scoring with
``np.argpartition`` selection, tiled over queries so a batch never
materializes more than ``tile × n`` scores at once.  The serving layer
(:mod:`repro.serving.index`) wraps it as the ``ExactBackend`` and adds an
IVF approximate backend behind the same interface.

All entry points accept ``assume_normalized=True`` for inputs whose rows
are already unit-length (e.g. matrices published by
:class:`repro.serving.store.EmbeddingStore`), which skips the per-call
re-normalization of the full matrix.

Returned similarities are **canonical**: candidates are *selected* with a
BLAS GEMM (fast, but its partial edge tiles make element values depend on
the matrix's row count), then the selected ``k`` rows are *rescored* with
:func:`rowwise_inner`, whose reduction depends only on the row bytes.  Two
engines scoring the same (row, query) pair therefore return the same
float64 bits regardless of how many other rows sit in their matrices —
the property the sharded scatter-gather router
(:mod:`repro.serving.sharding.router`) relies on to merge per-shard
results into a global top-k bit-identical to unsharded search.  Ties are
broken by ascending row id, which is partition-invariant too.
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

# Elements gathered per canonical-rescore chunk (bounds the ``rows × dim``
# copy when k is a large fraction of n).
_RESCORE_CHUNK_ELEMENTS = 2**22

# float32 selection: shortlist size = max(oversample*k, k + slack).  The
# slack floor keeps tiny k from producing a shortlist so tight that a
# float32 rounding collision near the boundary could push a true top-k
# member out before the float64 rescore can rank it back in.
DEFAULT_SELECT_OVERSAMPLE = 4
SELECT_SLACK = 16


def select_shortlist_size(
    k: int, population: int, *, oversample: int = DEFAULT_SELECT_OVERSAMPLE
) -> int:
    """Float32-selection shortlist size: oversample, slack floor, clamp.

    The one definition of the safety-margin policy, shared by
    :func:`exact_top_k`'s float32 path and the IVF backend's float32
    candidate selector (:class:`repro.serving.index.IVFIndex`) — the two
    paths must never diverge in how much slack protects their
    bit-identity-via-rescore contract.
    """
    return min(population, max(int(oversample) * k, k + SELECT_SLACK))


def _normalize(features: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    return features / np.where(norms == 0, 1.0, norms)


def normalize_rows(features: np.ndarray) -> np.ndarray:
    """Rows of ``features`` scaled to unit L2 norm (zero rows left zero)."""
    return _normalize(np.asarray(features, dtype=np.float64))


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


def canonical_scores(
    features: np.ndarray, ids: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """Canonical cosine scores of ``features[ids]`` against one ``query``.

    The single-query convenience over :func:`rowwise_inner` used by the
    IVF and PQ backends to rescore candidate sets: the returned floats are
    bit-identical to what :func:`exact_top_k` reports for the same rows.
    A fancy-index gather always yields a fresh contiguous array, so the
    einsum runs directly on it (this sits on per-query hot paths; the
    generic :func:`rowwise_inner` wrapper calls are measurable there).
    """
    rows = features[ids]
    repeated = np.empty_like(rows)
    repeated[:] = query
    return np.einsum("ij,ij->i", rows, repeated)


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
    suitable for cache/coalescing keys.
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
        """Stable content fingerprint (hex) for cache/coalescing keys."""
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
    select_dtype: str = "float64",
    select_features: np.ndarray | None = None,
    oversample: int = DEFAULT_SELECT_OVERSAMPLE,
    node_filter: CompiledFilter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact cosine top-k of query *vectors* against every row of ``features``.

    The engine under both :func:`top_k_similar`/:func:`batch_top_k` and the
    serving layer's ``ExactBackend``.

    Parameters
    ----------
    features:
        ``n × dim`` matrix (rows may be memory-mapped).
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
    select_dtype:
        ``"float64"`` (default, the reference path) or ``"float32"`` —
        run the *selection* GEMM in float32 over an oversampled
        shortlist, then rescore the shortlist with the canonical float64
        einsum.  The selection scan is memory-bound, so float32 moves
        half the bytes; returned scores stay canonical float64 and are
        bit-identical to the float64 engine whenever the shortlist
        covers the true top-k (the same shortlist-covers-the-answer
        rationale as the PQ ``min_rescore`` floor; asserted on the bench
        corpus by ``benchmarks/bench_serving.py`` every run).
    select_features:
        Optional precomputed float32 copy of the (normalized) matrix for
        the float32 path — callers with a long-lived matrix (the serving
        ``ExactBackend``) cast once instead of per call.  Ignored for
        float64.
    oversample:
        Shortlist factor for the float32 path: ``max(oversample × k,
        k + 16)`` candidates are selected, clamped to ``n``.
    node_filter:
        Optional :class:`CompiledFilter` restricting which rows may be
        returned.  Selective filters (≤ ~12% of rows kept) search a
        gathered subset of the matrix; broad filters mask disallowed
        columns to ``-inf`` before selection.  Both strategies rescore
        with the same canonical reduction, so they agree bit-for-bit on
        the rows they return, and ``node_filter=None`` leaves the
        unfiltered path byte-identical to an engine without this
        parameter.  Rows the filter exhausts pad with ``-1`` / ``-inf``.

    Returns
    -------
    ``(ids, scores)`` of shape ``(q, k)``, similarity-descending with ties
    broken by ascending id.  A single 1-D query returns 1-D arrays.  A row
    whose exclusion leaves fewer than ``k`` candidates pads the tail with
    id ``-1`` / similarity ``-inf`` (the same convention as the serving
    backends).  Scores are canonical (:func:`rowwise_inner` over the
    selected rows), so they are bit-identical across engines scoring the
    same rows — see the module docstring.
    """
    if select_dtype not in ("float64", "float32"):
        raise ValueError(
            f"select_dtype must be 'float64' or 'float32', got {select_dtype!r}"
        )
    single = np.ndim(queries) == 1
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if not assume_normalized:
        features = normalize_rows(features)
        queries = _normalize(queries)
    n = features.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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

    disallowed = None
    if node_filter is not None:
        if node_filter.n != n:
            raise ValueError(
                f"filter covers {node_filter.n} rows, matrix has {n}"
            )
        if node_filter.n_allowed == 0:
            ids = np.full((n_queries, k), -1, dtype=np.intp)
            scores = np.full((n_queries, k), -np.inf, dtype=np.float64)
            return (ids[0], scores[0]) if single else (ids, scores)
        if node_filter.n_allowed == n:
            node_filter = None  # nothing masked: take the unfiltered path
        elif node_filter.selectivity <= _GATHER_SELECTIVITY:
            return _exact_top_k_gather(
                features,
                queries,
                k,
                exclude=exclude,
                tile_size=tile_size,
                select_dtype=select_dtype,
                select_features=select_features,
                oversample=oversample,
                allowed=node_filter.allowed_ids(),
                single=single,
            )
        else:
            disallowed = np.nonzero(~node_filter.mask)[0]

    if select_dtype == "float32":
        if select_features is None:
            select_features = np.asarray(features, dtype=np.float32)
        elif select_features.shape != features.shape:
            raise ValueError(
                f"select_features shape {select_features.shape} != "
                f"features shape {features.shape}"
            )
        # Selection runs on the float32 pair; the shortlist m replaces k
        # in the selection so float32 rounding near the k-th rank cannot
        # evict a true top-k row before the float64 rescore ranks it.
        select_mat = select_features
        select_queries = queries.astype(np.float32)
        m = select_shortlist_size(k, n, oversample=oversample)
    else:
        select_mat = features
        select_queries = queries
        m = k

    ids = np.empty((n_queries, k), dtype=np.intp)
    scores = np.empty((n_queries, k), dtype=np.float64)
    for start in range(0, n_queries, max(1, tile_size)):
        stop = min(start + max(1, tile_size), n_queries)
        block = select_queries[start:stop] @ select_mat.T
        if disallowed is not None:
            block[:, disallowed] = -np.inf
        if exclude is not None:
            rows = np.arange(start, stop)
            masked = exclude[rows] >= 0
            block[np.nonzero(masked)[0], exclude[rows][masked]] = -np.inf
        # Whole-tile selection: one argpartition + one m-wide argsort across
        # the tile instead of a Python loop of per-row selections — the hot
        # path the serving throughput numbers are measured on.  Negate in
        # place so ascending partition order means descending similarity.
        np.negative(block, out=block)
        top = np.argpartition(block, m - 1, axis=1)[:, :m]
        part = np.take_along_axis(block, top, axis=1)
        # Boundary-tie repair: argpartition picks arbitrarily among rows
        # tied at the m-th score, and that choice differs between a full
        # matrix and a shard slice (duplicate rows are the realistic
        # case — e.g. zero-feature isolated nodes).  "Tied" has to mean
        # *within GEMM rounding* of the m-th score, not equal to it: two
        # identical rows can get selection scores that differ in the last
        # bit (BLAS edge tiles) while their canonical scores tie.  Detect
        # rows with more than m scores at or inside that band and redo
        # them deterministically: everything better than the band, then
        # the in-band candidates by (canonical score desc, id asc).
        band = 4 * features.shape[1] * np.finfo(block.dtype).eps
        worst = part.max(axis=1, keepdims=True)
        overflow = np.nonzero((block <= worst + band).sum(axis=1) > m)[0]
        for row in overflow:
            selection = block[row]
            low, high = worst[row, 0] - band, worst[row, 0] + band
            definite = np.nonzero(selection < low)[0]
            near = np.nonzero((selection >= low) & (selection <= high))[0]
            near_canon = canonical_scores(features, near, queries[start + row])
            # Masked candidates (excluded / disallowed) stay last among ties.
            near_canon[np.isinf(selection[near])] = -np.inf
            fill = near[np.lexsort((near, -near_canon))][: m - definite.size]
            top[row] = np.concatenate([definite, fill])
            part[row] = selection[top[row]]
        # Canonical rescore of the m selected rows: the GEMM above only
        # *selects*; the returned scores come from the partition-invariant
        # row-wise reduction.  Candidates are first ordered by ascending id
        # so the stable score sort breaks exact ties by id — both steps are
        # what makes sharded scatter-gather bit-identical to this engine.
        id_order = np.argsort(top, axis=1)
        sel = np.take_along_axis(top, id_order, axis=1)
        sel_part = np.take_along_axis(part, id_order, axis=1)
        canon = np.empty(sel.shape, dtype=np.float64)
        tile_rows = stop - start
        step = max(1, _RESCORE_CHUNK_ELEMENTS // max(1, m * features.shape[1]))
        for row0 in range(0, tile_rows, step):
            row1 = min(row0 + step, tile_rows)
            chunk_ids = sel[row0:row1].ravel()
            chunk_queries = np.repeat(queries[start + row0 : start + row1], m, axis=0)
            canon[row0:row1] = rowwise_inner(
                features[chunk_ids], chunk_queries
            ).reshape(row1 - row0, m)
        # Excluded candidates were forced in only when the row ran out of
        # real ones (k = n with an exclusion); keep them -inf, not rescored.
        canon[~np.isfinite(sel_part)] = -np.inf
        order = np.argsort(-canon, axis=1, kind="stable")[:, :k]
        ids[start:stop] = np.take_along_axis(sel, order, axis=1)
        scores[start:stop] = np.take_along_axis(canon, order, axis=1)
    if exclude is not None or disallowed is not None:
        # A masked id can only reach the result when a row had fewer than k
        # real candidates (k = n with an exclusion, or a filter keeping
        # fewer than k rows); rewrite it as padding.
        ids[scores == -np.inf] = -1
    if single:
        return ids[0], scores[0]
    return ids, scores


def _exact_top_k_gather(
    features: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    exclude: np.ndarray | None,
    tile_size: int,
    select_dtype: str,
    select_features: np.ndarray | None,
    oversample: int,
    allowed: np.ndarray,
    single: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Selective-filter strategy: search the gathered allowed-row subset.

    ``allowed`` ascending keeps subset-local ordering equal to global id
    ordering, and the canonical rescore makes subset scores bit-identical
    to full-matrix scores for the same rows — so mapping local results
    back through ``allowed`` agrees exactly with the mask strategy.
    ``queries``/``features`` arrive already normalized; ``k`` is already
    clamped to the full population (columns the subset cannot fill pad).
    """
    n_queries = queries.shape[0]
    sub = np.ascontiguousarray(features[allowed])
    sub_select = None
    if select_dtype == "float32" and select_features is not None:
        sub_select = np.ascontiguousarray(select_features[allowed])
    sub_exclude = None
    if exclude is not None:
        # Translate global exclusions to subset-local ids; an excluded id
        # the filter already removed needs no exclusion at all.
        position = np.searchsorted(allowed, np.clip(exclude, 0, None))
        position = np.clip(position, 0, allowed.size - 1)
        hit = (exclude >= 0) & (allowed[position] == exclude)
        sub_exclude = np.where(hit, position, -1)
    local_ids, local_scores = exact_top_k(
        sub,
        queries,
        min(k, allowed.size),
        assume_normalized=True,
        exclude=sub_exclude,
        tile_size=tile_size,
        select_dtype=select_dtype,
        select_features=sub_select,
        oversample=oversample,
    )
    local_ids = np.atleast_2d(local_ids)
    local_scores = np.atleast_2d(local_scores)
    ids = np.full((n_queries, k), -1, dtype=np.intp)
    scores = np.full((n_queries, k), -np.inf, dtype=np.float64)
    width = local_ids.shape[1]
    ids[:, :width] = np.where(local_ids >= 0, allowed[np.clip(local_ids, 0, None)], -1)
    scores[:, :width] = local_scores
    if single:
        return ids[0], scores[0]
    return ids, scores


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
    normalized = _normalize(features)
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
        features = _normalize(features)
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
    if n == 1:
        return (
            np.empty((queries.shape[0], 0), dtype=np.intp),
            np.empty((queries.shape[0], 0)),
        )
    if not assume_normalized:
        features = _normalize(features)
    return exact_top_k(
        features,
        features[queries],
        min(k, n - 1),
        assume_normalized=True,
        exclude=queries,
        tile_size=tile_size,
    )
