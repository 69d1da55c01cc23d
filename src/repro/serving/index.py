"""ANN search backends: one interface, exact and IVF implementations.

``SearchBackend`` is the contract the :class:`~repro.serving.service.QueryService`
speaks: cosine top-k of query *vectors* against a fixed, unit-row-normalized
matrix.  Two implementations:

- :class:`ExactBackend` — brute force, delegating to the tiled engine in
  :mod:`repro.search.knn` (that module *is* the exact backend; this class
  adapts it to the interface): certified selection over a resident
  float32 copy, canonical rescore of the candidates from the float64
  rows.
- :class:`IVFIndex` — inverted-file index: a spherical k-means coarse
  quantizer partitions the vectors into ``nlist`` cells; a query scores
  only the cells whose centroids it is closest to (``nprobe`` of them) and
  rescores those candidates against the full-precision vectors.  ``nprobe``
  is the recall/latency knob: 1 = fastest, ``nlist`` = exhaustive, which
  reproduces :class:`ExactBackend` bit-for-bit (the search delegates to the
  identical exact engine, single and batch queries alike).

Both rescore through :func:`repro.search.knn.select_band`, and count the
rows they rescore into ``rescored_rows``: the counter of the service that
activated them, or none.

Everything is pure numpy and seeded through
:func:`repro.utils.rng.ensure_rng`, like :mod:`repro.core.randsvd`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.search.knn import (
    CompiledFilter,
    canonical_scores,
    exact_top_k,
    normalize_rows,
    select_band,
    top_k_sorted_indices,
)
from repro.serving.obs.metrics import Counter
from repro.utils.rng import ensure_rng

# Below this many vectors an IVF's python-level per-query overhead beats no
# one; the "auto" factory serves brute force instead.
AUTO_EXACT_THRESHOLD = 4096

_ASSIGN_CHUNK = 8192  # rows per chunk in full-matrix centroid assignment


def filtered_probe_width(nprobe: int, nlist: int, selectivity: float) -> int:
    """Selectivity-driven ``nprobe`` widening for filtered IVF scans.

    A filter keeping a fraction ``s`` of the corpus thins every inverted
    list by ~``s``, so the candidate pool behind the usual ``nprobe``
    probes shrinks ~``1/s``-fold and recall craters under selective
    filters.  Probing ``nprobe / s`` cells restores the *expected
    candidate count* of the unfiltered scan — the invariant the recall
    floor was tuned against.  Saturates at ``nlist`` (an exhaustive scan
    of the allowed set; with rescoring the caller can then delegate to
    the exact engine, whose gather path is itself cheap at exactly the
    selectivities that saturate this).
    """
    if selectivity <= 0.0:
        return nlist
    return min(nlist, max(nprobe, int(np.ceil(nprobe / selectivity))))


class SearchBackend(abc.ABC):
    """Cosine top-k search over a fixed matrix of unit-norm rows."""

    features: np.ndarray  # (n, dim), unit rows

    # Whether search() accepts the per-query ``nprobe`` recall knob; the
    # QueryService dispatches on this instead of isinstance checks so a
    # backend (IVF, the shard router) opts in with one attribute.  Every
    # backend's search() accepts a per-query ``node_filter``
    # (:class:`repro.search.knn.CompiledFilter`).
    SUPPORTS_NPROBE = False

    # Where the rows this backend rescores are counted: set by
    # ``QueryService.activate``; a backend used on its own counts nothing.
    rescored_rows: Counter | None = None

    @property
    def n_vectors(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @abc.abstractmethod
    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        exclude: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ids and similarities per query row, descending.

        ``queries`` is ``(q, dim)`` (or a single ``dim`` vector → 1-D
        result); ``exclude`` optionally masks one row id per query
        (``-1`` = none).  Rows that cannot fill ``k`` results (an IVF
        probing sparsely populated cells) are padded with id ``-1`` and
        similarity ``-inf``.
        """


class ExactBackend(SearchBackend):
    """Brute-force exact backend over :mod:`repro.search.knn`.

    The fallback for small corpora and the ground truth the IVF index is
    measured against.  ``features`` must be float64 with unit rows.

    Selection scans a resident float32 copy (``select``, half the bytes
    of the float64 rows) and only the rows in the certified band are
    rescored from the float64 ``features``, so answers are the float64
    engine's bit for bit (:func:`repro.search.knn.select_band`).  A
    store's :class:`~repro.serving.store.SearchRows` derives both from
    ``Xf`` / ``Xb`` rows read by ``pread``: the float64 rows cost page
    cache, not resident memory.
    """

    def __init__(self, features: np.ndarray) -> None:
        if np.ndim(features) != 2 or features.dtype != np.float64:
            raise ValueError(
                "the exact backend needs an n × dim float64 matrix, got "
                f"{features.dtype} of shape {np.shape(features)}"
            )
        self.features = features
        self.select = np.asarray(features, dtype=np.float32)

    @property
    def resident_bytes(self) -> int:
        """Bytes the selection keeps resident (the float64 rows are not)."""
        return int(self.select.nbytes)

    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        exclude: np.ndarray | None = None,
        node_filter: CompiledFilter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        return exact_top_k(
            self.select,
            queries,
            k,
            assume_normalized=True,
            exclude=exclude,
            node_filter=node_filter,
            rows=self.features,
            rescored=self.rescored_rows,
        )


@dataclass(frozen=True)
class IVFRebuildStats:
    """What an online :meth:`IVFIndex.refresh` actually had to redo."""

    n_moved: int  # vectors whose cell assignment changed
    n_lists_rebuilt: int  # inverted lists recomputed
    n_lists_total: int


class IVFIndex(SearchBackend):
    """Inverted-file ANN index with a spherical k-means coarse quantizer.

    ``SUPPORTS_NPROBE`` — ``search`` takes a per-query ``nprobe``.

    Parameters
    ----------
    features:
        ``n × dim`` matrix of unit-norm rows (e.g.
        :attr:`repro.serving.store.StoredEmbedding.features`, derived
        once and kept resident).
    nlist:
        Number of k-means cells (default ``≈ √n``, clamped to ``[1, n]``).
    nprobe:
        Default number of cells scored per query.
    seed:
        RNG seed for centroid init (and training subsample), making index
        construction deterministic like the rest of the pipeline.
    train_size:
        k-means runs on at most this many sampled rows (raised to ``nlist``
        when necessary, since initialization draws one distinct training
        point per cell); the full matrix is assigned in one chunked pass
        afterwards.
    n_iter:
        Lloyd iterations.
    """

    SUPPORTS_NPROBE = True

    def __init__(
        self,
        features: np.ndarray,
        *,
        nlist: int | None = None,
        nprobe: int = 8,
        seed: int | np.random.Generator | None = 0,
        train_size: int = 65536,
        n_iter: int = 10,
    ) -> None:
        features = np.asarray(features)
        n = features.shape[0]
        if n == 0:
            raise ValueError("cannot index an empty matrix")
        if nlist is None:
            nlist = max(1, min(n, int(round(np.sqrt(n)))))
        if not 1 <= nlist <= n:
            raise ValueError(f"nlist must be in [1, {n}], got {nlist}")
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        self.features = features
        self.nprobe = min(nprobe, nlist)
        rng = ensure_rng(seed)
        self.centroids = _train_spherical_kmeans(
            features,
            nlist,
            rng,
            # Centroid init samples nlist distinct training rows, so the
            # training population must be at least nlist.
            train_size=max(train_size, nlist),
            n_iter=n_iter,
        )
        self.assignments = _assign(features, self.centroids)
        self._lists = _build_lists(self.assignments, nlist)
        self.last_rebuild: IVFRebuildStats | None = None

    # ------------------------------------------------------------------
    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def lists(self) -> list[np.ndarray]:
        """The inverted lists (sorted id arrays), index = cell id."""
        return self._lists

    def list_sizes(self) -> np.ndarray:
        return np.array([lst.shape[0] for lst in self._lists])

    # ------------------------------------------------------------------
    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        exclude: np.ndarray | None = None,
        nprobe: int | None = None,
        rescore: bool = True,
        node_filter: CompiledFilter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """IVF top-k: probe ``nprobe`` cells, rescore candidates exactly.

        With ``rescore=False`` candidates are ranked by their cell
        centroid's similarity to the query instead of their own (cheaper,
        much coarser — ties within a cell break by id).  With
        ``nprobe >= nlist`` and ``rescore=True`` the search is exhaustive
        and bit-identical to :class:`ExactBackend` — it delegates to the
        same engine, so the guarantee holds for batch queries too.

        ``node_filter`` restricts the candidate pool per probed list and
        widens ``nprobe`` by the filter's selectivity
        (:func:`filtered_probe_width`), so recall against filtered-exact
        holds even under ~1%-selective filters; once the widened probe
        count saturates ``nlist`` the search delegates to the (filtered)
        exact engine.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        nprobe = self.nprobe if nprobe is None else min(max(1, nprobe), self.nlist)
        if node_filter is not None:
            if node_filter.n != self.n_vectors:
                raise ValueError(
                    f"filter covers {node_filter.n} rows, index has "
                    f"{self.n_vectors}"
                )
            if node_filter.n_allowed == self.n_vectors:
                node_filter = None
            else:
                nprobe = filtered_probe_width(
                    nprobe, self.nlist, node_filter.selectivity
                )
        if rescore and nprobe >= self.nlist:
            return exact_top_k(
                self.features, queries, k, assume_normalized=True, exclude=exclude,
                node_filter=node_filter,
                rescored=self.rescored_rows,
            )
        single = np.ndim(queries) == 1
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = queries.shape[0]
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.intp)
            if exclude.shape != (n_queries,):
                raise ValueError("exclude must have one entry per query")

        k = min(k, self.n_vectors)
        centroid_sims = queries @ self.centroids.T  # (q, nlist)
        # Probe selection for the whole batch in one argpartition: probe
        # *order* is irrelevant (candidates are re-sorted), so the k-wide
        # sort per row of top_k_sorted_indices would be pure overhead.
        if nprobe >= self.nlist:
            probes_all = np.broadcast_to(
                np.arange(self.nlist), (n_queries, self.nlist)
            )
        else:
            probes_all = np.argpartition(-centroid_sims, nprobe - 1, axis=1)[
                :, :nprobe
            ]
        ids = np.full((n_queries, k), -1, dtype=np.intp)
        scores = np.full((n_queries, k), -np.inf, dtype=np.float64)
        for row in range(n_queries):
            excluded = -1 if exclude is None else int(exclude[row])
            if node_filter is None:
                row_ids, row_scores = self._search_one(
                    queries[row],
                    k,
                    probes_all[row],
                    centroid_sims[row],
                    excluded,
                    rescore,
                )
            else:
                row_ids, row_scores = self._search_one_filtered(
                    queries[row],
                    k,
                    probes_all[row],
                    centroid_sims[row],
                    excluded,
                    rescore,
                    node_filter,
                )
            ids[row, : row_ids.shape[0]] = row_ids
            scores[row, : row_scores.shape[0]] = row_scores
        if single:
            return ids[0], scores[0]
        return ids, scores

    def _search_one(
        self,
        query: np.ndarray,
        k: int,
        probes: np.ndarray,
        centroid_sims: np.ndarray,
        excluded: int,
        rescore: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        if probes.shape[0] == self.nlist:
            # Full coverage without rescoring still scores exactly: ranking
            # every vector by its cell centroid would be strictly worse for
            # the same cost, so there is nothing coarser to fall back to.
            return self._rescored(query, k, None, excluded)
        candidates = np.sort(np.concatenate([self._lists[j] for j in probes]))
        if excluded >= 0:
            position = np.searchsorted(candidates, excluded)
            if position < candidates.shape[0] and candidates[position] == excluded:
                candidates = np.delete(candidates, position)
        if candidates.shape[0] == 0:
            return np.empty(0, dtype=np.intp), np.empty(0)
        if rescore:
            return self._rescored(query, k, candidates)
        candidate_scores = centroid_sims[self.assignments[candidates]]
        top = top_k_sorted_indices(candidate_scores, min(k, candidates.shape[0]))
        return candidates[top], candidate_scores[top]

    def _search_one_filtered(
        self,
        query: np.ndarray,
        k: int,
        probes: np.ndarray,
        centroid_sims: np.ndarray,
        excluded: int,
        rescore: bool,
        node_filter: CompiledFilter,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-query filtered scan: the per-list mask variant of `_search_one`.

        Candidates from the probed lists pass through the filter mask
        *before* any scoring; selection and canonical rescore then run on
        the surviving pool exactly like the unfiltered scan, so returned
        scores carry the same bits filtered-exact reports for the same
        rows.
        """
        if probes.shape[0] == self.nlist:
            candidates = node_filter.allowed_ids()
        else:
            candidates = np.sort(
                np.concatenate([self._lists[j] for j in probes])
            )
            candidates = candidates[node_filter.allows(candidates)]
        if excluded >= 0:
            position = np.searchsorted(candidates, excluded)
            if position < candidates.shape[0] and candidates[position] == excluded:
                candidates = np.delete(candidates, position)
        if candidates.shape[0] == 0:
            return np.empty(0, dtype=np.intp), np.empty(0)
        if not rescore:
            candidate_scores = centroid_sims[self.assignments[candidates]]
            top = top_k_sorted_indices(
                candidate_scores, min(k, candidates.shape[0])
            )
            return candidates[top], candidate_scores[top]
        return self._rescored(query, k, candidates)

    def _rescored(
        self,
        query: np.ndarray,
        k: int,
        candidates: np.ndarray | None,
        excluded: int = -1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of ``candidates`` (``None``: every row) by canonical score.

        A GEMV selects, :func:`select_band` keeps every row that can still
        rank in the top ``k``, and only those are rescored canonically —
        the exact engine's split, so returned bits and tie order
        (ascending id) match it for the same rows.
        """
        if candidates is None:
            selection = self.features @ query
            if excluded >= 0:
                selection[excluded] = -np.inf
        else:
            selection = self.features[candidates] @ query
        band = np.nonzero(
            select_band(selection[np.newaxis], min(k, selection.shape[0]), self.dim)[0]
        )[0]
        band = band[selection[band] > -np.inf]
        chosen = band if candidates is None else candidates[band]
        if self.rescored_rows is not None:
            self.rescored_rows.inc(chosen.shape[0])
        canon = canonical_scores(self.features, chosen, query)
        order = np.lexsort((chosen, -canon))[:k]
        return chosen[order], canon[order]

    # ------------------------------------------------------------------
    def refresh(self, features: np.ndarray) -> "IVFIndex":
        """A new index over updated ``features``, reusing the quantizer.

        Built for online refresh after a
        :class:`~repro.dynamic.incremental.IncrementalPANE` delta: the
        centroids are kept, every vector is (cheaply) re-assigned, and only
        the inverted lists whose membership actually changed are rebuilt —
        unchanged lists share their id arrays with this index.  The
        returned index records what moved in :attr:`last_rebuild`.
        """
        features = np.asarray(features)
        if features.shape != self.features.shape:
            raise ValueError(
                f"refresh features shape {features.shape} != {self.features.shape}"
                " (node count changes require a full rebuild)"
            )
        new_assignments = _assign(features, self.centroids)
        moved = np.nonzero(new_assignments != self.assignments)[0]
        affected = np.union1d(self.assignments[moved], new_assignments[moved])

        clone = object.__new__(IVFIndex)
        clone.features = features
        clone.nprobe = self.nprobe
        clone.centroids = self.centroids
        clone.assignments = new_assignments
        lists = list(self._lists)
        for cell in affected:
            departed = moved[self.assignments[moved] == cell]
            arrived = moved[new_assignments[moved] == cell]
            kept = np.setdiff1d(lists[cell], departed, assume_unique=True)
            lists[cell] = np.union1d(kept, arrived)
        clone._lists = lists
        clone.last_rebuild = IVFRebuildStats(
            n_moved=int(moved.shape[0]),
            n_lists_rebuilt=int(affected.shape[0]),
            n_lists_total=self.nlist,
        )
        return clone

    # -- persistence ---------------------------------------------------
    def save_arrays(self) -> dict[str, np.ndarray]:
        """The arrays that reconstruct this index next to its ``features``.

        The inverted lists are *not* saved: they are a deterministic
        function of ``assignments`` (:func:`_build_lists`), cheap to
        rebuild at load time and redundant on disk.
        """
        return {
            "centroids": self.centroids,
            "assignments": self.assignments,
            "nprobe": np.array(self.nprobe, dtype=np.int64),
        }

    @classmethod
    def from_arrays(
        cls, features: np.ndarray, arrays: dict[str, np.ndarray]
    ) -> "IVFIndex":
        """Rebuild an index from :meth:`save_arrays` output + the matrix."""
        features = np.asarray(features)
        assignments = np.asarray(arrays["assignments"], dtype=np.intp)
        if assignments.shape[0] != features.shape[0]:
            raise ValueError(
                f"saved index covers {assignments.shape[0]} vectors, "
                f"features has {features.shape[0]}"
            )
        index = object.__new__(cls)
        index.features = features
        index.centroids = np.asarray(arrays["centroids"], dtype=np.float64)
        index.nprobe = int(arrays["nprobe"])
        index.assignments = assignments
        index._lists = _build_lists(assignments, index.centroids.shape[0])
        index.last_rebuild = None
        return index


def resolve_kind(kind: str, n_vectors: int) -> str:
    """Resolve ``"auto"`` to a concrete backend kind for ``n_vectors``."""
    if kind == "auto":
        return "exact" if n_vectors < AUTO_EXACT_THRESHOLD else "ivf"
    return kind


def make_backend(
    features: np.ndarray,
    kind: str = "auto",
    *,
    nlist: int | None = None,
    nprobe: int = 8,
    seed: int | np.random.Generator | None = 0,
) -> SearchBackend:
    """Backend factory: ``"exact"``, ``"ivf"``, ``"auto"``.

    ``"auto"`` serves brute force below :data:`AUTO_EXACT_THRESHOLD`
    vectors (where IVF's per-query overhead wins nothing) and IVF above.
    """
    kind = resolve_kind(kind, features.shape[0])
    if kind == "exact" or features.shape[0] == 0:
        # Nothing to quantize in an empty matrix (an empty shard of a
        # sharded store); brute force over zero rows is the only backend
        # that degenerates gracefully.
        return ExactBackend(features)
    if kind == "ivf":
        return IVFIndex(features, nlist=nlist, nprobe=nprobe, seed=seed)
    raise ValueError(f"unknown backend kind {kind!r} (expected exact/ivf/auto)")


# ---------------------------------------------------------------------------
# Spherical k-means quantizer (pure numpy, seeded)
# ---------------------------------------------------------------------------


def _train_spherical_kmeans(
    features: np.ndarray,
    nlist: int,
    rng: np.random.Generator,
    *,
    train_size: int,
    n_iter: int,
) -> np.ndarray:
    """Unit-norm centroids maximizing within-cell cosine similarity."""
    n = features.shape[0]
    if nlist == 1:
        return normalize_rows(np.asarray(features).mean(axis=0, keepdims=True))
    if n > train_size:
        sample = np.sort(rng.choice(n, size=train_size, replace=False))
        train = np.asarray(features[sample])
    else:
        train = np.asarray(features)
    m = train.shape[0]
    centroids = train[np.sort(rng.choice(m, size=nlist, replace=False))].copy()

    assignments = np.full(m, -1, dtype=np.intp)
    for _ in range(max(1, n_iter)):
        new_assignments = _assign(train, centroids)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cell in range(nlist):
            members = train[assignments == cell]
            if members.shape[0] == 0:
                # Re-seed an empty cell from a random training point.
                centroids[cell] = train[int(rng.integers(m))]
            else:
                centroids[cell] = members.mean(axis=0)
        centroids = normalize_rows(centroids)
    return centroids


def _assign(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid (max cosine) cell per row, chunked to bound memory."""
    n = features.shape[0]
    assignments = np.empty(n, dtype=np.intp)
    for start in range(0, n, _ASSIGN_CHUNK):
        stop = min(start + _ASSIGN_CHUNK, n)
        sims = np.asarray(features[start:stop]) @ centroids.T
        assignments[start:stop] = np.argmax(sims, axis=1)
    return assignments


def _build_lists(assignments: np.ndarray, nlist: int) -> list[np.ndarray]:
    """Sorted inverted lists from an assignment vector (one pass)."""
    order = np.argsort(assignments, kind="stable")
    sorted_cells = assignments[order]
    boundaries = np.searchsorted(sorted_cells, np.arange(nlist + 1))
    return [
        np.sort(order[boundaries[c] : boundaries[c + 1]]) for c in range(nlist)
    ]
