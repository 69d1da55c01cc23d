"""The search backend: one interface, one exact engine.

``SearchBackend`` is the contract the :class:`~repro.serving.service.QueryService`
speaks: cosine top-k of query *vectors* against a fixed, unit-row-normalized
matrix.  :class:`ExactBackend` is its one engine — brute force, delegating
to the tiled engine in :mod:`repro.search.knn` (that module *is* the exact
backend; this class adapts it to the interface): certified selection over
a resident float32 copy, canonical rescore of the candidates from the
float64 rows.  A sharded store puts one per shard behind a
:class:`~repro.serving.sharding.router.ShardRouter`, the interface's other
implementation.

A backend counts the rows it rescores into ``rescored_rows``: the counter
of the service that activated it, or none.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.search.knn import CompiledFilter, exact_top_k
from repro.serving.obs.metrics import Counter


class SearchBackend(abc.ABC):
    """Cosine top-k search over a fixed matrix of unit-norm rows."""

    features: np.ndarray  # (n, dim), unit rows

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
        node_filter: CompiledFilter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ids and similarities per query row, descending.

        ``queries`` is ``(q, dim)`` (or a single ``dim`` vector → 1-D
        result); ``exclude`` optionally masks one row id per query
        (``-1`` = none); ``node_filter`` restricts the candidate rows.
        Rows that cannot fill ``k`` results (``k`` above the candidate
        count) are padded with id ``-1`` and similarity ``-inf``.
        """


class ExactBackend(SearchBackend):
    """Brute-force exact backend over :mod:`repro.search.knn`.

    ``features`` must be float64 with unit rows.  Selection scans a
    resident float32 copy (``select``, half the bytes of the float64
    rows) and only the rows in the certified band are rescored from the
    float64 ``features``, so answers are the float64 engine's bit for bit
    (:func:`repro.search.knn.select_band`).  A store's
    :class:`~repro.serving.store.SearchRows` derives both from ``Xf`` /
    ``Xb`` rows read by ``pread``: the float64 rows cost page cache, not
    resident memory.
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


def check_backend_kind(kind: str) -> None:
    """Refuse any backend kind but ``"exact"``, the one engine there is."""
    if kind != "exact":
        raise ValueError(
            f"unknown backend kind {kind!r}: the only backend is 'exact' "
            "(the approximate inverted-file backend was removed)"
        )


def make_backend(features: np.ndarray, kind: str = "exact") -> ExactBackend:
    """The backend over ``features``; ``kind`` must be ``"exact"``."""
    check_backend_kind(kind)
    return ExactBackend(features)
