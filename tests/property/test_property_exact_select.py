"""Property test: every exact serving path == a brute-force canonical ranking.

The oracle scores *every* row with the canonical einsum
(``canonical_scores`` in ``tests/conftest.py``) and ranks by
``lexsort((ids, -scores))`` — no selection, no band.  The engines under
test select with a GEMM in the dtype of the matrix they are given (the
serving backend's resident float32 copy, or float64) and rescore only the
rows in :func:`repro.search.knn.select_band`'s certified band, so they
agree with the oracle bit for bit only if the band never drops a row of
the true top-k.  The corpora are built to make that hard: duplicate rows,
zero rows, rows one ulp apart, zero and repeated queries, and a pinned
pair whose float32 images are equal while their float64 scores straddle
the k-th.  Batches of 1–16 queries straddle the 8-row tile below which
selection runs one GEMV per query instead of a GEMM, and every row of a
batch must equal the answer to that query asked alone.

The rows themselves are derived, never stored: :func:`feature_rows` is
the one definition of a search row, and it must give the same bits for
a row whatever it is derived with — alone, in chunks, through a store's
``pread`` view of 1 or 3 shards — and the answers a store serves must be
the oracle's over :func:`search_features` (ROADMAP item 20).
"""

from __future__ import annotations

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PANEConfig
from repro.core.embedding import PANEEmbedding
from repro.search.knn import (
    CompiledFilter,
    exact_top_k,
    normalize_rows,
    select_band,
)
from repro.serving import store as store_module
from repro.serving.index import ExactBackend
from repro.serving.service import QueryService, SearchRequest
from repro.serving.sharding.router import ShardRouter
from repro.serving.store import (
    EmbeddingStore,
    Partitioner,
    feature_rows,
    search_features,
)


def oracle(canonical_scores, features, queries, k, *, exclude=None, mask=None):
    """Canonical score of every row, then ``lexsort((ids, -scores))``."""
    n = features.shape[0]
    width = min(k, n)
    all_ids = np.arange(n)
    ids = np.full((queries.shape[0], width), -1, dtype=np.intp)
    scores = np.full((queries.shape[0], width), -np.inf)
    for row, query in enumerate(queries):
        full = canonical_scores(features, all_ids, query)
        if mask is not None:
            full[~mask] = -np.inf
        if exclude is not None and exclude[row] >= 0:
            full[exclude[row]] = -np.inf
        order = np.lexsort((all_ids, -full))[:width]
        keep = full[order] > -np.inf
        ids[row] = np.where(keep, order, -1)
        scores[row] = np.where(keep, full[order], -np.inf)
    return ids, scores


@st.composite
def problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 72))
    dim = draw(st.integers(1, 20))
    features = normalize_rows(rng.standard_normal((n, dim)))
    for _ in range(draw(st.integers(0, 6))):
        source, target = (int(v) for v in rng.integers(0, n, size=2))
        kind = draw(st.sampled_from(["duplicate", "zero", "ulp"]))
        if kind == "duplicate":
            features[target] = features[source]
        elif kind == "zero":
            features[target] = 0.0
        else:  # a copy of another row with one element one ulp away
            features[target] = features[source]
            column = int(rng.integers(dim))
            features[target, column] = np.nextafter(
                features[source, column], rng.choice([-np.inf, np.inf])
            )
    queries = []
    for _ in range(draw(st.integers(1, 16))):
        shape = draw(st.sampled_from(["row", "random", "zero", "repeat"]))
        if shape == "repeat" and queries:  # a duplicate query in the batch
            queries.append(queries[rng.integers(len(queries))])
        elif shape == "row":
            queries.append(features[rng.integers(n)])
        elif shape == "random":
            queries.append(normalize_rows(rng.standard_normal((1, dim)))[0])
        elif shape == "zero":  # a zero query ties every row
            queries.append(np.zeros(dim))
        else:
            queries.append(normalize_rows(rng.standard_normal((1, dim)))[0])
    queries = np.vstack(queries)
    k = draw(st.integers(1, n + 2))
    exclude = (
        rng.integers(-1, n, size=queries.shape[0]).astype(np.intp)
        if draw(st.booleans())
        else None
    )
    # Spans both filter strategies: gather at <= 12.5 % kept, mask above.
    keep = draw(st.sampled_from([None, 0.05, 0.1, 0.5, 0.9]))
    mask = None if keep is None else rng.random(n) < keep
    return features, queries, k, exclude, mask


def _router(features, n_shards, kind):
    partitioner = Partitioner.build(kind, n_shards, features.shape[0])
    return ShardRouter(
        [
            ExactBackend(np.ascontiguousarray(features[partitioner.shard_members(s)]))
            for s in range(n_shards)
        ],
        partitioner,
    )


def _engines(features, queries, k, exclude, mask):
    """Every exact path, by name, each answering ``(ids, scores)``."""
    node_filter = None if mask is None else CompiledFilter(mask)
    routed = dict(exclude=exclude, node_filter=node_filter)
    return {
        "float64 engine": exact_top_k(
            features, queries, k, assume_normalized=True, **routed
        ),
        "float32 selection, float64 rows": exact_top_k(
            features.astype(np.float32), queries, k,
            assume_normalized=True, rows=features, **routed,
        ),
        "exact backend": ExactBackend(features).search(queries, k, **routed),
        "1-shard router": _router(features, 1, "range").search(queries, k, **routed),
        "3-shard range router": _router(features, 3, "range").search(
            queries, k, **routed
        ),
        "3-shard hash router": _router(features, 3, "hash").search(
            queries, k, **routed
        ),
    }


def _assert_matches(canonical_scores, features, queries, k, exclude=None, mask=None):
    ref_ids, ref_scores = oracle(
        canonical_scores, features, queries, k, exclude=exclude, mask=mask
    )
    width = ref_ids.shape[1]
    for name, (ids, scores) in _engines(features, queries, k, exclude, mask).items():
        assert np.all(ids[:, width:] == -1), name
        assert np.array_equal(ids[:, :width], ref_ids), name
        assert scores[:, :width].tobytes() == ref_scores.tobytes(), name


class TestExactSelection:
    @given(problems())
    @settings(max_examples=150, deadline=None)
    def test_every_exact_path_matches_the_oracle(self, canonical_scores, problem):
        features, queries, k, exclude, mask = problem
        _assert_matches(canonical_scores, features, queries, k, exclude, mask)

    @given(problems(), st.sampled_from([1, 3, 8, 128]))
    @settings(max_examples=100, deadline=None)
    def test_batch_rows_equal_single_queries(self, problem, tile_size):
        """A batch answers each row as that query alone would be answered,
        whatever the tiling and on both sides of the GEMV/GEMM switch."""
        features, queries, k, exclude, mask = problem
        node_filter = None if mask is None else CompiledFilter(mask)
        backend = ExactBackend(features)
        router = _router(features, 3, "range")

        def engines(rows, excluded):
            routed = dict(exclude=excluded, node_filter=node_filter)
            return {
                "float64 engine": exact_top_k(
                    features, rows, k, assume_normalized=True,
                    tile_size=tile_size, **routed,
                ),
                "float32 selection, float64 rows": exact_top_k(
                    features.astype(np.float32), rows, k, assume_normalized=True,
                    rows=features, tile_size=tile_size, **routed,
                ),
                "exact backend": backend.search(rows, k, **routed),
                "3-shard range router": router.search(rows, k, **routed),
            }

        batched = engines(queries, exclude)
        for row in range(queries.shape[0]):
            alone = engines(
                queries[row : row + 1],
                None if exclude is None else exclude[row : row + 1],
            )
            for name, (ids, scores) in alone.items():
                assert np.array_equal(batched[name][0][row], ids[0]), (name, row)
                assert np.array_equal(batched[name][1][row], scores[0]), (name, row)

    def test_float32_twins_straddling_the_kth(self, canonical_scores):
        """Two rows with one float32 image whose float64 scores differ.

        The twin with the larger id scores higher, and the pair holds
        ranks 3 and 4, so a selection that settled the float32 tie by id
        would return the wrong row at ``k = 3``.
        """
        rng = np.random.default_rng(20261016)
        dim = 8
        query = normalize_rows(rng.standard_normal((1, dim)))[0]
        above = normalize_rows(query + 0.02 * rng.standard_normal((2, dim)))
        first = normalize_rows(query + 0.5 * rng.standard_normal((1, dim)))[0]
        below = normalize_rows(-query + 0.3 * rng.standard_normal((3, dim)))
        column = int(np.argmax(np.abs(query)))
        score = canonical_scores(first[np.newaxis], [0], query)[0]
        for ulps in range(1, 256):
            twin = first.copy()
            twin[column] += ulps * abs(np.spacing(first[column])) * np.sign(query[column])
            if canonical_scores(twin[np.newaxis], [0], query)[0] > score:
                break
        features = np.vstack([above, first, twin, below])
        # The case is live: equal float32 images, unequal float64 scores,
        # and the oracle keeps the later twin only.
        assert np.array_equal(
            features[2].astype(np.float32), features[3].astype(np.float32)
        )
        ids, _ = oracle(canonical_scores, features, query[np.newaxis], 3)
        assert 3 in ids[0] and 2 not in ids[0]
        _assert_matches(canonical_scores, features, query[np.newaxis], 3)
        _assert_matches(canonical_scores, features, query[np.newaxis], 3, exclude=np.array([0]))
        keep_twins = np.array([False, True, True, True, False, True, False])
        _assert_matches(canonical_scores, features, query[np.newaxis], 2, mask=keep_twins)

    def test_a_batch_of_zero_node_queries(self, monkeypatch, canonical_scores):
        """Zero rows (isolated nodes without features) queried by node.

        A zero query ties every row, so each query's band is the whole
        corpus.  The batch still matches the oracle, every live row of
        every band is rescored, and the engine holds one query's band at
        a time once a tile's bands outgrow its budget — not the tile's.
        """
        import tracemalloc

        from repro.search import knn

        rng = np.random.default_rng(5)
        n, dim, k = 4000, 16, 10
        features = normalize_rows(rng.standard_normal((n, dim)))
        nodes = np.arange(0, n, 50)
        features[nodes] = 0.0
        queries = features[nodes]
        _assert_matches(canonical_scores, features, queries, k, exclude=nodes)

        class Tally:
            total = 0

            def inc(self, amount):
                self.total += amount

        monkeypatch.setattr(knn, "_BAND_CANDIDATES", n)
        backend = ExactBackend(features)
        backend.rescored_rows = Tally()
        tracemalloc.start()
        try:
            ids, scores = backend.search(queries, k, exclude=nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ref_ids, ref_scores = oracle(
            canonical_scores, features, queries, k, exclude=nodes
        )
        assert np.array_equal(ids, ref_ids)
        assert scores.tobytes() == ref_scores.tobytes()
        assert backend.rescored_rows.total == nodes.size * (n - 1)
        # The whole tile's band at once is 80 × 3999 candidates: tens of
        # MiB of indices, gathers and sort keys.  One query's is ≈ 0.3.
        assert peak < 6 << 20


@st.composite
def score_blocks(draw):
    """``(scores, k, dim)`` for :func:`select_band`: 1–6 rows of 1–3 000
    columns, float32 or float64, optionally quantised (heavy ties), with
    zero rows and ``-inf`` masks, some leaving fewer than ``k`` live."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    q = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3000))
    k = draw(st.one_of(st.integers(1, min(m, 24)), st.integers(1, m)))
    dim = draw(st.integers(1, 128))
    scores = rng.uniform(-1.0, 1.0, size=(q, m))
    levels = draw(st.sampled_from([None, 1, 3, 40, 1000]))
    if levels is not None:
        scores = np.round(scores * levels) / levels
    scores = scores.astype(draw(st.sampled_from([np.float32, np.float64])))
    for row in range(q):
        shape = draw(st.sampled_from(["plain", "zero", "masked", "short"]))
        if shape == "zero":  # a zero query ties every column
            scores[row] = 0.0
        elif shape == "masked":
            scores[row, rng.random(m) < rng.random()] = -np.inf
        elif shape == "short":  # at most k live columns, often fewer
            live = rng.choice(m, size=int(rng.integers(0, k + 1)), replace=False)
            dead = np.ones(m, dtype=bool)
            dead[live] = False
            scores[row, dead] = -np.inf
    return scores, k, dim


@pytest.mark.contract
class TestSelectBand:
    """Contract: The select_band property test and tests/test_search.py guard
    the exact engine's selection: its band must equal the full-partition
    reference's mask (float32/float64, heavy ties, zero rows, -inf masks),
    and one query may run no partition wider than m // 8 and no np.nonzero
    over a 2-D mask (a whole-row partition creeping back fails here), while
    non-finite rows and queries raise.
    """

    @given(score_blocks())
    @settings(max_examples=300, deadline=None)
    def test_band_equals_the_full_partition_reference(
        self, select_band_reference, block
    ):
        """The strided-maxima bound finds each row's k-th best exactly, so
        the mask is the one a partition of every column gives."""
        scores, k, dim = block
        assert np.array_equal(
            select_band(scores, k, dim), select_band_reference(scores, k, dim)
        )


@st.composite
def halves(draw):
    """``Xf`` / ``Xb`` rows over six orders of magnitude, some with one
    half or both halves zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 60))
    half = draw(st.integers(1, 12))
    xf, xb = (
        rng.standard_normal((n, half)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        for _ in range(2)
    )
    for _ in range(draw(st.integers(0, 6))):
        row = int(rng.integers(n))
        zeroed = draw(st.sampled_from(["forward", "backward", "both"]))
        if zeroed != "backward":
            xf[row] = 0.0
        if zeroed != "forward":
            xb[row] = 0.0
    return xf, xb


def _embedding(xf, xb):
    half = xf.shape[1]
    return PANEEmbedding(
        x_forward=xf, x_backward=xb, y=np.eye(max(2, half), half),
        config=PANEConfig(k=2 * half),
    )


def _open(root, embedding, n_shards, kind):
    store = EmbeddingStore(
        root, n_shards=n_shards, partition=kind if n_shards > 1 else None
    )
    store.publish(embedding)
    return store


LAYOUTS = [(1, "range"), (3, "range"), (3, "hash")]


class TestDerivedSearchRows:
    @given(halves(), st.sampled_from([1, 7, 8192]))
    @settings(max_examples=150, deadline=None)
    def test_feature_rows_are_row_local(self, pair, chunk):
        """The fused derivation is the paper's preprocessing (each half
        unit rows, concatenated) then unit rows, bit for bit, whatever
        rows are derived together."""
        xf, xb = pair
        n = xf.shape[0]
        full = feature_rows(xf, xb)
        preprocessed = _embedding(xf, xb).node_embeddings(normalize=True)
        assert full.tobytes() == normalize_rows(preprocessed).tobytes()
        chunked = np.vstack([
            feature_rows(xf[start : start + chunk], xb[start : start + chunk])
            for start in range(0, n, chunk)
        ])
        assert chunked.tobytes() == full.tobytes()
        subset = np.random.default_rng(n).integers(0, n, size=min(n, 9))
        assert feature_rows(xf[subset], xb[subset]).tobytes() == full[subset].tobytes()
        for row in range(n):
            assert feature_rows(xf[row], xb[row]).tobytes() == full[row].tobytes()

    @given(halves(), st.sampled_from(LAYOUTS), st.sampled_from([1, 7, 8192]))
    @settings(max_examples=60, deadline=None)
    def test_a_stores_search_rows_are_the_oracles(self, pair, layout, chunk):
        """``stored.features`` — gathers by ``pread`` and the chunked
        whole-matrix derivation — is :func:`search_features`, per shard
        and in global order."""
        embedding = _embedding(*pair)
        full = search_features(embedding)
        n, dim = full.shape
        with tempfile.TemporaryDirectory() as root:
            stored = _open(root, embedding, *layout).open()
            assert not any(path.name == "features.npy" for path in stored.path.rglob("*"))
            ids = np.random.default_rng(n).integers(0, n, size=min(n, 9))
            assert stored.features[ids].tobytes() == full[ids].tobytes()
            assert stored.features[int(ids[0])].tobytes() == full[ids[0]].tobytes()
            # Stream budget of ``chunk`` rows per pass (three buffers a row).
            with mock.patch.object(store_module, "_STREAM_BYTES", 3 * chunk * dim * 8):
                assert np.asarray(stored.features).tobytes() == full.tobytes()
                for shard in stored.shards:
                    members = stored.partitioner.shard_members(shard.shard)
                    assert np.array_equal(
                        np.asarray(shard.features, dtype=np.float32),
                        full[members].astype(np.float32),
                    )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_served_answers_equal_the_oracle(self, tmp_path, layout):
        """Unsharded and sharded answers over a store are
        ``exact_top_k(search_features(emb))``'s bits."""
        rng = np.random.default_rng(20)
        n, half, k = 300, 6, 10
        xf, xb = rng.standard_normal((n, half)), rng.standard_normal((n, half))
        xf[[3, 40]] = 0.0
        xb[[40, 77]] = 0.0
        xb[5] = xb[6]
        xf[5] = xf[6] * 1e-3
        embedding = _embedding(xf, xb)
        full = search_features(embedding)
        store = _open(tmp_path / "store", embedding, *layout)
        nodes = np.arange(0, n, 7)
        want_ids, want_scores = exact_top_k(
            full, full[nodes], k, assume_normalized=True, exclude=nodes
        )
        with QueryService(store, cache_size=0) as service:
            got = service.search(SearchRequest(nodes=nodes, k=k))
            assert np.array_equal(got.ids, want_ids)
            assert got.scores.tobytes() == want_scores.tobytes()
            for row, node in enumerate(nodes[:12]):
                one = service.search(SearchRequest(node=int(node), k=k))
                assert np.array_equal(one.ids, want_ids[row])
                assert one.scores.tobytes() == want_scores[row].tobytes()
