"""The unified query API: SearchRequest/SearchParams and filters.

``QueryService.search(SearchRequest)`` is the one entrypoint (and
``PinnedView.search`` its pinned twin).  These tests pin the contract:
validation, the absence of any per-shape method, filter semantics
through the service (attribute predicates, the vector-query deny fix,
cache isolation, partition errors on unsharded stores), and capability
advertisement in ``describe()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.search.knn import FilterError, NodeFilter
from repro.serving.service import (
    QueryService,
    SearchParams,
    SearchRequest,
)


@pytest.fixture()
def service(store):
    with QueryService(store) as svc:
        yield svc


class TestSearchParams:
    def test_defaults_are_all_none(self):
        params = SearchParams()
        assert params.key() == (None, None, None)
        assert params.to_json() == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchParams(nprobe=0)
        with pytest.raises(ValueError):
            SearchParams(rescore_factor=0)
        with pytest.raises(ValueError):
            SearchParams(select_dtype="float16")

    def test_json_round_trip(self):
        params = SearchParams(nprobe=4, rescore_factor=2, select_dtype="float32")
        assert SearchParams.from_json(params.to_json()) == params

    @pytest.mark.parametrize(
        "obj",
        [
            {"bogus": 1},
            {"nprobe": True},
            {"nprobe": "4"},
            {"select_dtype": 32},
        ],
    )
    def test_from_json_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            SearchParams.from_json(obj)


class TestSearchRequest:
    def test_exactly_one_query_shape(self):
        with pytest.raises(ValueError):
            SearchRequest(k=3)
        with pytest.raises(ValueError):
            SearchRequest(node=1, nodes=[2, 3])
        with pytest.raises(ValueError):
            SearchRequest(node=1, vector=np.zeros(4))

    def test_k_and_types_validated(self):
        with pytest.raises(ValueError):
            SearchRequest(node=1, k=0)
        with pytest.raises(ValueError):
            SearchRequest(node=1, filter={"allow": [1]})  # must be NodeFilter
        with pytest.raises(ValueError):
            SearchRequest(node=1, params={"nprobe": 2})  # must be SearchParams

    def test_filter_key_none_for_noop(self):
        assert SearchRequest(node=1).filter_key() is None
        assert SearchRequest(node=1, filter=NodeFilter()).filter_key() is None
        f = NodeFilter(deny=[3])
        assert SearchRequest(node=1, filter=f).filter_key() == f.key()


class TestUnifiedSearch:
    def test_node_nodes_vector_dispatch(self, service):
        single = service.search(SearchRequest(node=3, k=5))
        batch = service.search(SearchRequest(nodes=[3, 4], k=5))
        assert single.ids.shape == (5,)
        assert batch.ids.shape == (2, 5)
        assert np.array_equal(batch.ids[0], single.ids)
        vector = service.search(
            SearchRequest(vector=np.random.default_rng(0).standard_normal(16), k=5)
        )
        assert vector.ids.shape == (5,)

    def test_search_is_the_only_query_method(self, service):
        for owner in (service, service.pin()):
            for name in ("top_k", "batch_top_k", "similar_by_vector"):
                assert not hasattr(owner, name), (type(owner).__name__, name)
        pinned = service.pin().search(SearchRequest(node=2, k=6))
        direct = service.search(SearchRequest(node=2, k=6))
        assert np.array_equal(pinned.ids, direct.ids)
        assert pinned.scores.tobytes() == direct.scores.tobytes()

    def test_filtered_results_respect_filter(self, service):
        deny = NodeFilter(deny=[0, 1, 2])
        result = service.search(SearchRequest(node=0, k=8, filter=deny))
        returned = result.ids[result.ids >= 0]
        assert not (set(returned) & {0, 1, 2})
        allow = NodeFilter(allow=list(range(10)))
        result = service.search(SearchRequest(node=0, k=8, filter=allow))
        assert set(result.ids[result.ids >= 0]) <= set(range(10))

    def test_similar_by_vector_honors_deny(self, service):
        # The old API could exclude ids on node queries but not vector
        # queries; NodeFilter closes that asymmetry.
        rng = np.random.default_rng(3)
        vector = rng.standard_normal(16)
        base = service.search(SearchRequest(vector=vector, k=4))
        target = int(base.ids[0])
        filtered = service.search(
            SearchRequest(vector=vector, k=4, filter=NodeFilter(deny=[target]))
        )
        assert target not in set(filtered.ids[filtered.ids >= 0])

    def test_attribute_predicate_matches_affinity_ranking(self, service, store):
        stored = store.open()
        y_row = np.asarray(stored.y[2], dtype=np.float64)
        affinity = np.asarray(stored.x_forward) @ y_row + (
            np.asarray(stored.x_backward) @ y_row
        )
        threshold = float(np.quantile(affinity, 0.8))
        eligible = set(np.nonzero(affinity >= threshold)[0])
        request = SearchRequest(
            node=0, k=10, filter=NodeFilter(attributes=[(2, threshold)])
        )
        result = service.search(request)
        returned = set(int(i) for i in result.ids[result.ids >= 0])
        assert returned <= eligible

    def test_attribute_out_of_range_is_filter_error(self, service):
        request = SearchRequest(
            node=0, k=4, filter=NodeFilter(attributes=[(10_000, 0.0)])
        )
        with pytest.raises(FilterError):
            service.search(request)

    def test_partition_filter_on_unsharded_store_fails(self, service):
        request = SearchRequest(node=0, k=4, filter=NodeFilter(partitions=[0]))
        with pytest.raises(FilterError):
            service.search(request)

    def test_cache_isolates_filtered_from_unfiltered(self, service):
        plain = service.search(SearchRequest(node=7, k=5))
        filtered = service.search(
            SearchRequest(node=7, k=5, filter=NodeFilter(deny=[int(plain.ids[0])]))
        )
        assert plain.ids[0] not in filtered.ids
        again = service.search(SearchRequest(node=7, k=5))
        assert again.cached
        assert np.array_equal(again.ids, plain.ids)

    def test_compiled_filters_are_cached_per_version(self, service):
        node_filter = NodeFilter(deny=[1, 2])
        service.search(SearchRequest(node=0, k=3, filter=node_filter))
        service.search(SearchRequest(node=4, k=3, filter=node_filter))
        keys = [key for key in service._filter_cache if key[1] == node_filter.key()]
        assert len(keys) == 1  # one compile, reused across requests

    def test_describe_advertises_filter_capabilities(self, service):
        info = service.describe()
        assert info["filters"] == {
            "ids": True,
            "attributes": True,
            "partitions": False,
        }

    def test_pinned_view_search(self, service):
        view = service.pin()
        pinned = view.search(SearchRequest(node=1, k=4, filter=NodeFilter(deny=[2])))
        live = service.search(SearchRequest(node=1, k=4, filter=NodeFilter(deny=[2])))
        assert np.array_equal(pinned.ids, live.ids)
        assert pinned.scores.tobytes() == live.scores.tobytes()
