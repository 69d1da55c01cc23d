"""Wire-versioning tests for the filtered-search fields.

The ``"filter"`` request field is a purely *additive* protocol change on
the three data endpoints.  The compatibility matrix
under test:

- **old client / new server** — requests without the new fields answer
  exactly as before, and unknown-field rejection still catches typos;
- **new client / old server** — the filter rides as a normal body field,
  so an old server's strict validator answers a structured 400 (proved
  against the old allowlist) instead of silently dropping the filter and
  returning unfiltered rows; capability is discoverable up front via
  ``describe()["filters"]``;
- filtered answers over both wire formats are bit-identical to the
  in-process service;
- binary frames may carry allow/deny id sets as raw ``filter_allow`` /
  ``filter_deny`` arrays, merged server-side into the filter object.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.search.knn import NodeFilter
from repro.serving.http import ApiError, EmbeddingServer, ServingClient
from repro.serving.http import protocol
from repro.serving.service import QueryService, SearchRequest

# The /v1/topk allowlist as it was before the filter fields existed: an
# old server validates against exactly this set.
OLD_TOPK_FIELDS = ("node", "k", "nprobe")


@pytest.fixture()
def service(store):
    with QueryService(store, backend="exact", n_threads=2) as service:
        yield service


@pytest.fixture()
def server(service):
    with EmbeddingServer(service) as server:
        yield server


@pytest.fixture(params=["json", "binary"])
def client(server, request):
    client = ServingClient(server.url, retries=0, wire=request.param)
    yield client
    client.close()


class TestOldClientNewServer:
    def test_plain_requests_unchanged(self, client, service):
        reference = service.search(SearchRequest(node=3, k=5))
        result = client.top_k(3, 5)
        assert np.array_equal(result.ids, reference.ids)
        assert result.scores.tobytes() == reference.scores.tobytes()

    def test_unknown_fields_still_rejected(self, server):
        client = ServingClient(server.url, retries=0)
        with pytest.raises(ApiError) as excinfo:
            client._request("POST", protocol.TOPK, {"node": 1, "k": 3, "filtre": {}})
        assert excinfo.value.code == "invalid_request"
        client.close()


class TestNewClientOldServer:
    def test_capability_is_discoverable_before_sending(self, client):
        info = client.describe()
        assert info["filters"] == {
            "ids": True,
            "attributes": True,
            "partitions": False,
        }

    def test_old_validator_rejects_filter_with_structured_400(self):
        # A new client's filtered request against an old server hits the
        # old strict allowlist: a structured invalid_request, never a
        # silently unfiltered answer.
        body = {"node": 1, "k": 3}
        from repro.serving.http.client import _merge_filter

        _merge_filter(body, NodeFilter(deny=[2]))
        assert "filter" in body  # rides as a plain field both wires
        with pytest.raises(ApiError) as excinfo:
            protocol.reject_unknown_fields(body, OLD_TOPK_FIELDS)
        assert excinfo.value.status == 400


class TestFilteredOverTheWire:
    def test_topk_bit_identical_to_in_process(self, client, service):
        node_filter = NodeFilter(allow=list(range(60)), deny=[5, 7])
        reference = service.search(SearchRequest(node=3, k=6, filter=node_filter))
        result = client.top_k(3, 6, filter=node_filter)
        assert np.array_equal(result.ids, reference.ids)
        assert result.scores.tobytes() == reference.scores.tobytes()

    def test_batch_and_vector_bit_identical(self, client, service):
        node_filter = NodeFilter(deny=[0, 1])
        ref_batch = service.search(
            SearchRequest(nodes=[1, 2, 9], k=4, filter=node_filter)
        )
        got_batch = client.batch_top_k([1, 2, 9], 4, filter=node_filter)
        assert np.array_equal(got_batch.ids, ref_batch.ids)
        assert got_batch.scores.tobytes() == ref_batch.scores.tobytes()

        vector = np.random.default_rng(1).standard_normal(16)
        ref_vec = service.search(SearchRequest(vector=vector, k=4, filter=node_filter))
        got_vec = client.similar_by_vector(vector, 4, filter={"deny": [0, 1]})
        assert np.array_equal(got_vec.ids, ref_vec.ids)
        assert got_vec.scores.tobytes() == ref_vec.scores.tobytes()

    def test_params_is_an_unknown_field(self, client):
        """The probe-width ``"params"`` object left with the IVF backend:
        on every data endpoint, over either wire, it is an unknown field
        like a top-level ``"nprobe"`` — a structured 400 naming it."""
        for path, shape in (
            (protocol.TOPK, {"node": 3}),
            (protocol.TOPK_BATCH, {"nodes": [3, 4]}),
            (protocol.SIMILAR, {"vector": [1.0] * 16}),
        ):
            for extra in ({"params": {"nprobe": 4}}, {"params": {}}, {"nprobe": 4}):
                with pytest.raises(ApiError) as excinfo:
                    client._request("POST", path, {**shape, "k": 5, **extra})
                assert excinfo.value.status == 400
                assert excinfo.value.code == "invalid_request"
                assert excinfo.value.details["unknown"] == sorted(extra)
        # The plain request beside it still answers.
        assert client.top_k(3, 5).ids.shape == (5,)

    @pytest.mark.parametrize(
        "bad",
        [
            {"allow": "nope"},
            {"bogus": [1]},
            {"attributes": [{"attribute": 99999}]},
            {"partitions": [0]},  # unsharded deployment
        ],
    )
    def test_invalid_filter_code_on_both_wires(self, client, bad):
        with pytest.raises(ApiError) as excinfo:
            client.top_k(3, 5, filter=bad)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_filter"

    def test_empty_allow_set_returns_padding_not_error(self, client):
        result = client.top_k(3, 5, filter={"allow": [3]})
        # node 3 itself is the query (self-excluded): nothing remains
        assert (result.ids == -1).all()


class TestFrameIdArrays:
    def test_binary_filter_arrays_merge_into_filter(self, server, service):
        node_filter = NodeFilter(allow=list(range(40)), deny=[3])
        fields, arrays = protocol.encode_filter(node_filter, binary=True)
        assert set(arrays) == {"filter_allow", "filter_deny"}
        client = ServingClient(server.url, retries=0, wire="binary")
        payload = client._request(
            "POST", protocol.TOPK, {"node": 2, "k": 5, **fields}, arrays=arrays
        )
        _, ids, scores, _, _ = protocol.parse_result_payload(payload)
        reference = service.search(SearchRequest(node=2, k=5, filter=node_filter))
        assert np.array_equal(ids, reference.ids)
        assert scores.tobytes() == reference.scores.tobytes()
        client.close()

    def test_array_and_object_forms_are_mutually_exclusive(self, server):
        client = ServingClient(server.url, retries=0, wire="binary")
        with pytest.raises(ApiError) as excinfo:
            client._request(
                "POST",
                protocol.TOPK,
                {"node": 2, "k": 5, "filter": {"allow": [1]}},
                arrays={"filter_allow": np.array([1, 2], dtype=np.int64)},
            )
        assert excinfo.value.code == "invalid_filter"
        client.close()

    def test_oversize_id_set_rejected(self, server):
        client = ServingClient(server.url, retries=0, wire="binary")
        huge = np.arange(protocol.MAX_FILTER_IDS + 1, dtype=np.int64)
        with pytest.raises(ApiError) as excinfo:
            client._request(
                "POST", protocol.TOPK, {"node": 2, "k": 5},
                arrays={"filter_allow": huge},
            )
        assert excinfo.value.code == "invalid_filter"
        client.close()
