"""Tests for the stdlib JSON HTTP front end (``repro serve``)."""

import http.client
import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import QueryService, ServiceConfig, SocialSearchEngine
from repro.service.http_api import MAX_BODY_BYTES, ServiceHTTPServer
from repro.workload import tiny_dataset


@pytest.fixture()
def server():
    """A live server on an ephemeral port over a fresh tiny dataset."""
    dataset = tiny_dataset(seed=3)
    engine = SocialSearchEngine(dataset)
    service = QueryService(engine, ServiceConfig(port=0))
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    service.close()
    thread.join(timeout=5.0)


def base_url(server):
    return f"http://127.0.0.1:{server.server_port}"


def get_json(server, path):
    with urllib.request.urlopen(base_url(server) + path, timeout=10.0) as response:
        return response.status, json.load(response)


def post_announcing(server, content_length):
    """POST /query whose ``Content-Length`` header is ``content_length``.

    No body follows the headers, so a reply proves the server decided
    from the header alone.  Returns ``(status, body, Connection header)``.
    """
    connection = http.client.HTTPConnection("127.0.0.1", server.server_port,
                                            timeout=10.0)
    try:
        connection.putrequest("POST", "/query")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        response = connection.getresponse()
        return (response.status, json.load(response),
                response.getheader("Connection"))
    finally:
        connection.close()


def post_json(server, path, payload):
    request = urllib.request.Request(
        base_url(server) + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, json.load(response)


def post_raw(server, path, body):
    """POST ``body`` (bytes) exactly as given; ``(status, json)`` whatever
    the status, so a test can send what ``json.dumps`` would not write."""
    connection = http.client.HTTPConnection("127.0.0.1", server.server_port,
                                            timeout=10.0)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.load(response)
    finally:
        connection.close()


#: JSON spellings ``int()`` mishandles: overflow, truncation, bool-as-1.
NOT_INTEGERS = ["1e999", "1.7", "true"]


class TestHealthAndMetrics:
    def test_health_reports_dataset(self, server):
        status, body = get_json(server, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["dataset"] == "tiny"

    def test_stats_snapshot(self, server):
        tag = server.service.engine.dataset.tags()[0]
        get_json(server, f"/query?seeker=1&tags={tag}&k=3")
        status, body = get_json(server, "/stats")
        assert status == 200
        assert body["service"]["requests"] >= 1
        assert "result_cache" in body

    def test_metrics_prometheus_text(self, server):
        tag = server.service.engine.dataset.tags()[0]
        get_json(server, f"/query?seeker=1&tags={tag}&k=3")
        with urllib.request.urlopen(base_url(server) + "/metrics",
                                    timeout=10.0) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        assert "# TYPE repro_service_requests gauge" in text
        assert "repro_service_requests 1" in text
        assert "# TYPE repro_service_latency_seconds histogram" in text
        assert 'repro_service_latency_seconds_bucket{le="+Inf"} 1' in text


class TestQueryEndpoint:
    def test_get_query(self, server):
        tag = server.service.engine.dataset.tags()[0]
        status, body = get_json(server, f"/query?seeker=1&tags={tag}&k=3")
        assert status == 200
        assert body["query"] == {"seeker": 1, "tags": [tag], "k": 3}
        assert body["outcome"] == "computed"
        assert len(body["items"]) <= 3
        assert all({"item_id", "score"} <= set(item) for item in body["items"])

    def test_post_query_and_cache_hit(self, server):
        tag = server.service.engine.dataset.tags()[0]
        payload = {"seeker": 2, "tags": [tag], "k": 4}
        status, first = post_json(server, "/query", payload)
        assert status == 200 and first["outcome"] == "computed"
        _, second = post_json(server, "/query", payload)
        assert second["outcome"] == "hit"
        assert second["items"] == first["items"]

    def test_explicit_algorithm(self, server):
        tag = server.service.engine.dataset.tags()[0]
        _, body = get_json(server, f"/query?seeker=1&tags={tag}&k=3&algorithm=exact")
        assert body["algorithm"] == "exact"

    def test_concurrent_requests(self, server):
        tags = server.service.engine.dataset.tags()

        def fetch(i):
            return get_json(server, f"/query?seeker={i % 6}&tags={tags[i % 3]}&k=3")[0]

        with ThreadPoolExecutor(max_workers=8) as pool:
            statuses = list(pool.map(fetch, range(24)))
        assert statuses == [200] * 24

    def test_missing_seeker_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/query?tags=jazz")
        assert excinfo.value.code == 400
        assert "seeker" in json.load(excinfo.value)["error"]

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_non_integer_seeker_is_400(self, server, value):
        status, body = post_raw(
            server, "/query",
            b'{"seeker": %s, "tags": ["jazz"], "k": 3}' % value.encode())
        assert status == 400
        assert "seeker" in body["error"]

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_non_integer_k_is_400(self, server, value):
        status, body = post_raw(
            server, "/query",
            b'{"seeker": 1, "tags": ["jazz"], "k": %s}' % value.encode())
        assert status == 400
        assert "'k'" in body["error"]

    def test_only_an_absent_k_defaults(self, server):
        tag = server.service.engine.dataset.tags()[0]
        _, body = post_json(server, "/query", {"seeker": 1, "tags": [tag]})
        assert body["query"]["k"] == 10
        status, body = post_raw(
            server, "/query",
            json.dumps({"seeker": 1, "tags": [tag], "k": 0}).encode())
        assert status == 400
        assert "k must be >= 1" in body["error"]

    def test_tags_must_be_a_list_of_strings(self, server):
        for tags in ("jazz", [1, 2], {"jazz": 1}):
            status, body = post_raw(
                server, "/query",
                json.dumps({"seeker": 1, "tags": tags, "k": 3}).encode())
            assert status == 400
            assert "tags" in body["error"]

    @pytest.mark.parametrize("field, value", [
        ("slo_ms", 5.0), ("deadline_ms", 5.0), ("max_scanned", 64),
        ("effort", "balanced")])
    def test_removed_hints_are_named_in_a_400(self, server, field, value):
        tag = server.service.engine.dataset.tags()[0]
        for path in ("/query", "/explain"):
            status, body = post_raw(
                server, path,
                json.dumps({"seeker": 1, "tags": [tag], "k": 3,
                            field: value}).encode())
            assert status == 400
            assert field in body["error"]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(server,
                         f"{path}?seeker=1&tags={tag}&k=3&{field}={value}")
            assert excinfo.value.code == 400
            assert field in json.load(excinfo.value)["error"]

    def test_oversized_body_is_413(self, server):
        status, body, connection = post_announcing(
            server, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert connection == "close"

    def test_negative_content_length_is_400(self, server):
        status, body, _ = post_announcing(server, "-1")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_non_integer_content_length_is_400(self, server):
        status, body, _ = post_announcing(server, "lots")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_body_at_the_limit_is_read(self, server):
        tag = server.service.engine.dataset.tags()[0]
        payload = json.dumps({"seeker": 1, "tags": [tag], "k": 3}).encode()
        # Trailing whitespace is valid JSON; an unknown padding field is not
        # a valid query.
        status, body = post_raw(server, "/query",
                                payload.ljust(MAX_BODY_BYTES))
        assert status == 200 and body["outcome"] == "computed"

    def test_bad_seeker_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/query?seeker=notanumber&tags=jazz")
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/nope")
        assert excinfo.value.code == 404


class TestUpdateEndpoint:
    def test_update_invalidates_served_results(self, server):
        dataset = server.service.engine.dataset
        tag = dataset.tags()[0]
        path = f"/query?seeker=1&tags={tag}&k=5"
        get_json(server, path)
        _, warm = get_json(server, path)
        assert warm["outcome"] == "hit"

        new_item = max(dataset.items.ids()) + 1
        actions = [{"user_id": u, "item_id": new_item, "tag": tag,
                    "timestamp": 1_000_000 + u}
                   for u in range(dataset.num_users) if u != 1]
        status, summary = post_json(server, "/update", {"actions": actions})
        assert status == 200
        assert summary["applied"] is True
        assert summary["actions_added"] == len(actions)

        _, fresh = get_json(server, path)
        assert fresh["outcome"] == "computed"
        assert new_item in [item["item_id"] for item in fresh["items"]]

    def test_friendship_update(self, server):
        dataset = server.service.engine.dataset
        neighbours = set(dataset.graph.neighbour_ids(1).tolist())
        stranger = next(u for u in range(dataset.num_users)
                        if u != 1 and u not in neighbours)
        status, summary = post_json(
            server, "/update", {"friendships": [[1, stranger, 1.0]]})
        assert status == 200
        assert summary["edges_added"] == 1

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_non_integer_new_users_is_400(self, server, value):
        status, body = post_raw(server, "/update",
                                b'{"new_users": %s}' % value.encode())
        assert status == 400
        assert "new_users" in body["error"]

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_non_integer_ids_inside_an_update_are_400(self, server, value):
        for template in (
                b'{"actions": [{"user_id": %s, "item_id": 1, "tag": "t"}]}',
                b'{"actions": [{"user_id": 1, "item_id": %s, "tag": "t"}]}',
                b'{"friendships": [[%s, 2, 1.0]]}'):
            status, body = post_raw(server, "/update",
                                    template % value.encode())
            assert status == 400
            assert "must be an integer" in body["error"]

    def test_empty_update_is_noop(self, server):
        status, summary = post_json(server, "/update", {})
        assert status == 200
        assert summary["applied"] is False


class TestExplainEndpoint:
    def test_get_explain_returns_plan(self, server):
        tag = server.service.engine.dataset.tags()[0]
        status, body = get_json(server, f"/explain?seeker=1&tags={tag}&k=3")
        assert status == 200
        assert body["query"] == {"seeker": 1, "tags": [tag], "k": 3}
        for key in ("executor", "backing", "proximity_path", "scoring_path",
                    "partitions", "fan_out", "reason"):
            assert key in body

    def test_post_explain_matches_get(self, server):
        tag = server.service.engine.dataset.tags()[0]
        _, via_get = get_json(server, f"/explain?seeker=1&tags={tag}&k=3")
        _, via_post = post_json(server, "/explain",
                                {"seeker": 1, "tags": [tag], "k": 3})
        assert via_post == via_get

    def test_explain_does_not_touch_metrics(self, server):
        tag = server.service.engine.dataset.tags()[0]
        before = server.service.metrics.to_dict()["requests"]
        get_json(server, f"/explain?seeker=1&tags={tag}")
        assert server.service.metrics.to_dict()["requests"] == before

    def test_explain_requires_seeker(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            get_json(server, "/explain?tags=jazz")
        assert error.value.code == 400

    def test_stats_carry_plan_block(self, server):
        _, body = get_json(server, "/stats")
        assert body["plan"]["backing"] == "python"
        assert body["plan"]["partitions"] == 1


class TestRequestIds:
    def test_every_response_carries_request_id(self, server):
        with urllib.request.urlopen(base_url(server) + "/health",
                                    timeout=10.0) as response:
            rid = response.headers["X-Request-Id"]
        assert rid and len(rid) == 16

    def test_client_supplied_id_is_echoed(self, server):
        request = urllib.request.Request(
            base_url(server) + "/health",
            headers={"X-Request-Id": "my-custom-id-42"})
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.headers["X-Request-Id"] == "my-custom-id-42"

    def test_errors_carry_request_id_too(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/query?tags=jazz")
        assert excinfo.value.headers["X-Request-Id"]


class TestTraceEndpoints:
    def test_trace_404_when_tracing_disabled(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/trace/deadbeef")
        assert excinfo.value.code == 404
        assert "disabled" in json.load(excinfo.value)["error"]

    def test_traces_404_when_tracing_disabled(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/traces")
        assert excinfo.value.code == 404

    def test_trace_round_trip_via_request_id(self, server):
        from repro.obs.trace import Tracer, use

        tag = server.service.engine.dataset.tags()[0]
        with use(Tracer(sample_rate=1.0)) as tracer:
            request = urllib.request.Request(
                base_url(server) + f"/query?seeker=1&tags={tag}&k=3",
                headers={"X-Request-Id": "trace-me-000001"})
            with urllib.request.urlopen(request, timeout=10.0) as response:
                body = json.load(response)
                assert body["request_id"] == "trace-me-000001"
            status, trace = get_json(server, "/trace/trace-me-000001")
            assert status == 200
            assert trace["trace_id"] == "trace-me-000001"
            span_names = [span["name"] for span in trace["spans"]]
            assert "request" in span_names
            assert "service.execute" in span_names
            assert "engine.run" in span_names

            _, listing = get_json(server, "/traces")
            assert "trace-me-000001" in [
                entry["trace_id"] for entry in listing["traces"]]
        assert tracer.get("trace-me-000001") is not None

    def test_unknown_trace_is_404(self, server):
        from repro.obs.trace import Tracer, use

        with use(Tracer(sample_rate=1.0)):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(server, "/trace/nope")
            assert excinfo.value.code == 404
