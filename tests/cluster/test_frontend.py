"""Selector-based HTTP frontend: routing, keep-alive, limits."""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster.frontend import SelectorHttpServer


def _router(method, path, query, body):
    if path == "/echo":
        return 200, {"method": method, "query": query, "body": body}
    if path == "/text":
        return 200, "plain text here"
    if path == "/custom":
        return 200, "metrics 1\n", {"Content-Type": "text/custom",
                                    "X-Extra": "yes"}
    if path == "/boom":
        raise RuntimeError("handler exploded")
    if path == "/retry":
        return 429, {"error": "busy"}, {"Retry-After": "2"}
    if path == "/unserializable":
        return 200, {"not json": {1, 2}}
    return 404, {"error": f"no route: {path}"}


@pytest.fixture
def server():
    srv = SelectorHttpServer(_router, port=0).start()
    yield srv
    srv.close()


def _get(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read()


class TestRequests:
    def test_get_json(self, server):
        status, blob = _get(f"{server.url}/echo?a=1&b=two")
        assert status == 200
        payload = json.loads(blob)
        assert payload["method"] == "GET"
        assert payload["query"] == {"a": "1", "b": "two"}
        assert payload["body"] is None

    def test_post_json_body(self, server):
        request = urllib.request.Request(
            f"{server.url}/echo", data=json.dumps({"x": 5}).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(request, timeout=5) as response:
            payload = json.loads(response.read())
        assert payload["body"] == {"x": 5}

    def test_json_bytes_are_sorted_keys(self, server):
        _, blob = _get(f"{server.url}/echo")
        assert blob == json.dumps(json.loads(blob),
                                  sort_keys=True).encode()

    def test_text_payload(self, server):
        request = urllib.request.Request(f"{server.url}/text")
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            assert response.read() == b"plain text here"

    def test_custom_content_type_and_header(self, server):
        request = urllib.request.Request(f"{server.url}/custom")
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.headers["Content-Type"] == "text/custom"
            assert response.headers["X-Extra"] == "yes"

    def test_extra_headers_on_error_status(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/retry")
        assert excinfo.value.code == 429
        assert excinfo.value.headers["Retry-After"] == "2"

    def test_router_exception_becomes_500(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/boom")
        assert excinfo.value.code == 500
        assert "handler exploded" in excinfo.value.read().decode()

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/nope")
        assert excinfo.value.code == 404

    def test_invalid_json_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/echo", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_non_object_json_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/echo", data=b"[1, 2]",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_oversized_body_413(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5)
        try:
            conn.putrequest("POST", "/echo")
            conn.putheader("Content-Length", str(9 * 1024 * 1024))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()


class TestConnections:
    def test_keep_alive_reuses_one_connection(self, server):
        before = server.connections_total
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5)
        try:
            for _ in range(3):
                conn.request("GET", "/echo")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()
        assert server.connections_total == before + 1

    def test_connection_close_honored(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5)
        try:
            conn.request("GET", "/echo", headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.headers["Connection"] == "close"
            response.read()
        finally:
            conn.close()

    def test_many_concurrent_connections(self, server):
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    status, _ = _get(f"{server.url}/echo", timeout=10)
                    assert status == 200
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(25)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []

    def test_close_is_idempotent(self):
        srv = SelectorHttpServer(_router, port=0).start()
        srv.close()
        srv.close()

    def test_pipelined_requests_in_one_buffer(self, server):
        # Two complete requests written back-to-back are both answered.
        import socket

        raw = socket.create_connection((server.host, server.port),
                                       timeout=5)
        try:
            request = (f"GET /echo HTTP/1.1\r\nHost: {server.host}\r\n"
                       "\r\n").encode()
            raw.sendall(request + request)
            blob = b""
            while blob.count(b"HTTP/1.1 200") < 2:
                chunk = raw.recv(65536)
                if not chunk:
                    break
                blob += chunk
            assert blob.count(b"HTTP/1.1 200") == 2
        finally:
            raw.close()


class TestHostileBodies:
    """No request body, however malformed, may stop the event loop."""

    @staticmethod
    def bodies(seed=20261018, count=8):
        """A seeded mix of bodies ``json.loads`` cannot turn into a job
        object: invalid UTF-8, nesting past the recursion limit,
        truncated JSON and JSON that is not an object."""
        import random

        rng = random.Random(seed)
        job = json.dumps({"kind": "vp_run", "priority": 1,
                          "payload": {"source": "_start:\n ecall\n"}})
        yield b"\x80"
        yield b"[" * 100_000 + b"]" * 100_000
        yield b'{"kind": "vp_run", "payload": ' + b"[" * 100_000
        for _ in range(count):
            yield rng.choice([b"\xff", b"\xc3\x28", b"\x80"]) \
                + bytes(rng.randrange(256) for _ in range(rng.randrange(8)))
            depth = rng.randrange(2_000, 50_000)
            yield rng.choice([b"[", b'{"a":']) * depth
            yield job[:rng.randrange(1, len(job) - 1)].encode()
            yield rng.choice([b"[1, 2]", b"42", b'"job"', b"null",
                              b"true", b"[" + job.encode() + b"]"])

    def test_every_bad_body_is_a_400_and_health_still_answers(self):
        import time

        from repro.cluster import ClusterCoordinator

        coordinator = ClusterCoordinator(port=0).start()
        started = time.monotonic()
        try:
            for body in self.bodies():
                conn = http.client.HTTPConnection(
                    coordinator.frontend.host, coordinator.frontend.port,
                    timeout=10)
                try:
                    conn.request("POST", "/v1/jobs", body=body)
                    response = conn.getresponse()
                    assert response.status == 400, body[:40]
                    assert "error" in json.loads(response.read())
                finally:
                    conn.close()
                status, blob = _get(f"{coordinator.url}/v1/health")
                assert status == 200 and json.loads(blob)["status"] == "ok"
        finally:
            coordinator.shutdown(drain=False)
        assert time.monotonic() - started < 30

    def test_negative_content_length_drops_only_its_connection(
            self, server):
        import socket

        raw = socket.create_connection((server.host, server.port),
                                       timeout=5)
        try:
            raw.sendall(b"POST /echo HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: -1000000\r\n\r\n")
            assert raw.recv(65536) == b""  # dropped, not answered
        finally:
            raw.close()
        status, _ = _get(f"{server.url}/echo", timeout=5)
        assert status == 200

    def test_failing_response_drops_only_its_connection(self, server):
        with pytest.raises((http.client.HTTPException, OSError)):
            _get(f"{server.url}/unserializable")
        status, _ = _get(f"{server.url}/echo")
        assert status == 200
