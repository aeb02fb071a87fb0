"""HTTP/JSON API + client: endpoints, error mapping, backpressure."""

import threading
import time

import pytest

from repro.cluster import ClusterCoordinator
from repro.serve import register_executor
from repro.serve.client import BackpressureError, ServiceClient, ServiceError
from repro.serve.executors import _EXECUTORS

EXIT_OK = """
_start:
    li a0, 5
    li a7, 93
    ecall
"""


@pytest.fixture
def server():
    srv = ClusterCoordinator(port=0, workers=2, queue_limit=8)  # ephemeral
    srv.start()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=10)


class TestEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["queue_limit"] == 8

    def test_kinds(self, client):
        kinds = client.kinds()
        assert {"vp_run", "fault_campaign", "coverage", "wcet",
                "fuzz"} <= set(kinds)

    def test_submit_status_result(self, client):
        job = client.submit("vp_run", {"source": EXIT_OK})
        assert job["state"] in ("pending", "running")
        done = client.wait(job["id"], timeout=30)
        assert done["state"] == "succeeded"
        assert done["result"]["exit_code"] == 5
        # Status endpoint never carries the result payload.
        assert "result" not in client.status(job["id"])

    def test_list_jobs_with_state_filter(self, client):
        job = client.submit("vp_run", {"source": EXIT_OK})
        client.wait(job["id"], timeout=30)
        listed = client.list_jobs(state="succeeded")
        assert any(item["id"] == job["id"] for item in listed)
        assert client.list_jobs(state="failed") == []

    def test_stats_exposes_metrics(self, client):
        job = client.submit("vp_run", {"source": EXIT_OK})
        client.wait(job["id"], timeout=30)
        stats = client.stats()
        assert stats["service"]["workers"] == 2
        assert stats["metrics"]["serve.submitted"]["value"] >= 1

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-does-not-exist")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nonsense")
        assert excinfo.value.status == 404

    def test_result_before_done_409(self, client, server):
        gate = threading.Event()
        register_executor("test.api_gate")(
            lambda payload, ctx: (gate.wait(10), {})[1])
        try:
            job = client.submit("test.api_gate", {})
            with pytest.raises(ServiceError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 409
            gate.set()
            assert client.wait(job["id"], timeout=30)["state"] == "succeeded"
        finally:
            gate.set()
            _EXECUTORS.pop("test.api_gate", None)

    def test_bad_request_400(self, client):
        for body in ({"kind": "no_such_kind", "payload": {}},
                     {"payload": {}},
                     {"kind": "vp_run", "payload": {}, "bogus": 1}):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/jobs", body)
            assert excinfo.value.status == 400

    def test_cancel_endpoint(self, client):
        gate = threading.Event()
        register_executor("test.api_cancel")(
            lambda payload, ctx: (gate.wait(10), {})[1])
        try:
            # Two jobs on two workers; a third stays queued -> cancellable.
            client.submit("test.api_cancel", {})
            client.submit("test.api_cancel", {})
            queued = client.submit("test.api_cancel", {})
            reply = client.cancel(queued["id"])
            assert reply["cancelled"] is True
            gate.set()
            done = client.wait(queued["id"], timeout=30)
            assert done["state"] == "cancelled"
        finally:
            gate.set()
            _EXECUTORS.pop("test.api_cancel", None)


class TestBackpressureHTTP:
    def test_429_when_queue_full(self, server):
        client = ServiceClient(server.url, timeout=10)
        gate = threading.Event()
        register_executor("test.api_full")(
            lambda payload, ctx: (gate.wait(15), {})[1])
        try:
            # Fill both workers, then the whole queue (limit 8).
            for _ in range(2):
                client.submit("test.api_full", {})
            time.sleep(0.3)  # let them dispatch off the queue
            for _ in range(8):
                client.submit("test.api_full", {})
            with pytest.raises(BackpressureError) as excinfo:
                client.submit("test.api_full", {})
            assert excinfo.value.status == 429
            gate.set()
        finally:
            gate.set()
            _EXECUTORS.pop("test.api_full", None)


class TestShutdownHTTP:
    def test_shutdown_endpoint_drains(self):
        service = server = ClusterCoordinator(port=0, workers=2,
                                              queue_limit=8).start()
        client = ServiceClient(server.url, timeout=10)
        job = client.submit("vp_run", {"source": EXIT_OK})
        reply = client.shutdown(drain=True)
        assert reply["status"] == "shutting down"
        # The service drains the submitted job before stopping.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            tracked = service.get_job(job["id"])
            if tracked is not None and tracked.done:
                break
            time.sleep(0.1)
        assert service.get_job(job["id"]).state == "succeeded"
        server.shutdown()
