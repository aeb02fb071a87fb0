"""ServiceClient transient-error retry + queue-full backpressure e2e."""

import io
import json
import threading
import urllib.error

import pytest

from repro.cluster import ClusterCoordinator
from repro.serve import register_executor
from repro.serve.client import (BackpressureError, ServiceClient,
                                ServiceError, _is_transient)
from repro.serve.executors import _EXECUTORS


class FakeResponse:
    def __init__(self, payload):
        self._blob = json.dumps(payload).encode()

    def read(self):
        return self._blob

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestTransientRetry:
    def _client(self, monkeypatch, outcomes, sleeps=None):
        """A client whose urlopen pops scripted outcomes per call."""
        calls = {"n": 0}

        def fake_urlopen(request, timeout=None):
            outcome = outcomes[min(calls["n"], len(outcomes) - 1)]
            calls["n"] += 1
            if isinstance(outcome, Exception):
                raise outcome
            return FakeResponse(outcome)

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        if sleeps is not None:
            monkeypatch.setattr("time.sleep",
                                lambda delay: sleeps.append(delay))
        client = ServiceClient("http://127.0.0.1:1", retries=3,
                               retry_base_delay=0.05)
        return client, calls

    def test_connection_reset_retried_until_success(self, monkeypatch):
        sleeps = []
        client, calls = self._client(
            monkeypatch,
            [ConnectionResetError(), ConnectionResetError(),
             {"status": "ok"}],
            sleeps)
        assert client.health() == {"status": "ok"}
        assert calls["n"] == 3
        # Bounded exponential backoff: base, then doubled.
        assert sleeps == [0.05, 0.1]

    def test_broken_pipe_and_urlerror_wrapped_reset_are_transient(self):
        assert _is_transient(BrokenPipeError())
        assert _is_transient(
            urllib.error.URLError(ConnectionResetError()))
        assert not _is_transient(ValueError("nope"))
        assert not _is_transient(
            urllib.error.URLError(OSError("no route")))

    def test_retries_exhausted_raises_last_error(self, monkeypatch):
        client, calls = self._client(
            monkeypatch, [ConnectionResetError()], sleeps=[])
        with pytest.raises(ConnectionResetError):
            client.health()
        assert calls["n"] == 4  # 1 try + 3 retries

    def test_http_error_never_retried(self, monkeypatch):
        error = urllib.error.HTTPError(
            "http://x", 404, "Not Found", {}, io.BytesIO(b"{}"))
        client, calls = self._client(monkeypatch, [error])
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 404
        assert calls["n"] == 1

    def test_non_transient_oserror_not_retried(self, monkeypatch):
        client, calls = self._client(
            monkeypatch, [OSError("no route to host")])
        with pytest.raises(OSError):
            client.health()
        assert calls["n"] == 1

    def test_retries_zero_disables(self, monkeypatch):
        def fake_urlopen(request, timeout=None):
            raise ConnectionResetError()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:1", retries=0)
        with pytest.raises(ConnectionResetError):
            client.health()


class TestQueueFullBackpressure:
    """Satellite e2e: full queue -> 429 + Retry-After via ServiceClient."""

    def test_429_retry_after_then_success_on_retry(self):
        release = threading.Event()
        register_executor("clog")(
            lambda payload, ctx: {"ok": release.wait(30)})
        server = ClusterCoordinator(port=0, workers=1, queue_limit=1)
        server.start()
        client = ServiceClient(server.url, timeout=10)
        try:
            running = client.submit("clog", {})  # occupies the worker
            import time

            deadline = time.monotonic() + 10
            while client.status(running["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = client.submit("clog", {})   # fills the queue
            with pytest.raises(BackpressureError) as excinfo:
                client.submit("clog", {})        # over capacity
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 1.0
            # Client-side retry contract: honor the hint, resubmit after
            # capacity frees up.
            release.set()
            client.wait(running["id"], timeout=30)
            client.wait(queued["id"], timeout=30)
            retried = client.submit("clog", {})
            assert client.wait(retried["id"],
                               timeout=30)["state"] == "succeeded"
        finally:
            release.set()
            client.shutdown(drain=True)
            server.shutdown()
            _EXECUTORS.pop("clog", None)
