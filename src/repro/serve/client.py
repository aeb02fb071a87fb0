"""Thin stdlib client for the service HTTP API.

Used by ``python -m repro submit``, ``repro cluster-status``, worker
nodes and tests; only :mod:`urllib.request`, no third-party
dependencies::

    client = ServiceClient("http://127.0.0.1:8972")
    job = client.submit("fault_campaign", {"source": src, "mutants": 50})
    done = client.wait(job["id"], timeout=120)
    print(done["result"]["counts"])

HTTP error responses become typed exceptions: a 429 raises
:class:`BackpressureError` (retry later, honoring ``retry_after`` when
the server sent a ``Retry-After`` header), everything else a
:class:`ServiceError` carrying the status code and the server's
``error`` message.

Transient socket errors — the server accepting the connection but
resetting it mid-exchange (``ECONNRESET``/``EPIPE``/an abruptly closed
keep-alive socket) — are retried with bounded exponential backoff
instead of surfacing as raw exceptions to ``repro submit --wait``.
Requests against this service are idempotent or safely repeatable (a
re-submitted job enqueues once per successful server read; a reset
before the response means the server may or may not have seen it, the
same at-least-once contract every HTTP client has), so a handful of
retries is strictly an availability win.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

__all__ = ["BackpressureError", "ServiceClient", "ServiceError"]

#: Socket-level errors worth retrying: the TCP exchange died mid-flight.
_TRANSIENT_ERRORS = (ConnectionResetError, BrokenPipeError,
                     ConnectionAbortedError, http.client.RemoteDisconnected,
                     http.client.BadStatusLine)


def _is_transient(exc: BaseException) -> bool:
    if isinstance(exc, _TRANSIENT_ERRORS):
        return True
    if isinstance(exc, urllib.error.URLError):
        return isinstance(getattr(exc, "reason", None), _TRANSIENT_ERRORS)
    return False


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class BackpressureError(ServiceError):
    """HTTP 429 — the admission queue is full; retry after a delay.

    ``retry_after`` is the server's ``Retry-After`` hint in seconds when
    it sent one, else ``None``.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(status, message)
        self.retry_after = retry_after


def _retry_after_from(headers: Any) -> Optional[float]:
    try:
        value = headers.get("Retry-After") if headers is not None else None
        return float(value) if value is not None else None
    except (TypeError, ValueError):
        return None


class ServiceClient:
    """A small synchronous client for one service endpoint."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 3, retry_base_delay: float = 0.05) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Extra attempts after a transient socket error (0 disables).
        self.retries = retries
        #: First backoff sleep; doubles per attempt (0.05, 0.1, 0.2, ...).
        self.retry_base_delay = retry_base_delay

    # -- transport ------------------------------------------------------

    def _open(self, request: urllib.request.Request) -> bytes:
        """One urlopen with transient-error retry; returns the body."""
        attempt = 0
        while True:
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    return response.read()
            except Exception as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    raise
                if not _is_transient(exc) or attempt >= self.retries:
                    raise
                time.sleep(self.retry_base_delay * (2 ** attempt))
                attempt += 1

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
        try:
            return json.loads(self._open(request) or b"{}")
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read() or b"{}").get(
                    "error", exc.reason)
            except (json.JSONDecodeError, ValueError):
                message = str(exc.reason)
            if exc.code == 429:
                raise BackpressureError(
                    exc.code, message,
                    retry_after=_retry_after_from(exc.headers)) from None
            raise ServiceError(exc.code, message) from None

    def _request_text(self, path: str) -> str:
        url = f"{self.base_url}{path}"
        request = urllib.request.Request(url, method="GET")
        try:
            return self._open(request).decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, str(exc.reason)) from None

    # -- API surface ----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def metrics_text(self) -> str:
        """The raw ``GET /metrics`` Prometheus exposition."""
        return self._request_text("/metrics")

    def events(self, since: int = 0) -> Dict[str, Any]:
        """One incremental tail; feed ``["next"]`` back as ``since``."""
        return self._request("GET", f"/v1/events?since={since}")

    def frontier(self) -> Dict[str, Any]:
        """The live fuzz coverage-frontier snapshot."""
        return self._request("GET", "/v1/fuzz/frontier")

    def job_events(self, job_id: str) -> Dict[str, Any]:
        """A traced job's merged event records."""
        return self._request("GET", f"/v1/jobs/{job_id}/events")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def kinds(self) -> list:
        return self._request("GET", "/v1/kinds")["kinds"]

    def submit(self, kind: str, payload: Dict[str, Any],
               priority: int = 0,
               deadline_seconds: Optional[float] = None,
               timeout_seconds: Optional[float] = None,
               max_retries: int = 0,
               trace: Optional[Dict[str, Any]] = None,
               tenant: Optional[str] = None,
               shards: int = 1) -> Dict[str, Any]:
        """Submit one job; returns its status view (with the ``id``).

        ``trace`` is a serialized :class:`repro.observe.TraceContext`;
        the service then collects the job's execution events onto that
        trace (fetch them with :meth:`job_events`).  ``tenant`` and
        ``shards`` feed the cluster coordinator's quota and shard
        planning; a single-process service carries them through.
        """
        body: Dict[str, Any] = {"kind": kind, "payload": payload,
                                "priority": priority,
                                "max_retries": max_retries}
        if deadline_seconds is not None:
            body["deadline_seconds"] = deadline_seconds
        if timeout_seconds is not None:
            body["timeout_seconds"] = timeout_seconds
        if trace is not None:
            body["trace"] = trace
        if tenant is not None:
            body["tenant"] = tenant
        if shards != 1:
            body["shards"] = shards
        return self._request("POST", "/v1/jobs", body)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def list_jobs(self, state: Optional[str] = None) -> list:
        path = "/v1/jobs" + (f"?state={state}" if state else "")
        return self._request("GET", path)["jobs"]

    def result(self, job_id: str) -> Dict[str, Any]:
        """The resolved job including ``result``; 409 while running."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel", {})

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self._request("POST", "/v1/shutdown", {"drain": drain})

    # -- convenience ----------------------------------------------------

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_interval: float = 0.2) -> Dict[str, Any]:
        """Poll until the job resolves; returns the result view.

        Raises :class:`TimeoutError` if the job is still unresolved when
        ``timeout`` elapses (the job itself keeps running).
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.result(job_id)
            except ServiceError as exc:
                if exc.status != 409:
                    raise
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} unresolved after {timeout}s")
            time.sleep(poll_interval)

    def submit_and_wait(self, kind: str, payload: Dict[str, Any],
                        timeout: float = 300.0,
                        **submit_kwargs) -> Dict[str, Any]:
        job = self.submit(kind, payload, **submit_kwargs)
        return self.wait(job["id"], timeout=timeout)

    # -- node protocol --------------------------------------------------

    def register_node(self, name: Optional[str] = None,
                      capacity: int = 1) -> Dict[str, Any]:
        """Attach a node; returns ``{"id", "heartbeat_interval", ...}``."""
        body: Dict[str, Any] = {"capacity": capacity}
        if name is not None:
            body["name"] = name
        return self._request("POST", "/v1/nodes/register", body)

    def node_heartbeat(self, node_id: str,
                       stats: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
        """Renew liveness (and the node's leases); 404 ⇒ re-register."""
        return self._request("POST", f"/v1/nodes/{node_id}/heartbeat",
                             {"stats": stats or {}})

    def lease(self, node_id: str, max_items: int = 1) -> Dict[str, Any]:
        """Pull work: ``{"work": [...], "drain": bool}``."""
        return self._request("POST", f"/v1/nodes/{node_id}/lease",
                             {"max_items": max_items})

    def complete_work(self, item_id: str,
                      result: Optional[Dict[str, Any]] = None,
                      error: Optional[str] = None,
                      retryable: bool = True,
                      **trace: Any) -> Dict[str, Any]:
        """Report one work item's outcome; ``trace`` carries a traced
        item's ``events`` and their clock ``origin``."""
        if error is not None:
            body: Dict[str, Any] = {"error": error, "retryable": retryable}
        else:
            body = {"result": result if result is not None else {},
                    **trace}
        return self._request("POST", f"/v1/work/{item_id}/complete", body)

    def drain_node(self, node_id: str) -> Dict[str, Any]:
        """Ask one node to stop pulling after its current item."""
        return self._request("POST", f"/v1/nodes/{node_id}/drain", {})

    def nodes(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/cluster/nodes")["nodes"]

    def cluster_work(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/cluster/work")
