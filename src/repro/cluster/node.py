"""Worker node: attach, pull, execute, report, heartbeat.

A node is deliberately dumb — all policy (sharding, retry, merge,
quotas) lives on the coordinator.  The loop::

    register -> { lease -> run_item -> complete }* -> exit on drain

with a heartbeat thread renewing liveness (and thereby the node's
leases) at the coordinator-advertised interval.  :func:`run_item` is
also what the coordinator's in-process workers run, over the stock
:func:`~repro.serve.executors.execute_job` registry, so every job kind
and backend — including the compiled JIT tier — runs the same on a
node as in the service process, byte for byte.

Failure behavior: transient HTTP errors ride the client's built-in
retry; a coordinator restart surfaces as 404s and the node simply
re-registers; a *killed* node reports nothing — the coordinator's
heartbeat expiry re-queues its leases (see ``tests/cluster``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from ..serve.client import ServiceClient, ServiceError
from ..serve.executors import ExecutorError, execute_job, execute_job_traced
from ..serve.jobs import JobCancelled, JobContext, JobSpec, JobTimeout

__all__ = ["WorkerNode", "run_item"]


def run_item(item: Dict[str, Any],
             ctx: Optional[JobContext] = None) -> Dict[str, Any]:
    """Execute one work item; returns its completion body.

    The one execution path of every worker, node or in-process.  A
    traced item (``"trace"``) also returns its execution events and
    their clock origin.  An :class:`ExecutorError` is a bad request no
    re-run can fix, so it becomes a non-retryable failure; any other
    exception is retryable.  :class:`JobCancelled` and
    :class:`JobTimeout` from ``ctx`` propagate.
    """
    try:
        if item.get("trace") is None:
            return {"result": execute_job(item["kind"], item["payload"],
                                          ctx)}
        bundle = execute_job_traced(item["kind"], item["payload"],
                                    item["trace"], item.get("job_id"), ctx)
        return {"result": bundle["result"], "events": bundle["events"],
                "origin": bundle["origin"]}
    except ExecutorError as exc:
        return {"error": str(exc), "retryable": False}
    except (JobCancelled, JobTimeout):
        raise
    except Exception as exc:  # noqa: BLE001 — a worker must survive
        return {"error": f"{exc!r}", "retryable": True}


class _ItemJob:
    """Job-shaped shim so executors get a standard :class:`JobContext`."""

    __slots__ = ("spec", "id", "cancel_event")

    def __init__(self, item: Dict[str, Any],
                 cancel_event: threading.Event) -> None:
        self.spec = JobSpec(kind=item["kind"])
        self.id = item["id"]
        self.cancel_event = cancel_event


class WorkerNode:
    """One worker process/thread pulling from a coordinator."""

    def __init__(self, coordinator_url: str, name: Optional[str] = None,
                 capacity: int = 1, poll_interval: float = 0.2,
                 telemetry=None) -> None:
        self.client = ServiceClient(coordinator_url)
        self.name = name
        self.capacity = max(1, capacity)
        self.poll_interval = poll_interval
        self.node_id: Optional[str] = None
        self.heartbeat_interval = 1.0
        self.executed = 0
        self.failed = 0
        self.current_item: Optional[str] = None
        self._stop = threading.Event()     # hard stop: abandon work
        self._drain = threading.Event()    # soft stop: finish, then exit
        self._vanished = False             # crash simulation: report nothing
        self._thread: Optional[threading.Thread] = None
        self._hb_thread: Optional[threading.Thread] = None
        self._started_at = time.monotonic()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "WorkerNode":
        """Run the node loop on a background thread."""
        self._thread = threading.Thread(target=self.run,
                                        name=f"cluster-node-{self.name}",
                                        daemon=True)
        self._thread.start()
        return self

    def drain(self) -> None:
        """Finish the current item, then exit the loop."""
        self._drain.set()

    def stop(self) -> None:
        """Graceful stop: drain and wait for the loop to exit."""
        self.drain()
        self._stop_heartbeats()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def kill(self) -> None:
        """Simulate a crash: abandon in-flight work, stop heartbeating,
        and report **nothing** back — the coordinator only finds out via
        heartbeat expiry, which re-queues whatever this node held (the
        failure mode the lease tests exercise)."""
        self._vanished = True
        self._stop.set()
        self._drain.set()
        self._stop_heartbeats()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def _stop_heartbeats(self) -> None:
        if self._hb_thread is not None:
            self._hb_thread = None  # loop checks identity and exits

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        """Blocking node loop (``repro node`` runs this in the
        foreground)."""
        while not self._drain.is_set():
            if not self._attach():
                return
            try:
                self._pull_loop()
                return
            except _Reregister:
                continue  # coordinator restarted; attach again

    def _attach(self) -> bool:
        backoff = 0.2
        while not self._drain.is_set():
            try:
                info = self.client.register_node(name=self.name,
                                                 capacity=self.capacity)
            except (ServiceError, OSError):
                time.sleep(backoff)
                backoff = min(backoff * 2, 5.0)
                continue
            self.node_id = info["id"]
            self.heartbeat_interval = float(
                info.get("heartbeat_interval", 1.0))
            hb = threading.Thread(target=self._heartbeat_loop,
                                  name=f"node-hb-{self.node_id}",
                                  daemon=True)
            self._hb_thread = hb
            hb.start()
            return True
        return False

    def _heartbeat_loop(self) -> None:
        thread = threading.current_thread()
        while self._hb_thread is thread and not self._stop.is_set():
            try:
                self.client.node_heartbeat(self.node_id, self.stats())
            except ServiceError as exc:
                if exc.status == 404:
                    return  # node loop will re-register
            except OSError:
                pass  # transient; the next beat retries
            time.sleep(self.heartbeat_interval)

    def _pull_loop(self) -> None:
        idle_sleep = self.poll_interval
        while not self._stop.is_set():
            if self._drain.is_set():
                return
            try:
                reply = self.client.lease(self.node_id,
                                          max_items=self.capacity)
            except ServiceError as exc:
                if exc.status == 404:
                    raise _Reregister from None
                time.sleep(idle_sleep)
                continue
            except OSError:
                time.sleep(idle_sleep)
                continue
            if reply.get("drain"):
                return
            work = reply.get("work") or []
            if not work:
                time.sleep(idle_sleep)
                continue
            for item in work:
                if self._stop.is_set():
                    return
                self._run_item(item)

    def _run_item(self, item: Dict[str, Any]) -> None:
        self.current_item = item["id"]
        try:
            body = run_item(item, JobContext(_ItemJob(item, self._stop)))
        except JobCancelled:
            return  # killed mid-item: report nothing
        finally:
            self.current_item = None
        if "error" in body:
            self.failed += 1
        else:
            self.executed += 1
        if self._vanished:
            return
        try:
            self.client.complete_work(item["id"], **body)
        except (ServiceError, OSError):
            # Unreportable outcome: the lease expires and the item is
            # re-dispatched; determinism makes the redo harmless.
            pass

    # -- inspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "executed": self.executed,
            "failed": self.failed,
            "busy": self.current_item is not None,
            "current": self.current_item,
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3),
        }


class _Reregister(Exception):
    """Internal: the coordinator forgot us (restart); attach again."""
