"""The job model: specs, lifecycle states, deadlines, retry/timeout policy.

A **job** is one unit of simulation work (a VP run, a fault campaign, a
coverage collection, a WCET analysis) described by a JSON-serializable
:class:`JobSpec` and tracked by a mutable :class:`Job`.  The lifecycle::

    pending ──▶ running ──▶ succeeded
       │           │    ├──▶ failed      (executor error, retries exhausted)
       │           │    ├──▶ timeout     (cooperative run timeout)
       │           └────┴──▶ cancelled   (cooperative cancel mid-run)
       ├──▶ cancelled                    (cancel while queued)
       └──▶ timeout                      (deadline expired before dispatch)

A failed attempt whose spec still has retry budget left goes back to
``pending`` and is re-queued by the scheduler.  Timeouts and cancellation
are **cooperative**: executors receive a :class:`JobContext` and call
:meth:`JobContext.check` at natural yield points (between mutants, after
a run).  Simulation work is additionally bounded by instruction budgets,
so even an executor that never checks terminates.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "FINAL_STATES",
    "Job",
    "JobCancelled",
    "JobContext",
    "JobSpec",
    "JobTimeout",
    "STATES",
    "STATE_CANCELLED",
    "STATE_FAILED",
    "STATE_PENDING",
    "STATE_RUNNING",
    "STATE_SUCCEEDED",
    "STATE_TIMEOUT",
]

STATE_PENDING = "pending"
STATE_RUNNING = "running"
STATE_SUCCEEDED = "succeeded"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"
STATE_TIMEOUT = "timeout"

STATES = (STATE_PENDING, STATE_RUNNING, STATE_SUCCEEDED, STATE_FAILED,
          STATE_CANCELLED, STATE_TIMEOUT)

#: States a job never leaves; entering one resolves the job's result.
FINAL_STATES = frozenset(
    {STATE_SUCCEEDED, STATE_FAILED, STATE_CANCELLED, STATE_TIMEOUT})

_JOB_IDS = itertools.count(1)


class JobCancelled(Exception):
    """Raised by :meth:`JobContext.check` when the job was cancelled."""


class JobTimeout(Exception):
    """Raised by :meth:`JobContext.check` when the run timeout elapsed."""


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to execute one job — plain JSON-friendly data.

    ``priority``: larger values dispatch sooner (default 0).
    ``deadline_seconds``: relative queue deadline; a job still pending
    when it expires is resolved as ``timeout`` without running.  Among
    equal priorities the scheduler dispatches earliest-deadline-first.
    ``timeout_seconds``: cooperative run timeout, enforced at executor
    checkpoints.  ``max_retries``: additional attempts granted after an
    executor *error* (timeouts and cancellations are never retried).
    ``trace``: an optional trace context (the ``to_dict()`` of a
    :class:`repro.observe.trace.TraceContext`) minted by the submitter;
    when present, the service collects the job's execution events —
    including from pool worker processes — tagged onto that trace so one
    Chrome-trace file shows submit → queue → worker → VP.
    ``tenant``: an accounting label the service enforces per-tenant
    quotas on.  ``shards``: how many work shards the service may split
    this job into (campaign / fuzz / verify kinds only; 1 = never
    shard).  Shard planning is a pure function of the spec, never of the
    deployment, so results are byte-identical to a single-process run
    whatever workers execute the shards.
    """

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    deadline_seconds: Optional[float] = None
    timeout_seconds: Optional[float] = None
    max_retries: int = 0
    trace: Optional[Dict[str, Any]] = None
    tenant: Optional[str] = None
    shards: int = 1

    def validate(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ValueError("job kind must be a non-empty string")
        if not isinstance(self.payload, dict):
            raise ValueError("job payload must be a JSON object")
        for name in ("priority", "max_retries"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, "
                             f"got {self.max_retries}")
        for name in ("deadline_seconds", "timeout_seconds"):
            value = getattr(self, name)
            if value is not None and (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or not 0 < value < math.inf):
                raise ValueError(f"{name} must be a finite positive "
                                 f"number when given, got {value!r}")
        if self.tenant is not None and (
                not isinstance(self.tenant, str) or not self.tenant):
            raise ValueError("tenant must be a non-empty string when given")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) \
                or self.shards < 1:
            raise ValueError(f"shards must be an integer >= 1, "
                             f"got {self.shards!r}")
        if self.trace is not None:
            from ..observe.trace import TraceContext

            TraceContext.from_dict(self.trace)  # raises on malformed

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "kind": self.kind,
            "payload": self.payload,
            "priority": self.priority,
            "deadline_seconds": self.deadline_seconds,
            "timeout_seconds": self.timeout_seconds,
            "max_retries": self.max_retries,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        if self.tenant is not None:
            data["tenant"] = self.tenant
        if self.shards != 1:
            data["shards"] = self.shards
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        known = {name: data[name] for name in
                 ("kind", "payload", "priority", "deadline_seconds",
                  "timeout_seconds", "max_retries", "trace", "tenant",
                  "shards")
                 if name in data}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        spec = cls(**known)
        spec.validate()
        return spec

    def to_json(self) -> str:
        """The wire form (``POST /v1/jobs`` body, pool-process handoff)."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "JobSpec":
        import json

        data = json.loads(blob)
        if not isinstance(data, dict):
            raise ValueError("job spec JSON must be an object")
        return cls.from_dict(data)


class Job:
    """One tracked job: spec + mutable lifecycle state.

    All state transitions go through the methods below and are guarded by
    a per-job lock, so the scheduler, workers, and API handlers can race
    freely.  ``result`` holds the executor's JSON-serializable return
    value once the job succeeded; ``error`` a human-readable failure
    description otherwise.
    """

    def __init__(self, spec: JobSpec, job_id: Optional[str] = None,
                 clock=time.monotonic) -> None:
        spec.validate()
        self.spec = spec
        self.id = job_id if job_id is not None else f"job-{next(_JOB_IDS)}"
        self._clock = clock
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._finalized = False
        self.cancel_event = threading.Event()
        self.state = STATE_PENDING
        self.attempts = 0
        self.submitted_at = clock()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.worker: Optional[str] = None
        #: Execution events collected for traced jobs (``spec.trace``),
        #: merged from the worker thread/process and served on
        #: ``GET /v1/jobs/<id>/events``.
        self.trace_events: list = []

    # -- derived --------------------------------------------------------

    @property
    def deadline_at(self) -> Optional[float]:
        if self.spec.deadline_seconds is None:
            return None
        return self.submitted_at + self.spec.deadline_seconds

    def deadline_expired(self, now: Optional[float] = None) -> bool:
        deadline = self.deadline_at
        if deadline is None:
            return False
        return (now if now is not None else self._clock()) >= deadline

    @property
    def done(self) -> bool:
        return self.state in FINAL_STATES

    # -- transitions ----------------------------------------------------

    def mark_running(self, worker: str) -> bool:
        """pending → running; returns False if the job already resolved."""
        with self._lock:
            if self.state != STATE_PENDING:
                return False
            self.state = STATE_RUNNING
            self.worker = worker
            self.attempts += 1
            if self.started_at is None:
                self.started_at = self._clock()
            return True

    def _resolve(self, state: str, result=None, error=None) -> bool:
        with self._lock:
            if self.state in FINAL_STATES:
                return False
            self.state = state
            self.result = result
            self.error = error
            self.finished_at = self._clock()
        self._done.set()
        return True

    def mark_succeeded(self, result: Dict[str, Any]) -> bool:
        return self._resolve(STATE_SUCCEEDED, result=result)

    def mark_failed(self, error: str) -> bool:
        return self._resolve(STATE_FAILED, error=error)

    def mark_timeout(self, error: str = "timeout") -> bool:
        return self._resolve(STATE_TIMEOUT, error=error)

    def mark_cancelled(self, error: str = "cancelled") -> bool:
        return self._resolve(STATE_CANCELLED, error=error)

    def mark_retrying(self, error: str) -> bool:
        """running → pending for the next attempt (retry budget permitting)."""
        with self._lock:
            if self.state != STATE_RUNNING:
                return False
            if self.attempts > self.spec.max_retries:
                return False
            self.state = STATE_PENDING
            self.error = error
            self.worker = None
            return True

    def cancel(self) -> bool:
        """Request cancellation.

        A pending job resolves immediately; a running job gets its
        ``cancel_event`` set and resolves at the executor's next
        checkpoint.  Returns whether the request did anything.
        """
        self.cancel_event.set()
        with self._lock:
            if self.state in FINAL_STATES:
                return False
            pending = self.state == STATE_PENDING
        if pending:
            return self.mark_cancelled()
        return True

    def finalize_once(self) -> bool:
        """True exactly once after the job resolved — accounting guard
        so completion metrics/events fire once however many paths race
        (worker, cancel API, scheduler deadline check)."""
        with self._lock:
            if self.state not in FINAL_STATES or self._finalized:
                return False
            self._finalized = True
            return True

    # -- waiting / inspection -------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job resolves; returns ``job.done``."""
        self._done.wait(timeout)
        return self.done

    def queue_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def run_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self, with_result: bool = False) -> Dict[str, Any]:
        """Status view served by the HTTP API (result only on request)."""
        with self._lock:
            view = {
                "id": self.id,
                "kind": self.spec.kind,
                "state": self.state,
                "priority": self.spec.priority,
                "attempts": self.attempts,
                "max_retries": self.spec.max_retries,
                "deadline_seconds": self.spec.deadline_seconds,
                "timeout_seconds": self.spec.timeout_seconds,
                "error": self.error,
                "worker": self.worker,
            }
            if self.spec.trace is not None:
                view["trace"] = self.spec.trace
            if self.spec.tenant is not None:
                view["tenant"] = self.spec.tenant
            if self.spec.shards != 1:
                view["shards"] = self.spec.shards
            if self.started_at is not None:
                view["queue_seconds"] = round(
                    self.started_at - self.submitted_at, 6)
            if self.started_at is not None and self.finished_at is not None:
                view["run_seconds"] = round(
                    self.finished_at - self.started_at, 6)
            if with_result:
                view["result"] = self.result
        return view

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Job({self.id}, {self.spec.kind}, {self.state})"


class JobContext:
    """Execution context handed to executors for cooperative control.

    ``check()`` raises :class:`JobCancelled` / :class:`JobTimeout` when
    the job should stop; executors call it at natural yield points.
    """

    __slots__ = ("job", "_deadline", "_clock")

    def __init__(self, job: Job, clock=time.monotonic) -> None:
        self.job = job
        self._clock = clock
        timeout = job.spec.timeout_seconds
        self._deadline = None if timeout is None else clock() + timeout

    @property
    def cancelled(self) -> bool:
        return self.job.cancel_event.is_set()

    @property
    def timed_out(self) -> bool:
        return self._deadline is not None and self._clock() >= self._deadline

    def check(self) -> None:
        if self.cancelled:
            raise JobCancelled(self.job.id)
        if self.timed_out:
            raise JobTimeout(self.job.id)


#: A context that never cancels — for direct `execute_job` calls.
class _NullJob:
    __slots__ = ("spec", "id", "cancel_event")

    def __init__(self) -> None:
        self.spec = JobSpec(kind="direct")
        self.id = "direct"
        self.cancel_event = threading.Event()


def null_context() -> JobContext:
    """A context with no cancellation and no timeout."""
    return JobContext(_NullJob())
