"""The service: admission, scheduling at lease time, workers, merge.

One :class:`ClusterCoordinator` is every deployment of the ``/v1/*``
API.  ``repro serve`` runs it with in-process workers (threads, or
threads that ship each work item to a process pool); ``repro
coordinator`` runs it with none.  Worker nodes attach to either over
the pull protocol, so one service can mix both kinds of worker.

Client-facing routes (JSON unless noted;
:class:`~repro.serve.client.ServiceClient`, ``repro submit`` and
``repro top`` speak them)::

    GET  /v1/health            liveness + queue/worker stats
    GET  /v1/stats             service stats + telemetry metrics snapshot
    GET  /v1/kinds             registered job kinds
    GET  /metrics              Prometheus text exposition (0.0.4)
    GET  /v1/events?since=N    incremental event tail (cursor = "next")
    GET  /v1/fuzz/frontier     live fuzz coverage-frontier snapshot
    POST /v1/jobs              submit a job -> 202 (429 queue full or
                               over quota, 503 shutting down)
    GET  /v1/jobs              list job statuses (?state= filter)
    GET  /v1/jobs/<id>         one job's status
    GET  /v1/jobs/<id>/result  the result -> 409 until resolved
    GET  /v1/jobs/<id>/events  a traced job's merged event records
    POST /v1/jobs/<id>/cancel  cancel
    POST /v1/shutdown          graceful shutdown (body: {"drain": bool})

Node-facing routes::

    POST /v1/nodes/register          -> {"id", "heartbeat_interval", ...}
    POST /v1/nodes/<id>/heartbeat    {"stats": {...}}   renews leases
    POST /v1/nodes/<id>/lease        {"max_items": N}  -> {"work": [...]}
    POST /v1/work/<id>/complete      {"result": ...} | {"error", "retryable"}
    POST /v1/nodes/<id>/drain
    GET  /v1/cluster/nodes           node rows (repro cluster-status / top)
    GET  /v1/cluster/work            work-item table summary

Execution model: jobs are admitted through a bounded
:class:`~repro.serve.queue.AdmissionQueue` (429 + Retry-After when
full), optionally gated by per-tenant quotas.  A job leaves the queue
only when a worker asks for work.  A lease, from a node or a local
worker, first takes pending items of jobs that already started, then
pops the best queued job (priority, deadline, FIFO), resolves an expired
queue deadline as ``timeout``, plans the job into work items
(:mod:`.shards` — spec-pure, so results are byte-identical whatever
executes them), marks it running and leases from its items.  Every
worker runs an item through :func:`~repro.cluster.node.run_item`; the
coordinator order-restores and merges shard results into the exact
single-process envelope.  Sharded fuzz jobs run their feedback loop on
the coordinator (:mod:`.fuzzdriver`), farming out batch evaluation.

Job policy, the same for every worker: an executor exception re-runs the
item while the job's ``max_retries`` allows (``job.attempts`` counts the
runs); a lost node or an expired lease re-queues it up to
``max_attempts`` dispatches without using up ``max_retries``; an
:class:`~repro.serve.executors.ExecutorError` fails the job at once.  A
running job past its ``timeout_seconds`` resolves as ``timeout`` within
one reaper period.  A JSONL :class:`~repro.cluster.store.JobStore` makes
jobs survive restarts.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass
from queue import SimpleQueue
from typing import Any, Dict, List, Optional, Tuple

from ..serve.executors import _EXECUTORS, ExecutorError
from ..serve.jobs import (Job, JobCancelled, JobContext, JobSpec, JobTimeout,
                          STATES)
from ..serve.queue import AdmissionQueue, QueueClosed, QueueFull
from ..telemetry.session import resolve as _resolve_telemetry
from .fuzzdriver import DistributedFuzzEngine, split_batch
from .leases import LeaseTable, NodeRegistry, WORK_DONE, WORK_FAILED
from .node import run_item
from .quotas import QuotaExceeded, TenantQuotas
from .shards import FUZZ_DRIVER, SHARDABLE_KINDS, plan_shards
from .store import JobStore

__all__ = ["ClusterCoordinator", "ServiceClosed"]


class ServiceClosed(Exception):
    """Submission rejected: the service is shutting down."""


@dataclass
class _Run:
    """A started job: its context, its execution span, and its work
    item ids (``None`` while a fuzz driver mints items per batch)."""

    ctx: JobContext
    trace: Any = None
    items: Optional[List[str]] = None


class ClusterCoordinator:
    """The service: admission, lease-time scheduling, workers, merge.

    ::

        service = ClusterCoordinator(port=0, workers=2).start()
        job = service.submit(JobSpec(kind="vp_run", payload={...}))
        job.wait()
        service.shutdown()          # drains queued + in-flight jobs

    ``workers`` local workers run in ``mode`` ``"thread"`` or
    ``"process"``; with ``workers=0`` only attached
    :class:`~repro.cluster.node.WorkerNode` instances execute work.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8973,
                 store_path: Optional[str] = None,
                 queue_limit: int = 64,
                 lease_timeout: float = 30.0,
                 node_timeout: float = 10.0,
                 max_attempts: int = 3,
                 quotas: Optional[TenantQuotas] = None,
                 workers: int = 0,
                 mode: str = "thread",
                 telemetry=None) -> None:
        from .frontend import SelectorHttpServer

        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', "
                             f"got {mode!r}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        # A service is long-lived and observable by design: when the
        # ambient session is disabled, run on a private enabled session
        # so /v1/stats and the gauges are always live.  A CLI-installed
        # session (``repro serve --stats``) is reused.
        resolved = _resolve_telemetry(telemetry)
        if not resolved.enabled:
            from ..telemetry import Telemetry
            resolved = Telemetry()
        self.telemetry = resolved
        self._serve = self.telemetry.metrics.namespace("serve")
        self._cluster = self.telemetry.metrics.namespace("cluster")
        self.workers = workers
        self.mode = mode
        self.queue = AdmissionQueue(queue_limit)
        self.work = LeaseTable(max_attempts=max_attempts,
                               feed=self._start_next_job)
        self.nodes = NodeRegistry()
        self.quotas = quotas or TenantQuotas()
        self.lease_timeout = lease_timeout
        self.node_timeout = node_timeout
        self.heartbeat_interval = max(0.05, node_timeout / 3.0)
        self.jobs: Dict[str, Job] = {}
        self._runs: Dict[str, _Run] = {}
        self._reruns: set = set()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._accepting = False
        self._started = False
        self._stopped = False
        self._shutdown_done = threading.Event()
        self._workers_stopped = False
        self._node_drain = threading.Event()
        self._stop_loop = threading.Event()
        self._finalize_feed: SimpleQueue = SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._local_threads: List[threading.Thread] = []
        self._driver_threads: List[threading.Thread] = []
        self._pool = None
        if workers and mode == "process":
            from ..pool import process_pool

            # Fork before the listening socket and any thread exist, so
            # the pool's children hold neither.
            self._pool = process_pool(workers)
        self._next_job_number = 1
        self.store: Optional[JobStore] = None
        self._replayed: List[Tuple[str, JobSpec]] = []
        if store_path is not None:
            self._recover(store_path)
        self.frontend = SelectorHttpServer(self._route, host=host,
                                           port=port)

    # -- persistence ----------------------------------------------------

    def _recover(self, store_path: str) -> None:
        """Replay the JSONL log: finished jobs stay fetchable, unfinished
        ones re-queue when the coordinator starts."""
        recovered = JobStore.replay(store_path)
        self._next_job_number = recovered.max_job_number + 1
        for job_id, data in recovered.resolved.items():
            try:
                spec = JobSpec.from_dict(data["spec"])
            except (ValueError, TypeError, KeyError):
                continue
            job = Job(spec, job_id=job_id)
            state = data.get("state")
            if state == "succeeded":
                job.mark_succeeded(data.get("result") or {})
            elif state == "timeout":
                job.mark_timeout(data.get("error") or "timeout")
            elif state == "cancelled":
                job.mark_cancelled(data.get("error") or "cancelled")
            else:
                job.mark_failed(data.get("error") or "failed")
            job.finalize_once()
            self.jobs[job.id] = job
        for job_id, spec_dict in recovered.unresolved:
            try:
                spec = JobSpec.from_dict(spec_dict)
            except (ValueError, TypeError, KeyError):
                continue
            self._replayed.append((job_id, spec))
        self.store = JobStore(store_path)

    # -- lifecycle ------------------------------------------------------

    @property
    def url(self) -> str:
        return self.frontend.url

    def start(self) -> "ClusterCoordinator":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._accepting = True
        self.frontend.start()
        for target, name in ((self._finalizer_loop, "cluster-finalizer"),
                             (self._reaper_loop, "cluster-reaper")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        for index in range(self.workers):
            thread = threading.Thread(target=self._local_worker,
                                      args=(f"worker-{index}",),
                                      name=f"serve-worker-{index}",
                                      daemon=True)
            thread.start()
            self._local_threads.append(thread)
        self._update_gauges()
        self.telemetry.events.emit(
            "serve.started", workers=self.workers, mode=self._mode(),
            queue_limit=self.queue.limit, lease_timeout=self.lease_timeout,
            node_timeout=self.node_timeout,
            replayed_jobs=len(self._replayed), resolved_jobs=len(self.jobs))
        # Re-queue replayed unresolved jobs under their original IDs:
        # shard plans are spec-pure, so the re-run produces the bytes
        # the interrupted run would have.
        replayed, self._replayed = self._replayed, []
        for job_id, spec in replayed:
            job = Job(spec, job_id=job_id)
            with self._lock:
                self.jobs[job.id] = job
            # Replay must never strand a persisted job; the quota still
            # counts it so new submissions see the true active load.
            self.quotas.acquire(spec.tenant, force=True)
            try:
                self.queue.put(job)
            except (QueueFull, QueueClosed):
                job.mark_failed("queue full during replay")
                self._job_finished(job)
        self.work.wake()
        return self

    def __enter__(self) -> "ClusterCoordinator":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def serve_forever(self) -> None:
        """Run in the foreground until a signal or ``POST /v1/shutdown``."""
        try:
            while not self._stop_loop.wait(0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self.shutdown()

    def install_signal_handlers(self) -> None:
        """SIGTERM and SIGINT both drain gracefully (containers send
        SIGTERM); the handler only wakes :meth:`serve_forever`."""
        def handle(signum, frame):  # pragma: no cover - signal path
            self._stop_loop.set()

        signal.signal(signal.SIGTERM, handle)
        signal.signal(signal.SIGINT, handle)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service.

        ``drain=True`` stops admission and waits (up to ``timeout``) for
        every queued and in-flight job to resolve.  ``drain=False``
        cancels queued jobs at once.  Either way in-flight local items
        finish first; then nodes are told to drain and the frontend
        closes.  A second caller returns only when the first finished.
        """
        with self._lock:
            first = not self._stopped
            self._stopped = True
            self._accepting = False
        if not first:
            self._shutdown_done.wait()
            return
        try:
            if not drain:
                for job in self.queue.drain():
                    job.mark_cancelled("service shutdown")
                    self._job_finished(job)
            self.queue.close()
            if drain:
                self.join(timeout=timeout)
            self._workers_stopped = True
            self.work.wake()
            for thread in self._local_threads:
                thread.join()
            self._node_drain.set()
            self._stop_loop.set()
            self._finalize_feed.put(None)
            for thread in self._threads + list(self._driver_threads):
                thread.join(timeout=5)
            self.frontend.close()
            if self._pool is not None:
                self._pool.close()
                self._pool.join()
            counts = self.work.counts()
            self.telemetry.events.emit(
                "serve.stopped", drained=drain, jobs_total=len(self.jobs),
                work_completed=self.work.completed_total,
                work_requeued=self.work.requeued_total,
                work_failed=counts[WORK_FAILED],
                nodes_lost=self.nodes.lost_total)
            if self.store is not None:
                self.store.close()
        finally:
            self._shutdown_done.set()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running; True when idle."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while any(not job.done for job in list(self.jobs.values())):
                remaining = 0.2
                if deadline is not None:
                    remaining = min(0.2, deadline - time.monotonic())
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    # -- submission -----------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job; raises :class:`QueueFull`,
        :class:`QuotaExceeded`, :class:`ServiceClosed`, or
        :class:`ExecutorError` (unknown kind, unshardable kind)."""
        if not self._started:
            raise RuntimeError("service not started")
        spec.validate()
        if spec.kind not in _EXECUTORS:
            raise ExecutorError(
                f"unknown job kind {spec.kind!r}; known kinds: "
                f"{sorted(_EXECUTORS)}")
        if spec.shards > 1 and spec.kind not in SHARDABLE_KINDS:
            raise ExecutorError(
                f"kind {spec.kind!r} cannot shard; shards > 1 applies to "
                f"{sorted(SHARDABLE_KINDS)}")
        with self._lock:
            if not self._accepting:
                raise ServiceClosed("service is shutting down")
            job = Job(spec, job_id=f"job-{self._next_job_number}")
            self.quotas.acquire(spec.tenant)
            try:
                self.queue.put(job)
            except QueueFull:
                self.quotas.release(spec.tenant)
                self._serve.counter("rejected").inc()
                self.telemetry.events.emit(
                    "job.rejected", kind=spec.kind,
                    queue_depth=self.queue.limit)
                raise
            except QueueClosed:
                self.quotas.release(spec.tenant)
                raise ServiceClosed("service is shutting down") from None
            self._next_job_number += 1
            self.jobs[job.id] = job
        if self.store is not None:
            self.store.append_job(job.id, spec.to_dict())
        self._serve.counter("submitted").inc()
        self._serve.gauge("queue_depth").set(self.queue.depth())
        trace = {key: value for key, value in (spec.trace or {}).items()
                 if value is not None}
        self.telemetry.events.emit(
            "job.submitted", id=job.id, kind=spec.kind,
            priority=spec.priority, shards=spec.shards,
            tenant=spec.tenant or "", **trace)
        self.work.wake()
        return job

    def get_job(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: a queued one never runs; a running one resolves
        now, its open items stop dispatching, and its executors stop at
        their next checkpoint."""
        job = self.jobs.get(job_id)
        if job is None:
            return False
        changed = job.cancel()
        if changed:
            self._stop_job(job, job.mark_cancelled, "cancelled while running")
        return changed

    def _stop_job(self, job: Job, resolve, reason: str) -> None:
        resolve(reason)
        self.work.drop_job(job.id, reason)
        self._job_finished(job)

    def _timeout(self, job: Job) -> None:
        self._stop_job(job, job.mark_timeout,
                       f"run timeout after {job.spec.timeout_seconds}s")

    # -- scheduling -----------------------------------------------------

    def _start_next_job(self) -> bool:
        """The lease table's feed: start the best queued job.

        Runs under the lease table's lock, inside a lease.  Returns
        False when the queue is empty.
        """
        job = self.queue.get(timeout=0)
        if job is None:
            return False
        if job.deadline_expired():
            job.mark_timeout("deadline expired before dispatch")
            self._job_finished(job)
            return True
        plans = plan_shards(job.spec)
        if not job.mark_running("cluster"):
            self._job_finished(job)
            return True
        wait = job.started_at - job.submitted_at
        self._serve.timer("queue_wait_seconds").observe(wait)
        run = _Run(JobContext(job))
        if job.spec.trace is not None:
            from ..observe.trace import TraceContext

            root = TraceContext.from_dict(job.spec.trace)
            self._emit_queue_span(job, root)
            run.trace = root.child()
        self.telemetry.events.emit(
            "job.dispatched", id=job.id, kind=job.spec.kind,
            shards=plans[0]["shard_count"], queue_seconds=round(wait, 6))
        if plans[0]["kind"] == FUZZ_DRIVER:
            with self._lock:
                self._runs[job.id] = run
            self._start_fuzz_driver(job, run.ctx, plans[0]["shard_count"])
            return True
        if run.trace is not None:
            plans = [{**plan, "trace": run.trace.child().to_dict()}
                     for plan in plans]
        run.items = [item.id for item in self.work.add(job.id, plans)]
        with self._lock:
            self._runs[job.id] = run
        return True

    def _leased(self, items):
        """After a lease: a re-run item takes its job from pending back
        to running (one more attempt), and the gauges move."""
        for item in items:
            if item.id in self._reruns:
                self._reruns.discard(item.id)
                job = self.jobs.get(item.job_id)
                if job is not None:
                    job.mark_running("cluster")
        self._update_gauges()
        return items

    def _emit_queue_span(self, job: Job, root) -> None:
        """Record the elapsed queue wait as a complete span.

        ``submitted_at``/``started_at`` and the event log share the
        monotonic clock, so the span sits at the true submission time.
        """
        log = self.telemetry.events
        record = {
            "type": "job.queue_wait",
            "ts_us": int((job.submitted_at - log.origin) * 1_000_000),
            "dur_us": int((job.started_at - job.submitted_at) * 1_000_000),
            "id": job.id,
            "kind": job.spec.kind,
            **root.child().fields(),
        }
        log.extend([record])
        job.trace_events.append(record)

    # -- local workers --------------------------------------------------

    def _local_worker(self, name: str) -> None:
        while True:
            item = self.work.lease_blocking(
                name, lambda: self._workers_stopped)
            if item is None:
                return
            self._leased([item])
            self._run_local(item)

    def _run_local(self, item) -> None:
        """Run one item with its job's context: in this thread, or in
        the pool while this thread polls the context."""
        with self._lock:
            run = self._runs.get(item.job_id)
        if run is None:
            return  # the job resolved between lease and run
        try:
            if self._pool is None:
                body = run_item(item.wire_dict(), run.ctx)
            else:
                from multiprocessing import TimeoutError as PoolTimeout

                handle = self._pool.apply_async(run_item, (item.wire_dict(),))
                while True:
                    try:
                        body = handle.get(timeout=0.1)
                        break
                    except PoolTimeout:
                        run.ctx.check()
        except JobCancelled:
            return  # cancel() resolved the job and dropped its items
        except JobTimeout:
            return self._timeout(run.ctx.job)
        self._complete_work(item.id, body, inline=True)

    # -- fuzz driver ----------------------------------------------------

    def _start_fuzz_driver(self, job: Job, ctx: JobContext,
                           shard_count: int) -> None:
        thread = threading.Thread(
            target=self._drive_fuzz, args=(job, ctx, shard_count),
            name=f"fuzz-driver-{job.id}", daemon=True)
        self._driver_threads.append(thread)
        thread.start()

    def _drive_fuzz(self, job: Job, ctx: JobContext,
                    shard_count: int) -> None:
        """Run a sharded fuzz job's loop, evaluating batches as items."""
        from ..serve.executors import fuzz_session_from_payload

        try:
            isa, config, seeds = fuzz_session_from_payload(
                job.spec.payload)
            base = {
                "isa": isa.name,
                "max_instructions": config.max_instructions,
                "backend": config.backend,
            }

            def evaluate_remote(batch):
                return self._eval_batch(job, ctx, base, batch, shard_count)

            engine = DistributedFuzzEngine(isa, config, evaluate_remote,
                                           telemetry=self.telemetry)
            result = engine.run(seeds,
                                on_progress=lambda progress: ctx.check(),
                                progress_interval=0.2)
        except JobCancelled:
            job.mark_cancelled("cancelled while running")
        except JobTimeout:
            job.mark_timeout(
                f"run timeout after {job.spec.timeout_seconds}s")
        except ExecutorError as exc:
            job.mark_failed(str(exc))
        except Exception as exc:  # noqa: BLE001 — driver must resolve job
            job.mark_failed(f"fuzz driver failed: {exc!r}")
        else:
            job.mark_succeeded(result.to_dict())
        finally:
            # Abandoned batch items (cancel/timeout/failure) must not
            # keep dispatching; on success the drop is a no-op.
            self.work.drop_job(job.id)
            self._job_finished(job)
            self._driver_threads.remove(threading.current_thread())

    def _eval_batch(self, job: Job, ctx: JobContext, base: Dict[str, Any],
                    batch, shard_count: int):
        """One fuzz batch as ``fuzz_eval`` work items, order-restored."""
        from ..fuzz.executor import EvalResult

        chunks = split_batch(batch, shard_count)
        plans = [{"kind": "fuzz_eval",
                  "payload": {**base,
                              "inputs": [list(words) for words in inputs]},
                  "shard_index": index,
                  "shard_count": shard_count}
                 for index, inputs in chunks]
        items = self.work.add(job.id, plans)
        self._update_gauges()
        done = self.work.wait([item.id for item in items],
                              should_abort=lambda: job.done
                              or ctx.cancelled or ctx.timed_out
                              or self._stop_loop.is_set())
        ctx.check()
        if not done:
            raise RuntimeError("batch evaluation aborted")
        results = []
        for item in sorted((self.work.get(item.id) for item in items),
                           key=lambda it: it.shard_index):
            if item.state != WORK_DONE:
                raise RuntimeError(
                    f"work item {item.id} failed: {item.error}")
            results.extend(EvalResult.from_dict(data)
                           for data in item.result["results"])
        return results

    # -- completion and finalization ------------------------------------

    def _complete_work(self, item_id: str, body: dict,
                       inline: bool = False) -> Optional[dict]:
        """Record one item's outcome, from a node or a local worker.

        Local workers finalize inline; node completions arrive on the
        event loop and finalize on the finalizer thread.
        """
        error = body.get("error")
        if error is not None:
            item = self._fail_item(item_id, str(error),
                                   bool(body.get("retryable", True)))
        else:
            result = body.get("result")
            if not isinstance(result, dict):
                raise ValueError("complete body needs a 'result' object "
                                 "or an 'error' string")
            item = self.work.complete(item_id, result)
            if item is not None:
                self._cluster.counter("work_completed").inc()
                self._merge_events(item.job_id, body)
        if item is None:
            known = self.work.get(item_id)
            if known is None:
                return None
            return {"id": item_id, "state": known.state, "stale": True}
        self._update_gauges()
        if item.state in (WORK_DONE, WORK_FAILED):
            if inline:
                self._finalize(item.job_id)
            else:
                self._finalize_feed.put(item.job_id)
        return {"id": item_id, "state": item.state, "stale": False}

    def _fail_item(self, item_id: str, error: str, retryable: bool):
        """An executor exception re-runs the item while the job's
        ``max_retries`` allows; anything else fails it."""
        item = self.work.get(item_id)
        job = self.jobs.get(item.job_id) if item is not None else None
        if retryable and job is not None and job.mark_retrying(
                f"attempt {job.attempts} failed: {error}"):
            self._reruns.add(item_id)
            self._serve.counter("retries").inc()
            self.telemetry.events.emit("job.retrying", id=job.id,
                                       attempt=job.attempts, error=error)
            return self.work.rerun(item_id, error)
        return self.work.fail(item_id, error, retryable=False)

    def _merge_events(self, job_id: str, body: dict) -> None:
        """Fold a traced item's execution events onto its job and the
        service log, rebased from the worker's clock origin."""
        events = body.get("events")
        job = self.jobs.get(job_id)
        if not events or job is None:
            return
        log = self.telemetry.events
        # CLOCK_MONOTONIC is system-wide on Linux, so the worker's log
        # origin and ours are directly comparable readings.
        shift_us = int((body.get("origin", 0.0) - log.origin) * 1_000_000)
        merged = [{**event, "ts_us": event.get("ts_us", 0) + shift_us}
                  for event in events]
        job.trace_events.extend(merged)
        log.extend(merged)

    def _finalizer_loop(self) -> None:
        while True:
            job_id = self._finalize_feed.get()
            if job_id is None:
                return
            self._finalize(job_id)

    def _finalize(self, job_id: str) -> None:
        try:
            self._maybe_finalize(job_id)
        except Exception as exc:  # noqa: BLE001 — callers must survive
            job = self.jobs.get(job_id)
            if job is not None and not job.done:
                job.mark_failed(f"finalize failed: {exc!r}")
                self._job_finished(job)

    def _maybe_finalize(self, job_id: str) -> None:
        """Resolve a statically-sharded job once all its items landed."""
        from .shards import merge_job_shards

        job = self.jobs.get(job_id)
        with self._lock:
            run = self._runs.get(job_id)
        if job is None or job.done or run is None or not run.items:
            return
        items = [self.work.get(item_id) for item_id in run.items]
        failed = [item for item in items if item.state == WORK_FAILED]
        if failed:
            job.mark_failed(
                f"work item {failed[0].id} failed: {failed[0].error}")
            self.work.drop_job(job_id)
            self._job_finished(job)
            return
        if not all(item.state == WORK_DONE for item in items):
            return
        if len(items) == 1 and items[0].kind == job.spec.kind:
            job.mark_succeeded(items[0].result)
        else:
            job.mark_succeeded(merge_job_shards(
                job.spec.kind, [item.result for item in items]))
        self._job_finished(job)

    def _job_finished(self, job: Job) -> None:
        if not job.finalize_once():
            return
        self.quotas.release(job.spec.tenant)
        with self._lock:
            run = self._runs.pop(job.id, None)
        if self.store is not None:
            self.store.append_resolved(job.id, job.state,
                                       result=job.result, error=job.error)
        self._serve.counter(f"completed.{job.state}").inc()
        record = {"id": job.id, "kind": job.spec.kind,
                  "state": job.state, "attempts": job.attempts}
        run_seconds = job.run_seconds()
        if run_seconds is not None:
            self._serve.timer("job_seconds").observe(run_seconds)
            record["run_seconds"] = round(run_seconds, 6)
            self._emit_job_span(job, run, run_seconds)
        if job.error:
            record["error"] = job.error
        self._update_gauges()
        self.telemetry.events.emit("job.finished", **record)
        with self._idle:
            self._idle.notify_all()

    def _emit_job_span(self, job: Job, run: Optional[_Run],
                       run_seconds: float) -> None:
        """The job's run as one complete ``job`` span; a traced job's
        span is also mirrored into its own events."""
        log = self.telemetry.events
        span = {"type": "job",
                "ts_us": int((job.started_at - log.origin) * 1_000_000),
                "dur_us": int(run_seconds * 1_000_000),
                "id": job.id, "kind": job.spec.kind, "worker": job.worker,
                "state": job.state, "attempt": job.attempts}
        if run is not None and run.trace is not None:
            span.update(run.trace.fields())
            job.trace_events.append(span)
        log.extend([span])

    # -- liveness -------------------------------------------------------

    def _reaper_loop(self) -> None:
        interval = max(0.05, min(self.node_timeout,
                                 self.lease_timeout) / 4.0)
        while not self._stop_loop.wait(interval):
            for info in self.nodes.expire(self.node_timeout):
                released = self.work.release_node(info.id)
                self._cluster.counter("nodes_lost").inc()
                self.telemetry.events.emit(
                    "node.lost", id=info.id, name=info.name,
                    requeued=len(released))
                self._after_requeue(released)
            expired = self.work.expire(self.lease_timeout)
            if expired:
                self._cluster.counter("leases_expired").inc(len(expired))
                self._after_requeue(expired)
            with self._lock:
                runs = list(self._runs.values())
            for run in runs:
                if run.ctx.timed_out:
                    self._timeout(run.ctx.job)

    def _after_requeue(self, items) -> None:
        """Account re-queues; exhausted items may finalize their job."""
        self._update_gauges()
        for item in items:
            if item.state == WORK_FAILED:
                self._finalize_feed.put(item.job_id)
            else:
                self.telemetry.events.emit(
                    "work.requeued", id=item.id, job_id=item.job_id,
                    attempts=item.attempts, reason=item.error or "")

    def _update_gauges(self) -> None:
        counts = self.work.counts()
        self._serve.gauge("workers").set(self._worker_count())
        self._serve.gauge("queue_depth").set(self.queue.depth())
        self._serve.gauge("running").set(counts["leased"])
        self._cluster.gauge("work_pending").set(counts["pending"])
        self._cluster.gauge("work_leased").set(counts["leased"])
        self._cluster.gauge("nodes").set(len(self.nodes))

    # -- stats ----------------------------------------------------------

    def _worker_count(self, node_rows=None) -> int:
        """Local workers plus the capacity of every attached node."""
        rows = self.nodes.rows() if node_rows is None else node_rows
        return self.workers + sum(row["capacity"] for row in rows)

    def _mode(self) -> str:
        return self.mode if self.workers else "cluster"

    def stats(self) -> Dict[str, Any]:
        tally = {state: 0 for state in STATES}
        for job in list(self.jobs.values()):
            tally[job.state] += 1
        node_rows = self.nodes.rows()
        counts = self.work.counts()
        return {
            "workers": self._worker_count(node_rows),
            "mode": self._mode(),
            "accepting": self._accepting,
            "queue_depth": self.queue.depth(),
            "queue_limit": self.queue.limit,
            "running": counts["leased"],
            "jobs": tally,
            "events": self.telemetry.events.stats(),
            "cluster": {
                "nodes": node_rows,
                "work": counts,
                "work_completed": self.work.completed_total,
                "work_requeued": self.work.requeued_total,
                "nodes_lost": self.nodes.lost_total,
                "lease_timeout": self.lease_timeout,
                "node_timeout": self.node_timeout,
                "tenants": self.quotas.active(),
            },
        }

    # -- node protocol handlers -----------------------------------------

    def _register_node(self, body: dict) -> dict:
        info = self.nodes.register(name=body.get("name"),
                                   capacity=int(body.get("capacity", 1)))
        self._update_gauges()
        self.telemetry.events.emit("node.registered", id=info.id,
                                   name=info.name, capacity=info.capacity)
        return {"id": info.id, "name": info.name,
                "heartbeat_interval": self.heartbeat_interval,
                "lease_timeout": self.lease_timeout}

    def _node_heartbeat(self, node_id: str, body: dict) -> Optional[dict]:
        stats = body.get("stats")
        if not self.nodes.heartbeat(
                node_id, stats if isinstance(stats, dict) else None):
            return None
        self.work.renew(node_id)
        return {"id": node_id, "ok": True,
                "drain": self._node_drain.is_set()}

    def _node_lease(self, node_id: str, body: dict) -> Optional[dict]:
        info = self.nodes.get(node_id)
        if info is None:
            return None
        self.nodes.heartbeat(node_id)
        if self._node_drain.is_set() or info.draining:
            return {"work": [], "drain": True}
        max_items = max(1, int(body.get("max_items", 1)))
        leased = self._leased(self.work.lease(node_id, max_items=max_items))
        return {"work": [item.wire_dict() for item in leased],
                "drain": False}

    # -- HTTP router -----------------------------------------------------

    def _route(self, method: str, path: str, query: Dict[str, str],
               body: Optional[dict]) -> tuple:
        """The frontend router: every ``/v1/*`` route in one place."""
        body = body or {}
        route = tuple(part for part in path.strip("/").split("/") if part)
        try:
            if method == "GET":
                return self._route_get(route, query)
            if method == "POST":
                return self._route_post(route, body)
        except (ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}
        return 405, {"error": f"method {method} not allowed"}

    def _route_get(self, route: tuple, query: Dict[str, str]) -> tuple:
        if route == ("metrics",):
            from ..telemetry.prometheus import (CONTENT_TYPE,
                                                render_prometheus)

            counts = self.work.counts()
            log_stats = self.telemetry.events.stats()
            extra = {
                "repro_serve_queue_depth_live": self.queue.depth(),
                "repro_serve_running_live": counts["leased"],
                "repro_events_dropped": log_stats["dropped_events"],
                "repro_events_overflowed":
                    1 if log_stats["overflowed"] else 0,
                "repro_events_appended": log_stats["total_appended"],
                "repro_cluster_nodes_live": len(self.nodes),
                "repro_cluster_work_pending_live": counts["pending"],
                "repro_cluster_work_leased_live": counts["leased"],
                "repro_cluster_work_done_live": counts["done"],
                "repro_cluster_queue_depth_live": self.queue.depth(),
            }
            # Aggregate node-reported execution counters so one scrape
            # of the coordinator sees the whole cluster's throughput.
            executed = failed = 0
            for row in self.nodes.rows():
                stats = row.get("stats") or {}
                executed += int(stats.get("executed", 0) or 0)
                failed += int(stats.get("failed", 0) or 0)
            extra["repro_cluster_node_executed_total"] = executed
            extra["repro_cluster_node_failed_total"] = failed
            text = render_prometheus(self.telemetry.metrics.to_dict(),
                                     extra_gauges=extra)
            return 200, text, {"Content-Type": CONTENT_TYPE}
        if route == ("v1", "events"):
            since = int(query.get("since", "0"))
            return 200, self.telemetry.events.tail(since)
        if route == ("v1", "fuzz", "frontier"):
            from ..observe.frontier import frontier_from_events

            events = list(self.telemetry.events)
            return 200, frontier_from_events(events)
        if route == ("v1", "health"):
            stats = self.stats()
            status = "ok" if stats["accepting"] else "draining"
            return 200, {"status": status, **stats}
        if route == ("v1", "stats"):
            return 200, {"service": self.stats(),
                         "metrics": self.telemetry.metrics.to_dict()}
        if route == ("v1", "kinds"):
            from ..serve.executors import job_kinds

            return 200, {"kinds": job_kinds()}
        if route == ("v1", "cluster", "nodes"):
            return 200, {"nodes": self.nodes.rows(),
                         "total": len(self.nodes)}
        if route == ("v1", "cluster", "work"):
            counts = self.work.counts()
            return 200, {"counts": counts,
                         "completed_total": self.work.completed_total,
                         "requeued_total": self.work.requeued_total}
        if route == ("v1", "jobs"):
            state = query.get("state")
            jobs = [job.to_dict() for job in list(self.jobs.values())
                    if state is None or job.state == state]
            return 200, {"jobs": jobs, "total": len(jobs)}
        if len(route) == 3 and route[:2] == ("v1", "jobs"):
            job = self.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            return 200, job.to_dict()
        if len(route) == 4 and route[:2] == ("v1", "jobs") \
                and route[3] == "result":
            job = self.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            if not job.done:
                return (409, {"error": f"job {job.id} is {job.state}; "
                              "result not available yet"},
                        {"Retry-After": "1"})
            return 200, job.to_dict(with_result=True)
        if len(route) == 4 and route[:2] == ("v1", "jobs") \
                and route[3] == "events":
            job = self.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            events = sorted(list(job.trace_events),
                            key=lambda event: event.get("ts_us", 0))
            return 200, {"id": job.id, "state": job.state,
                         "traced": job.spec.trace is not None,
                         "events": events}
        return 404, {"error": f"unknown endpoint: /{'/'.join(route)}"}

    def _route_post(self, route: tuple, body: dict) -> tuple:
        if route == ("v1", "jobs"):
            try:
                spec = JobSpec.from_dict(body)
                job = self.submit(spec)
            except QueueFull as exc:
                return 429, {"error": str(exc)}, {"Retry-After": "1"}
            except QuotaExceeded as exc:
                self._cluster.counter("quota_rejected").inc()
                return 429, {"error": str(exc)}, {"Retry-After": "2"}
            except ServiceClosed as exc:
                return 503, {"error": str(exc)}
            except (ExecutorError, ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}
            return 202, job.to_dict()
        if len(route) == 4 and route[:2] == ("v1", "jobs") \
                and route[3] == "cancel":
            job = self.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            changed = self.cancel(job.id)
            return 200, {"id": job.id, "cancelled": changed,
                         "state": job.state}
        if route == ("v1", "shutdown"):
            drain = bool(body.get("drain", True))
            threading.Thread(target=self.shutdown, args=(drain,),
                             daemon=True).start()
            return 202, {"status": "shutting down", "drain": drain}
        if route == ("v1", "nodes", "register"):
            return 200, self._register_node(body)
        if len(route) == 4 and route[:2] == ("v1", "nodes"):
            node_id, action = route[2], route[3]
            if action == "heartbeat":
                reply = self._node_heartbeat(node_id, body)
            elif action == "lease":
                reply = self._node_lease(node_id, body)
            elif action == "drain":
                reply = ({"id": node_id, "draining": True}
                         if self.nodes.set_draining(node_id) else None)
            else:
                return 404, {"error": f"unknown node action: {action}"}
            if reply is None:
                return 404, {"error": f"unknown node: {node_id}"}
            return 200, reply
        if len(route) == 4 and route[:2] == ("v1", "work") \
                and route[3] == "complete":
            reply = self._complete_work(route[2], body)
            if reply is None:
                return 404, {"error": f"unknown work item: {route[2]}"}
            return 200, reply
        return 404, {"error": f"unknown endpoint: /{'/'.join(route)}"}
