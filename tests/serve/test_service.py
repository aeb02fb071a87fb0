"""Scheduling + local workers: concurrency, backpressure, retries,
shutdown."""

import threading
import time

import pytest

from repro.cli import resolve_workers
from repro.cluster import ClusterCoordinator, ServiceClosed
from repro.serve import ExecutorError, JobSpec, QueueFull, register_executor
from repro.serve.executors import _EXECUTORS

EXIT_OK = """
_start:
    li a0, 0
    li a7, 93
    ecall
"""


@pytest.fixture
def scratch_kinds():
    """Register throwaway executors; unregister them afterwards."""
    added = []

    def add(kind, fn):
        register_executor(kind)(fn)
        added.append(kind)

    yield add
    for kind in added:
        _EXECUTORS.pop(kind, None)


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("queue_limit", 16)
    return ClusterCoordinator(port=0, **kwargs).start()


class TestResolveWorkers:
    def test_zero_and_none_autodetect(self):
        from repro.pool import available_cpus
        expected = available_cpus()
        assert resolve_workers(0) == expected
        assert resolve_workers(None) == expected

    def test_explicit_count(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestExecution:
    def test_vp_run_job(self):
        service = make_service()
        try:
            job = service.submit(JobSpec(kind="vp_run",
                                         payload={"source": EXIT_OK}))
            assert job.wait(30)
            assert job.state == "succeeded"
            assert job.result["stop_reason"] == "exit"
            assert job.result["exit_code"] == 0
        finally:
            service.shutdown()

    def test_unknown_kind_rejected_at_submit(self):
        service = make_service()
        try:
            with pytest.raises(ExecutorError):
                service.submit(JobSpec(kind="no_such_kind"))
        finally:
            service.shutdown()

    def test_bad_payload_fails_without_retry(self, scratch_kinds):
        service = make_service()
        try:
            job = service.submit(JobSpec(
                kind="vp_run", payload={"source": ""}, max_retries=3))
            assert job.wait(30)
            assert job.state == "failed"
            assert job.attempts == 1  # ExecutorError is not retried
        finally:
            service.shutdown()

    def test_retry_then_succeed(self, scratch_kinds):
        calls = []

        def flaky(payload, ctx):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient flake")
            return {"ok": True}

        scratch_kinds("test.flaky", flaky)
        service = make_service(workers=1)
        try:
            job = service.submit(JobSpec(kind="test.flaky", max_retries=2))
            assert job.wait(30)
            assert job.state == "succeeded" and job.attempts == 3
        finally:
            service.shutdown()

    def test_retries_exhausted_fails(self, scratch_kinds):
        def always_broken(payload, ctx):
            raise RuntimeError("permanent")

        scratch_kinds("test.broken", always_broken)
        service = make_service(workers=1)
        try:
            job = service.submit(JobSpec(kind="test.broken", max_retries=1))
            assert job.wait(30)
            assert job.state == "failed" and job.attempts == 2
            assert "permanent" in job.error
        finally:
            service.shutdown()

    def test_run_timeout(self, scratch_kinds):
        def slow(payload, ctx):
            for _ in range(100):
                time.sleep(0.02)
                ctx.check()
            return {}

        scratch_kinds("test.slow", slow)
        service = make_service(workers=1)
        try:
            job = service.submit(JobSpec(kind="test.slow",
                                         timeout_seconds=0.1))
            assert job.wait(30)
            assert job.state == "timeout"
        finally:
            service.shutdown()


class TestSchedulingPolicy:
    def test_priority_dispatch_order(self, scratch_kinds):
        order = []
        gate = threading.Event()

        def recorder(payload, ctx):
            if payload.get("gate"):
                gate.wait(10)
            else:
                order.append(payload["tag"])
            return {}

        scratch_kinds("test.rec", recorder)
        service = make_service(workers=1, queue_limit=16)
        try:
            # Occupy the single worker so the rest queue up.
            blocker = service.submit(JobSpec(kind="test.rec",
                                             payload={"gate": True}))
            service.submit(JobSpec(kind="test.rec",
                                   payload={"tag": "low"}, priority=0))
            service.submit(JobSpec(kind="test.rec",
                                   payload={"tag": "high"}, priority=9))
            gate.set()
            assert service.join(timeout=30)
            assert order == ["high", "low"]
            assert blocker.state == "succeeded"
        finally:
            service.shutdown()

    def test_deadline_expires_in_queue(self, scratch_kinds):
        gate = threading.Event()
        started = threading.Event()

        def blocker(payload, ctx):
            started.set()
            gate.wait(10)
            return {}

        scratch_kinds("test.gate", blocker)
        service = make_service(workers=1)
        try:
            service.submit(JobSpec(kind="test.gate"))
            assert started.wait(10)  # worker busy before the doomed job
            doomed = service.submit(JobSpec(kind="test.gate",
                                            deadline_seconds=0.05))
            time.sleep(0.2)
            gate.set()
            assert doomed.wait(30)
            assert doomed.state == "timeout"
            assert "deadline" in doomed.error
        finally:
            service.shutdown()

    def test_cancel_queued_job_never_runs(self, scratch_kinds):
        gate = threading.Event()
        ran = []

        def tracked(payload, ctx):
            if payload.get("gate"):
                gate.wait(10)
            else:
                ran.append(payload["tag"])
            return {}

        scratch_kinds("test.track", tracked)
        service = make_service(workers=1)
        try:
            service.submit(JobSpec(kind="test.track",
                                   payload={"gate": True}))
            victim = service.submit(JobSpec(kind="test.track",
                                            payload={"tag": "victim"}))
            assert service.cancel(victim.id)
            gate.set()
            assert service.join(timeout=30)
            assert victim.state == "cancelled"
            assert ran == []
        finally:
            service.shutdown()

    def test_cancel_running_job_cooperatively(self, scratch_kinds):
        started = threading.Event()

        def cancellable(payload, ctx):
            started.set()
            for _ in range(500):
                time.sleep(0.01)
                ctx.check()
            return {}

        scratch_kinds("test.cancellable", cancellable)
        service = make_service(workers=1)
        try:
            job = service.submit(JobSpec(kind="test.cancellable"))
            assert started.wait(10)
            service.cancel(job.id)
            assert job.wait(30)
            assert job.state == "cancelled"
        finally:
            service.shutdown()


class TestConcurrencyAndBackpressure:
    def test_sustains_eight_concurrent_jobs(self, scratch_kinds):
        barrier = threading.Barrier(8, timeout=30)

        def rendezvous(payload, ctx):
            # Only passes if 8 jobs really run at the same time.
            barrier.wait()
            return {"ok": True}

        scratch_kinds("test.barrier", rendezvous)
        service = make_service(workers=8, queue_limit=16)
        try:
            jobs = [service.submit(JobSpec(kind="test.barrier"))
                    for _ in range(8)]
            for job in jobs:
                assert job.wait(30)
                assert job.state == "succeeded"
        finally:
            service.shutdown()

    def test_full_queue_rejects_submission(self, scratch_kinds):
        gate = threading.Event()

        def blocker(payload, ctx):
            gate.wait(10)
            return {}

        scratch_kinds("test.gate2", blocker)
        service = make_service(workers=1, queue_limit=2)
        try:
            service.submit(JobSpec(kind="test.gate2"))  # runs, occupies
            time.sleep(0.2)  # let it dispatch so the queue is empty
            service.submit(JobSpec(kind="test.gate2"))
            service.submit(JobSpec(kind="test.gate2"))
            with pytest.raises(QueueFull):
                service.submit(JobSpec(kind="test.gate2"))
            stats = service.stats()
            assert stats["queue_depth"] == 2
            gate.set()
        finally:
            service.shutdown()


class TestShutdown:
    def test_graceful_shutdown_drains_everything(self, scratch_kinds):
        def slowish(payload, ctx):
            time.sleep(0.05)
            return {"tag": payload["tag"]}

        scratch_kinds("test.slowish", slowish)
        service = make_service(workers=2, queue_limit=32)
        jobs = [service.submit(JobSpec(kind="test.slowish",
                                       payload={"tag": i}))
                for i in range(10)]
        service.shutdown(drain=True)
        assert all(job.state == "succeeded" for job in jobs)
        assert [job.result["tag"] for job in jobs] == list(range(10))

    def test_non_drain_shutdown_cancels_queued(self, scratch_kinds):
        gate = threading.Event()

        def blocker(payload, ctx):
            gate.wait(10)
            return {"done": True}

        scratch_kinds("test.gate3", blocker)
        service = make_service(workers=1, queue_limit=8)
        running = service.submit(JobSpec(kind="test.gate3"))
        time.sleep(0.2)
        queued = service.submit(JobSpec(kind="test.gate3"))
        gate.set()
        service.shutdown(drain=False)
        assert running.state == "succeeded"  # in-flight always drains
        assert queued.state == "cancelled"

    def test_submit_after_shutdown_raises(self):
        service = make_service()
        service.shutdown()
        with pytest.raises(ServiceClosed):
            service.submit(JobSpec(kind="vp_run",
                                   payload={"source": EXIT_OK}))

    def test_shutdown_is_idempotent(self):
        service = make_service()
        service.shutdown()
        service.shutdown()


class TestTelemetry:
    def test_service_metrics_and_events(self, scratch_kinds):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        service = ClusterCoordinator(port=0, workers=2, queue_limit=8,
                                     telemetry=telemetry).start()
        try:
            job = service.submit(JobSpec(kind="vp_run",
                                         payload={"source": EXIT_OK}))
            assert job.wait(30) and job.state == "succeeded"
        finally:
            service.shutdown()
        metrics = telemetry.metrics.to_dict()
        assert metrics["serve.submitted"]["value"] == 1
        assert metrics["serve.completed.succeeded"]["value"] == 1
        assert metrics["serve.queue_wait_seconds"]["count"] == 1
        assert metrics["serve.job_seconds"]["count"] == 1
        assert metrics["serve.workers"]["value"] == 2
        types = [e["type"] for e in telemetry.events]
        for expected in ("serve.started", "job.submitted", "job.dispatched",
                         "job", "job.finished", "serve.stopped"):
            assert expected in types
        span = telemetry.events.last("job")
        assert span["dur_us"] >= 0 and span["kind"] == "vp_run"
