"""Job model: spec validation, lifecycle transitions, context checks."""

import pytest

from repro.serve import (
    Job,
    JobCancelled,
    JobContext,
    JobSpec,
    JobTimeout,
    STATE_CANCELLED,
    STATE_FAILED,
    STATE_PENDING,
    STATE_RUNNING,
    STATE_SUCCEEDED,
)


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec(kind="vp_run")
        spec.validate()
        assert spec.priority == 0 and spec.max_retries == 0
        assert spec.deadline_seconds is None

    def test_round_trip(self):
        spec = JobSpec(kind="wcet", payload={"source": "x"}, priority=3,
                       deadline_seconds=5.0, timeout_seconds=2.0,
                       max_retries=1)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("bad", [
        {"kind": ""},
        {"kind": "x", "payload": []},
        {"kind": "x", "max_retries": -1},
        {"kind": "x", "deadline_seconds": 0},
        {"kind": "x", "timeout_seconds": -1.0},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            JobSpec.from_dict(bad)

    @pytest.mark.parametrize("field, value", [
        ("priority", "high"),
        ("priority", 1.5),
        ("priority", True),
        ("priority", None),
        ("max_retries", "2"),
        ("max_retries", False),
        ("max_retries", 1.0),
        ("deadline_seconds", "5"),
        ("deadline_seconds", float("inf")),
        ("deadline_seconds", float("nan")),
        ("deadline_seconds", True),
        ("timeout_seconds", "5"),
        ("timeout_seconds", float("inf")),
        ("timeout_seconds", [5]),
    ])
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            JobSpec.from_dict({"kind": "x", field: value})

    def test_numbers_of_either_kind_accepted(self):
        spec = JobSpec.from_dict({"kind": "x", "priority": -2,
                                  "deadline_seconds": 3,
                                  "timeout_seconds": 0.5})
        assert (spec.priority, spec.deadline_seconds,
                spec.timeout_seconds) == (-2, 3, 0.5)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job fields"):
            JobSpec.from_dict({"kind": "x", "nonsense": 1})


class TestJobLifecycle:
    def test_happy_path(self):
        job = Job(JobSpec(kind="vp_run"))
        assert job.state == STATE_PENDING and not job.done
        assert job.mark_running("worker-0")
        assert job.state == STATE_RUNNING and job.attempts == 1
        assert job.mark_succeeded({"x": 1})
        assert job.done and job.result == {"x": 1}
        assert job.wait(0.1)

    def test_final_states_are_sticky(self):
        job = Job(JobSpec(kind="vp_run"))
        job.mark_running("w")
        job.mark_failed("boom")
        assert not job.mark_succeeded({})
        assert job.state == STATE_FAILED and job.error == "boom"

    def test_cancel_pending_resolves_immediately(self):
        job = Job(JobSpec(kind="vp_run"))
        assert job.cancel()
        assert job.state == STATE_CANCELLED and job.done

    def test_cancel_running_is_cooperative(self):
        job = Job(JobSpec(kind="vp_run"))
        job.mark_running("w")
        assert job.cancel()
        assert job.state == STATE_RUNNING  # resolves at next checkpoint
        with pytest.raises(JobCancelled):
            JobContext(job).check()

    def test_retry_budget(self):
        job = Job(JobSpec(kind="vp_run", max_retries=1))
        job.mark_running("w")
        assert job.mark_retrying("attempt 1")   # back to pending
        assert job.state == STATE_PENDING
        job.mark_running("w")
        assert job.attempts == 2
        assert not job.mark_retrying("attempt 2")  # budget exhausted

    def test_finalize_once(self):
        job = Job(JobSpec(kind="vp_run"))
        job.mark_running("w")
        job.mark_succeeded({})
        assert job.finalize_once()
        assert not job.finalize_once()

    def test_deadline_expiry(self):
        clock = [100.0]
        job = Job(JobSpec(kind="vp_run", deadline_seconds=5.0),
                  clock=lambda: clock[0])
        assert not job.deadline_expired()
        clock[0] = 105.0
        assert job.deadline_expired()

    def test_status_view(self):
        job = Job(JobSpec(kind="coverage", priority=2))
        view = job.to_dict()
        assert view["kind"] == "coverage" and view["state"] == "pending"
        assert "result" not in view
        job.mark_running("w")
        job.mark_succeeded({"v": 1})
        assert job.to_dict(with_result=True)["result"] == {"v": 1}
        assert job.to_dict()["run_seconds"] >= 0


class TestJobContext:
    def test_timeout_raises(self):
        clock = [0.0]
        job = Job(JobSpec(kind="vp_run", timeout_seconds=1.0),
                  clock=lambda: clock[0])
        ctx = JobContext(job, clock=lambda: clock[0])
        ctx.check()  # fine
        clock[0] = 2.0
        with pytest.raises(JobTimeout):
            ctx.check()

    def test_no_timeout_never_raises(self):
        job = Job(JobSpec(kind="vp_run"))
        JobContext(job).check()
