"""Observability surface of serve: /metrics, /v1/events tailing,
/v1/fuzz/frontier, and end-to-end trace propagation through a job."""

import json
from types import SimpleNamespace

import pytest

from repro.cluster import ClusterCoordinator
from repro.observe import TraceContext
from repro.serve.client import ServiceClient
from repro.serve.jobs import JobSpec
from repro.telemetry import parse_prometheus, to_chrome_trace

EXIT_OK = """
_start:
    li a0, 5
    li a7, 93
    ecall
"""

FAULTY_LOOP = """
_start:
    li t0, 0
    li t1, 3
loop:
    addi t0, t0, 1
    bne t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
"""


@pytest.fixture
def server():
    service = ClusterCoordinator(port=0, workers=2, queue_limit=8).start()
    yield SimpleNamespace(service=service, url=service.url)
    service.shutdown()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=10)


class TestJobSpecTraceRoundTrip:
    def test_to_json_from_json_preserves_trace(self):
        ctx = TraceContext.mint().child()
        spec = JobSpec(kind="vp_run", payload={"source": EXIT_OK},
                       trace=ctx.to_dict())
        again = JobSpec.from_json(spec.to_json())
        assert again.trace == ctx.to_dict()
        assert TraceContext.from_dict(again.trace) == ctx
        assert again.kind == spec.kind
        assert again.payload == spec.payload

    def test_trace_omitted_when_absent(self):
        spec = JobSpec(kind="vp_run", payload={"source": EXIT_OK})
        assert "trace" not in json.loads(spec.to_json())
        assert JobSpec.from_json(spec.to_json()).trace is None

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError):
            JobSpec.from_json("[1, 2]")

    def test_invalid_trace_rejected_at_validation(self):
        spec = JobSpec(kind="vp_run", payload={"source": EXIT_OK},
                       trace={"bogus": "x"})
        with pytest.raises(ValueError):
            spec.validate()


class TestMetricsEndpoint:
    def test_scrape_parses_and_counts_jobs(self, client):
        job = client.submit("vp_run", {"source": EXIT_OK})
        client.wait(job["id"], timeout=30)
        text = client.metrics_text()
        parsed = parse_prometheus(text)  # raises on malformed exposition
        assert parsed["repro_serve_submitted_total"][()] >= 1
        assert "repro_serve_queue_depth_live" in parsed
        assert "repro_events_dropped" in parsed
        buckets = parsed["repro_serve_job_seconds_bucket"]
        assert any(dict(labels).get("le") == "+Inf" for labels in buckets)

    def test_scrape_does_not_pollute_event_log(self, client, server):
        before = server.service.telemetry.events.stats()["total_appended"]
        client.metrics_text()
        client.metrics_text()
        after = server.service.telemetry.events.stats()["total_appended"]
        assert after == before


class TestEventsEndpoint:
    def test_tailing_is_monotonic_and_complete(self, client):
        first = client.events(since=0)
        cursor = first["next"]
        job = client.submit("vp_run", {"source": EXIT_OK})
        client.wait(job["id"], timeout=30)
        batch = client.events(since=cursor)
        types = [e["type"] for e in batch["events"]]
        assert "job.submitted" in types
        assert batch["next"] >= cursor + len(batch["events"])
        assert batch["missed"] == 0
        # Draining again from the new cursor yields nothing old.
        assert all(t != "job.submitted"
                   for t in (e["type"] for e in
                             client.events(since=batch["next"])["events"]))

    def test_bad_cursor_is_a_client_error(self, client):
        from repro.serve.client import ServiceError
        with pytest.raises(ServiceError) as excinfo:
            client.events(since=-1)
        assert excinfo.value.status == 400


class TestFrontierEndpoint:
    def test_empty_frontier(self, client):
        frontier = client.frontier()
        assert frontier == {"sessions": [], "active": 0}

    def test_fuzz_job_populates_frontier(self, client):
        job = client.submit("fuzz", {
            "source": FAULTY_LOOP, "iterations": 30, "seed": 7,
            "jobs": 1,
        }, trace=TraceContext.mint().to_dict())
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == "succeeded"
        frontier = client.frontier()
        assert frontier["sessions"]
        session = frontier["sessions"][0]
        assert session["finished"]
        assert session["latest"]["coverage_elements"] >= 1


class TestTracedJobs:
    def test_traced_job_events_cover_queue_and_run(self, client):
        root = TraceContext.mint()
        job = client.submit("vp_run", {"source": EXIT_OK},
                            trace=root.to_dict())
        done = client.wait(job["id"], timeout=30)
        assert done["state"] == "succeeded"
        view = client.job_events(job["id"])
        assert view["traced"]
        events = view["events"]
        types = {e["type"] for e in events}
        assert {"job.queue_wait", "job", "run.started",
                "run.finished"} <= types
        # Every span belongs to the submitted trace.
        trace_ids = {e["trace_id"] for e in events if "trace_id" in e}
        assert trace_ids == {root.trace_id}
        # The job slice is a child chain hanging off the minted root.
        job_span = next(e for e in events if e["type"] == "job")
        assert job_span["parent_id"] == root.span_id
        # Timestamps are sorted and queue wait precedes execution.
        ts = [e["ts_us"] for e in events]
        assert ts == sorted(ts)
        queue = next(e for e in events if e["type"] == "job.queue_wait")
        assert queue["ts_us"] <= job_span["ts_us"]

    def test_trace_exports_to_chrome_format(self, client):
        job = client.submit("fault_campaign", {
            "source": FAULTY_LOOP, "mutants": 5, "seed": 3,
        }, trace=TraceContext.mint().to_dict())
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == "succeeded"
        events = client.job_events(job["id"])["events"]
        trace = to_chrome_trace(events)
        names = {e["name"] for e in trace if e["ph"] != "M"}
        assert {"job.queue_wait", "job", "campaign.started",
                "campaign.finished"} <= names
        # Worker events were merged from the pool: classification spans
        # from the campaign itself are present alongside service spans.
        assert any(n == "mutant.classified" for n in names)

    def test_untraced_job_has_no_trace_view(self, client):
        job = client.submit("vp_run", {"source": EXIT_OK})
        client.wait(job["id"], timeout=30)
        view = client.job_events(job["id"])
        assert not view["traced"]
        assert view["events"] == []
