"""Local ``jobs=N`` and service ``shards=N`` split work the same way.

A campaign, a verify run and a fuzz run with ``jobs`` 1, 2 and 4 match
each other and the same job submitted with ``shards=2`` to a
process-mode service.  Inside the service a job runs in one process:
a ``jobs`` payload other than 1 fails with an error that points at
``shards``, instead of nesting a pool in a pool worker.
"""

import json
from dataclasses import asdict, replace

import pytest

import repro.pool as pool_mod
from repro.cluster import ClusterCoordinator
from repro.fuzz import FuzzEngine
from repro.serve import JobSpec
from repro.serve.executors import (campaign_result_dict,
                                   campaign_session_from_payload,
                                   fuzz_session_from_payload,
                                   verify_session_from_payload)
from repro.verify import DiffCampaign

CAMPAIGN = {"source": """
_start:
    li s0, 30
    li s1, 0
loop:
    add s1, s1, s0
    slli t0, s1, 1
    xor s1, s1, t0
    addi s0, s0, -1
    bnez s0, loop
    andi a0, s1, 0
    li a7, 93
    ecall
""", "mutants": 16, "seed": 5}
VERIFY = {"corpus": "torture:4", "matrix": "interp:nocache", "seed": 2,
          "max_instructions": 2000}
FUZZ = {"iterations": 48, "seed": 6, "seeds": "trivial",
        "max_instructions": 800}


@pytest.fixture(autouse=True)
def four_cpus(monkeypatch):
    """Resolve ``jobs`` as on a 4-CPU host, so pools start anywhere."""
    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 4)


@pytest.fixture(scope="module")
def service():
    coordinator = ClusterCoordinator(port=0, workers=2, mode="process",
                                     queue_limit=16).start()
    yield coordinator
    coordinator.shutdown(drain=False)


def run_job(service, kind, payload, shards=1):
    job = service.submit(JobSpec(kind=kind, payload=dict(payload),
                                 shards=shards, max_retries=1))
    assert job.wait(300), f"job stuck in {job.state}"
    return job


def canon(data, *clock_fields):
    view = json.loads(json.dumps(data))
    for name in clock_fields:
        view.pop(name, None)
    if isinstance(view.get("campaign"), dict):
        view["campaign"].pop("elapsed_seconds", None)
    return json.dumps(view, sort_keys=True)


def local_campaign(jobs):
    campaign, golden, faults = campaign_session_from_payload(dict(CAMPAIGN))
    result = campaign.run(faults, jobs=jobs)
    return canon(campaign_result_dict(asdict(golden), result.to_dict()),
                 "elapsed_seconds")


def local_verify(jobs):
    campaign = verify_session_from_payload(dict(VERIFY))
    campaign = DiffCampaign(campaign.isa, replace(campaign.config,
                                                  jobs=jobs))
    return canon(campaign.run().to_dict(), "elapsed_seconds")


def local_fuzz(jobs):
    isa, config, seeds = fuzz_session_from_payload(dict(FUZZ))
    engine = FuzzEngine(isa, replace(config, jobs=jobs))
    result = engine.run(seeds)
    assert result.jobs == jobs
    return (result.signature_digests(),
            [entry.words for entry in engine.corpus],
            result.triage.to_dict())


class TestJobsMatchShards:
    def test_campaign(self, service):
        runs = [local_campaign(jobs) for jobs in (1, 2, 4)]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        job = run_job(service, "fault_campaign", CAMPAIGN, shards=2)
        assert job.state == "succeeded", job.error
        assert canon(job.result, "elapsed_seconds") == runs[0]

    def test_verify(self, service):
        runs = [local_verify(jobs) for jobs in (1, 2, 4)]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        job = run_job(service, "verify", VERIFY, shards=2)
        assert job.state == "succeeded", job.error
        assert canon(job.result, "elapsed_seconds") == runs[0]

    def test_fuzz(self, service):
        runs = [local_fuzz(jobs) for jobs in (1, 2, 4)]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        job = run_job(service, "fuzz", FUZZ, shards=2)
        assert job.state == "succeeded", job.error
        digests, _words, triage = runs[0]
        assert job.result["corpus_signatures"] == digests
        assert job.result["triage"] == triage


class TestNoPoolInAJob:
    @pytest.mark.parametrize("kind, payload", [
        ("fault_campaign", CAMPAIGN), ("verify", VERIFY), ("fuzz", FUZZ)])
    def test_jobs_two_fails_naming_shards(self, service, kind, payload):
        job = run_job(service, kind, dict(payload, jobs=2))
        assert job.state == "failed"
        assert "'shards'" in job.error
        assert "daemonic" not in job.error
        assert job.attempts == 1  # a bad request is not retried

    def test_jobs_one_still_runs(self, service):
        job = run_job(service, "fault_campaign", dict(CAMPAIGN, jobs=1))
        assert job.state == "succeeded", job.error
        assert canon(job.result, "elapsed_seconds") == local_campaign(1)
