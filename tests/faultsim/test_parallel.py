"""Parallel campaign engine: determinism, fallback, telemetry merge."""

import pickle
import warnings

import pytest

from repro.asm import assemble
from repro.coverage import measure_coverage
from repro.faultsim import (
    CampaignResult,
    CampaignSpec,
    FaultCampaign,
    GoldenRun,
    MutantBudget,
    default_chunk_size,
    generate_mutants,
    run_parallel,
)
from repro.faultsim import parallel as parallel_mod
from repro.isa import RV32IMC_ZICSR
from repro.telemetry import Telemetry, telemetry_session

EXIT = "\n    li a7, 93\n    ecall\n"

# A program with arithmetic, memory traffic, branches, and a self-check,
# so the generated mutants exercise every outcome class.
PROGRAM = """
_start:
    li a1, 6
    li a2, 7
    mul a0, a1, a2
    la t0, scratch
    sw a0, 0(t0)
    lw a4, 0(t0)
    li t1, 0
    li t2, 5
loop:
    addi t1, t1, 1
    blt t1, t2, loop
    li a3, 42
    beq a4, a3, good
    li a0, 1
    j out
good:
    li a0, 0
out:
""" + EXIT + "\n.data\nscratch: .word 0\n"


def make_campaign():
    return FaultCampaign(assemble(PROGRAM, isa=RV32IMC_ZICSR),
                         isa=RV32IMC_ZICSR)


def seeded_faults(campaign, mutants=60, seed=7):
    golden = campaign.golden()
    coverage = measure_coverage(campaign.program, isa=RV32IMC_ZICSR)
    per = max(1, mutants // 5)
    budget = MutantBudget(code=per, gpr_transient=per, gpr_stuck=per,
                          memory_transient=per, memory_stuck=per)
    return generate_mutants(campaign.program, coverage, budget,
                            golden_instructions=golden.instructions,
                            seed=seed)


def outcomes(result):
    return [(r.fault, r.outcome, r.exit_code, r.trap_cause, r.instructions)
            for r in result.results]


class TestDeterminism:
    def test_parallel_matches_sequential(self):
        """jobs=2 and jobs=4 produce the sequential ordering + classes."""
        campaign = make_campaign()
        faults = seeded_faults(campaign)
        baseline = campaign.run(faults)
        for jobs in (2, 4):
            parallel = make_campaign().run(faults, jobs=jobs)
            assert outcomes(parallel) == outcomes(baseline)
            assert parallel.golden == baseline.golden
            assert parallel.counts == baseline.counts

    def test_chunk_size_does_not_change_results(self):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=20)
        baseline = campaign.run(faults)
        tiny = make_campaign().run(faults, jobs=2, chunk_size=1)
        assert outcomes(tiny) == outcomes(baseline)

    def test_jobs_one_uses_sequential_path(self, monkeypatch):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=10)
        monkeypatch.setattr(
            parallel_mod, "_make_pool",
            lambda *a, **k: pytest.fail("jobs=1 must not build a pool"))
        result = campaign.run(faults, jobs=1)
        assert result.total == len(faults)


class TestFallback:
    def test_pool_failure_falls_back_with_warning(self, monkeypatch):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=10)
        baseline = make_campaign().run(faults)

        def broken_pool(jobs, spec):
            raise OSError("no fork for you")

        monkeypatch.setattr(parallel_mod, "_make_pool", broken_pool)
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = campaign.run(faults, jobs=4)
        assert outcomes(result) == outcomes(baseline)

    def test_invalid_jobs_rejected(self):
        campaign = make_campaign()
        with pytest.raises(ValueError, match="jobs"):
            run_parallel(campaign, [], jobs=0)

    def test_single_fault_stays_in_process(self, monkeypatch):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=10)[:1]
        monkeypatch.setattr(
            parallel_mod, "_make_pool",
            lambda *a, **k: pytest.fail("one mutant must not build a pool"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = campaign.run(faults, jobs=4)
        assert result.total == 1


class TestSpec:
    def test_spec_is_picklable(self):
        campaign = make_campaign()
        spec = parallel_mod._spec_for(campaign)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.isa_name == campaign.isa.name
        assert clone.golden == campaign.golden()
        assert clone.program.segments == campaign.program.segments

    def test_worker_reuses_parent_golden(self):
        campaign = make_campaign()
        spec = parallel_mod._spec_for(campaign)
        parallel_mod._worker_init(spec)
        try:
            worker = parallel_mod._WORKER_CAMPAIGN
            assert worker is not None
            assert worker.golden() == campaign.golden()
        finally:
            parallel_mod._WORKER_CAMPAIGN = None


class TestChunking:
    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(1, 4) == 1
        assert 1 <= default_chunk_size(100, 4) <= parallel_mod.MAX_CHUNK
        # Huge campaigns saturate at the cap so stealing keeps working.
        assert default_chunk_size(1_000_000, 2) == parallel_mod.MAX_CHUNK

    def test_chunks_cover_all_faults(self):
        for total in (1, 7, 64, 65, 200):
            for jobs in (2, 4):
                size = default_chunk_size(total, jobs)
                covered = sum(
                    len(range(start, min(start + size, total)))
                    for start in range(0, total, size))
                assert covered == total


class TestThroughputMetric:
    def test_zero_elapsed_reports_zero_not_inf(self):
        golden = GoldenRun(exit_code=0, uart_output="", instructions=10,
                           cycles=12)
        result = CampaignResult(golden, [], 0.0)
        assert result.mutants_per_second == 0.0
        # The derived report must stay valid JSON (inf is not).
        assert CampaignResult.from_json(result.to_json()).elapsed_seconds == 0.0

    def test_positive_elapsed_unchanged(self):
        campaign = make_campaign()
        result = campaign.run(seeded_faults(campaign, mutants=10))
        assert result.mutants_per_second > 0


class TestTelemetryMerge:
    def test_parallel_run_merges_worker_metrics(self):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=30)
        with telemetry_session(Telemetry()) as session:
            result = campaign.run(faults, jobs=2)
            snap = session.metrics.to_dict()
            events = list(session.events)
        assert snap["faultsim.campaign.mutants_done"]["value"] == len(faults)
        assert snap["faultsim.campaign.jobs"]["value"] == 2
        outcome_total = sum(
            snap[f"faultsim.campaign.outcome.{o}"]["value"]
            for o in ("masked", "sdc", "trap", "hang"))
        assert outcome_total == len(faults)
        worker_keys = [key for key in snap
                       if key.startswith("faultsim.campaign.worker.")
                       and key.endswith(".mutants")]
        assert worker_keys, "per-worker throughput metrics missing"
        assert sum(snap[key]["value"] for key in worker_keys) == len(faults)
        # The parent's golden machine plus one shared machine per worker.
        assert snap["faultsim.campaign.machines_reused"]["value"] == len(
            faults)
        assert snap["faultsim.campaign.machines_built"]["value"] == (
            1 + len(worker_keys))

        started = [e for e in events if e["type"] == "campaign.started"]
        finished = [e for e in events if e["type"] == "campaign.finished"]
        workers = [e for e in events if e["type"] == "campaign.worker"]
        assert started and started[0]["jobs"] == 2
        assert finished and finished[0]["jobs"] == 2
        assert finished[0]["counts"] == result.counts
        assert sum(w["mutants"] for w in workers) == len(faults)

    def test_progress_callback_fires(self):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=20)
        seen = []
        campaign.run(faults, jobs=2, on_progress=seen.append,
                     progress_interval=0.0)
        assert seen, "on_progress never called"
        assert seen[-1]["done"] == seen[-1]["total"] == len(faults)
