"""``FaultCampaign.run(jobs=N)`` on the shared fork-after-prepare pool:
determinism, fallback, telemetry."""

import warnings

import pytest

import repro.pool as pool_mod
from repro.asm import assemble
from repro.coverage import measure_coverage
from repro.faultsim import (
    CampaignResult,
    FaultCampaign,
    GoldenRun,
    MutantBudget,
    generate_mutants,
)
from repro.isa import RV32IMC_ZICSR
from repro.pool import resolve_jobs, split
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


@pytest.fixture(autouse=True)
def four_cpus(monkeypatch):
    """Resolve ``jobs`` as on a 4-CPU host, so pools start anywhere."""
    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 4)


def no_pool(*args, **kwargs):
    pytest.fail("this run must not build a pool")


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

    def test_jobs_one_uses_sequential_path(self, monkeypatch):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=10)
        monkeypatch.setattr(pool_mod, "process_pool", no_pool)
        result = campaign.run(faults, jobs=1)
        assert result.total == len(faults)

    def test_workers_inherit_parent_golden(self):
        """Workers fork after the golden run and the checkpoint sweep:
        they build no machine of their own, so the merged counters are
        the sequential run's."""
        faults = seeded_faults(make_campaign(), mutants=20)
        sequential, parallel = make_campaign(), make_campaign()
        sequential.run(faults)
        parallel.run(faults, jobs=2)
        assert parallel.counters() == sequential.counters()
        assert parallel.counters()["faultsim.campaign.machines_built"] == 2


class TestFallback:
    def test_pool_failure_falls_back_with_warning(self, monkeypatch):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=10)
        baseline = make_campaign().run(faults)

        def broken_pool(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(pool_mod, "process_pool", broken_pool)
        with pytest.warns(RuntimeWarning, match="running in-process"):
            result = campaign.run(faults, jobs=4)
        assert outcomes(result) == outcomes(baseline)

    def test_no_fork_falls_back_with_warning(self, monkeypatch):
        import multiprocessing

        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=10)
        baseline = make_campaign().run(faults)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.setattr(pool_mod, "process_pool", no_pool)
        with pytest.warns(RuntimeWarning, match="cannot fork"):
            result = campaign.run(faults, jobs=2)
        assert outcomes(result) == outcomes(baseline)

    def test_invalid_jobs_rejected(self):
        campaign = make_campaign()
        for jobs in (-1, 1.5, True, "2"):
            with pytest.raises(ValueError, match="jobs"):
                campaign.run([], jobs=jobs)

    def test_single_fault_stays_in_process(self, monkeypatch):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=10)[:1]
        monkeypatch.setattr(pool_mod, "process_pool", no_pool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = campaign.run(faults, jobs=4)
        assert result.total == 1


class TestChunking:
    def test_chunks_cover_all_faults(self):
        """Workers get contiguous, balanced, in-order fault ranges."""
        for total in (1, 7, 64, 65, 200):
            for jobs in (2, 4):
                ranges = split(total, resolve_jobs(jobs, total))
                assert ranges[0][0] == 0 and ranges[-1][1] == total
                assert all(hi == lo for (_, hi), (lo, _)
                           in zip(ranges, ranges[1:]))
                sizes = [hi - lo for lo, hi in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_worker_count_bounds(self):
        assert resolve_jobs(0, 100) == 4      # every CPU
        assert resolve_jobs(8, 100) == 4      # never more than the CPUs
        assert resolve_jobs(4, 3) == 3        # ... or the work
        assert resolve_jobs(4, 0) == 1


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
    def _metrics(self, jobs, faults):
        with telemetry_session(Telemetry()) as session:
            result = make_campaign().run(faults, jobs=jobs)
            snap = session.metrics.to_dict()
            events = list(session.events)
        return result, snap, events

    def test_parallel_run_merges_worker_metrics(self):
        faults = seeded_faults(make_campaign(), mutants=30)
        _, sequential, _ = self._metrics(1, faults)
        result, snap, events = self._metrics(2, faults)
        assert snap["faultsim.campaign.mutants_done"]["value"] == len(faults)
        assert snap["faultsim.campaign.mutant_seconds"]["count"] == len(
            faults)
        outcome_total = sum(
            snap[f"faultsim.campaign.outcome.{o}"]["value"]
            for o in ("masked", "sdc", "trap", "hang"))
        assert outcome_total == len(faults)
        # Workers inherit the parent's machines: the counters, machines
        # built included, are the sequential run's.
        counters = [key for key in sequential
                    if key.startswith(("faultsim.checkpoint.",
                                       "faultsim.campaign.machines_"))]
        assert "faultsim.campaign.machines_built" in counters
        for key in counters:
            assert snap[key]["value"] == sequential[key]["value"], key
        assert snap["faultsim.campaign.machines_reused"]["value"] == len(
            faults)
        assert not any(key.startswith("faultsim.campaign.worker.")
                       for key in snap)

        started = [e for e in events if e["type"] == "campaign.started"]
        finished = [e for e in events if e["type"] == "campaign.finished"]
        classified = [e for e in events if e["type"] == "mutant.classified"]
        assert started and started[0]["jobs"] == 2
        assert finished and finished[0]["jobs"] == 2
        assert finished[0]["counts"] == result.counts
        assert [e["index"] for e in classified] == list(range(len(faults)))

    def test_progress_callback_fires(self):
        campaign = make_campaign()
        faults = seeded_faults(campaign, mutants=20)
        seen = []
        campaign.run(faults, jobs=2, on_progress=seen.append,
                     progress_interval=0.0)
        assert seen, "on_progress never called"
        assert [p["done"] for p in seen[:-1]] == list(
            range(1, len(faults) + 1))
        assert seen[-1]["done"] == seen[-1]["total"] == len(faults)
