"""Service-vs-direct parity: a job through the service must produce
byte-identical results to the direct library call."""

import json

import pytest

from repro.asm import assemble
from repro.faultsim import FaultCampaign, default_campaign_mutants
from repro.isa import RV32IMC_ZICSR
from repro.cluster import ClusterCoordinator
from repro.serve import JobSpec
from repro.serve.executors import execute_job
from repro.testgen import StructuredGenerator

MUTANTS = 40
SEED = 11


@pytest.fixture(scope="module")
def workload():
    generated = StructuredGenerator(statements=5).generate(33)
    return generated.source


def direct_campaign_json(source: str) -> str:
    """The reference: a plain FaultCampaign.run over the default mix."""
    program = assemble(source, isa=RV32IMC_ZICSR)
    campaign = FaultCampaign(program, isa=RV32IMC_ZICSR)
    golden = campaign.golden()
    faults = default_campaign_mutants(
        program, isa=RV32IMC_ZICSR, mutants=MUTANTS, seed=SEED,
        golden_instructions=golden.instructions)
    result = campaign.run(faults)
    data = result.to_dict()
    data.pop("elapsed_seconds")  # wall-clock, never comparable
    return json.dumps(data, sort_keys=True)


def service_campaign_dict(source: str, **service_kwargs) -> dict:
    service = ClusterCoordinator(**{"port": 0, "workers": 2,
                                    "queue_limit": 8,
                                    **service_kwargs}).start()
    try:
        job = service.submit(JobSpec(
            kind="fault_campaign",
            payload={"source": source, "mutants": MUTANTS, "seed": SEED}))
        assert job.wait(120), f"job stuck in {job.state}"
        assert job.state == "succeeded", job.error
        return job.result
    finally:
        service.shutdown()


def strip_fuzz_clock(data: dict) -> str:
    """A fuzz result without its wall-clock fields, canonical JSON."""
    data = dict(data)
    data.pop("elapsed_seconds")
    data.pop("execs_per_second")
    return json.dumps(data, sort_keys=True)


class TestCampaignParity:
    def test_service_result_byte_identical_to_direct(self, workload):
        expected = direct_campaign_json(workload)
        result = service_campaign_dict(workload)
        campaign = dict(result["campaign"])
        campaign.pop("elapsed_seconds")
        assert json.dumps(campaign, sort_keys=True) == expected

    def test_service_result_survives_json_round_trip(self, workload):
        from repro.faultsim import CampaignResult

        result = service_campaign_dict(workload)
        restored = CampaignResult.from_json(json.dumps(result["campaign"]))
        assert restored.total == MUTANTS
        assert restored.counts == result["counts"]

    def test_process_pool_matches_thread_pool(self, workload):
        expected = direct_campaign_json(workload)
        result = service_campaign_dict(workload, workers=2, mode="process")
        campaign = dict(result["campaign"])
        campaign.pop("elapsed_seconds")
        assert json.dumps(campaign, sort_keys=True) == expected


class TestBackendDefaults:
    """Campaign payloads without a backend run on the campaign default;
    single runs keep theirs; an explicit backend wins everywhere."""

    def test_campaign_payload_defaults_to_campaign_backend(self, workload):
        from repro.faultsim import CAMPAIGN_BACKEND
        from repro.serve.executors import campaign_session_from_payload

        payload = {"source": workload, "mutants": 2}
        campaign = campaign_session_from_payload(payload)[0]
        assert campaign.backend == CAMPAIGN_BACKEND
        campaign = campaign_session_from_payload(
            dict(payload, backend="interp"))[0]
        assert campaign.backend == "interp"

    def test_vp_run_keeps_its_default(self):
        source = "_start:\n    li a0, 3\n    li a7, 93\n    ecall\n"
        assert "jit" not in execute_job("vp_run", {"source": source})
        assert "jit" in execute_job("vp_run", {"source": source,
                                               "backend": "compiled"})


class TestRetiredNames:
    """Stored payloads may still name the retired ``fastpath`` backend,
    which runs ``interp``, or the retired fuzz ``lockstep`` oracle,
    which only ``false`` may still ask for."""

    SOURCE = ("_start:\n    li t0, 40\nloop:\n    addi t0, t0, -1\n"
              "    bnez t0, loop\n    li a0, 3\n    li a7, 93\n"
              "    ecall\n")
    FUZZ = {"iterations": 40, "seed": 4, "seeds": "trivial",
            "max_instructions": 500}

    def test_vp_run_fastpath_runs_as_interp(self):
        interp = execute_job("vp_run", {"source": self.SOURCE,
                                        "backend": "interp"})
        assert interp["exit_code"] == 3
        assert execute_job("vp_run", {"source": self.SOURCE,
                                      "backend": "fastpath"}) == interp

    def test_vp_run_fastpath_through_service(self):
        service = ClusterCoordinator(port=0, workers=1,
                                     queue_limit=4).start()
        try:
            job = service.submit(JobSpec(kind="vp_run", payload={
                "source": self.SOURCE, "backend": "fastpath"}))
            assert job.wait(60), f"job stuck in {job.state}"
            assert job.state == "succeeded", job.error
        finally:
            service.shutdown()
        assert job.result == execute_job("vp_run", {"source": self.SOURCE})

    def test_fuzz_fastpath_runs_as_interp(self):
        interp = execute_job("fuzz", dict(self.FUZZ, backend="interp"))
        fastpath = execute_job("fuzz", dict(self.FUZZ, backend="fastpath"))
        assert strip_fuzz_clock(fastpath) == strip_fuzz_clock(interp)

    def test_unknown_backend_names_the_valid_ones(self):
        from repro.serve.executors import ExecutorError

        with pytest.raises(ExecutorError,
                           match="expected one of interp, compiled"):
            execute_job("vp_run", {"source": self.SOURCE,
                                   "backend": "turbo"})

    def test_fuzz_lockstep_request_rejected(self):
        from repro.serve.executors import ExecutorError

        with pytest.raises(ExecutorError, match=(
                "repro verify --corpus fuzz:N --matrix cache")):
            execute_job("fuzz", dict(self.FUZZ, lockstep=True))

    def test_fuzz_lockstep_request_fails_through_service(self):
        service = ClusterCoordinator(port=0, workers=1,
                                     queue_limit=4).start()
        try:
            job = service.submit(JobSpec(
                kind="fuzz", payload=dict(self.FUZZ, lockstep=1),
                max_retries=2))
            assert job.wait(60), f"job stuck in {job.state}"
        finally:
            service.shutdown()
        assert job.state == "failed"
        assert job.attempts == 1  # a bad request is not retried
        assert "--matrix cache" in job.error

    @pytest.mark.parametrize("kind", ["fault_campaign", "fuzz", "verify"])
    @pytest.mark.parametrize("jobs", [0, 2, "2"])
    def test_in_job_jobs_rejected_naming_shards(self, kind, jobs):
        from repro.serve.executors import ExecutorError

        payload = {"fault_campaign": {"source": self.SOURCE, "mutants": 2},
                   "fuzz": dict(self.FUZZ),
                   "verify": {"corpus": "torture:1"}}[kind]
        with pytest.raises(ExecutorError, match="'shards'"):
            execute_job(kind, dict(payload, jobs=jobs))

    def test_in_job_jobs_one_still_accepted(self):
        accepted = execute_job("fuzz", dict(self.FUZZ, jobs=1))
        assert strip_fuzz_clock(accepted) == \
            strip_fuzz_clock(execute_job("fuzz", dict(self.FUZZ)))

    def test_fuzz_lockstep_false_still_accepted(self):
        accepted = execute_job("fuzz", dict(self.FUZZ, lockstep=False))
        assert strip_fuzz_clock(accepted) == \
            strip_fuzz_clock(execute_job("fuzz", dict(self.FUZZ)))


class TestFuzzEvalWords:
    """``fuzz_eval`` checks every word the way ``file:`` corpora do."""

    @pytest.mark.parametrize("inputs, message", [
        ([[19, -1]], r"'inputs'\[0\]\[1\] is -1"),
        ([[2 ** 32]], r"'inputs'\[0\]\[0\] is 4294967296"),
        ([[19], [0x10001]], r"'inputs'\[1\]\[0\] is 0x10001"),
        ([[True]], r"'inputs'\[0\]\[0\] is True"),
        ([19], r"'inputs'\[0\] must be a list"),
    ])
    def test_fuzz_eval_checks_every_word(self, inputs, message):
        from repro.serve.executors import ExecutorError

        with pytest.raises(ExecutorError, match=message):
            execute_job("fuzz_eval", {"inputs": inputs})

    def test_valid_words_evaluate(self):
        result = execute_job("fuzz_eval", {"inputs": [[0x00100093, 0x4501]]})
        assert result["count"] == 1


class TestVpRunParity:
    def test_vp_run_matches_direct_machine(self):
        from repro.vp import Machine, MachineConfig

        source = """
        _start:
            li t0, 0x10000000
            li t1, 72
            sw t1, 0(t0)
            li a0, 9
            li a7, 93
            ecall
        """
        program = assemble(source, isa=RV32IMC_ZICSR)
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(program)
        direct = machine.run(max_instructions=1000)

        result = execute_job("vp_run", {"source": source})
        assert result["exit_code"] == direct.exit_code
        assert result["instructions"] == direct.instructions
        assert result["cycles"] == direct.cycles
        assert result["uart_output"] == machine.uart.output


class TestFuzzJobParity:
    PAYLOAD = {"iterations": 120, "seed": 9, "seeds": "trivial",
               "max_instructions": 1000}

    def test_fuzz_job_matches_direct_engine(self):
        from repro.fuzz import FuzzConfig, FuzzEngine, trivial_seed

        engine = FuzzEngine(RV32IMC_ZICSR, FuzzConfig(
            iterations=120, seed=9, max_instructions=1000))
        direct = engine.run(trivial_seed(RV32IMC_ZICSR))
        job = execute_job("fuzz", dict(self.PAYLOAD))
        assert strip_fuzz_clock(job) == strip_fuzz_clock(direct.to_dict())

    def test_fuzz_job_through_service(self):
        service = ClusterCoordinator(port=0, workers=2,
                                     queue_limit=8).start()
        try:
            job = service.submit(JobSpec(kind="fuzz",
                                         payload=dict(self.PAYLOAD)))
            assert job.wait(120), f"job stuck in {job.state}"
            assert job.state == "succeeded", job.error
            result = job.result
        finally:
            service.shutdown()
        assert result["corpus_size"] > 1
        assert result["coverage_elements"] > 0
        assert strip_fuzz_clock(result) == \
            strip_fuzz_clock(execute_job("fuzz", dict(self.PAYLOAD)))

    def test_bad_seeds_kind_rejected(self):
        from repro.serve.executors import ExecutorError

        with pytest.raises(ExecutorError, match="seeds"):
            execute_job("fuzz", {"seeds": "nonsense", "iterations": 1})
