"""Checkpoint engine: parity, early classification, stats, machine reuse."""

import pytest

from repro.asm import assemble
from repro.coverage import measure_coverage
from repro.faultsim import (
    CAMPAIGN_BACKEND,
    CheckpointEngine,
    Fault,
    FaultCampaign,
    MutantBudget,
    OUTCOME_MASKED,
    STUCK_AT_0,
    TARGET_CODE,
    TARGET_GPR,
    TARGET_MEMORY,
    TRANSIENT,
    default_campaign_mutants,
    generate_mutants,
)
from repro.isa import RV32IMC_ZICSR
from repro.vp import ICacheConfig, Machine, MachineConfig
from repro.vp.machine import RAM_BASE, UART_BASE

EXIT = "\n    li a7, 93\n    ecall\n"

# Mixed-outcome program: arithmetic, memory traffic, branches, self-check.
PROGRAM = """
_start:
    li a1, 6
    li a2, 7
    mul a0, a1, a2
    la t0, scratch
    sw a0, 0(t0)
    lw a4, 0(t0)
    li t1, 0
    li t2, 40
loop:
    addi t1, t1, 1
    xor a5, a4, t1
    blt t1, t2, loop
    li a3, 42
    beq a4, a3, good
    li a0, 1
    j out
good:
    li a0, 0
out:
""" + EXIT + "\n.data\nscratch: .word 0\n"

# A loop that rewrites t0 every iteration: a transient flip of t0 is
# architecturally dead and the mutant re-converges with the golden
# timeline at the next digest point.
CONVERGENT = """
_start:
    li s0, 0
    li s1, 400
loop:
    li t0, 5
    add s2, s0, t0
    addi s0, s0, 1
    blt s0, s1, loop
    li a0, 0
""" + EXIT


def make_campaign(source=PROGRAM, **kwargs):
    return FaultCampaign(assemble(source, isa=RV32IMC_ZICSR),
                         isa=RV32IMC_ZICSR, **kwargs)


def mixed_faults(campaign, mutants=40, seed=7):
    golden = campaign.golden()
    coverage = measure_coverage(campaign.program, isa=RV32IMC_ZICSR)
    per = max(1, mutants // 5)
    budget = MutantBudget(code=per, gpr_transient=per, gpr_stuck=per,
                          memory_transient=per, memory_stuck=per)
    return generate_mutants(campaign.program, coverage, budget,
                            golden_instructions=golden.instructions,
                            seed=seed)


def normalized_json(result):
    result.elapsed_seconds = 0.0
    return result.to_json()


def assert_configs_match(faults, source=PROGRAM):
    """Every {interp, compiled} x {checkpoints on, off} x {jobs 1, 4}
    campaign serializes like the plain interpreted full replay."""
    reference = normalized_json(make_campaign(
        source, checkpoints=False, backend="interp").run(faults))
    for backend in ("interp", "compiled"):
        for checkpoints in (False, True):
            for jobs in (1, 4):
                if (backend, checkpoints, jobs) == ("interp", False, 1):
                    continue
                campaign = make_campaign(source, checkpoints=checkpoints,
                                         backend=backend)
                got = normalized_json(campaign.run(faults, jobs=jobs))
                assert got == reference, (
                    f"backend={backend} checkpoints={checkpoints} "
                    f"jobs={jobs} diverged")


class TestParity:
    """The acceptance bar: byte-identical CampaignResult serialization
    across {interp, compiled} x {checkpoints on, off} x {sequential,
    jobs=4}."""

    def test_mixed_campaign_byte_identical(self):
        assert_configs_match(mixed_faults(make_campaign()))

    def test_default_campaign_mutants_byte_identical(self):
        campaign = make_campaign()
        faults = default_campaign_mutants(
            campaign.program, isa=RV32IMC_ZICSR, mutants=100, seed=3,
            golden_instructions=campaign.golden().instructions)
        assert len(faults) == 100
        assert_configs_match(faults)

    def test_campaigns_default_to_the_compiled_tier(self):
        assert CAMPAIGN_BACKEND == "compiled"
        assert make_campaign().backend == CAMPAIGN_BACKEND

    def test_duplicate_triggers_restore_warm(self):
        campaign = make_campaign()
        golden = campaign.golden()
        trigger = golden.instructions // 2
        faults = [Fault(TARGET_GPR, reg, reg % 31, TRANSIENT, trigger=trigger)
                  for reg in range(1, 9)]
        baseline = make_campaign(checkpoints=False)
        assert normalized_json(campaign.run(faults)) == \
            normalized_json(baseline.run(faults))
        stats = campaign.checkpoint_stats()
        # One forward pass built the checkpoint; the other seven mutants
        # restored it instead of replaying the prefix.
        assert stats["restores"] >= 7
        assert stats["instructions_skipped"] >= 7 * (trigger - 1)


    def test_transient_flip_outside_ram_is_masked(self):
        """A transient memory fault on an MMIO address (coverage records
        UART stores as touched memory) cannot be applied: both engines
        classify it masked instead of raising BusError mid-campaign."""
        golden = make_campaign().golden()
        faults = [
            Fault(TARGET_MEMORY, UART_BASE, 0, TRANSIENT, trigger=3),
            Fault(TARGET_MEMORY, UART_BASE + 4, 5, TRANSIENT,
                  trigger=golden.instructions + 10),
            Fault(TARGET_MEMORY, RAM_BASE + 0x40000, 1, TRANSIENT,
                  trigger=golden.instructions // 2),
            Fault(TARGET_GPR, 14, 0, TRANSIENT, trigger=5),
        ]
        results = [normalized_json(make_campaign(checkpoints=checkpoints)
                                   .run(faults))
                   for checkpoints in (True, False)]
        assert results[0] == results[1]
        outcomes = make_campaign().run(faults).results
        assert [m.outcome for m in outcomes[:2]] == [OUTCOME_MASKED] * 2


class TestEarlyClassification:
    """Runs on the campaign default (compiled); the subclass below runs
    the same tests on the interpreter."""

    backend = CAMPAIGN_BACKEND

    def make_campaign(self, source=PROGRAM, **kwargs):
        kwargs.setdefault("backend", self.backend)
        return make_campaign(source, **kwargs)

    def test_dead_register_flip_exits_early(self):
        campaign = self.make_campaign(CONVERGENT, digest_interval=64)
        golden = campaign.golden()
        # Flip t0 right after loop entry: the next `li t0, 5` kills it.
        fault = Fault(TARGET_GPR, 5, 4, TRANSIENT,
                      trigger=golden.instructions // 2)
        result = campaign.run_one(fault)
        assert result.outcome == OUTCOME_MASKED
        assert result.exit_code == golden.exit_code
        assert result.instructions == golden.instructions
        assert campaign.checkpoint_stats()["early_exits"] == 1

    def test_early_exit_matches_full_replay(self):
        golden = self.make_campaign(CONVERGENT).golden()
        fault = Fault(TARGET_GPR, 5, 4, TRANSIENT,
                      trigger=golden.instructions // 2)
        fast = self.make_campaign(CONVERGENT,
                                  digest_interval=64).run_one(fault)
        slow = self.make_campaign(CONVERGENT,
                                  checkpoints=False).run_one(fault)
        assert fast == slow

    def test_trigger_beyond_exit_is_golden(self):
        campaign = self.make_campaign()
        golden = campaign.golden()
        fault = Fault(TARGET_GPR, 10, 0, TRANSIENT,
                      trigger=golden.instructions + 1000)
        campaign.prepare_checkpoints([fault.trigger])
        result = campaign.run_one(fault)
        assert result.outcome == OUTCOME_MASKED
        assert result.instructions == golden.instructions
        stats = campaign.checkpoint_stats()
        assert stats["early_exits"] == 1
        baseline = self.make_campaign(checkpoints=False).run_one(fault)
        assert result == baseline


class TestEarlyClassificationInterp(TestEarlyClassification):
    backend = "interp"


class TestCompiledShape:
    """Checkpointed transient mutants run on the compiled tier's direct
    shape: the re-convergence watcher is a block hook, not an
    instruction hook."""

    def test_transient_mutants_compile_no_method_shape_blocks(self):
        campaign = make_campaign(CONVERGENT, digest_interval=64)
        golden = campaign.golden()
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                        backend="compiled"))
        machine.load(campaign.program)
        engine = CheckpointEngine(machine, golden.exit_code,
                                  golden.instructions, digest_interval=64)
        budget = campaign.instruction_budget
        faults = [Fault(TARGET_GPR, reg, bit, TRANSIENT,
                        trigger=golden.instructions * k // 8)
                  for k in (1, 3, 5)
                  for reg, bit in ((5, 4), (8, 1), (9, 30))]
        engine.prepare([fault.trigger for fault in faults], budget)
        # The golden sweep counts attempts with an instruction hook, so
        # its blocks compile in the method shape; the mutants' must not.
        before = machine.jit_stats()
        outcomes = []
        for fault in faults:
            result, early = engine.run_transient(fault, budget)
            outcomes.append(early or result.stop_reason)
        after = machine.jit_stats()
        assert after["method_blocks"] == before["method_blocks"]
        assert after["blocks_compiled"] > before["blocks_compiled"]
        assert after["compiled_instructions"] > before[
            "compiled_instructions"]
        assert True in outcomes  # the t0 flips re-converge
        assert outcomes != [True] * len(faults)


class TestStats:
    def test_counters_track_checkpoint_work(self):
        campaign = make_campaign()
        golden = campaign.golden()
        triggers = [golden.instructions // 4, golden.instructions // 2]
        faults = [Fault(TARGET_GPR, reg, 0, TRANSIENT, trigger=trigger)
                  for trigger in triggers for reg in (5, 6)]
        campaign.run(faults)
        stats = campaign.checkpoint_stats()
        # Base snapshot + one checkpoint per distinct trigger.
        assert stats["snapshots"] >= 1 + len(triggers)
        assert stats["restores"] >= 1
        assert stats["instructions_skipped"] > 0

    def test_inactive_engine_reports_zeros(self):
        campaign = make_campaign(checkpoints=False)
        campaign.run(mixed_faults(campaign, mutants=10))
        assert campaign.checkpoint_stats() == {
            key: 0 for key in CheckpointEngine.STAT_KEYS}


class TestMachineReuse:
    """Interleaved transient / code / stuck-at mutants share machinery:
    the shared machine's snapshot restore and the engine's position
    invalidation must keep every classification independent."""

    def test_interleaved_fault_kinds_match_fresh_machines(self):
        campaign = make_campaign()
        golden = campaign.golden()
        code_addr = campaign.program.segments[0][0]
        trigger = golden.instructions // 3
        interleaved = [
            Fault(TARGET_GPR, 5, 2, TRANSIENT, trigger=trigger),
            Fault(TARGET_CODE, code_addr + 4, 4, STUCK_AT_0),
            Fault(TARGET_GPR, 11, 1, STUCK_AT_0),
            # Same trigger again *after* the machine was polluted by the
            # code patch and the stuck-at run: must restore, not reuse.
            Fault(TARGET_GPR, 5, 2, TRANSIENT, trigger=trigger),
            Fault(TARGET_CODE, code_addr + 8, 0, STUCK_AT_0),
            Fault(TARGET_GPR, 6, 3, TRANSIENT, trigger=trigger + 2),
        ]
        shared = [campaign.run_one(fault) for fault in interleaved]
        fresh_campaign = make_campaign(reuse_machine=False)
        fresh = [fresh_campaign.run_one(fault) for fault in interleaved]
        assert shared == fresh
        # Identical transients classify identically regardless of what
        # ran in between.
        assert shared[0] == shared[3]


class TestGuards:
    def test_engine_rejects_icache_machines(self):
        machine = Machine(MachineConfig(
            isa=RV32IMC_ZICSR, icache=ICacheConfig()))
        program = assemble(PROGRAM, isa=RV32IMC_ZICSR)
        machine.load(program)
        with pytest.raises(ValueError, match="icache"):
            CheckpointEngine(machine, golden_exit_code=0,
                             golden_instructions=1000)

    def test_engine_rejects_non_transient(self):
        campaign = make_campaign()
        engine = campaign._ensure_engine()
        with pytest.raises(ValueError, match="transient"):
            engine.run_transient(
                Fault(TARGET_GPR, 5, 0, STUCK_AT_0),
                campaign.instruction_budget)
