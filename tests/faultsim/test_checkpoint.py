"""Checkpoint engine: parity, early classification, stats, machine reuse."""

import pytest

from repro.asm import assemble
from repro.coverage import measure_coverage
from repro.faultsim import (
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


class TestParity:
    """The acceptance bar: byte-identical CampaignResult serialization
    across {checkpoints on, off} x {sequential, jobs=4}."""

    def test_mixed_campaign_byte_identical(self):
        reference_campaign = make_campaign(checkpoints=False)
        faults = mixed_faults(reference_campaign)
        reference = normalized_json(reference_campaign.run(faults))
        for checkpoints in (False, True):
            for jobs in (1, 4):
                if not checkpoints and jobs == 1:
                    continue
                campaign = make_campaign(checkpoints=checkpoints)
                got = normalized_json(campaign.run(faults, jobs=jobs))
                assert got == reference, (
                    f"checkpoints={checkpoints} jobs={jobs} diverged")

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
    def test_dead_register_flip_exits_early(self):
        campaign = make_campaign(CONVERGENT, digest_interval=64)
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
        golden = make_campaign(CONVERGENT).golden()
        fault = Fault(TARGET_GPR, 5, 4, TRANSIENT,
                      trigger=golden.instructions // 2)
        fast = make_campaign(CONVERGENT, digest_interval=64).run_one(fault)
        slow = make_campaign(CONVERGENT, checkpoints=False).run_one(fault)
        assert fast == slow

    def test_trigger_beyond_exit_is_golden(self):
        campaign = make_campaign()
        golden = campaign.golden()
        fault = Fault(TARGET_GPR, 10, 0, TRANSIENT,
                      trigger=golden.instructions + 1000)
        campaign.prepare_checkpoints([fault.trigger])
        result = campaign.run_one(fault)
        assert result.outcome == OUTCOME_MASKED
        assert result.instructions == golden.instructions
        stats = campaign.checkpoint_stats()
        assert stats["early_exits"] == 1
        baseline = make_campaign(checkpoints=False).run_one(fault)
        assert result == baseline


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
