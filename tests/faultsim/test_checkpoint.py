"""Checkpoint engine: parity, early classification, stats, machine reuse."""

import importlib.util
import pathlib

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
    STUCK_AT_1,
    TARGET_CODE,
    TARGET_CSR,
    TARGET_FPR,
    TARGET_GPR,
    TARGET_MEMORY,
    TRANSIENT,
    default_campaign_mutants,
    generate_mutants,
)
from repro.isa import RV32IMC_ZICSR, RV32IMCF_ZICSR
from repro.isa.csr import CsrFile
from repro.isa.registers import FPRegisterFile, RegisterFile
from repro.telemetry import Telemetry, telemetry_session
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


# Every fault target in use: FPR moves through memory, a CSR read in
# the loop, and a self-check on values that passed through both.
FP_PROGRAM = """
_start:
    li a1, 6
    li a2, 7
    mul a0, a1, a2
    fmv.w.x f1, a0
    la t0, scratch
    fsw f1, 0(t0)
    flw f2, 0(t0)
    fsgnj.s f3, f2, f2
    fmv.x.w a4, f3
    csrw mscratch, a4
    li t1, 0
    li t2, 40
loop:
    addi t1, t1, 1
    csrr a5, mscratch
    xor a5, a5, t1
    blt t1, t2, loop
    csrr a4, mscratch
    li a3, 42
    beq a4, a3, good
    li a0, 1
    j out
good:
    li a0, 0
out:
""" + EXIT + "\n.data\nscratch: .word 0\n"


def make_campaign(source=PROGRAM, isa=RV32IMC_ZICSR, **kwargs):
    return FaultCampaign(assemble(source, isa=isa), isa=isa, **kwargs)


def mixed_faults(campaign, mutants=40, seed=7, csr_stuck=0):
    golden = campaign.golden()
    coverage = measure_coverage(campaign.program, isa=campaign.isa)
    per = max(1, mutants // 5)
    budget = MutantBudget(code=per, gpr_transient=per, gpr_stuck=per,
                          memory_transient=per, memory_stuck=per,
                          csr_stuck=csr_stuck)
    return generate_mutants(campaign.program, coverage, budget,
                            golden_instructions=golden.instructions,
                            seed=seed)


def every_class_faults():
    """Every default category plus CSR stuck-at, and FPR stuck-at and
    transient faults, on the rv32imcf program."""
    campaign = make_campaign(FP_PROGRAM, isa=RV32IMCF_ZICSR)
    trigger = campaign.golden().instructions // 3
    fpr = [Fault(TARGET_FPR, reg, bit, kind)
           for reg, bit, kind in ((1, 3, STUCK_AT_1), (2, 1, STUCK_AT_0),
                                  (3, 0, STUCK_AT_1), (3, 6, STUCK_AT_0))]
    fpr.append(Fault(TARGET_FPR, 3, 2, TRANSIENT, trigger=7))
    fpr.append(Fault(TARGET_FPR, 2, 5, TRANSIENT, trigger=trigger))
    faults = mixed_faults(campaign, csr_stuck=6) + fpr
    assert {fault.target for fault in faults} == {
        TARGET_GPR, TARGET_FPR, TARGET_CSR, TARGET_MEMORY, TARGET_CODE}
    return faults


def normalized_json(result):
    result.elapsed_seconds = 0.0
    return result.to_json()


def assert_configs_match(faults, source=PROGRAM, isa=RV32IMC_ZICSR):
    """Every {interp, compiled} x {checkpoints on, off} x {reuse on, off}
    x {jobs 1, 4} campaign serializes like the plain interpreted full
    replay on fresh machines."""
    reference = normalized_json(make_campaign(
        source, isa, checkpoints=False, reuse_machine=False,
        backend="interp").run(faults))
    for backend in ("interp", "compiled"):
        for checkpoints in (False, True):
            for reuse in (False, True):
                for jobs in (1, 4):
                    if (backend, checkpoints, reuse, jobs) == (
                            "interp", False, False, 1):
                        continue
                    campaign = make_campaign(
                        source, isa, checkpoints=checkpoints,
                        reuse_machine=reuse, backend=backend)
                    got = normalized_json(campaign.run(faults, jobs=jobs))
                    assert got == reference, (
                        f"backend={backend} checkpoints={checkpoints} "
                        f"reuse={reuse} jobs={jobs} diverged")


class TestParity:
    """The acceptance bar: byte-identical CampaignResult serialization
    across {interp, compiled} x {checkpoints on, off} x {reuse on, off}
    x {sequential, jobs=4}."""

    def test_mixed_campaign_byte_identical(self):
        assert_configs_match(mixed_faults(make_campaign()))

    def test_every_fault_class_byte_identical(self):
        assert_configs_match(every_class_faults(), FP_PROGRAM,
                             RV32IMCF_ZICSR)

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


# An 8-instruction program whose loop block is translated (and, on the
# compiled tier, compiled) long before the flips below rewrite it.
FLIP_LOOP = """
_start:
    li t1, 200
    li a0, 0
loop:
    addi a0, a0, 3
    addi t1, t1, -1
    bnez t1, loop
    andi a0, a0, 0xff
    li a7, 93
    ecall
"""


class TestCodeFlips:
    """A transient memory flip into already-translated code runs the
    flipped instruction on every path: the checkpoint engine restores
    (flushing translations) before flipping, and the plugin flushes and
    stops the run before the rest of the current block."""

    #: Attempt counts: 1 lands before the loop block is first
    #: translated, 50 on the first instruction of an iteration, 51 and
    #: 301 on later instructions of the flipped instruction's block.
    TRIGGERS = (1, 50, 51, 301)

    def faults(self):
        loop = assemble(FLIP_LOOP, isa=RV32IMC_ZICSR).symbols["loop"]
        return [Fault(TARGET_MEMORY, loop + byte, bit, TRANSIENT,
                      trigger=trigger)
                for trigger in self.TRIGGERS
                for byte in (0, 1, 4, 5) for bit in (1, 3)]

    def test_classified_alike_with_and_without_checkpoints(self):
        faults = self.faults()
        runs = {}
        for backend in ("interp", "compiled"):
            for checkpoints in (True, False):
                campaign = make_campaign(FLIP_LOOP, backend=backend,
                                         checkpoints=checkpoints)
                runs[backend, checkpoints] = normalized_json(
                    campaign.run(faults))
        assert len(set(runs.values())) == 1, sorted(
            key for key in runs if runs[key] != runs["interp", True])
        counts = make_campaign(FLIP_LOOP).run(faults).counts
        assert counts["sdc"] and counts["trap"]

    def test_flips_into_the_loop_are_not_masked(self):
        # Bits 1 and 3 of the loop's first two bytes at triggers 50 and
        # 301 are never masked: the stale translation would mask all 8.
        loop = assemble(FLIP_LOOP, isa=RV32IMC_ZICSR).symbols["loop"]
        faults = [Fault(TARGET_MEMORY, loop + byte, bit, TRANSIENT,
                        trigger=trigger)
                  for trigger in (50, 301) for byte in (0, 1)
                  for bit in (1, 3)]
        for checkpoints in (True, False):
            counts = make_campaign(FLIP_LOOP, checkpoints=checkpoints).run(
                faults).counts
            assert counts == {"masked": 0, "sdc": 6, "trap": 2, "hang": 0}


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


#: A loop over two blocks joined by a jump: hot enough to become a
#: compiled trace within its first few hundred iterations.
TRACE_LOOP = """
_start:
    li s0, 0
    li s1, 600
    li s2, 0
loop:
    li t0, 5
    add s2, s2, t0
    j next
next:
    addi s0, s0, 1
    blt s0, s1, loop
    andi a0, s2, 0
""" + EXIT


# CONVERGENT with the machine timer armed to fire mid-loop while
# interrupts stay globally disabled: only the pending bit in mip changes.
TIMER_LOOP = """
_start:
    li t3, 0x02004000
    li t4, {timer}
    sw t4, 0(t3)
    sw zero, 4(t3)
    li t4, 0x80
    csrw mie, t4
    li s0, 0
    li s1, 400
loop:
    li t0, 5
    add s2, s0, t0
    addi s0, s0, 1
    blt s0, s1, loop
    li a0, 0
""" + EXIT


def load_benchmark_guest():
    """The end-to-end benchmark's program generators."""
    path = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "e2e" / "guest.py")
    spec = importlib.util.spec_from_file_location("e2e_guest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompiledShape:
    """Checkpointed transient mutants run on the compiled tier's fastest
    shapes: the re-convergence check is a run-loop watch, not a hook."""

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
        # No campaign run attaches a hook, which would keep every block
        # interpreted: the mutants run mostly compiled code.
        before = machine.jit_stats()
        outcomes = []
        for fault in faults:
            result, early = engine.run_transient(fault, budget)
            outcomes.append(early or result.stop_reason)
        after = machine.jit_stats()
        assert machine.cpu.backend.interpreted is None
        assert after["blocks_compiled"] > before["blocks_compiled"]
        compiled, interp = (
            after[key] - before[key]
            for key in ("compiled_instructions", "interp_instructions"))
        assert compiled > 10 * interp
        assert True in outcomes  # the t0 flips re-converge
        assert outcomes != [True] * len(faults)

    def test_transient_runs_attach_no_plugin(self):
        """The watch is not a plugin: the hook table stays empty and
        unversioned and translations survive while mutants run."""
        campaign = make_campaign(CONVERGENT, digest_interval=64)
        golden = campaign.golden()
        faults = [Fault(TARGET_GPR, reg, 3, TRANSIENT,
                        trigger=golden.instructions * k // 4)
                  for k in (1, 2, 3) for reg in (5, 18)]
        campaign.prepare_checkpoints([fault.trigger for fault in faults])
        machine = campaign._engine.machine
        plugins = []
        run = machine.run

        def spy(*args, **kwargs):
            plugins.append(list(machine.cpu.hooks.plugins))
            return run(*args, **kwargs)

        machine.run = spy
        version = machine.cpu.hooks.version
        flushes = machine.cpu.tb_flushes
        restores = campaign.checkpoint_stats()["restores"]
        results = [campaign.run_one(fault) for fault in faults]
        assert plugins == [[]] * len(faults)
        assert machine.cpu.hooks.version == version
        # One flush per warm restore, none for attaching the watch.
        assert (machine.cpu.tb_flushes - flushes
                == campaign.checkpoint_stats()["restores"] - restores)
        assert results == [make_campaign(CONVERGENT, checkpoints=False)
                           .run_one(fault) for fault in faults]

    def test_transient_mutants_run_traces(self):
        campaign = make_campaign(TRACE_LOOP, digest_interval=200)
        golden = campaign.golden()
        faults = [Fault(TARGET_GPR, reg, 2, TRANSIENT,
                        trigger=golden.instructions * k // 6)
                  for k in (1, 2, 3, 4) for reg in (5, 8)]
        campaign.prepare_checkpoints([fault.trigger for fault in faults])
        machine = campaign._engine.machine
        before = machine.jit_stats()
        results = [campaign.run_one(fault) for fault in faults]
        after = machine.jit_stats()
        assert after["trace_instructions"] > before["trace_instructions"]
        assert machine.cpu.backend.interpreted is None
        stats = campaign.checkpoint_stats()
        assert 0 < stats["early_exits"] < len(faults)
        assert results == [make_campaign(TRACE_LOOP, checkpoints=False)
                           .run_one(fault) for fault in faults]

    @pytest.mark.parametrize("checkpoints", [True, False])
    def test_campaigns_compile_no_method_shape_blocks(self, checkpoints):
        """No campaign run (golden, sweep or mutant) attaches a plugin,
        which would keep every block interpreted: transient campaigns
        retire most instructions in traces and compiled blocks."""
        campaign = make_campaign(TRACE_LOOP, checkpoints=checkpoints)
        golden = campaign.golden()
        faults = [Fault(TARGET_GPR, reg, 2, TRANSIENT,
                        trigger=golden.instructions * k // 6)
                  for k in (1, 3, 5) for reg in (5, 8)]
        campaign.run(faults)
        machine = campaign._shared_machine
        stats = machine.jit_stats()
        assert machine.cpu.backend.interpreted is None
        assert stats["blocks_compiled"] > 0
        assert stats["traces_compiled"] > 0
        assert (stats["trace_instructions"] + stats["compiled_instructions"]
                > 10 * stats["interp_instructions"])

    @pytest.mark.parametrize("timer", [700, 1100])
    def test_timer_program_checks_match_interp(self, timer):
        """A timer that becomes pending (interrupts masked) inside fused
        loops: the check sees the mip value the golden digest holds, so
        mutants exit early exactly where the interpreter's do."""
        source = TIMER_LOOP.format(timer=timer)
        stats = {}
        for backend in ("interp", "compiled"):
            campaign = make_campaign(source, backend=backend,
                                     digest_interval=120)
            golden = campaign.golden()
            faults = [Fault(TARGET_GPR, 5, 3, TRANSIENT, trigger=trigger)
                      for trigger in range(20, golden.instructions, 7)]
            campaign.run(faults)
            stats[backend] = campaign.checkpoint_stats()
        assert stats["interp"]["early_exits"] > 0
        assert stats["compiled"] == stats["interp"]

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_benchmark_program_early_exits_unchanged(self, backend):
        """The fault-campaign benchmark's seed-0 campaign exits early on
        exactly the mutants, at exactly the instruction counts, it did
        when the check was a block hook (12 exits, 320663 instructions
        skipped, measured with that hook)."""
        from repro.isa.decoder import IsaConfig

        guest = load_benchmark_guest()
        isa = IsaConfig.from_string("rv32imc_zicsr")
        program = assemble(guest.fault_program(0)[0], isa=isa)
        campaign = FaultCampaign(program, isa=isa, backend=backend)
        faults = default_campaign_mutants(
            program, isa=isa, mutants=100, seed=0,
            golden_instructions=campaign.golden().instructions)
        result = campaign.run(faults)
        stats = campaign.checkpoint_stats()
        assert (stats["early_exits"], stats["instructions_skipped"]) == (
            12, 320663)
        assert result.counts == {"masked": 28, "sdc": 56, "trap": 14,
                                 "hang": 2}


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

    @pytest.mark.parametrize("checkpoints", [True, False])
    def test_faults_are_removed_after_each_mutant(self, checkpoints):
        """A stuck-at fault of every target, then a code fault and a
        transient, on one shared machine: after each mutant the machine
        holds its original register files, no RAM stuck bit, and the
        same bus map; every result matches a fresh machine's."""
        campaign = make_campaign(FP_PROGRAM, RV32IMCF_ZICSR,
                                 checkpoints=checkpoints)
        golden = campaign.golden()
        program = campaign.program
        code = program.segments[0][0]
        scratch = program.symbols["scratch"]
        faults = [
            Fault(TARGET_GPR, 14, 1, STUCK_AT_1),
            Fault(TARGET_FPR, 2, 0, STUCK_AT_1),
            Fault(TARGET_CSR, 0x340, 4, STUCK_AT_1),
            Fault(TARGET_MEMORY, scratch, 1, STUCK_AT_1),
            Fault(TARGET_MEMORY, code + 1, 3, STUCK_AT_0),
            Fault(TARGET_CODE, code + 4, 4, STUCK_AT_0),
            Fault(TARGET_GPR, 14, 1, TRANSIENT,
                  trigger=golden.instructions // 2),
        ]
        campaign.run_one(faults[-1])  # builds the shared machine
        machine = campaign._shared_machine
        cpu = machine.cpu
        files = (cpu.regs, cpu.fregs, cpu.csrs)
        assert [type(f) for f in files] == [RegisterFile, FPRegisterFile,
                                            CsrFile]
        regions = machine.bus.regions
        fresh = make_campaign(FP_PROGRAM, RV32IMCF_ZICSR,
                              reuse_machine=False)
        outcomes = set()
        for fault in faults:
            result = campaign.run_one(fault)
            assert result == fresh.run_one(fault), fault
            outcomes.add(result.outcome)
            assert all(a is b for a, b in zip(
                (cpu.regs, cpu.fregs, cpu.csrs), files))
            assert machine.ram.stuck is None
            assert machine.bus.regions == regions
        assert len(outcomes) > 1

    @pytest.mark.parametrize("checkpoints", [True, False])
    def test_machine_counters(self, checkpoints):
        """Reuse builds the golden machine and one shared machine; with
        reuse off every mutant builds its own."""
        for reuse in (True, False):
            campaign = make_campaign(checkpoints=checkpoints,
                                     reuse_machine=reuse)
            faults = mixed_faults(campaign, mutants=20)
            with telemetry_session(Telemetry()) as session:
                campaign.run(faults)
                snap = session.metrics.to_dict()
            expected = ({"machines_built": 2,
                         "machines_reused": len(faults)} if reuse else
                        {"machines_built": 1 + len(faults),
                         "machines_reused": 0})
            counters = campaign.counters()
            for key, value in expected.items():
                name = f"faultsim.campaign.{key}"
                assert counters[name] == value
                assert snap.get(name, {"value": 0})["value"] == value


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
