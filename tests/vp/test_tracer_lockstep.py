"""Tests for the execution tracer, register watch, and lockstep runner."""

import pytest

from repro.asm import assemble
from repro.isa import RV32IMC_ZICSR
from repro.vp import (
    ExecutionTracer,
    LockstepDivergence,
    Machine,
    MachineConfig,
    RegisterWatch,
    run_lockstep,
)
from repro.testgen import TortureConfig, TortureGenerator

EXIT = "\n    li a7, 93\n    ecall\n"


def run_traced(source, limit=None):
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
    machine.load(assemble(source, isa=RV32IMC_ZICSR))
    tracer = machine.add_plugin(ExecutionTracer(limit=limit))
    machine.run(max_instructions=100_000)
    return tracer


class TestExecutionTracer:
    def test_records_every_instruction(self):
        tracer = run_traced("_start: nop\nnop\nnop" + EXIT)
        assert tracer.count == 5  # 3 nops + li a7 + ecall
        assert tracer.tail(2)[0].text == "addi a7, zero, 93"
        assert tracer.tail(1)[0].text == "ecall"

    def test_entries_have_increasing_indices(self):
        tracer = run_traced("_start: nop\nnop" + EXIT)
        indices = [e.index for e in tracer.entries]
        assert indices == sorted(indices)
        assert indices[0] == 0

    def test_ring_buffer_limit(self):
        tracer = run_traced("_start:\n" + "nop\n" * 50 + EXIT, limit=10)
        assert len(tracer.entries) == 10
        assert tracer.count == 52  # 50 nops + li a7 + ecall
        # Only the most recent entries survive.
        assert tracer.entries[0].index == 42

    def test_render_contains_pc_and_disassembly(self):
        tracer = run_traced("_start: nop" + EXIT)
        text = tracer.render(5)
        assert "0x80000000" in text
        assert "addi zero, zero, 0" in text

    def test_clear(self):
        tracer = run_traced("_start: nop" + EXIT)
        tracer.clear()
        assert tracer.count == 0
        assert not tracer.entries


class TestRegisterWatch:
    def test_records_changes_only(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble("""
        _start:
            li t0, 1
            nop
            nop
            li t0, 2
            nop
        """ + EXIT, isa=RV32IMC_ZICSR))
        watch = machine.add_plugin(RegisterWatch([5]))
        machine.run(max_instructions=100)
        values = [value for _i, value in watch.history[5]]
        assert values == [0, 1, 2]

    def test_render(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble("_start: li t0, 7" + EXIT,
                              isa=RV32IMC_ZICSR))
        watch = machine.add_plugin(RegisterWatch([5]))
        machine.run(max_instructions=100)
        assert "t0:" in watch.render()


class TestLockstep:
    LOOP = """
    _start:
        li a0, 0
        li t0, 0
    loop:
        add a0, a0, t0
        addi t0, t0, 1
        li t1, 20
        blt t0, t1, loop
    """ + EXIT

    def test_cache_on_vs_off_equivalence(self):
        program = assemble(self.LOOP, isa=RV32IMC_ZICSR)
        primary = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                        block_cache_enabled=True))
        secondary = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                          block_cache_enabled=False))
        result = run_lockstep(primary, secondary, program)
        assert not result.diverged
        assert result.primary_exit == result.secondary_exit

    def test_torture_program_equivalence(self):
        generator = TortureGenerator(RV32IMC_ZICSR,
                                     TortureConfig(length=200, seed=9))
        program = generator.generate()
        primary = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        secondary = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                          block_cache_enabled=False))
        result = run_lockstep(primary, secondary, program,
                              max_instructions=100_000)
        assert not result.diverged

    def test_divergence_detected_with_injected_fault(self):
        from repro.faultsim import Fault, STUCK_AT_1, TARGET_GPR, inject

        program = assemble(self.LOOP, isa=RV32IMC_ZICSR)
        primary = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        secondary = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        # Divergence source: fault one machine's a0 read port up front.
        secondary.load(program)
        inject(secondary, Fault(TARGET_GPR, 10, 7, STUCK_AT_1))
        # run_lockstep reloads the program but keeps the faulty regfile.
        with pytest.raises(LockstepDivergence) as info:
            run_lockstep(primary, secondary, program)
        assert "registers differ" in str(info.value) or \
            "control flow" in str(info.value)

    @pytest.mark.parametrize("backends", [("interp", "compiled"),
                                          ("compiled", "interp"),
                                          ("compiled", "compiled")],
                             ids=lambda pair: "-vs-".join(pair))
    def test_injected_fault_pinpointed_on_compiled_sides(self, backends):
        """The faulty machine runs its blocks compiled (the stuck bit is
        folded into generated reads), and the replay of the diverging
        block names the add that first reads the stuck a0."""
        from repro.faultsim import Fault, STUCK_AT_1, TARGET_GPR, inject

        program = assemble(self.LOOP, isa=RV32IMC_ZICSR)
        primary, secondary = (
            Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                  jit_threshold=1))
            for backend in backends)
        secondary.load(program)
        inject(secondary, Fault(TARGET_GPR, 10, 7, STUCK_AT_1))
        result = run_lockstep(primary, secondary, program,
                              raise_on_divergence=False)
        divergence = result.divergence
        assert result.diverged
        assert divergence.kind == "registers"
        assert divergence.index == 3
        assert divergence.disasm.startswith("add a0, a0, t0")
        assert divergence.reg_delta == ((10, 0, 0x80),)
        for machine in (primary, secondary):
            stats = machine.jit_stats()
            assert stats is None or stats["compiled_instructions"] > 0

    def test_divergence_report_mode(self):
        from repro.faultsim import Fault, STUCK_AT_1, TARGET_GPR, inject

        program = assemble(self.LOOP, isa=RV32IMC_ZICSR)
        primary = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        secondary = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        secondary.load(program)
        inject(secondary, Fault(TARGET_GPR, 10, 7, STUCK_AT_1))
        result = run_lockstep(primary, secondary, program,
                              raise_on_divergence=False)
        assert result.diverged
        assert result.divergence is not None

    def test_isa_mismatch_rejected(self):
        from repro.isa import RV32IM

        program = assemble(self.LOOP, isa=RV32IMC_ZICSR)
        with pytest.raises(ValueError, match="share an ISA"):
            run_lockstep(
                Machine(MachineConfig(isa=RV32IMC_ZICSR)),
                Machine(MachineConfig(isa=RV32IM)),
                program,
            )
