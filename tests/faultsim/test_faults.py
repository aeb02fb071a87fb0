"""Fault model and injector tests."""

import pytest

from repro.asm import assemble
from repro.faultsim import (
    Fault,
    InjectionError,
    STUCK_AT_0,
    STUCK_AT_1,
    TARGET_CODE,
    TARGET_CSR,
    TARGET_GPR,
    TARGET_MEMORY,
    TRANSIENT,
    inject,
    run_transient,
)
from repro.isa import RV32IMC_ZICSR
from repro.vp import Machine, MachineConfig, RAM_BASE

EXIT = "\n    li a7, 93\n    ecall\n"


def loaded_machine(source):
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
    machine.load(assemble(source, isa=RV32IMC_ZICSR))
    return machine


class TestFaultValidation:
    def test_valid_fault(self):
        Fault(TARGET_GPR, 5, 31, TRANSIENT, trigger=10)

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="target"):
            Fault("rom", 0, 0, TRANSIENT)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Fault(TARGET_GPR, 0, 0, "intermittent")

    def test_register_bit_range(self):
        with pytest.raises(ValueError, match="bit"):
            Fault(TARGET_GPR, 0, 32, TRANSIENT)

    def test_memory_bit_range_is_byte(self):
        with pytest.raises(ValueError, match="bit"):
            Fault(TARGET_MEMORY, RAM_BASE, 8, TRANSIENT)

    def test_register_index_range(self):
        with pytest.raises(ValueError, match="register"):
            Fault(TARGET_GPR, 32, 0, TRANSIENT)

    def test_negative_trigger(self):
        with pytest.raises(ValueError, match="trigger"):
            Fault(TARGET_GPR, 1, 0, TRANSIENT, trigger=-1)

    def test_code_faults_must_be_permanent(self):
        with pytest.raises(ValueError, match="permanent"):
            Fault(TARGET_CODE, RAM_BASE, 0, TRANSIENT)

    def test_describe_readable(self):
        text = Fault(TARGET_GPR, 5, 3, STUCK_AT_1).describe()
        assert "x5" in text and "stuck at 1" in text
        text = Fault(TARGET_MEMORY, RAM_BASE, 3, TRANSIENT, 7).describe()
        assert "transient" in text and "insn 7" in text


class TestStuckAtGpr:
    SOURCE = """
    _start:
        li a0, 0
    """ + EXIT

    def test_stuck_at_1_forces_bit(self):
        machine = loaded_machine(self.SOURCE)
        inject(machine, Fault(TARGET_GPR, 10, 4, STUCK_AT_1))
        result = machine.run(max_instructions=100)
        assert result.exit_code == 16  # a0 = 0 but bit 4 reads as 1

    def test_stuck_at_0_masks_bit(self):
        machine = loaded_machine("_start:\n    li a0, 21" + EXIT)
        inject(machine, Fault(TARGET_GPR, 10, 0, STUCK_AT_0))
        result = machine.run(max_instructions=100)
        assert result.exit_code == 20

    def test_other_registers_unaffected(self):
        machine = loaded_machine("_start:\n    li a0, 5" + EXIT)
        inject(machine, Fault(TARGET_GPR, 11, 0, STUCK_AT_1))
        result = machine.run(max_instructions=100)
        assert result.exit_code == 5

    def test_stuck_propagates_through_computation(self):
        machine = loaded_machine("""
        _start:
            li a1, 0
            add a0, a1, a1
        """ + EXIT)
        inject(machine, Fault(TARGET_GPR, 11, 2, STUCK_AT_1))
        result = machine.run(max_instructions=100)
        assert result.exit_code == 8  # (4) + (4)


class TestTransient:
    def test_flip_applied_at_trigger(self):
        # a0 is set before the trigger point, flipped afterwards.
        machine = loaded_machine("""
        _start:
            li a0, 0
            nop
            nop
            nop
        """ + EXIT)
        result, fired = run_transient(
            machine, Fault(TARGET_GPR, 10, 6, TRANSIENT, trigger=2), 100)
        assert fired
        assert result.exit_code == 64

    def test_flip_before_overwrite_is_masked(self):
        machine = loaded_machine("""
        _start:
            nop
            nop
            li a0, 7
        """ + EXIT)
        result, _fired = run_transient(
            machine, Fault(TARGET_GPR, 10, 3, TRANSIENT, trigger=0), 100)
        assert result.exit_code == 7  # overwritten: fault masked

    def test_memory_transient_flips_data_before_load(self):
        source = """
        _start:
            la t0, value
            nop
            nop
            lw a0, 0(t0)
        """ + EXIT + "\n.data\nvalue: .word 0"
        program = assemble(source, isa=RV32IMC_ZICSR)
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(program)
        value_addr = program.symbols["value"]
        result, fired = run_transient(
            machine, Fault(TARGET_MEMORY, value_addr + 1, 2, TRANSIENT,
                           trigger=2), 100)
        assert fired
        assert result.exit_code == 0x400  # bit 2 of byte 1 -> word bit 10


class TestCodeMutation:
    def test_code_bit_flip_changes_behaviour(self):
        source = "_start:\n    li a0, 1" + EXIT
        machine = loaded_machine(source)
        # addi a0, zero, 1 is the first word; flipping a bit in the
        # immediate field changes the loaded constant.
        fault = Fault(TARGET_CODE, RAM_BASE + 2, 5, STUCK_AT_1)
        inject(machine, fault)
        result = machine.run(max_instructions=100)
        assert result.stop_reason == "exit"
        assert result.exit_code != 1

    def test_code_fault_outside_ram_rejected(self):
        machine = loaded_machine("_start: nop" + EXIT)
        with pytest.raises(InjectionError):
            inject(machine, Fault(TARGET_CODE, 0x100, 0, STUCK_AT_1))


class TestStuckMemory:
    def test_memory_stuck_at_read_side(self):
        source = """
        _start:
            la t0, value
            lw a0, 0(t0)
        """ + EXIT + "\n.data\nvalue: .word 0"
        program = assemble(source, isa=RV32IMC_ZICSR)
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(program)
        value_addr = program.symbols["value"]
        inject(machine, Fault(TARGET_MEMORY, value_addr, 6, STUCK_AT_1))
        result = machine.run(max_instructions=100)
        assert result.exit_code == 64

    def test_memory_stuck_survives_store(self):
        source = """
        _start:
            la t0, value
            li t1, 0
            sw t1, 0(t0)
            lw a0, 0(t0)
        """ + EXIT + "\n.data\nvalue: .word 0xFF"
        program = assemble(source, isa=RV32IMC_ZICSR)
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(program)
        inject(machine, Fault(TARGET_MEMORY, program.symbols["value"], 1,
                              STUCK_AT_1))
        result = machine.run(max_instructions=100)
        assert result.exit_code == 2


class TestStuckCsr:
    def test_csr_stuck_bit(self):
        machine = loaded_machine("""
        _start:
            csrw mscratch, zero
            csrr a0, mscratch
        """ + EXIT)
        inject(machine, Fault(TARGET_CSR, 0x340, 7, STUCK_AT_1))
        result = machine.run(max_instructions=100)
        assert result.exit_code == 128
