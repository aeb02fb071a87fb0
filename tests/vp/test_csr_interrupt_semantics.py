"""Privileged-architecture compliance corners: CSR access suppression and
interrupt priority."""

import pytest

from repro.asm import assemble
from repro.coverage.access import access_of
from repro.fuzz import words_from_program
from repro.isa import RV32IMC_ZICSR, Decoder
from repro.isa import csr as csrdef
from repro.vp import Machine, MachineConfig

EXIT = "\n    li a7, 93\n    ecall\n"


def csr_access(source):
    """What the program's one CSR instruction accesses when it retires,
    as the coverage collector derives it from the encoding."""
    decoder = Decoder(RV32IMC_ZICSR)
    program = assemble(source, isa=RV32IMC_ZICSR)
    (decoded,) = [d for d in map(decoder.decode,
                                 words_from_program(program, RV32IMC_ZICSR))
                  if d.spec.module == "Zicsr"]
    return access_of(decoded)[0]


class TestCsrAccessSuppression:
    """The Zicsr spec: csrrw with rd=x0 performs no read; csrrs/csrrc with
    rs1=x0 perform no write."""

    def test_csrw_does_not_read(self):
        access = csr_access("_start:\n    csrw mscratch, a0" + EXIT)
        assert csrdef.MSCRATCH in access.csr_writes
        assert csrdef.MSCRATCH not in access.csr_reads

    def test_csrr_does_not_write(self):
        access = csr_access("_start:\n    csrr a0, mscratch" + EXIT)
        assert csrdef.MSCRATCH in access.csr_reads
        assert csrdef.MSCRATCH not in access.csr_writes

    def test_csrrs_with_nonzero_rs1_reads_and_writes(self):
        access = csr_access("""
        _start:
            li a1, 4
            csrrs a0, mscratch, a1
        """ + EXIT)
        assert csrdef.MSCRATCH in access.csr_reads
        assert csrdef.MSCRATCH in access.csr_writes

    def test_csrrsi_zero_imm_does_not_write(self):
        access = csr_access("_start:\n    csrrsi a0, mscratch, 0" + EXIT)
        assert csrdef.MSCRATCH not in access.csr_writes

    def test_csrrci_zero_imm_does_not_write(self):
        access = csr_access("_start:\n    csrrci a0, mscratch, 0" + EXIT)
        assert csrdef.MSCRATCH not in access.csr_writes

    def test_csrrw_write_to_readonly_traps_even_with_rd_x0(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble("_start:\n    csrw mhartid, a0" + EXIT,
                              isa=RV32IMC_ZICSR))
        result = machine.run(max_instructions=100)
        assert result.stop_reason == "unhandled_trap"
        assert result.trap_cause == csrdef.CAUSE_ILLEGAL_INSTRUCTION

    def test_csrrs_read_of_readonly_is_legal(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble("""
        _start:
            csrr a0, mhartid
        """ + EXIT, isa=RV32IMC_ZICSR))
        result = machine.run(max_instructions=100)
        assert result.stop_reason == "exit"
        assert result.exit_code == 0  # hart 0


class TestInterruptPriority:
    """MEI > MSI > MTI when several interrupts are pending at once."""

    PROGRAM = """
    _start:
        la t0, handler
        csrw mtvec, t0
        # Make software AND timer interrupts pending.
        li t0, 0x02000000
        li t1, 1
        sw t1, 0(t0)           # msip = 1
        li t0, 0x02004000
        sw zero, 0(t0)         # mtimecmp = 0 -> timer pending
        sw zero, 4(t0)
        li t0, 0x888           # MSIE | MTIE | MEIE
        csrw mie, t0
        csrsi mstatus, 8
        nop
        j fail
    fail:
        li a0, 1
        li a7, 93
        ecall
    .align 2
    handler:
        csrr a0, mcause
        li a7, 93
        ecall
    """

    def test_software_beats_timer(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble(self.PROGRAM, isa=RV32IMC_ZICSR))
        result = machine.run(max_instructions=10_000)
        assert result.exit_code == csrdef.CAUSE_MACHINE_SOFTWARE_INT

    def test_external_beats_software(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        source = self.PROGRAM.replace(
            "csrsi mstatus, 8",
            # Enable UART RX interrupt too, with data waiting.
            "li t0, 0x10000000\n        li t1, 1\n"
            "        sw t1, 12(t0)\n        csrsi mstatus, 8")
        machine.load(assemble(source, isa=RV32IMC_ZICSR))
        machine.uart.push_rx(b"x")
        result = machine.run(max_instructions=10_000)
        assert result.exit_code == csrdef.CAUSE_MACHINE_EXTERNAL_INT

    def test_mip_reflects_device_state(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble("""
        _start:
            li t0, 0x02000000
            li t1, 1
            sw t1, 0(t0)       # msip = 1
            csrr a0, mip
        """ + EXIT, isa=RV32IMC_ZICSR))
        result = machine.run(max_instructions=100)
        assert result.exit_code & csrdef.MIE_MSIE

    def test_trap_entry_saves_and_masks_mie(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble("""
        _start:
            la t0, handler
            csrw mtvec, t0
            csrsi mstatus, 8
            ebreak
        .align 2
        handler:
            csrr a0, mstatus
        """ + EXIT, isa=RV32IMC_ZICSR))
        result = machine.run(max_instructions=100)
        status = result.exit_code
        assert not status & csrdef.MSTATUS_MIE   # masked in the handler
        assert status & csrdef.MSTATUS_MPIE      # previous MIE preserved
