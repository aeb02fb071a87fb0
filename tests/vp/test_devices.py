"""Peripheral device tests: UART, CLINT (and its time in a machine), exit
device."""

import pytest

from repro.asm import assemble
from repro.faultsim.faults import Fault, STUCK_AT_1, TARGET_CSR
from repro.faultsim.injector import inject, remove_fault
from repro.isa import RV32IMC_ZICSR
from repro.isa import csr as csrdef
from repro.vp import BusError, Machine, MachineConfig, MachineExit
from repro.vp.devices import Clint, ExitDevice, Uart
from repro.vp.devices.uart import RXDATA, STATUS, STATUS_RX_AVAIL, STATUS_TX_READY, TXDATA
from repro.vp.devices import clint as clint_regs


class TestUart:
    def test_tx_accumulates(self):
        uart = Uart()
        for ch in b"hi":
            uart.store(TXDATA, 1, ch)
        assert uart.output == "hi"
        assert uart.tx_log == b"hi"

    def test_tx_masks_to_byte(self):
        uart = Uart()
        uart.store(TXDATA, 4, 0x141)
        assert uart.tx_log == b"\x41"

    def test_rx_queue(self):
        uart = Uart()
        uart.push_rx(b"ab")
        assert uart.load(RXDATA, 4) == ord("a")
        assert uart.load(RXDATA, 4) == ord("b")
        assert uart.load(RXDATA, 4) == 0xFFFFFFFF  # empty

    def test_status_bits(self):
        uart = Uart()
        assert uart.load(STATUS, 4) == STATUS_TX_READY
        uart.push_rx(b"x")
        assert uart.load(STATUS, 4) == STATUS_TX_READY | STATUS_RX_AVAIL

    def test_unknown_register_raises(self):
        with pytest.raises(BusError):
            Uart().load(0x40, 4)
        with pytest.raises(BusError):
            Uart().store(0x40, 4, 0)

    def test_writes_to_readonly_ignored(self):
        uart = Uart()
        uart.store(STATUS, 4, 0xFF)
        assert uart.load(STATUS, 4) == STATUS_TX_READY

    def test_access_trace(self):
        uart = Uart(trace=True)
        uart.store(TXDATA, 1, 0x41)
        uart.load(STATUS, 4)
        assert uart.access_log[0] == ("store", TXDATA, 0x41)
        assert uart.access_log[1][0] == "load"

    def test_trace_disabled_by_default(self):
        uart = Uart()
        uart.store(TXDATA, 1, 0x41)
        assert not uart.access_log


class _Clock:
    """A settable cycle count to drive a standalone CLINT."""

    def __init__(self):
        self.cycle = 0

    def __call__(self):
        return self.cycle


class TestClint:
    def test_mtime_follows_the_clock(self):
        clock = _Clock()
        clint = Clint(clock)
        clock.cycle = 10
        assert clint.mtime == 10
        clock.cycle = 15
        assert clint.mtime == 15

    def test_timer_pending_when_expired(self):
        clock = _Clock()
        clint = Clint(clock)
        clint.mtimecmp = 10
        clock.cycle = 9
        assert clint.pending_interrupts() == 0
        clock.cycle = 10
        assert clint.pending_interrupts() & csrdef.MIE_MTIE

    def test_software_interrupt(self):
        clint = Clint()
        clint.store(clint_regs.MSIP, 4, 1)
        assert clint.pending_interrupts() & csrdef.MIE_MSIE
        clint.store(clint_regs.MSIP, 4, 0)
        assert clint.pending_interrupts() == 0

    def test_msip_only_bit0(self):
        clint = Clint()
        clint.store(clint_regs.MSIP, 4, 0xFE)
        assert clint.load(clint_regs.MSIP, 4) == 0

    def test_mtimecmp_64bit_access(self):
        clint = Clint()
        clint.store(clint_regs.MTIMECMP_LO, 4, 0x1234)
        clint.store(clint_regs.MTIMECMP_HI, 4, 0x1)
        assert clint.mtimecmp == 0x1_0000_1234
        assert clint.load(clint_regs.MTIMECMP_LO, 4) == 0x1234
        assert clint.load(clint_regs.MTIMECMP_HI, 4) == 1

    def test_mtime_readable_and_writable(self):
        clint = Clint()
        clint.store(clint_regs.MTIME_LO, 4, 100)
        assert clint.load(clint_regs.MTIME_LO, 4) == 100
        clint.store(clint_regs.MTIME_HI, 4, 2)
        assert clint.mtime == (2 << 32) | 100

    def test_mtime_write_sets_the_offset(self):
        clock = _Clock()
        clint = Clint(clock)
        clock.cycle = 40
        clint.store(clint_regs.MTIME_LO, 4, 100)
        assert clint.mtime == 100
        clock.cycle = 45
        assert clint.mtime == 105
        clint.mtime = 7
        clock.cycle = 50
        assert clint.mtime == 12

    def test_rebase_keeps_mtime(self):
        clock = _Clock()
        clint = Clint(clock)
        clock.cycle = 30
        clint.rebase(-30)
        clock.cycle = 0
        assert clint.mtime == 30

    def test_cycles_until_timer(self):
        clock = _Clock()
        clint = Clint(clock)
        clint.mtimecmp = 50
        clock.cycle = 20
        assert clint.cycles_until_timer() == 30
        clock.cycle = 60
        assert clint.cycles_until_timer() is None  # already pending

    def test_no_interrupt_by_default(self):
        # mtimecmp resets to the maximum: a fresh CLINT never fires.
        clock = _Clock()
        clint = Clint(clock)
        clock.cycle = 1_000_000
        assert clint.pending_interrupts() == 0
        assert clint.cycles_until_timer() is None

    def test_unknown_register_raises(self):
        with pytest.raises(BusError):
            Clint().load(0x8, 4)


def _machine(source):
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
    machine.load(assemble(source, isa=RV32IMC_ZICSR))
    return machine


#: Spins for a while, then exits.
_SPIN = """
_start:
    li t0, 50
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
"""


class TestClintTimeInMachine:
    """``mtime`` is the CPU's cycle count plus an offset."""

    def test_mtime_is_the_cycle_count(self):
        machine = _machine(_SPIN)
        machine.run(max_instructions=20)
        assert machine.clint.mtime == machine.cpu.csrs.cycle > 0

    def test_mtime_write_keeps_counting(self):
        machine = _machine(_SPIN)
        machine.run(max_instructions=20)
        machine.clint.mtime = 1000
        before = machine.cpu.csrs.cycle
        machine.run()
        assert machine.clint.mtime == 1000 + machine.cpu.csrs.cycle - before

    def test_mcycle_write_is_not_time(self):
        program = """
_start:
    li t0, 7
    csrw {csr}, t0
    li a0, 0
    li a7, 93
    ecall
"""
        plain = _machine(program.format(csr="mscratch"))
        plain.run()
        moved = _machine(program.format(csr="mcycle"))
        moved.run()
        assert moved.clint.mtime == plain.clint.mtime == plain.cpu.csrs.cycle
        # The write sees the count at its block's start (0), so the
        # counter runs 7 ahead of time from then on.
        assert moved.cpu.csrs.cycle == plain.cpu.csrs.cycle + 7
        mtime = moved.clint.mtime
        moved.cpu.csrs.write(csrdef.MCYCLEH, 1)
        assert moved.cpu.csrs.cycle >> 32 == 1
        assert moved.clint.mtime == mtime

    def test_reset_carries_mtime_over(self):
        machine = _machine(_SPIN)
        machine.run()
        mtime = machine.clint.mtime
        machine.reset()
        assert machine.cpu.csrs.cycle == 0
        assert machine.clint.mtime == mtime
        machine.run(max_instructions=10)
        assert machine.clint.mtime == mtime + machine.cpu.csrs.cycle

    def test_restore_sets_the_offset_after_the_csrs(self):
        machine = _machine(_SPIN)
        machine.run(max_instructions=10)
        machine.clint.mtime = 500
        snap = machine.snapshot()
        cycle = machine.cpu.csrs.cycle
        machine.run()
        machine.restore(snap)
        assert machine.cpu.csrs.cycle == cycle
        assert machine.clint.mtime == 500
        machine.run(max_instructions=10)
        assert machine.clint.mtime == 500 + machine.cpu.csrs.cycle - cycle

    def test_stuck_csr_fault_keeps_the_wiring(self):
        machine = _machine(_SPIN)
        machine.run(max_instructions=10)
        files = (machine.cpu.regs, machine.cpu.fregs, machine.cpu.csrs)
        mtime = machine.clint.mtime
        inject(machine, Fault(TARGET_CSR, csrdef.MSCRATCH, 0, STUCK_AT_1))
        assert machine.cpu.csrs is not files[2]
        assert machine.clint.mtime == mtime
        machine.cpu.csrs.write(csrdef.MCYCLE, 0)  # rebases the CLINT
        assert machine.clint.mtime == mtime
        machine.run(max_instructions=10)
        mtime = machine.clint.mtime
        assert mtime > machine.cpu.csrs.cycle
        remove_fault(machine, files)
        assert machine.cpu.csrs is files[2]
        assert machine.clint.mtime == mtime


class TestExitDevice:
    def test_odd_write_exits(self):
        dev = ExitDevice()
        with pytest.raises(MachineExit) as info:
            dev.store(0, 4, (42 << 1) | 1)
        assert info.value.code == 42

    def test_pass_code(self):
        with pytest.raises(MachineExit) as info:
            ExitDevice().store(0, 4, 1)
        assert info.value.code == 0

    def test_even_write_does_not_exit(self):
        dev = ExitDevice()
        dev.store(0, 4, 4)
        assert dev.load(0, 4) == 4

    def test_bad_offset(self):
        with pytest.raises(BusError):
            ExitDevice().store(4, 4, 1)
