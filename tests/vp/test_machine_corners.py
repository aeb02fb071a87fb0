"""Machine, plugin-table, and CPU corner-case tests."""

import time

import pytest

from repro.asm import Program, assemble
from repro.isa import RV32IMC_ZICSR
from repro.isa import csr as csrdef
from repro.vp import (
    BusError,
    Machine,
    MachineConfig,
    Plugin,
    RAM_BASE,
)
from repro.vp.cpu import LIVELOCK_LIMIT, STOP_LIVELOCK
from repro.vp.machine import DEFAULT_RAM_SIZE
from repro.vp.plugins import HookTable

EXIT = "\n    li a7, 93\n    ecall\n"


class TestLoader:
    def test_load_blob_default_entry(self):
        machine = Machine()
        machine.load_blob(b"\x13\x00\x00\x00")
        assert machine.cpu.pc == RAM_BASE

    def test_load_blob_custom_entry(self):
        machine = Machine()
        machine.load_blob(b"\x13\x00\x00\x00" * 4, entry=RAM_BASE + 8)
        assert machine.cpu.pc == RAM_BASE + 8

    def test_load_outside_ram_fails(self):
        machine = Machine()
        program = Program(segments=[(0x1000, b"\x13\x00\x00\x00")],
                          entry=0x1000)
        with pytest.raises(BusError):
            machine.load(program)

    def test_load_sets_stack_pointer(self):
        machine = Machine()
        machine.load(assemble("_start: nop" + EXIT, isa=RV32IMC_ZICSR))
        sp = machine.cpu.regs.raw_read(2)
        assert sp == RAM_BASE + machine.config.ram_size - 16

    def test_reload_resets_counters(self):
        machine = Machine()
        program = assemble("_start: nop" + EXIT, isa=RV32IMC_ZICSR)
        machine.load(program)
        machine.run(max_instructions=100)
        machine.load(program)
        assert machine.cpu.csrs.instret == 0
        assert machine.cpu.csrs.cycle == 0


class TestLivelockDetection:
    def test_trap_storm_stops_with_livelock(self):
        # mtvec pointing at an illegal word: every trap re-traps without
        # retiring anything.
        machine = Machine()
        machine.load(assemble("""
        _start:
            la t0, handler
            csrw mtvec, t0
            .word 0xFFFFFFFF
        .align 2
        handler:
            .word 0xFFFFFFFF
        """, isa=RV32IMC_ZICSR))
        result = machine.run(max_instructions=1_000_000)
        assert result.stop_reason == STOP_LIVELOCK
        assert result.trap_cause == csrdef.CAUSE_ILLEGAL_INSTRUCTION

    def test_livelock_limit_is_bounded(self):
        assert LIVELOCK_LIMIT <= 1000  # detection must be prompt


class TestHookTable:
    class _Full(Plugin):
        def on_insn_exec(self, cpu, decoded, pc):
            pass

        def on_mem_access(self, cpu, addr, width, value, is_store):
            pass

    def test_only_overridden_hooks_collected(self):
        table = HookTable()
        table.register(self._Full())
        assert len(table.insn_exec) == 1
        assert len(table.mem_access) == 1
        assert table.block_exec == []
        assert table.trap == []

    def test_unregister_removes_all_hooks(self):
        table = HookTable()
        plugin = self._Full()
        table.register(plugin)
        table.unregister(plugin)
        assert table.insn_exec == []
        assert table.mem_access == []
        assert table.plugins == []

    def test_unregister_unknown_plugin_raises(self):
        with pytest.raises(ValueError, match="not registered"):
            HookTable().unregister(self._Full())

    def test_base_plugin_registers_nothing(self):
        table = HookTable()
        table.register(Plugin())
        assert not any([table.insn_exec, table.mem_access,
                        table.block_exec, table.block_translate,
                        table.trap, table.exit])

    def test_multiple_plugins_ordered(self):
        calls = []

        class A(Plugin):
            def on_insn_exec(self, cpu, decoded, pc):
                calls.append("a")

        class B(Plugin):
            def on_insn_exec(self, cpu, decoded, pc):
                calls.append("b")

        machine = Machine()
        machine.add_plugin(A())
        machine.add_plugin(B())
        machine.load(assemble("_start: nop" + EXIT, isa=RV32IMC_ZICSR))
        machine.run(max_instructions=1)
        assert calls[:2] == ["a", "b"]


class TestCampaignTargetTable:
    def test_target_table_renders_all_targets(self):
        from repro.faultsim import (Fault, FaultCampaign, STUCK_AT_1,
                                    TARGET_CODE, TARGET_GPR)

        program = assemble("_start:\n    li a0, 0" + EXIT,
                           isa=RV32IMC_ZICSR)
        campaign = FaultCampaign(program, isa=RV32IMC_ZICSR)
        faults = [
            Fault(TARGET_GPR, 10, 3, STUCK_AT_1),
            Fault(TARGET_GPR, 25, 3, STUCK_AT_1),
            Fault(TARGET_CODE, RAM_BASE + 1, 2, STUCK_AT_1),
        ]
        result = campaign.run(faults)
        table = result.target_table()
        assert "gpr" in table and "code" in table
        breakdown = result.breakdown_by_target()
        assert sum(sum(row.values()) for row in breakdown.values()) == 3


class TestAssemblerCorners:
    def test_csr_by_numeric_address(self):
        program = assemble("_start: csrrw a0, 0x340, a1" + EXIT,
                           isa=RV32IMC_ZICSR)
        machine = Machine()
        machine.load(program)
        machine.cpu.regs.raw_write(11, 77)
        machine.run(max_instructions=10)
        assert machine.cpu.csrs.raw_read(0x340) == 77

    def test_balign_directive(self):
        program = assemble(".data\n.byte 1\n.balign 8\nv: .word 2",
                           isa=RV32IMC_ZICSR)
        assert program.symbols["v"] % 8 == 0

    def test_stdin_style_blank_program_rejected_cleanly(self):
        from repro.asm import AsmError

        program = assemble("", isa=RV32IMC_ZICSR)
        assert program.segments == []
        with pytest.raises(ValueError):
            _ = program.text_segment


class _MemHook(Plugin):
    name = "mem-hook"

    def on_mem_access(self, cpu, addr, width, value, is_store):
        pass


class TestSemihostingWrite:
    """The write ecall copies the part of its buffer inside RAM in one
    slice; results, UART bytes and counters match the per-byte path
    (which any memory hook forces)."""

    HUGE_WRITE = """
    _start:
        li a0, 1
        li a1, 0x80000000
        li a2, 0x7fffffff
        li a7, 64
    write:
        ecall
    """ + EXIT

    MESSAGE = """
    _start:
        la t0, handler
        csrw mtvec, t0
        li a0, 1
        la a1, msg
        li a2, 5
        li a7, 64
        ecall
        mv s0, a0
        li a0, 1
        la a1, msg
        li a2, {length}
        li a7, 64
        ecall
        li a0, 0
        li a7, 93
        ecall
    handler:
        csrr a0, mcause
        li a7, 93
        ecall
    .data
    msg: .ascii "hello"
    """

    @staticmethod
    def _run(source, per_byte=False, ram_size=64 * 1024,
             max_instructions=100_000, setup=None):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                        ram_size=ram_size))
        program = assemble(source, isa=RV32IMC_ZICSR)
        machine.load(program)
        if setup is not None:
            setup(machine, program)
        if per_byte:
            machine.add_plugin(_MemHook())
        result = machine.run(max_instructions=max_instructions)
        return (result, bytes(machine.uart.tx_log), machine.cpu.pc,
                machine.cpu.regs.snapshot(), machine.mem_stats())

    def test_huge_length_matches_per_byte_path(self):
        fast = self._run(self.HUGE_WRITE, max_instructions=100)
        assert fast == self._run(self.HUGE_WRITE, per_byte=True,
                                 max_instructions=100)
        result, tx, pc, _regs, mem = fast
        # Every RAM byte from the base went out, then the load past the
        # end of RAM trapped on the ecall.
        assert len(tx) == 64 * 1024
        assert result.stop_reason == "unhandled_trap"
        assert result.trap_cause == csrdef.CAUSE_LOAD_ACCESS
        program = assemble(self.HUGE_WRITE, isa=RV32IMC_ZICSR)
        assert result.trap_pc == pc == program.symbols["write"]
        assert mem["fastpath_loads"] == 64 * 1024

    def test_huge_length_stays_fast_on_the_default_ram(self):
        start = time.perf_counter()
        result, tx, _pc, _regs, mem = self._run(
            self.HUGE_WRITE, ram_size=DEFAULT_RAM_SIZE, max_instructions=100)
        assert time.perf_counter() - start < 1.0
        assert result.instructions == 6
        assert result.trap_cause == csrdef.CAUSE_LOAD_ACCESS
        assert len(tx) == mem["fastpath_loads"] == DEFAULT_RAM_SIZE

    @pytest.mark.parametrize("length", [5, 0, 0x7fffffff])
    def test_writes_match_per_byte_path(self, length):
        source = self.MESSAGE.format(length=length)
        fast = self._run(source)
        assert fast == self._run(source, per_byte=True)
        result, tx = fast[0], fast[1]
        assert tx.startswith(b"hello" + b"hello"[:length])
        if length == 0x7fffffff:
            # The handler saw the load-access fault and exited with it.
            assert result.exit_code == csrdef.CAUSE_LOAD_ACCESS
        else:
            assert result.exit_code == 0
            assert fast[3][8] == 5  # a0 returned the first length

    def test_stuck_ram_bit_reaches_the_write_slice(self):
        """A RAM stuck bit lives in the buffer, so the one-slice copy
        sends the forced byte with no bus fallback."""
        from repro.faultsim import STUCK_AT_1, TARGET_MEMORY, Fault, inject

        def stick(machine, program):
            inject(machine, Fault(TARGET_MEMORY, program.symbols["msg"], 0,
                                  STUCK_AT_1))

        run = self._run(self.MESSAGE.format(length=5), setup=stick)
        result, tx, mem = run[0], run[1], run[4]
        assert result.exit_code == 0
        assert tx == b"iello" * 2
        assert mem["fastpath_fallback_loads"] == 0
        assert mem["fastpath_loads"] >= 10
