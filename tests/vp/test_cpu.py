"""CPU execution engine tests: translation blocks, traps, interrupts."""

import pytest

from repro.asm import assemble
from repro.isa import RV32IM, RV32IMC_ZICSR
from repro.isa import csr as csrdef
from repro.vp import (
    Machine,
    MachineConfig,
    Plugin,
    RAM_BASE,
    STOP_MAX_INSNS,
    STOP_UNHANDLED_TRAP,
    STOP_WFI,
)

from ..conftest import run_asm


EXIT = """
    li a7, 93
    ecall
"""


class TestBasicExecution:
    def test_exit_code_from_a0(self):
        _machine, result = run_asm("_start: li a0, 7" + EXIT)
        assert result.stop_reason == "exit"
        assert result.exit_code == 7

    def test_loop_sum(self):
        machine, result = run_asm("""
        _start:
            li a0, 0
            li t0, 1
        loop:
            add a0, a0, t0
            addi t0, t0, 1
            li t1, 101
            blt t0, t1, loop
        """ + EXIT)
        assert result.exit_code == 5050

    def test_instruction_budget(self):
        _machine, result = run_asm("_start: j _start", max_instructions=100)
        assert result.stop_reason == STOP_MAX_INSNS
        assert result.instructions >= 100

    def test_instret_counts_instructions(self):
        machine, result = run_asm("_start: nop\nnop\nnop" + EXIT)
        # 3 nops + li + ecall (terminated inside ecall handler).
        assert machine.cpu.csrs.instret == result.instructions

    def test_cycles_exceed_instructions(self):
        _machine, result = run_asm("""
        _start:
            li a0, 100
            li a1, 7
            div a2, a0, a1
        """ + EXIT)
        assert result.cycles > result.instructions

    def test_uart_hello(self):
        machine, _result = run_asm("""
        _start:
            li t0, 0x10000000
            li t1, 'H'
            sb t1, 0(t0)
            li t1, 'i'
            sb t1, 0(t0)
        """ + EXIT)
        assert machine.uart.output == "Hi"

    def test_semihosting_write(self):
        machine, _result = run_asm("""
        _start:
            la a1, msg
            li a2, 5
            li a0, 1
            li a7, 64
            ecall
        """ + EXIT + """
        .data
        msg: .ascii "hello"
        """)
        assert machine.uart.output == "hello"

    def test_exit_device(self):
        _machine, result = run_asm("""
        _start:
            li t0, 0x00100000
            li t1, 85          # (42 << 1) | 1
            sw t1, 0(t0)
        """)
        assert result.exit_code == 42


class TestTranslationBlocks:
    def test_blocks_cached_on_loop(self):
        machine, _ = run_asm("""
        _start:
            li t0, 0
        loop:
            addi t0, t0, 1
            li t1, 50
            blt t0, t1, loop
        """ + EXIT)
        assert machine.cpu.tb_hits > 40
        assert machine.cpu.tb_misses <= 5

    def test_cache_disabled_never_hits(self):
        machine, _ = run_asm("""
        _start:
            li t0, 0
        loop:
            addi t0, t0, 1
            li t1, 10
            blt t0, t1, loop
        """ + EXIT, block_cache_enabled=False)
        assert machine.cpu.tb_hits == 0
        assert machine.cpu.tb_misses > 10

    def test_block_ends_at_branch(self):
        machine, _ = run_asm("_start: nop\nnop\nbeq zero, zero, done\n"
                             "nop\ndone:" + EXIT)
        blocks = {b.start_pc: b for b in machine.cpu._tb_cache.values()}
        first = blocks[RAM_BASE]
        assert [d.spec.name for d in first.insns] == ["addi", "addi", "beq"]

    def test_fence_i_flushes_cache(self):
        machine, _ = run_asm("_start: nop\nfence.i\nnop" + EXIT)
        # After fence.i the earlier block was flushed; at minimum the cache
        # holds only blocks translated afterwards.
        for block in machine.cpu._tb_cache.values():
            assert block.start_pc > RAM_BASE

    def test_max_block_length(self):
        source = "_start:\n" + "nop\n" * 100 + EXIT
        machine, _ = run_asm(source)
        for block in machine.cpu._tb_cache.values():
            assert len(block) <= 32

    def test_cache_cap_evicts_by_clearing(self):
        # 100 nops split into >3 blocks; a 2-block cap forces clear-on-full
        # eviction, so the cache never exceeds the cap but the program
        # still runs to completion.
        source = "_start:\n" + "nop\n" * 100 + EXIT
        machine, result = run_asm(source, tb_cache_max_blocks=2)
        assert result.stop_reason == "exit"
        assert len(machine.cpu._tb_cache) <= 2
        assert machine.cpu.tb_flushes >= 1

    def test_cache_cap_fires_flush_hooks(self):
        flushes = []

        class FlushSpy(Plugin):
            def on_tb_flush(self, cpu):
                flushes.append(len(cpu._tb_cache))

        source = "_start:\n" + "nop\n" * 100 + EXIT
        program = assemble(source, isa=RV32IMC_ZICSR)
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                        tb_cache_max_blocks=1))
        machine.add_plugin(FlushSpy())
        machine.load(program)
        machine.run(max_instructions=1_000)
        assert flushes, "eviction must fire tb_flush hooks"

    def test_cache_cap_default_and_validation(self):
        assert MachineConfig().tb_cache_max_blocks == 4096
        with pytest.raises(ValueError, match="max_blocks"):
            run_asm("_start: nop" + EXIT, tb_cache_max_blocks=0)

    def test_uncapped_cache_unbounded(self):
        source = "_start:\n" + "nop\n" * 100 + EXIT
        machine, _ = run_asm(source, tb_cache_max_blocks=None)
        assert machine.cpu.max_blocks is None
        assert len(machine.cpu._tb_cache) >= 3

    def test_direct_jump_blocks_chain(self):
        # A loop whose body is split by an unconditional jump exercises
        # block chaining; results must match plain cached execution.
        source = """
        _start:
            li a0, 0
            li t0, 0
        loop:
            addi t0, t0, 1
            j body
        body:
            add a0, a0, t0
            li t1, 20
            blt t0, t1, loop
        """ + EXIT
        machine, result = run_asm(source)
        assert result.exit_code == sum(range(1, 21))
        assert machine.cpu.tb_hits > 20


class TestTraps:
    def test_unhandled_illegal_instruction_stops(self):
        _machine, result = run_asm("""
        _start:
            .word 0xFFFFFFFF
        """)
        assert result.stop_reason == STOP_UNHANDLED_TRAP
        assert result.trap_cause == csrdef.CAUSE_ILLEGAL_INSTRUCTION
        assert result.trap_pc == RAM_BASE

    def test_handled_illegal_instruction(self):
        _machine, result = run_asm("""
        _start:
            la t0, handler
            csrw mtvec, t0
            .word 0xFFFFFFFF
            li a0, 1        # skipped: handler exits
        """ + EXIT + """
        handler:
            li a0, 99
            li a7, 93
            ecall
        """)
        assert result.exit_code == 99

    def test_mepc_and_mcause_set(self):
        machine, _ = run_asm("""
        _start:
            la t0, handler
            csrw mtvec, t0
        bad:
            .word 0xFFFFFFFF
        handler:
            csrr a0, mepc
            li a7, 93
            ecall
        """)
        assert machine.cpu.regs.raw_read(10) == \
            machine.cpu.csrs.raw_read(csrdef.MEPC)
        assert machine.cpu.csrs.raw_read(csrdef.MCAUSE) == \
            csrdef.CAUSE_ILLEGAL_INSTRUCTION

    def test_mret_resumes_after_fixup(self):
        _machine, result = run_asm("""
        _start:
            la t0, handler
            csrw mtvec, t0
            li a0, 5
            ebreak
            addi a0, a0, 1
        """ + EXIT + """
        handler:
            csrr t1, mepc
            addi t1, t1, 4   # skip the 4-byte ebreak
            csrw mepc, t1
            mret
        """)
        assert result.exit_code == 6

    def test_load_access_fault(self):
        _machine, result = run_asm("""
        _start:
            li t0, 0x40000000   # unmapped
            lw t1, 0(t0)
        """)
        assert result.stop_reason == STOP_UNHANDLED_TRAP
        assert result.trap_cause == csrdef.CAUSE_LOAD_ACCESS

    def test_store_access_fault(self):
        _machine, result = run_asm("""
        _start:
            li t0, 0x40000000
            sw t0, 0(t0)
        """)
        assert result.trap_cause == csrdef.CAUSE_STORE_ACCESS

    def test_misaligned_load(self):
        _machine, result = run_asm("""
        _start:
            li t0, 0x80000001
            lw t1, 0(t0)
        """)
        assert result.trap_cause == csrdef.CAUSE_MISALIGNED_LOAD

    def test_misaligned_fetch_via_jalr(self):
        # jalr clears bit 0, so use an odd target via a branch to pc+2 with
        # no compressed support -> misaligned fetch on 2-byte boundary.
        _machine, result = run_asm("""
        _start:
            li t0, 0x80000102
            jr t0
        """, isa=RV32IM)
        assert result.trap_cause == csrdef.CAUSE_MISALIGNED_FETCH

    def test_ecall_without_semihosting_traps(self):
        # a7 is 0 at reset, which is no semihosting call: the machine's
        # ecall handler takes the architectural trap.
        _machine, result = run_asm("_start: ecall")
        assert result.stop_reason == STOP_UNHANDLED_TRAP
        assert result.trap_cause == csrdef.CAUSE_ECALL_M

    def test_mtval_holds_bad_address(self):
        machine, _ = run_asm("""
        _start:
            la t0, handler
            csrw mtvec, t0
            li t1, 0x40000004
            lw t2, 0(t1)
        handler:
            csrr a0, mtval
            li a7, 93
            ecall
        """)
        assert machine.cpu.regs.raw_read(10) == 0x40000004


class TestInterrupts:
    TIMER_PROGRAM = """
    _start:
        la t0, handler
        csrw mtvec, t0
        # arm mtimecmp = mtime + 100
        li t0, 0x0200BFF8
        lw t1, 0(t0)
        addi t1, t1, 100
        li t0, 0x02004000
        sw t1, 0(t0)
        li t2, 0
        sw t2, 4(t0)
        # enable timer interrupt
        li t0, 0x80        # MTIE
        csrw mie, t0
        csrsi mstatus, 8   # MIE
    spin:
        j spin
    handler:
        csrr a0, mcause
        li a7, 93
        ecall
    """

    def test_timer_interrupt_taken(self):
        machine, result = run_asm(self.TIMER_PROGRAM, max_instructions=10_000)
        assert result.stop_reason == "exit"
        assert machine.cpu.regs.raw_read(10) == \
            csrdef.CAUSE_MACHINE_TIMER_INT & 0xFFFFFFFF

    def test_interrupt_not_taken_when_mie_clear(self):
        source = self.TIMER_PROGRAM.replace("csrsi mstatus, 8", "nop")
        _machine, result = run_asm(source, max_instructions=5_000)
        assert result.stop_reason == STOP_MAX_INSNS

    def test_wfi_waits_for_timer(self):
        _machine, result = run_asm("""
        _start:
            la t0, handler
            csrw mtvec, t0
            li t0, 0x02004000
            li t1, 5000
            sw t1, 0(t0)
            sw zero, 4(t0)
            li t0, 0x80
            csrw mie, t0
            csrsi mstatus, 8
            wfi
            j fail
        fail:
            li a0, 1
            li a7, 93
            ecall
        handler:
            li a0, 42
            li a7, 93
            ecall
        """, max_instructions=10_000)
        assert result.exit_code == 42
        assert result.cycles >= 5000  # time was fast-forwarded

    def test_wfi_without_event_halts(self):
        _machine, result = run_asm("_start: wfi", max_instructions=100)
        assert result.stop_reason == STOP_WFI

    def test_software_interrupt_via_msip(self):
        _machine, result = run_asm("""
        _start:
            la t0, handler
            csrw mtvec, t0
            li t0, 8           # MSIE
            csrw mie, t0
            csrsi mstatus, 8
            li t0, 0x02000000
            li t1, 1
            sw t1, 0(t0)
            j fail
        fail:
            li a0, 1
            li a7, 93
            ecall
        handler:
            li a0, 77
            li a7, 93
            ecall
        """, max_instructions=10_000)
        assert result.exit_code == 77


class TestPlugins:
    def test_insn_hook_sees_every_instruction(self):
        counted = []

        class Counter(Plugin):
            def on_insn_exec(self, cpu, decoded, pc):
                counted.append(decoded.spec.name)

        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        from repro.asm import assemble
        machine.load(assemble("_start: nop\nnop" + EXIT))
        machine.add_plugin(Counter())
        result = machine.run()
        assert len(counted) == result.instructions + 1  # ecall exits early
        assert counted[:2] == ["addi", "addi"]

    def test_block_hooks(self):
        translated, executed = [], []

        class Blocks(Plugin):
            def on_block_translate(self, cpu, block):
                translated.append(block.start_pc)

            def on_block_exec(self, cpu, block):
                executed.append(block.start_pc)

        machine = Machine()
        from repro.asm import assemble
        machine.load(assemble("""
        _start:
            li t0, 0
        loop:
            addi t0, t0, 1
            li t1, 5
            blt t0, t1, loop
        """ + EXIT))
        machine.add_plugin(Blocks())
        machine.run()
        # The first pass through the loop body belongs to the entry block;
        # each taken back-branch re-executes the loop block, which was
        # translated exactly once.
        loop_pc = executed[1]
        assert executed.count(loop_pc) == 4
        assert translated.count(loop_pc) == 1

    def test_mem_hook(self):
        accesses = []

        class Mem(Plugin):
            def on_mem_access(self, cpu, addr, width, value, is_store):
                accesses.append((addr, width, value, is_store))

        machine = Machine()
        from repro.asm import assemble
        machine.load(assemble("""
        _start:
            li t0, 0x80001000
            li t1, 42
            sw t1, 0(t0)
            lw t2, 0(t0)
        """ + EXIT))
        machine.add_plugin(Mem())
        machine.run()
        assert (0x80001000, 4, 42, True) in accesses
        assert (0x80001000, 4, 42, False) in accesses

    def test_trap_and_exit_hooks(self):
        events = []

        class Events(Plugin):
            def on_trap(self, cpu, cause, pc):
                events.append(("trap", cause))

            def on_exit(self, code):
                events.append(("exit", code))

        machine = Machine()
        from repro.asm import assemble
        machine.load(assemble("""
        _start:
            la t0, handler
            csrw mtvec, t0
            ebreak
        handler:
            li a0, 3
            li a7, 93
            ecall
        """))
        machine.add_plugin(Events())
        machine.run()
        assert ("trap", csrdef.CAUSE_BREAKPOINT) in events
        assert ("exit", 3) in events

    def test_remove_plugin(self):
        count = []

        class Counter(Plugin):
            def on_insn_exec(self, cpu, decoded, pc):
                count.append(pc)

        machine = Machine()
        plugin = machine.add_plugin(Counter())
        machine.remove_plugin(plugin)
        from repro.asm import assemble
        machine.load(assemble("_start: nop" + EXIT))
        machine.run()
        assert not count
