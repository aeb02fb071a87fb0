"""Every way out of a loop that holds guest registers in Python locals.

Fused self-loops and traces load each register they touch into a local
once and keep the RAM fast-path access counters in locals, writing both
back wherever control leaves the generated function.  Each case below
runs one program as a single self-looping block (``fused``) and as a
loop a direct jump splits into two blocks (``trace``), on the
interpreter and on the compiled tier, and compares everything a way out
could get wrong: the run result, the raw GPRs, the CSR file, the memory
counters, the dirty pages, every block's ``exec_count`` and the GPRs a
trap hook sees at every trap.
"""

import re

import pytest

from repro.asm import assemble
from repro.faultsim import (STUCK_AT_0, STUCK_AT_1, TARGET_GPR,
                            TARGET_MEMORY, Fault, inject)
from repro.isa import RV32IMC_ZICSR
from repro.vp import Machine, MachineConfig, Plugin, StopRun
from repro.vp.jit import code_cache_stats

SHAPES = ("fused", "trace")
ITERS = 200
#: The iteration at which a case's one-off event happens.
K = 37


def loop_program(shape, body_a, body_b, prologue="", epilogue="",
                 handler="    mret"):
    """``ITERS`` iterations of ``body_a`` then ``body_b``: one
    self-looping block, or two blocks joined by a direct jump (a looped
    trace).  ``t0`` counts iterations; ``s0`` points at ``buf``."""
    join = "    j second\nsecond:\n" if shape == "trace" else ""
    return f"""
_start:
    la t0, handler
    csrw mtvec, t0
    la s0, buf
{prologue}
    li t0, 0
    li t1, {ITERS}
loop:
{body_a}
{join}{body_b}
    addi t0, t0, 1
    blt t0, t1, loop
{epilogue}
    li a0, 0
    li a7, 93
    ecall
.align 2
handler:
{handler}
.data
buf: .word 3, 5, 7, 11, 13, 17, 19, 23
"""


class TrapRecorder(Plugin):
    """Records the raw GPRs at every trap entry."""

    name = "trap-recorder"

    def __init__(self):
        self.seen = []

    def on_trap(self, cpu, cause, pc):
        self.seen.append((cause, pc, tuple(cpu.regs._regs)))


def observe(machine, result, recorder):
    cpu = machine.cpu
    csrs = cpu.csrs
    return (result, cpu.pc, tuple(cpu.regs._regs),
            tuple(sorted(csrs._regs.items())), csrs.instret, csrs.cycle,
            machine.mem_stats(), tuple(sorted(machine.ram.dirty_pages())),
            tuple(sorted((pc, block.exec_count)
                         for pc, block in cpu._tb_cache.items())),
            bytes(machine.uart.tx_log), tuple(recorder.seen))


def run_case(source, backend, split=None, faults=(), budget=200_000):
    """States after every run of ``source`` (runs of ``split``
    instructions, or one run), and the machine."""
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                    jit_threshold=1, jit_trace_threshold=1))
    program = assemble(source, isa=RV32IMC_ZICSR)
    machine.load(program)
    for fault in faults:
        inject(machine, fault)
    recorder = TrapRecorder()
    machine.add_plugin(recorder)
    states = []
    total = 0
    while total < budget:
        result = machine.run(max_instructions=split or budget)
        total += result.instructions
        states.append(observe(machine, result, recorder))
        if result.stop_reason != "max_insns" or not split:
            break
    return states, machine


def loop_functions(machine):
    """Generated fused-loop and trace functions of ``machine``."""
    fns = []
    for block in machine.cpu._tb_cache.values():
        if block.trace is not None:
            fns.append(block.trace)
        if (block.compiled is not None
                and "while True:" in block.compiled.__jit_source__):
            fns.append(block.compiled)
    return fns


def assert_parity(source, shape, split=None, faults=()):
    expected, _ = run_case(source, "interp", split, faults)
    states, machine = run_case(source, "compiled", split, faults)
    assert states == expected
    # The loop ran in the shape under test.
    blocks = machine.cpu._tb_cache.values()
    if shape == "trace":
        assert any(block.trace is not None for block in blocks)
    else:
        assert any(block.compiled is not None and block.trace is None
                   and "while True:" in block.compiled.__jit_source__
                   for block in blocks)
    return expected, machine


# -- (a) the bus slow path returns and the loop goes on ------------------

@pytest.mark.parametrize("shape", SHAPES)
def test_uart_store_every_iteration(shape):
    source = loop_program(
        shape,
        "    lw t2, 0(s0)\n    add a0, a0, t2\n    sb a0, 0(s1)",
        "    xor a1, a1, a0\n    sw a1, 4(s0)",
        prologue="    li s1, 0x10000000")
    states, _ = assert_parity(source, shape)
    mem = states[-1][6]
    assert mem["fastpath_fallback_stores"] == ITERS
    assert len(states[-1][9]) == ITERS


# -- (b) a misaligned load traps; the handler rewrites looped registers --

@pytest.mark.parametrize("shape", SHAPES)
def test_misaligned_load_trap_and_return(shape):
    source = loop_program(
        shape,
        "    add a0, a0, t0\n    lw t2, 0(s0)\n    add a1, a1, t2\n"
        "    sw a1, 8(s0)",
        f"    addi t5, t0, -{K}\n    seqz t5, t5\n    add s0, s0, t5",
        handler="    andi s0, s0, -4\n    addi a1, a1, 1000\n"
                "    addi a2, a2, 1\n    mret")
    states, _ = assert_parity(source, shape)
    traps = states[-1][10]
    assert [cause for cause, _pc, _regs in traps] == [4]
    assert traps[0][2][10] != 0  # the hook saw the loop's a0
    assert states[-1][2][12] == 1  # a2: the handler ran once


# -- (c) MachineExit from a device store in the middle of the loop -------

@pytest.mark.parametrize("shape", SHAPES)
def test_exit_device_store_mid_loop(shape):
    source = loop_program(
        shape,
        "    lw t2, 0(s0)\n    add a0, a0, t2\n"
        f"    addi t5, t0, -{K}\n    seqz t5, t5\n"
        "    andi t6, a0, 0x7f\n    slli t6, t6, 1\n    or t5, t5, t6\n"
        "    sw t5, 0(s2)\n    sw a0, 4(s0)\n    addi a1, a1, 7",
        "    xor a1, a1, a0",
        prologue="    li s2, 0x00100000")
    states, _ = assert_parity(source, shape)
    result = states[-1][0]
    assert result.stop_reason == "exit"
    assert result.exit_code == states[-1][2][10] & 0x7F
    assert states[-1][6]["fastpath_loads"] > 0


@pytest.mark.parametrize("shape", SHAPES)
def test_bus_fault_store_mid_loop(shape):
    """A store to the exit device's unmapped word raises an access fault
    at iteration K; the handler skips the store and returns."""
    source = loop_program(
        shape,
        "    lw t2, 0(s0)\n    add a0, a0, t2\n"
        f"    addi t5, t0, -{K}\n    seqz t5, t5\n    slli t5, t5, 2\n"
        "    add t6, s2, t5\n    sw zero, 0(t6)\n    addi a1, a1, 7",
        "    xor a1, a1, a0\n    sw a1, 4(s0)",
        prologue="    li s2, 0x00100000",
        handler="    csrr t4, mepc\n    addi t4, t4, 4\n    csrw mepc, t4\n"
                "    addi a1, a1, 1000\n    mret")
    states, _ = assert_parity(source, shape)
    assert [cause for cause, _pc, _regs in states[-1][10]] == [7]


# -- (d) a stuck-at fault on a register the loop reads and writes --------

@pytest.mark.parametrize("kind", [STUCK_AT_0, STUCK_AT_1])
@pytest.mark.parametrize("shape", SHAPES)
def test_stuck_register_read_and_written(shape, kind):
    source = loop_program(
        shape,
        "    add a0, a0, t0\n    xor a0, a0, t1\n    lw t2, 0(s0)",
        "    add a0, a0, t2\n    sw a0, 0(s0)")
    assert_parity(source, shape, faults=[Fault(TARGET_GPR, 10, 4, kind)])


# -- (e) stores to the page of a RAM stuck bit ----------------------------

@pytest.mark.parametrize("kind", [STUCK_AT_0, STUCK_AT_1])
@pytest.mark.parametrize("shape", SHAPES)
def test_stores_to_a_stuck_ram_page(shape, kind):
    source = loop_program(
        shape,
        "    add a0, a0, t0\n    sw a0, 4(s0)\n    lw t2, 4(s0)",
        "    add a1, a1, t2\n    sb a1, 12(s0)")
    buf = assemble(source, isa=RV32IMC_ZICSR).symbols["buf"]
    states, _ = assert_parity(
        source, shape, faults=[Fault(TARGET_MEMORY, buf + 5, 2, kind)])
    assert states[-1][7]  # dirty pages


# -- (f) budget and timer-interrupt stops ---------------------------------

TIMER = """    li s5, 0x02004000
    li s6, 0x0200BFF8
    lw t4, 0(s6)
    addi t4, t4, 61
    sw t4, 0(s5)
    sw zero, 4(s5)
    li t4, 0x80
    csrw mie, t4
    csrsi mstatus, 8"""

TIMER_HANDLER = """    lw t4, 0(s6)
    addi t4, t4, 61
    sw t4, 0(s5)
    addi s3, s3, 1
    mret"""


@pytest.mark.parametrize("split", [7, 97, 1000])
@pytest.mark.parametrize("shape", SHAPES)
def test_budget_and_timer_stops(shape, split):
    source = loop_program(
        shape,
        "    lw t2, 0(s0)\n    add a0, a0, t2\n    sw a0, 8(s0)",
        "    xor a1, a1, a0\n    addi a2, a2, 3",
        prologue=TIMER, handler=TIMER_HANDLER)
    states, _ = assert_parity(source, shape, split=split)
    assert len(states) > 1
    assert states[-1][2][19] > 0  # s3: timer interrupts taken
    assert states[-1][0].stop_reason == "exit"


# -- every retired instruction counts in the tier that ran it -------------

class StopAt(Plugin):
    """Raises StopRun before the ``n``-th block execution: a block hook,
    which compiled blocks call (an instruction hook would keep every
    block interpreted)."""

    name = "stop-at"

    def __init__(self, n):
        self.n = n
        self.count = 0

    def on_block_exec(self, cpu, block):
        self.count += 1
        if self.count == self.n:
            raise StopRun


#: case -> (loop body a, prologue, epilogue, plugin, budget, stop reason)
ENDINGS = {
    "exit": ("    lw t2, 0(s0)\n    add a0, a0, t2\n"
             f"    addi t5, t0, -{K}\n    seqz t5, t5\n    sw t5, 0(s2)",
             "    li s2, 0x00100000", "", None, 200_000, "exit"),
    "unhandled-trap": (f"    addi t5, t0, -{K}\n    seqz t5, t5\n"
                       "    add t6, s0, t5\n    lw t2, 0(t6)",
                       "    csrw mtvec, zero", "", None, 200_000,
                       "unhandled_trap"),
    "budget": ("    lw t2, 0(s0)\n    add a0, a0, t2", "", "", None, 777,
               "max_insns"),
    "wfi": ("    lw t2, 0(s0)\n    add a0, a0, t2", "", "    wfi", None,
            200_000, "wfi"),
    "stop-requested": ("    lw t2, 0(s0)\n    add a0, a0, t2", "", "",
                       lambda: StopAt(111), 200_000, "stop_requested"),
}


@pytest.mark.parametrize("ending", sorted(ENDINGS))
@pytest.mark.parametrize("shape", SHAPES)
def test_tier_counters_add_up_to_the_run(shape, ending):
    """interp + compiled + trace instructions equal the instructions the
    run retired, also when the step that ends it raises."""
    body_a, prologue, epilogue, plugin, budget, stop = ENDINGS[ending]
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend="compiled",
                                    jit_threshold=1, jit_trace_threshold=1))
    machine.load(assemble(loop_program(shape, body_a, "    xor a1, a1, a0",
                                       prologue=prologue, epilogue=epilogue),
                          isa=RV32IMC_ZICSR))
    if plugin is not None:
        machine.add_plugin(plugin())
    result = machine.run(max_instructions=budget)
    assert result.stop_reason == stop
    stats = machine.jit_stats()
    assert (stats["interp_instructions"] + stats["compiled_instructions"]
            + stats["trace_instructions"]) == result.instructions
    assert stats["compiled_instructions"] + stats["trace_instructions"]


# -- structure -------------------------------------------------------------

def test_loop_bodies_hold_registers_and_counters_in_locals():
    sources = []
    for shape in SHAPES:
        source = loop_program(
            shape,
            "    lw t2, 0(s0)\n    add a0, a0, t2\n    sw a0, 8(s0)",
            "    xor a1, a1, a0",
            prologue=TIMER, handler=TIMER_HANDLER)
        _, machine = run_case(source, "compiled")
        sources += [fn.__jit_source__ for fn in loop_functions(machine)]
    assert len(sources) >= 2
    for source in sources:
        # The loop runs between the first ``try:`` and the write-back
        # in ``finally:``.
        body = source.split("try:", 1)[1].split("finally:", 1)[0]
        assert "R[" not in body and "cpu.mem_fast_" not in body
        assert "_fl += 1" in body and "_fs += 1" in body
        written = set(re.findall(r"\br(\d+) = ", body))
        write_back = source.split("finally:", 1)[1]
        assert written and all(f"R[{n}] = r{n}" in write_back
                               for n in written)


def test_stuck_bits_of_one_register_share_code():
    source = loop_program(
        "fused",
        "    add a0, a0, t0\n    xor a3, a0, t1\n    lw t2, 0(s0)",
        "    add a3, a3, t2\n    sw a3, 0(s0)\n    srli a3, a3, 1")
    codes = []
    for bit in (3, 17):
        fault = Fault(TARGET_GPR, 13, bit, STUCK_AT_1)
        before = code_cache_stats()
        expected, _ = run_case(source, "interp", faults=[fault])
        states, machine = run_case(source, "compiled", faults=[fault])
        after = code_cache_stats()
        assert states == expected
        fns = loop_functions(machine)
        assert fns and all(fn.__globals__["_SK"] == 1 << bit for fn in fns)
        codes.append({fn.__code__ for fn in fns})
        if bit == 17:
            assert after["misses"] == before["misses"]
            assert after["hits"] > before["hits"]
    assert codes[0] == codes[1]
