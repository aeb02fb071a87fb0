"""Interrupt delivery pinned to a fixture: the CPU polls its interrupt
sources only at a deadline or after an event, and ``mtime`` is a view of
the cycle counter, yet every run must deliver interrupts exactly as a
VP that polled the devices and ticked the bus at every block boundary.

Each case is a (program, configuration, split) triple.  The harness runs
the program in budget-bounded runs (``split``; ``None`` runs until the
program stops), pushes UART input between runs, and records the full
state after every run: the RunResult, pc, GPRs, the raw CSR file with
the ``mip`` shadow, cycle/instret, the CLINT registers and the UART.
``interrupt_events.json`` holds a blake2b hash of each state sequence.

Regenerate (only to pin a deliberate behaviour change) with::

    PYTHONPATH=src python tests/vp/test_interrupt_events.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from repro.asm import assemble
from repro.core.demonstrators import _SENSOR_NODE_TEMPLATE
from repro.isa import RV32IMC_ZICSR
from repro.observe.profiler import SamplingProfiler
from repro.vp import Machine, MachineConfig, Plugin

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "interrupt_events.json")

#: Instructions one case may run in total, over all of its runs.
BUDGET = 100_000

SPLITS = (None, 97, 1000)

#: Common prologue: trap vector, CLINT pointers, timer armed ``{interval}``
#: cycles ahead, the timer interrupt enabled.
_ARM = """
_start:
    la t0, handler
    csrw mtvec, t0
    li s1, 0x02004000      # mtimecmp
    li s2, 0x0200BFF8      # mtime
    lw t1, 0(s2)
    addi t1, t1, {interval}
    sw t1, 0(s1)
    sw zero, 4(s1)
    li t0, 0x80            # MTIE
    csrw mie, t0
    csrsi mstatus, 8       # MIE
    li s3, 0               # interrupts taken
"""

#: Timer handler: re-arm one interval ahead, count, return.
_REARM = """
.align 2
handler:
    lw t2, 0(s2)
    addi t2, t2, {interval}
    sw t2, 0(s1)
    addi s3, s3, 1
    mret
"""

_EXIT = """
    add a0, a0, s3
    li a7, 93
    ecall
"""

PROGRAMS = {
    # A pure-ALU self-loop: the compiled tier batches it up to the
    # deadline, where the timer lands.
    "alu-loop": _ARM + """
    li t0, 0
    li t1, 2500
    li a0, 0
loop:
    add a0, a0, t0
    xor a0, a0, t1
    addi t0, t0, 1
    blt t0, t1, loop
""" + _EXIT + _REARM,
    # A memory self-loop: one boundary check per iteration.
    "mem-loop": _ARM + """
    la s4, scratch
    li t0, 0
    li t1, 1500
    li a0, 0
loop:
    lw a1, 0(s4)
    add a1, a1, t0
    sw a1, 0(s4)
    add a0, a0, a1
    addi t0, t0, 1
    blt t0, t1, loop
""" + _EXIT + _REARM + """
.data
scratch: .word 0
""",
    # Two blocks chained by a direct jump: a looped trace.
    "trace-loop": _ARM + """
    li t0, 0
    li t1, 2000
    li a0, 0
loop:
    addi t0, t0, 1
    add a0, a0, t0
    j second
second:
    xor a0, a0, t1
    slli a1, a0, 1
    blt t0, t1, loop
""" + _EXIT + _REARM,
    # call/ret: jalr ends traces, so every return leaves the trace tier.
    "call-loop": _ARM + """
    li t0, 0
    li t1, 1500
    li a0, 0
loop:
    call work
    addi t0, t0, 1
    blt t0, t1, loop
""" + _EXIT + """
work:
    add a0, a0, t0
    xor a0, a0, t1
    ret
""" + _REARM,
    # mcycle writes move the counter but not time.
    "mcycle-write": _ARM + """
    li t0, 0
    li t1, 800
    li a0, 0
loop:
    addi t0, t0, 1
    csrr a1, mcycle
    addi a1, a1, -13
    csrw mcycle, a1
    add a0, a0, a1
    blt t0, t1, loop
""" + _EXIT + _REARM,
    # mtime read over MMIO in a fused loop while the timer, armed to
    # fire mid-loop, stays masked (mstatus.MIE clear).
    "mtime-masked": """
_start:
    li s1, 0x02004000
    li s2, 0x0200BFF8
    lw t1, 0(s2)
    addi t1, t1, 700
    sw t1, 0(s1)
    sw zero, 4(s1)
    li t0, 0x80
    csrw mie, t0
    li t0, 0
    li t1, 600
    li a0, 0
loop:
    lw a1, 0(s2)
    add a0, a0, a1
    addi t0, t0, 1
    blt t0, t1, loop
    csrr a1, mip
    add a0, a0, a1
    li a7, 93
    ecall
""",
    # The timer wakes wfi; its handler raises msip, whose interrupt is
    # taken right after the mret.
    "msip-wfi": """
_start:
    la t0, handler
    csrw mtvec, t0
    li s1, 0x02004000
    li s2, 0x0200BFF8
    li s6, 0x02000000      # msip
    lw t1, 0(s2)
    addi t1, t1, 300
    sw t1, 0(s1)
    sw zero, 4(s1)
    li t0, 0x88            # MTIE | MSIE
    csrw mie, t0
    csrsi mstatus, 8
    li s3, 0               # timer interrupts
    li s4, 0               # software interrupts
    li s5, 0
main:
    wfi
    addi s5, s5, 1
    li t0, 12
    blt s5, t0, main
    slli a0, s3, 8
    add a0, a0, s4
    li a7, 93
    ecall
.align 2
handler:
    csrr t0, mcause
    bgez t0, fail
    andi t0, t0, 0xF
    li t1, 7
    beq t0, t1, on_timer
    sw zero, 0(s6)
    addi s4, s4, 1
    mret
on_timer:
    lw t2, 0(s2)
    addi t2, t2, 300
    sw t2, 0(s1)
    li t2, 1
    sw t2, 0(s6)
    addi s3, s3, 1
    mret
fail:
    li a0, 255
    li a7, 93
    ecall
""",
    # UART RX: the host pushes bytes between runs; the handler drains
    # the queue, the main loop spins and sleeps in wfi.
    "uart-rx": """
_start:
    la t0, handler
    csrw mtvec, t0
    li s1, 0x10000000
    li t0, 1
    sw t0, 12(s1)          # UART RX interrupt enable
    li t0, 0x800           # MEIE
    csrw mie, t0
    csrsi mstatus, 8
    li s3, 0
    li s4, 0
    li s5, 6
wait:
    li t2, 30
spin:
    addi t2, t2, -1
    bnez t2, spin
    wfi
    blt s4, s5, wait
    mv a0, s3
    li a7, 93
    ecall
.align 2
handler:
    lw t0, 4(s1)
    li t1, -1
    beq t0, t1, drained
    slli s3, s3, 1
    add s3, s3, t0
    addi s4, s4, 1
    j handler
drained:
    mret
""",
    "sensor-node": _SENSOR_NODE_TEMPLATE.format(samples=20, interval=150),
}

for _name in ("alu-loop", "mem-loop", "trace-loop", "call-loop",
              "mcycle-write"):
    PROGRAMS[_name] = PROGRAMS[_name].format(interval=173)

#: UART bytes pushed before the first runs, one chunk per run.
PUSHES = {"uart-rx": (b"ab", b"", b"c", b"def")}


class _InsnCounter(Plugin):
    name = "insn-counter"

    def __init__(self):
        self.count = 0

    def on_insn_exec(self, cpu, decoded, pc):
        self.count += 1


class _BlockCounter(Plugin):
    name = "block-counter"

    def __init__(self):
        self.count = 0

    def on_block_exec(self, cpu, block):
        self.count += 1


class _MieFlipper(Plugin):
    """Toggles mstatus.MIE from inside a block, as a fault injector
    flipping a CSR bit would."""

    name = "mie-flipper"
    AT = (301, 777, 1500)

    def __init__(self):
        self.count = 0

    def on_insn_exec(self, cpu, decoded, pc):
        self.count += 1
        if self.count in self.AT:
            cpu.csrs.raw_write(0x300, cpu.csrs.raw_read(0x300) ^ 0x8)


CONFIGS = {
    "interp": ({"backend": "interp"}, None),
    "compiled": ({"backend": "compiled"}, None),
    "compiled-t1": ({"backend": "compiled", "jit_threshold": 1,
                     "jit_trace_threshold": 1}, None),
    "interp-insn-hook": ({"backend": "interp"}, _InsnCounter),
    "compiled-block-hook": ({"backend": "compiled"}, _BlockCounter),
    "compiled-mie-flip": ({"backend": "compiled"}, _MieFlipper),
    "compiled-profiler": ({"backend": "compiled"}, SamplingProfiler),
}


def _state(machine, result):
    cpu = machine.cpu
    clint, uart = machine.clint, machine.uart
    return (repr(result), cpu.pc, tuple(cpu.regs.snapshot()),
            tuple(sorted(cpu.csrs._regs.items())), cpu.csrs.cycle,
            cpu.csrs.instret, clint.mtime, clint.mtimecmp, clint.msip,
            bytes(uart.tx_log), tuple(uart._rx_queue),
            uart.interrupt_enable)


def state_sequence(program, config, split):
    """The state after every run of one case."""
    options, plugin = CONFIGS[config]
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **options))
    machine.load(assemble(PROGRAMS[program], isa=RV32IMC_ZICSR))
    if plugin is not None:
        machine.add_plugin(plugin())
    pushes = list(PUSHES.get(program, ()))
    states = []
    total = 0
    while total < BUDGET:
        if pushes:
            machine.uart.push_rx(pushes.pop(0))
        result = machine.run(max_instructions=split or BUDGET)
        total += result.instructions
        states.append(_state(machine, result))
        if result.stop_reason == "max_insns" and split:
            continue
        if result.stop_reason == "wfi" and pushes:
            continue
        break
    return states


def case_hash(program, config, split):
    return hashlib.blake2b(repr(state_sequence(program, config, split))
                           .encode(), digest_size=16).hexdigest()


def case_id(program, config, split):
    return f"{program}/{config}/{split or 'one-run'}"


CASES = [(program, config, split) for program in PROGRAMS
         for config in CONFIGS for split in SPLITS]


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as handle:
        return json.load(handle)["hashes"]


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_interrupt_delivery_matches_the_fixture(pinned, program):
    mismatches = [case_id(program, config, split)
                  for config in CONFIGS for split in SPLITS
                  if case_hash(program, config, split)
                  != pinned[case_id(program, config, split)]]
    assert not mismatches


def test_programs_take_interrupts():
    """The cases exercise what they claim: interrupts land, in the
    compiled tier's loops and traces as well."""
    for program, expected in (("alu-loop", "compiled"),
                              ("trace-loop", "trace")):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                        backend="compiled"))
        machine.load(assemble(PROGRAMS[program], isa=RV32IMC_ZICSR))
        result = machine.run(max_instructions=BUDGET)
        assert result.stop_reason == "exit"
        assert machine.cpu.regs.raw_read(19) > 5  # s3: interrupts taken
        stats = machine.jit_stats()
        key = ("trace_instructions" if expected == "trace"
               else "compiled_instructions")
        assert stats[key] > 0


# -- behaviour fixed on top of the pinned delivery ------------------------

#: A batched fused loop the timer crosses while masked.
_MASKED_BATCH = """
_start:
    li s1, 0x02004000
    li s2, 0x0200BFF8
    lw t1, 0(s2)
    addi t1, t1, 400
    sw t1, 0(s1)
    sw zero, 4(s1)
    li t0, 0
    li t1, 3000
loop:
    addi t0, t0, 1
    xori a0, t0, 5
    blt t0, t1, loop
    li a7, 93
    ecall
"""


@pytest.mark.parametrize("split", [50, 97, 1000])
def test_masked_timer_shadow_exact_in_batched_loops(split):
    """The batched loop stops where a masked timer asserts, so the raw
    ``mip`` shadow matches the interpreter at every run boundary."""
    sequences = {}
    for backend in ("interp", "compiled"):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                        jit_threshold=1))
        machine.load(assemble(_MASKED_BATCH, isa=RV32IMC_ZICSR))
        states = []
        while True:
            result = machine.run(max_instructions=split)
            states.append(_state(machine, result))
            if result.stop_reason != "max_insns":
                break
        sequences[backend] = states
    assert sequences["compiled"] == sequences["interp"]
    assert any(dict(state[3])[0x344] for state in sequences["interp"])


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_wfi_wakes_on_pending_software_interrupt(backend):
    """A locally enabled pending interrupt resumes WFI whatever
    ``mstatus.MIE`` says: no fast-forward to the 64-bit wrap."""
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                    jit_threshold=1))
    machine.load(assemble("""
_start:
    li t0, 8               # MSIE; mstatus.MIE stays clear
    csrw mie, t0
    li t0, 0x02000000
    li t1, 1
    sw t1, 0(t0)           # msip
    wfi
    li a0, 5
    li a7, 93
    ecall
""", isa=RV32IMC_ZICSR))
    result = machine.run(max_instructions=1000)
    assert result.exit_code == 5
    assert result.cycles < 1000
    assert machine.clint.mtime == result.cycles


def _write_fixture():
    hashes = {case_id(*case): case_hash(*case) for case in CASES}
    note = ("blake2b-128 of the state sequence of each case, as computed "
            "by case_hash() in test_interrupt_events.py.  Generated by "
            "running that module as a script with --write.  Every case "
            "that ends by exit or WFI hashes as it did at commit f57d00a, "
            "the last commit whose CPU polled the devices and ticked the "
            "bus at every block boundary.  The cases with a split (97, "
            "1000), and msip-wfi/compiled-mie-flip/one-run, which ends "
            "by the budget, were re-pinned when run budgets became "
            "exact: a run now stops after exactly its budget instead of "
            "at the first block boundary past it, so the state after "
            "each run moved.")
    with open(FIXTURE, "w") as handle:
        json.dump({"note": note, "hashes": hashes}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_interrupt_events.py --write")
    _write_fixture()
