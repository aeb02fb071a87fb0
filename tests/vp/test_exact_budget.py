"""Exact instruction budgets: ``run(max_instructions=n)`` retires exactly
``n`` instructions in every tier, or stops earlier at an exit, a trap or
WFI.

Every ``suites`` program and 20 seeded ``torture`` programs of the verify
corpus, plus three loops that run as a batched fused loop, a polling
fused loop and a looped trace, run from their loaded snapshot with
budgets 0-40 and ten seeded larger ones.  Each runs on the interpreter,
on the compiled tier, and on the compiled tier with every block compiled
and traced at once; the state after every run is identical across the
three.
"""

import random
import zlib

import pytest

from repro.asm import assemble
from repro.isa import RV32IMC_ZICSR
from repro.verify.campaign import RepeatBuilder, build_corpus
from repro.vp import Machine, MachineConfig

CONFIGS = (
    {"backend": "interp"},
    {"backend": "compiled"},
    {"backend": "compiled", "jit_threshold": 1, "jit_trace_threshold": 1},
)

#: Budget of the straight run that measures a program's length (the
#: verify corpus's per-run budget; two suite programs hang until it).
LIMIT = 20_000

LOOPS = {
    # A pure-ALU self-loop: the batched fused shape.
    "fused-batched": """
_start:
    li a0, 1
    li t0, 0
    li t1, 150
spin:
    add a0, a0, t0
    xor a0, a0, t1
    addi t0, t0, 1
    blt t0, t1, spin
    andi a0, a0, 0x7f
    li a7, 93
    ecall
""",
    # A self-loop that loads and stores: the polling fused shape.
    "fused-polling": """
_start:
    la s0, buf
    li t0, 0
    li t1, 120
spin:
    lw t2, 0(s0)
    add t2, t2, t0
    sw t2, 4(s0)
    addi t0, t0, 1
    blt t0, t1, spin
    li a0, 0
    li a7, 93
    ecall
.data
buf: .word 3, 5
""",
    # A loop over two blocks joined by a jump: a looped trace.
    "trace": """
_start:
    la s0, buf
    li t0, 0
    li t1, 100
outer:
    lw t2, 0(s0)
    addi a0, a0, 7
    j inner
inner:
    slli t3, a0, 1
    xor a0, a0, t3
    sw a0, 4(s0)
    addi t0, t0, 1
    blt t0, t1, outer
    andi a0, a0, 0x7f
    li a7, 93
    ecall
.data
buf: .word 3, 5
""",
}


def _programs():
    builder = RepeatBuilder(RV32IMC_ZICSR)
    programs = [(f"{spec}/{name}", builder.build(words))
                for spec in ("suites", "torture:20")
                for name, words in build_corpus(RV32IMC_ZICSR, spec, 0)]
    programs += [(name, assemble(source, isa=RV32IMC_ZICSR))
                 for name, source in LOOPS.items()]
    return programs


PROGRAMS = _programs()


def state(machine, result):
    cpu = machine.cpu
    csrs = cpu.csrs
    return (result, cpu.pc, tuple(cpu.regs._regs), csrs.snapshot(),
            tuple(sorted(machine.ram.dirty_pages())))


def runs(program, config, budgets):
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **config))
    machine.load(program)
    loaded = machine.snapshot()
    states = []
    for budget in budgets:
        machine.restore(loaded)
        states.append(state(machine,
                            machine.run(max_instructions=budget)))
    return states


@pytest.mark.parametrize("name,program", PROGRAMS,
                         ids=[name for name, _ in PROGRAMS])
def test_budget_is_exact_in_every_tier(name, program):
    straight = runs(program, CONFIGS[0], [LIMIT])[0][0]
    length = straight.instructions
    rng = random.Random(zlib.crc32(name.encode()))
    budgets = list(range(41)) + rng.sample(range(41, length + 41), 10)
    expected = runs(program, CONFIGS[0], budgets)
    for budget, (result, *_rest) in zip(budgets, expected):
        if budget < length:
            assert (result.stop_reason, result.instructions) == (
                "max_insns", budget), budget
        elif result.stop_reason == "max_insns":
            assert result.instructions == budget == length
        else:
            assert result == straight, budget
    for config in CONFIGS[1:]:
        assert runs(program, config, budgets) == expected, config


# -- a guest write to minstret moves an offset, not the retired count ------

#: Every counter access follows a system instruction, so it starts a
#: block wherever a run is split.
MINSTRET = """
_start:
    li t0, 0xFFFFFFF0
    li t1, 1
    csrr zero, mscratch
    csrw minstret, t0
    csrw minstreth, t1
    csrr s2, minstret
    csrr s3, minstreth
    li s0, 0
    li s1, 12
loop:
    addi s0, s0, 1
    blt s0, s1, loop
    csrr s4, minstret
    csrr s5, minstreth
    rdinstret s6
    li a0, 0
    li a7, 93
    ecall
"""


def minstret_machine(backend):
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                    jit_threshold=1, jit_trace_threshold=1))
    machine.load(assemble(MINSTRET, isa=RV32IMC_ZICSR))
    return machine


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_guest_minstret_writes_keep_the_retired_count(backend):
    machine = minstret_machine(backend)
    result = machine.run(max_instructions=1000)
    assert (result.stop_reason, result.instructions) == ("exit", 38)
    # The values the guest reads back (pinned from before the offset).
    assert [machine.cpu.regs.raw_read(n) for n in range(18, 23)] == [
        0xFFFFFFF2, 1, 0xE, 2, 0x10]


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_resume_after_a_minstret_write_ends_like_one_run(backend):
    straight = minstret_machine(backend)
    expected = state(straight, straight.run(max_instructions=1000))
    for split in range(1, expected[0].instructions):
        machine = minstret_machine(backend)
        machine.run(max_instructions=split)
        result = machine.run(max_instructions=1000, resume=True)
        assert state(machine, result) == expected, split


def test_checkpoint_axis_agrees_on_a_minstret_write():
    """fuzz-0701 of ``fuzz:1000 --seed 1`` writes ``minstret`` at its
    161st instruction; straight and checkpoint-resumed runs agree."""
    from repro.verify import DiffCampaign, VerifyCampaignConfig

    campaign = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
        corpus="fuzz:1000", seed=1, matrix="checkpoint"))
    records = campaign.run_range(701, 702)
    assert campaign.corpus()[701][0] == "fuzz-0701"
    assert records == []
