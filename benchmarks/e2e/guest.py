"""Guest programs and job payloads owned by the end-to-end benchmark.

Every program is generated from the workload seed and comes with a
Python reference of its result, so the harness checks the simulator
against code that shares nothing with :mod:`repro.isa.semantics`.  The
seed changes the data a program works on, never the amount of work:
run-to-run cost stays comparable across seeds.  ``work`` scales the
amount of work (1.0 in the benchmark, less in its tests).

A generator returns ``(source, reference)``; ``reference()`` computes
the expected result, and is kept apart because it is an oracle, not
set-up.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

MASK = 0xFFFF_FFFF


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & MASK


def _words(values: List[int]) -> str:
    return ", ".join(f"0x{value:08x}" for value in values)


# ----------------------------------------------------------------------
# vp-hot kernels: reference -> expected exit code
# ----------------------------------------------------------------------

#: Fixed work per kernel, sized so each run takes about 50 ms on the
#: compiled backend: alu-loop iterations, mem-loop rounds over the
#: array, and call-tree walks over a 64-leaf tree.
ALU_ITERATIONS = 120_000
MEM_ROUNDS = 700
TREE_LEAVES = 64
TREE_WALKS = 64

Generated = Tuple[str, Callable[[], object]]

ALU_LOOP = """
# Single-block ALU loop: the JIT fuses it into a self-loop superblock.
_start:
    li a0, {a}
    li a1, {b}
    li t0, 0
    li t1, {iterations}
loop:
    add a0, a0, a1
    xor a1, a1, a0
    slli t2, a0, 3
    srli t3, a1, 5
    xor a0, a0, t3
    add a1, a1, t2
    addi t0, t0, 1
    blt t0, t1, loop
    xor a0, a0, a1
    li a7, 93
    ecall
"""


def alu_loop(seed: int, work: float = 1.0) -> Generated:
    rng = random.Random(f"alu-loop/{seed}")
    a0, b0 = rng.getrandbits(32), rng.getrandbits(32)
    iterations = max(1, int(ALU_ITERATIONS * work))
    source = ALU_LOOP.format(a=f"0x{a0:08x}", b=f"0x{b0:08x}",
                             iterations=iterations)

    def reference() -> int:
        a, b = a0, b0
        for _ in range(iterations):
            a = (a + b) & MASK
            b ^= a
            shifted = (a << 3) & MASK
            a ^= b >> 5
            b = (b + shifted) & MASK
        return a ^ b
    return source, reference


def _mem_chunk() -> str:
    # 8 words x 5 instructions: longer than one translation block, so
    # the loop body spans several blocks and the JIT must form a trace.
    return "\n".join(
        f"    lw t0, {4 * k}(s0)\n"
        "    add a0, a0, t0\n"
        "    slli t2, a0, 1\n"
        "    xor t0, t0, t2\n"
        f"    sw t0, {4 * k}(s0)"
        for k in range(8))


MEM_LOOP = """
# Multi-block load/store loop over a 64-word seeded array.
_start:
    li s1, {rounds}
    li a0, {init}
round:
    la s0, data
    li t1, 8
chunk:
""" + _mem_chunk() + """
    addi s0, s0, 32
    addi t1, t1, -1
    bnez t1, chunk
    addi s1, s1, -1
    bnez s1, round
    li a7, 93
    ecall
.data
data: .word {data}
"""


def mem_loop(seed: int, work: float = 1.0) -> Generated:
    rng = random.Random(f"mem-loop/{seed}")
    initial = [rng.getrandbits(32) for _ in range(64)]
    acc0 = rng.getrandbits(32)
    rounds = max(1, int(MEM_ROUNDS * work))
    source = MEM_LOOP.format(rounds=rounds, init=f"0x{acc0:08x}",
                             data=_words(initial))

    def reference() -> int:
        data, acc = list(initial), acc0
        for _ in range(rounds):
            for index, value in enumerate(data):
                acc = (acc + value) & MASK
                data[index] = value ^ ((acc << 1) & MASK)
        return acc
    return source, reference


CALL_TREE = """
# Recursive tree reduction: jal/jalr calls with stack traffic.
_start:
    li s3, {walks}
    li s4, 0
walk:
    la a0, data
    li a1, {leaves}
    mv a2, s3
    call tsum
    xor s4, s4, a0
    slli t0, s4, 1
    srli t1, s4, 31
    or s4, t0, t1
    addi s3, s3, -1
    bnez s3, walk
    mv a0, s4
    li a7, 93
    ecall

# tsum(a0 = pointer, a1 = leaf count, a2 = salt) -> a0
tsum:
    li t0, 1
    bne a1, t0, split
    lw t1, 0(a0)
    xor t1, t1, a2
    slli t2, t1, 3
    add a0, t1, t2
    ret
split:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    sw s1, 4(sp)
    sw s2, 0(sp)
    mv s0, a0
    mv s1, a1
    srli a1, a1, 1
    call tsum
    mv s2, a0
    srli t0, s1, 1
    slli t1, t0, 2
    add a0, s0, t1
    sub a1, s1, t0
    call tsum
    slli t0, s2, 5
    srli t1, s2, 27
    or t0, t0, t1
    xor a0, a0, t0
    lw ra, 12(sp)
    lw s0, 8(sp)
    lw s1, 4(sp)
    lw s2, 0(sp)
    addi sp, sp, 16
    ret
.data
data: .word {data}
"""


def _tree_sum(data: List[int], lo: int, count: int, salt: int) -> int:
    if count == 1:
        value = data[lo] ^ salt
        return (value + (value << 3)) & MASK
    half = count >> 1
    left = _tree_sum(data, lo, half, salt)
    right = _tree_sum(data, lo + half, count - half, salt)
    return right ^ _rotl(left, 5)


def call_tree(seed: int, work: float = 1.0) -> Generated:
    rng = random.Random(f"call-tree/{seed}")
    data = [rng.getrandbits(32) for _ in range(TREE_LEAVES)]
    walks = max(1, int(TREE_WALKS * work))
    source = CALL_TREE.format(walks=walks, leaves=TREE_LEAVES,
                              data=_words(data))

    def reference() -> int:
        acc = 0
        for salt in range(walks, 0, -1):
            acc = _rotl(acc ^ _tree_sum(data, 0, TREE_LEAVES, salt), 1)
        return acc
    return source, reference


#: The vp-hot kernel set, run round-robin in this order.
KERNELS = {"alu-loop": alu_loop, "mem-loop": mem_loop,
           "call-tree": call_tree}


# ----------------------------------------------------------------------
# fault-campaign program: reference -> (exit code, UART output)
# ----------------------------------------------------------------------

FAULT_ROUNDS = 50

FAULT_PROGRAM = """
# Checksum rounds over a seeded array; the checksum goes out as 8 hex
# digits through the write ecall, and its low byte is the exit code.
# The digits sit at the top of RAM, so a fault that corrupts the write
# length traps within 32 bytes instead of copying megabytes to the UART.
_start:
    li s1, {rounds}
    li a0, 0
round:
    la s0, data
    li t1, 32
loop:
    lw t0, 0(s0)
    add a0, a0, t0
    slli t2, a0, 5
    srli t3, a0, 27
    or a0, t2, t3
    xor t0, t0, a0
    sw t0, 0(s0)
    addi s0, s0, 4
    addi t1, t1, -1
    bnez t1, loop
    addi s1, s1, -1
    bnez s1, round
    mv s2, a0
    addi sp, sp, -16
    mv s0, sp
    li t5, 8
hex:
    srli t6, a0, 28
    slli a0, a0, 4
    li t4, 10
    blt t6, t4, digit
    addi t6, t6, 39
digit:
    addi t6, t6, 48
    sb t6, 0(s0)
    addi s0, s0, 1
    addi t5, t5, -1
    bnez t5, hex
    li a0, 1
    mv a1, sp
    li a2, 8
    li a7, 64
    ecall
    andi a0, s2, 0xFF
    li a7, 93
    ecall
.data
data: .word {data}
"""


def fault_program(seed: int) -> Generated:
    rng = random.Random(f"fault-campaign/{seed}")
    initial = [rng.getrandbits(32) for _ in range(32)]
    source = FAULT_PROGRAM.format(rounds=FAULT_ROUNDS,
                                  data=_words(initial))

    def reference() -> Tuple[int, str]:
        data, acc = list(initial), 0
        for _ in range(FAULT_ROUNDS):
            for index, value in enumerate(data):
                acc = _rotl((acc + value) & MASK, 5)
                data[index] = value ^ acc
        return acc & 0xFF, f"{acc:08x}"
    return source, reference


# ----------------------------------------------------------------------
# Service job mix
# ----------------------------------------------------------------------

def service_payloads() -> List[Tuple[str, Dict]]:
    """The fixed ``(kind, payload)`` set the service plans draw from:
    all six user-facing job kinds, each a few milliseconds to a few
    tens of milliseconds of work.  Sorted by cost they form a cheap
    group of 14 (vp_run, coverage, wcet, fuzz), 2 fault campaigns and 4
    verify campaigns, so the median and the 90th percentile of a plan's
    latencies each fall inside a group, not on the edge between two."""
    from repro.bmi.kernels import KERNELS as BMI

    src = {pair.name: pair for pair in BMI}
    zbb = "rv32imc_zicsr_zbb"
    return [
        ("vp_run", {"source": src["popcount"].baseline_source}),
        ("vp_run", {"source": src["clz-normalise"].baseline_source}),
        ("vp_run", {"source": src["arx-mix"].baseline_source}),
        ("vp_run", {"source": src["masked-select"].baseline_source}),
        ("vp_run", {"source": src["bit-scan"].bmi_source, "isa": zbb}),
        ("vp_run", {"source": src["clamp"].bmi_source, "isa": zbb,
                    "backend": "compiled"}),
        ("coverage", {"source": src["popcount"].baseline_source}),
        ("coverage", {"source": src["clamp"].baseline_source}),
        ("coverage", {"source": src["bit-scan"].baseline_source}),
        ("wcet", {"source": src["arx-mix"].baseline_source}),
        ("wcet", {"source": src["masked-select"].baseline_source}),
        ("wcet", {"source": src["clamp"].baseline_source}),
        ("fuzz", {"iterations": 32, "seed": 1, "seeds": "trivial"}),
        ("fuzz", {"iterations": 32, "seed": 2, "seeds": "trivial"}),
        ("fault_campaign", {"source": src["popcount"].baseline_source,
                            "mutants": 10, "seed": 1}),
        ("fault_campaign", {"source": src["arx-mix"].baseline_source,
                            "mutants": 10, "seed": 2}),
        ("verify", {"corpus": "torture:2", "matrix": "interp:compiled",
                    "seed": 1}),
        ("verify", {"corpus": "torture:2", "matrix": "interp:compiled",
                    "seed": 2}),
        ("verify", {"corpus": "torture:2", "matrix": "interp:compiled",
                    "seed": 3}),
        ("verify", {"corpus": "torture:2", "matrix": "backends",
                    "seed": 4}),
    ]


def service_plan(seed: int, payload_count: int, length: int) -> List[int]:
    """Payload indices in submission order.  Every block of
    ``payload_count`` jobs holds each payload once, in an order drawn
    by ``seed``: the seed changes the order, never the mix."""
    rng = random.Random(f"service-plan/{seed}")
    plan: List[int] = []
    while len(plan) < length:
        block = list(range(payload_count))
        rng.shuffle(block)
        plan.extend(block)
    return plan[:length]
