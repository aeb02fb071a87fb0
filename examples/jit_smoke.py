#!/usr/bin/env python3
"""Bounded end-to-end smoke test for the compiled execution tier.

Five phases, each comparing the ``compiled`` backend against ``interp``
on the same program and asserting the properties CI cares about:

**Phase 1 — F1 compute loop:**

* the JIT actually engaged — blocks were compiled and the bulk of the
  instructions retired in the compiled tier (a silent fall-back to the
  interpreter fails the job loudly);
* the :class:`RunResult` (stop reason, exit code, instruction and cycle
  counts) and the final architectural state are byte-identical to the
  ``interp`` backend on the same program;
* the compiled tier is at least ``MIN_SPEEDUP``x faster than the
  interpreter backend on this workload (best-of-N each, interleaved) —
  a deliberately loose floor so host jitter cannot flake the job while
  a real regression still trips it.

**Phase 2 — F5 memory loop (multi-block, load/store heavy):**

* at least one cross-block trace compiled, with instructions retired
  in it;
* the RAM fast path engaged on both backends (non-zero hit rate);
* RunResult, architectural state, dirty-page set, and the memory
  access counters are byte-identical to ``interp``.

**Phase 3 — timer interrupts inside a fused loop and a trace:**

* a re-armed machine timer fires inside a batched fused self-loop and
  inside a two-block looped trace, and both shapes retired
  instructions;
* RunResult, registers, the raw CSR file (the ``mip`` shadow included)
  and ``mtime`` are byte-identical to ``interp``.

**Phase 4 — slow paths inside register-cached loops:**

* fused self-loops and traces hold guest registers and the RAM access
  counters in Python locals; each program leaves or pauses such a loop
  a different way — (a) a UART store every iteration (the bus slow
  path returns and the loop goes on), (b) a misaligned load whose
  handler rewrites looped registers and returns, (c) a store to the
  exit device mid-loop, (d) a stuck-at fault on a register the loop
  reads and writes, (e) stores to the page of a RAM stuck bit — each as
  one self-looping block and as a two-block trace, on fresh machines;
* the raw state (RunResult, raw GPRs, CSR file, memory counters, dirty
  pages, every block's ``exec_count``, UART output and the GPRs a trap
  hook saw) is byte-identical to ``interp``.

**Phase 5 — exact instruction budgets:**

* the F1 loop (a batched fused loop), the F5 loop (a trace), a polling
  fused loop and the phase-4 programs each run with every budget from 1
  to twice their loop body's length, and with a few large budgets, each
  on a fresh machine with every block compiled and traced at once;
* every run that ends ``max_insns`` retired exactly its budget, and the
  raw state (RunResult, GPRs, CSR file, ``mtime``, dirty pages, every
  block's ``exec_count``) is byte-identical to ``interp``.

**Phases 1-3 — translation is reused across machines:** every run
after the first, each on a fresh machine, decodes no new word (the
shared decode memo's miss count does not move), and every compiled run
after the first is served from the code cache (hits, no misses, so no
source is emitted) with an outcome and ``jit_stats()`` byte-identical
to the first, cold run.

Used by the CI ``jit-smoke`` job and runnable by hand:

    python examples/jit_smoke.py

Exits 0 on success, non-zero on any violated assertion.  The workloads
are instruction-bounded; CI wraps the script in ``timeout`` as well.
"""

import sys
import time

ITERS = 20_000        # F1 loop iterations (~200k dynamic instructions)
MEM_ITERS = 3_000     # F5 loop iterations (~126k dynamic instructions)
REPEATS = 3           # best-of-N per backend
MIN_SPEEDUP = 2.0     # loose floor; the recorded number is far higher
IRQ_ITERS = 20_000    # iterations of each interrupted loop
IRQ_INTERVAL = 97     # timer period in cycles

WORKLOAD = f"""
_start:
    li t0, 0
    li t1, {ITERS}
    li a0, 0
loop:
    add a0, a0, t0
    xor a1, a0, t0
    srli a2, a1, 3
    and a3, a2, t0
    or a0, a0, a3
    slli a0, a0, 1
    srli a0, a0, 1
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
"""

# Load/store-dense loop whose 40-op body splits into two translation
# blocks — the compiled tier must fuse them into one trace to win.
MEM_WORKLOAD = f"""
_start:
    la s0, scratch
    li t0, 0
    li t1, {MEM_ITERS}
    li a0, 0
loop:
""" + "\n".join(
    f"    lw t2, {(k % 8) * 4}(s0)\n"
    "    add a0, a0, t2\n"
    "    xor t2, t2, t0\n"
    f"    sw t2, {(k % 8) * 4}(s0)"
    for k in range(10)) + """
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
.data
scratch: .word 0, 0, 0, 0, 0, 0, 0, 0
"""


# A re-armed timer interrupts a pure-ALU self-loop (the batched fused
# shape), then a loop whose body a direct jump splits into two blocks
# (a looped trace).  s4 and s5 count the interrupts each loop took.
IRQ_WORKLOAD = f"""
_start:
    la t0, handler
    csrw mtvec, t0
    li s1, 0x02004000
    li s2, 0x0200BFF8
    lw t1, 0(s2)
    addi t1, t1, {IRQ_INTERVAL}
    sw t1, 0(s1)
    sw zero, 4(s1)
    li t0, 0x80
    csrw mie, t0
    csrsi mstatus, 8
    li s3, 0
    li t0, 0
    li t1, {IRQ_ITERS}
    li a0, 0
fused:
    add a0, a0, t0
    xor a0, a0, t1
    addi t0, t0, 1
    blt t0, t1, fused
    mv s4, s3
    li t0, 0
trace:
    addi t0, t0, 1
    add a0, a0, t0
    j second
second:
    xor a0, a0, t1
    slli a1, a0, 1
    blt t0, t1, trace
    sub s5, s3, s4
    li a0, 0
    li a7, 93
    ecall
.align 2
handler:
    lw t2, 0(s2)
    addi t2, t2, {IRQ_INTERVAL}
    sw t2, 0(s1)
    addi s3, s3, 1
    mret
"""


def _measure(program, repeats=REPEATS):
    """Interleaved best-of-N runs of ``program`` per backend; also
    returns each backend's last machine."""
    from repro.isa import RV32IMC_ZICSR, decode_cache_stats
    from repro.vp import Machine, MachineConfig
    from repro.vp.jit import code_cache_stats

    best = {}
    outcome = {}
    extras = {}
    machines = {}
    for repeat in range(repeats):
        for backend in ("interp", "compiled"):
            decode_misses = decode_cache_stats()["misses"]
            cache_before = code_cache_stats()
            machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                            backend=backend))
            machine.load(program)
            start = time.perf_counter()
            result = machine.run(max_instructions=50_000_000)
            elapsed = time.perf_counter() - start
            assert result.stop_reason == "exit", result.stop_reason
            csrs = machine.cpu.csrs
            digest = (tuple(machine.cpu.regs.snapshot()), machine.cpu.pc,
                      tuple(sorted(csrs._regs.items())), csrs.instret,
                      csrs.cycle, machine.clint.mtime)
            best[backend] = min(best.get(backend, float("inf")), elapsed)
            run_outcome = (result, digest, machine.mem_stats(),
                           tuple(sorted(machine.ram.dirty_pages())))
            if repeat:
                new_words = decode_cache_stats()["misses"] - decode_misses
                assert new_words == 0, (
                    f"repeated {backend} run decoded {new_words} words "
                    f"the decode memo should have served")
            if backend == "compiled" and repeat:
                _check_cache_hit(cache_before, code_cache_stats(),
                                 (run_outcome, machine.jit_stats()),
                                 (outcome[backend], extras[backend]))
            outcome[backend] = run_outcome
            extras[backend] = machine.jit_stats()
            machines[backend] = machine
    return best, outcome, extras, machines


def _check_cache_hit(before, after, warm, cold) -> None:
    """A repeated compiled run reuses the code its first run compiled:
    cache hits and no misses, with a byte-identical outcome."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    assert hits > 0 and misses == 0, (
        f"repeated compiled run not served from the code cache: "
        f"{hits} hits, {misses} misses")
    assert warm == cold, (
        f"cache-served run diverged from the cold run:\n"
        f"  cold: {cold}\n  warm: {warm}")


def compute_phase() -> None:
    from repro.asm import assemble
    from repro.isa import RV32IMC_ZICSR

    program = assemble(WORKLOAD, isa=RV32IMC_ZICSR)
    best, outcome, extras, _machines = _measure(program)
    jit_stats = extras["compiled"]

    # 1. the JIT engaged — no silent interpreter fall-back.
    assert jit_stats is not None, "compiled backend reported no JIT stats"
    assert jit_stats["blocks_compiled"] >= 1, jit_stats
    assert jit_stats["compiled_instructions"] > \
        jit_stats["interp_instructions"], (
        f"bulk of instructions retired outside the compiled tier: "
        f"{jit_stats}")
    assert jit_stats["compile_failures"] == 0, jit_stats

    # 2. byte-identical results.
    assert outcome["compiled"] == outcome["interp"], (
        f"compiled tier diverged from the interpreter:\n"
        f"  interp:   {outcome['interp']}\n"
        f"  compiled: {outcome['compiled']}")

    # 3. the speedup floor.
    speedup = best["interp"] / best["compiled"]
    insns = outcome["compiled"][0].instructions
    print(f"jit smoke [compute]: {insns:,} instructions  "
          f"interp {insns / best['interp'] / 1e6:.2f} MIPS  "
          f"compiled {insns / best['compiled'] / 1e6:.2f} MIPS  "
          f"speedup {speedup:.2f}x  "
          f"({jit_stats['blocks_compiled']} blocks compiled)")
    assert speedup >= MIN_SPEEDUP, (
        f"compiled tier only {speedup:.2f}x vs interp "
        f"(floor {MIN_SPEEDUP}x)")


def memory_phase() -> None:
    from repro.asm import assemble
    from repro.isa import RV32IMC_ZICSR

    program = assemble(MEM_WORKLOAD, isa=RV32IMC_ZICSR)
    best, outcome, extras, _machines = _measure(program)
    jit_stats = extras["compiled"]

    # 1. the trace tier engaged on the multi-block loop.
    assert jit_stats["traces_compiled"] >= 1, jit_stats
    assert jit_stats["trace_instructions"] > 0, jit_stats
    assert jit_stats["trace_failures"] == 0, jit_stats

    # 2. the RAM fast path engaged on both backends.
    for backend in ("interp", "compiled"):
        mem = outcome[backend][2]
        assert mem["fastpath_hit_rate"] > 0, (backend, mem)

    # 3. byte-identical results, including memory observables (access
    # counters and the dirty-page set).
    assert outcome["compiled"] == outcome["interp"], (
        f"trace tier diverged from the interpreter:\n"
        f"  interp:   {outcome['interp']}\n"
        f"  compiled: {outcome['compiled']}")

    insns = outcome["compiled"][0].instructions
    mem = outcome["compiled"][2]
    print(f"jit smoke [memory]:  {insns:,} instructions  "
          f"interp {insns / best['interp'] / 1e6:.2f} MIPS  "
          f"compiled {insns / best['compiled'] / 1e6:.2f} MIPS  "
          f"speedup {best['interp'] / best['compiled']:.2f}x  "
          f"({jit_stats['traces_compiled']} traces, "
          f"fastpath hit rate {mem['fastpath_hit_rate']:.3f})")


def interrupt_phase() -> None:
    from repro.asm import assemble
    from repro.isa import RV32IMC_ZICSR

    program = assemble(IRQ_WORKLOAD, isa=RV32IMC_ZICSR)
    best, outcome, extras, machines = _measure(program)
    jit_stats = extras["compiled"]

    # 1. the timer fired inside both loops.
    regs = outcome["compiled"][1][0]
    fused_irqs, trace_irqs = regs[20], regs[21]  # s4, s5
    assert fused_irqs > 0 and trace_irqs > 0, (fused_irqs, trace_irqs)

    # 2. the fused loop and the trace both retired instructions.
    machine = machines["compiled"]
    fused = [block for block in machine.cpu._tb_cache.values()
             if block.compiled is not None
             and "_horizon(" in block.compiled.__jit_source__]
    threshold = machine.config.jit_threshold
    assert fused and fused[0].exec_count > 10 * threshold, (
        "the self-loop did not run in the batched fused shape")
    assert jit_stats["trace_instructions"] > 0, jit_stats

    # 3. byte-identical results: RunResult, registers, the raw CSR file
    # with the mip shadow, and mtime.
    assert outcome["compiled"] == outcome["interp"], (
        f"interrupted loops diverged from the interpreter:\n"
        f"  interp:   {outcome['interp']}\n"
        f"  compiled: {outcome['compiled']}")

    insns = outcome["compiled"][0].instructions
    print(f"jit smoke [interrupts]: {insns:,} instructions  "
          f"interp {insns / best['interp'] / 1e6:.2f} MIPS  "
          f"compiled {insns / best['compiled'] / 1e6:.2f} MIPS  "
          f"({fused_irqs} timer interrupts in the fused loop, "
          f"{trace_irqs} in the trace)")


SLOW_ITERS = 300      # iterations of each slow-path loop
SLOW_EVENT = 137      # the iteration of a program's one-off event


def slow_path_program(shape: str, body_a: str, body_b: str,
                      prologue: str = "", handler: str = "mret") -> str:
    """``SLOW_ITERS`` iterations of ``body_a`` then ``body_b`` (``;``
    separates instructions): one self-looping block (``fused``) or two
    blocks a direct jump joins (``trace``)."""
    def lines(text):
        return "\n".join(f"    {insn.strip()}" for insn in text.split(";")
                         if insn.strip())
    join = "    j second\nsecond:\n" if shape == "trace" else ""
    return f"""
_start:
    la t0, handler
    csrw mtvec, t0
    la s0, buf
{lines(prologue)}
    li t0, 0
    li t1, {SLOW_ITERS}
loop:
{lines(body_a)}
{join}{lines(body_b)}
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
.align 2
handler:
{lines(handler)}
.data
buf: .word 3, 5, 7, 11, 13, 17, 19, 23
"""


#: name -> (body_a, body_b, prologue, handler, faults).  ``faults`` is
#: a list of (target, index or "buf+N", bit, kind) tuples.
SLOW_PATH_CASES = {
    "uart-store": (
        "lw t2, 0(s0); add a0, a0, t2; sb a0, 0(s1)",
        "xor a1, a1, a0; sw a1, 4(s0)", "li s1, 0x10000000", "mret", []),
    "misaligned-load": (
        "add a0, a0, t0; lw t2, 0(s0); add a1, a1, t2; sw a1, 8(s0)",
        f"addi t5, t0, -{SLOW_EVENT}; seqz t5, t5; add s0, s0, t5", "",
        "andi s0, s0, -4; addi a1, a1, 1000; addi a2, a2, 1; mret", []),
    "exit-store": (
        f"lw t2, 0(s0); add a0, a0, t2; addi t5, t0, -{SLOW_EVENT};"
        " seqz t5, t5; andi t6, a0, 0x7f; slli t6, t6, 1; or t5, t5, t6;"
        " sw t5, 0(s2); sw a0, 4(s0); addi a1, a1, 7",
        "xor a1, a1, a0", "li s2, 0x00100000", "mret", []),
    "stuck-register": (
        "add a0, a0, t0; xor a0, a0, t1; lw t2, 0(s0)",
        "add a0, a0, t2; sw a0, 0(s0)", "", "mret",
        [("gpr", 10, 4, "stuck_at_1"), ("gpr", 10, 9, "stuck_at_0")]),
    "stuck-ram-page": (
        "add a0, a0, t0; sw a0, 4(s0); lw t2, 4(s0)",
        "add a1, a1, t2; sb a1, 12(s0)", "", "mret",
        [("memory", "buf+5", 2, "stuck_at_1")]),
}


def _slow_path_state(program, backend, faults):
    from repro.faultsim import Fault, inject
    from repro.isa import RV32IMC_ZICSR
    from repro.vp import Machine, MachineConfig, Plugin

    class TrapRecorder(Plugin):
        name = "trap-recorder"

        def __init__(self):
            self.seen = []

        def on_trap(self, cpu, cause, pc):
            self.seen.append((cause, pc, tuple(cpu.regs._regs)))

    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                    jit_threshold=1, jit_trace_threshold=1))
    machine.load(program)
    for target, index, bit, kind in faults:
        if isinstance(index, str):
            index = program.symbols["buf"] + int(index.split("+")[1])
        inject(machine, Fault(target, index, bit, kind))
    recorder = TrapRecorder()
    machine.add_plugin(recorder)
    result = machine.run(max_instructions=1_000_000)
    cpu = machine.cpu
    state = (result, cpu.pc, tuple(cpu.regs._regs),
             tuple(sorted(cpu.csrs._regs.items())), cpu.csrs.instret,
             cpu.csrs.cycle, machine.mem_stats(),
             tuple(sorted(machine.ram.dirty_pages())),
             tuple(sorted((pc, block.exec_count)
                          for pc, block in cpu._tb_cache.items())),
             bytes(machine.uart.tx_log), tuple(recorder.seen))
    return state, machine


def slow_path_phase() -> None:
    from repro.asm import assemble
    from repro.isa import RV32IMC_ZICSR

    for name, (body_a, body_b, prologue, handler, faults) in \
            SLOW_PATH_CASES.items():
        for shape in ("fused", "trace"):
            program = assemble(slow_path_program(
                shape, body_a, body_b, prologue, handler),
                isa=RV32IMC_ZICSR)
            expected, _ = _slow_path_state(program, "interp", faults)
            state, machine = _slow_path_state(program, "compiled", faults)
            blocks = machine.cpu._tb_cache.values()
            if shape == "trace":
                engaged = any(block.trace is not None for block in blocks)
            else:
                engaged = any(
                    block.compiled is not None and block.trace is None
                    and "while True:" in block.compiled.__jit_source__
                    for block in blocks)
            assert engaged, f"{name}/{shape}: the loop shape did not engage"
            assert state == expected, (
                f"{name}/{shape}: compiled diverged from the interpreter:\n"
                f"  interp:   {expected}\n  compiled: {state}")
    print(f"jit smoke [slow paths]: {len(SLOW_PATH_CASES)} programs x "
          f"fused/trace identical to interp")


# A self-loop that loads and stores: the polling fused shape.
POLL_WORKLOAD = """
_start:
    la s0, buf
    li t0, 0
    li t1, 2000
loop:
    lw t2, 0(s0)
    add t2, t2, t0
    sw t2, 4(s0)
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
.data
buf: .word 3, 5
"""

#: Budgets past the first iterations, the same for every program.
LARGE_BUDGETS = (997, 4099, 12_347, 65_537)


def _budget_state(program, backend, budget, faults=()):
    from repro.faultsim import Fault, inject
    from repro.isa import RV32IMC_ZICSR
    from repro.vp import Machine, MachineConfig

    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                    jit_threshold=1, jit_trace_threshold=1))
    machine.load(program)
    for target, index, bit, kind in faults:
        if isinstance(index, str):
            index = program.symbols["buf"] + int(index.split("+")[1])
        inject(machine, Fault(target, index, bit, kind))
    result = machine.run(max_instructions=budget)
    cpu = machine.cpu
    return (result, tuple(cpu.regs._regs), cpu.csrs.snapshot(),
            machine.clint.mtime, tuple(sorted(machine.ram.dirty_pages())),
            tuple(sorted((pc, block.exec_count)
                         for pc, block in cpu._tb_cache.items())))


def budget_phase() -> None:
    from repro.asm import assemble
    from repro.isa import RV32IMC_ZICSR

    # name -> (source, loop body length, faults)
    programs = {"f1-fused-batched": (WORKLOAD, 9, []),
                "f5-trace": (MEM_WORKLOAD, 42, []),
                "fused-polling": (POLL_WORKLOAD, 5, [])}
    for name, (body_a, body_b, prologue, handler, faults) in \
            SLOW_PATH_CASES.items():
        length = 2 + len((body_a + ";" + body_b).split(";"))
        for shape in ("fused", "trace"):
            programs[f"{name}/{shape}"] = (
                slow_path_program(shape, body_a, body_b, prologue, handler),
                length + (shape == "trace"), faults)
    runs = 0
    for name, (source, length, faults) in programs.items():
        program = assemble(source, isa=RV32IMC_ZICSR)
        for budget in (*range(1, 2 * length + 1), *LARGE_BUDGETS):
            expected = _budget_state(program, "interp", budget, faults)
            state = _budget_state(program, "compiled", budget, faults)
            result = state[0]
            assert (result.stop_reason != "max_insns"
                    or result.instructions == budget), (
                f"{name}: budget {budget} retired {result.instructions}")
            assert state == expected, (
                f"{name}: budget {budget}: compiled diverged from the "
                f"interpreter:\n  interp:   {expected}\n"
                f"  compiled: {state}")
            runs += 1
    print(f"jit smoke [exact budgets]: {runs} budgets over "
          f"{len(programs)} programs, each exact and identical to interp")


def main() -> int:
    compute_phase()
    memory_phase()
    interrupt_phase()
    slow_path_phase()
    budget_phase()
    print("jit smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
