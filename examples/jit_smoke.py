#!/usr/bin/env python3
"""Bounded end-to-end smoke test for the compiled execution tier.

Two phases, each comparing the ``compiled`` backend against ``interp``
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

**Both phases — the process-wide code cache:** every compiled run after
the first is served from the cache (hits, no new misses) with an outcome
and ``jit_stats()`` byte-identical to the first, cold run.

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


def _measure(program, repeats=REPEATS):
    """Interleaved best-of-N runs of ``program`` per backend."""
    from repro.isa import RV32IMC_ZICSR
    from repro.vp import Machine, MachineConfig
    from repro.vp.jit import code_cache_stats

    best = {}
    outcome = {}
    extras = {}
    for repeat in range(repeats):
        for backend in ("interp", "compiled"):
            cache_before = code_cache_stats()
            machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                            backend=backend))
            machine.load(program)
            start = time.perf_counter()
            result = machine.run(max_instructions=50_000_000)
            elapsed = time.perf_counter() - start
            assert result.stop_reason == "exit", result.stop_reason
            digest = (tuple(machine.cpu.regs.snapshot()), machine.cpu.pc,
                      machine.cpu.csrs.instret, machine.cpu.csrs.cycle)
            best[backend] = min(best.get(backend, float("inf")), elapsed)
            run_outcome = (result, digest, machine.mem_stats(),
                           tuple(sorted(machine.ram.dirty_pages())))
            if backend == "compiled" and repeat:
                _check_cache_hit(cache_before, code_cache_stats(),
                                 (run_outcome, machine.jit_stats()),
                                 (outcome[backend], extras[backend]))
            outcome[backend] = run_outcome
            extras[backend] = machine.jit_stats()
    return best, outcome, extras


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
    best, outcome, extras = _measure(program)
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
    best, outcome, extras = _measure(program)
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


def main() -> int:
    compute_phase()
    memory_phase()
    print("jit smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
