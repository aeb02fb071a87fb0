"""The template JIT itself: codegen shapes, tiering, cache hygiene.

The backend parity suite (``test_backend_parity.py``) proves the
compiled tier is architecturally invisible; this module tests the JIT's
own machinery — which codegen shape a block gets, when a block is
promoted, what invalidates compiled code, and that stale functions can
never run after a translation-cache flush.
"""

import pytest

from repro.asm import assemble
from repro.isa import RV32IMC_ZICSR
from repro.isa import csr as csrdef
from repro.vp import Machine, MachineConfig, Plugin
from repro.vp.jit import CompiledBackend, DEFAULT_THRESHOLD, code_cache_stats
from repro.vp.jit import compiler as jit_compiler
from repro.vp.jit.compiler import CompileError

from ..conftest import run_asm


def compiled_machine(threshold=1, **kwargs):
    return Machine(MachineConfig(isa=RV32IMC_ZICSR, backend="compiled",
                                 jit_threshold=threshold, **kwargs))


def compiled_blocks(machine):
    return {pc: block for pc, block in machine.cpu._tb_cache.items()
            if block.compiled is not None}


HOT_LOOP = """
_start:
    li t0, 0
    li t1, 300
loop:
    add a0, a0, t0
    xor a1, a1, a0
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
"""

MEM_LOOP = """
_start:
    la s0, scratch
    li t0, 0
    li t1, 100
loop:
    sw t0, 0(s0)
    lw t2, 0(s0)
    add a0, a0, t2
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
.data
scratch: .word 0
"""


# ----------------------------------------------------------------------
# Tiering
# ----------------------------------------------------------------------

def test_blocks_promote_at_threshold():
    machine, result = run_asm(HOT_LOOP, backend="compiled",
                              jit_threshold=8)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] >= 1
    # Warm-up iterations run in the interpreter tier first.
    assert stats["interp_instructions"] > 0
    assert stats["compiled_instructions"] > stats["interp_instructions"]


def test_default_threshold_is_documented_value():
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend="compiled"))
    assert isinstance(machine.cpu.backend, CompiledBackend)
    assert machine.cpu.backend.threshold == DEFAULT_THRESHOLD == 8


def test_cold_blocks_stay_interpreted():
    # Threshold higher than any block's execution count: nothing compiles.
    machine, result = run_asm(HOT_LOOP, backend="compiled",
                              jit_threshold=10_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] == 0
    assert stats["compiled_instructions"] == 0


# ----------------------------------------------------------------------
# Codegen shapes
# ----------------------------------------------------------------------

def _sources(machine):
    return [block.compiled.__jit_source__
            for block in compiled_blocks(machine).values()]


def test_fused_batched_shape_for_pure_alu_self_loop():
    machine, result = run_asm(HOT_LOOP, backend="compiled", jit_threshold=1)
    assert result.stop_reason == "exit"
    sources = _sources(machine)
    batched = [src for src in sources if "_horizon(" in src]
    assert batched, "pure-ALU self-loop should take the batched fused shape"
    # The batched loop checks the interrupt deadline between batches,
    # not per iteration, and never calls a device.
    inner = batched[0].split("while _it < _n:")[1].split("ret += _n")[0]
    assert "cpu._poll_at" not in inner
    assert batched[0].count("cpu._poll_at") == 1
    assert "bus" not in batched[0]


def test_fused_polling_shape_for_memory_self_loop():
    machine, result = run_asm(MEM_LOOP, backend="compiled", jit_threshold=1)
    assert result.stop_reason == "exit"
    sources = _sources(machine)
    loop_sources = [src for src in sources if "while True" in src]
    assert loop_sources, "self-loop should take a fused shape"
    for src in loop_sources:
        # Memory-touching bodies must re-poll every iteration — batching
        # would freeze device state the loop can observe.
        assert "_horizon(" not in src


class _InsnHook(Plugin):
    name = "jit-insn-hook"

    def __init__(self):
        self.calls = []

    def on_insn_exec(self, cpu, decoded, pc):
        self.calls.append((pc, cpu.regs.snapshot()))


class _MemHook(Plugin):
    name = "jit-mem-hook"

    def __init__(self):
        self.calls = []

    def on_mem_access(self, cpu, addr, width, value, is_store):
        self.calls.append((cpu.pc, addr, width, value, is_store))


@pytest.mark.parametrize("hook,source", [
    (_InsnHook, HOT_LOOP), (_InsnHook, MEM_LOOP), (_MemHook, MEM_LOOP)],
    ids=["insn-hook-hot-loop", "insn-hook-mem-loop", "mem-hook-mem-loop"])
def test_hooked_machine_compiles_nothing(hook, source):
    """An instruction or memory hook keeps every block in the
    interpreter, which calls it exactly as the interp backend does."""
    def run(backend):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                        jit_threshold=1))
        machine.load(assemble(source, isa=RV32IMC_ZICSR))
        plugin = machine.add_plugin(hook())
        result = machine.run(max_instructions=100_000)
        return machine, _outcome(machine, result) + (plugin.calls,)

    machine, compiled = run("compiled")
    assert compiled == run("interp")[1]
    assert compiled[-1]
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] == stats["traces_compiled"] == 0
    assert stats["interp_instructions"] == compiled[3]
    assert machine.cpu.backend.interpreted in (
        "an instruction hook is attached", "a memory hook is attached")


def test_plain_machine_compiles_no_method_shape_blocks():
    """Without hooks nothing keeps a block interpreted: the loop runs
    compiled."""
    machine, _ = run_asm(MEM_LOOP, backend="compiled", jit_threshold=1)
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] >= 1
    assert stats["compiled_instructions"] > stats["interp_instructions"]
    assert machine.cpu.backend.interpreted is None


def test_block_hook_keeps_direct_shape_without_traces():
    from repro.vp import Plugin

    class BlockHook(Plugin):
        name = "block-hook"

        def __init__(self):
            self.count = 0

        def on_block_exec(self, cpu, block):
            self.count += 1

    def run(machine):
        machine.load(assemble(HOT_LOOP, isa=RV32IMC_ZICSR))
        hook = machine.add_plugin(BlockHook())
        result = machine.run(max_instructions=100_000)
        return result.instructions, result.cycles, hook.count

    machine = compiled_machine()
    assert run(machine) == run(Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                                     backend="interp")))
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] >= 1
    assert stats["compiled_instructions"] > stats["interp_instructions"]
    assert machine.cpu.backend.interpreted is None
    # Fused loops and traces would run several blocks per hook call.
    assert stats["traces_compiled"] == 0
    assert not any("while True" in src for src in _sources(machine))
    assert all("for _h in HB:" in src for src in _sources(machine))


def test_jit_counters_published_as_gauges():
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    machine, _ = run_asm(HOT_LOOP, backend="compiled", jit_threshold=1)
    machine.telemetry = telemetry
    machine.run(max_instructions=10)
    gauges = telemetry.metrics.to_dict()
    for key, value in machine.jit_stats().items():
        assert gauges[f"vp.jit.{key}"]["value"] == value
    assert "vp.jit.method_blocks" not in gauges


def test_jit_source_attached_for_introspection():
    machine, _ = run_asm(HOT_LOOP, backend="compiled", jit_threshold=1)
    for block in compiled_blocks(machine).values():
        src = block.compiled.__jit_source__
        assert src.startswith("def _tb")
        # The code object's filename carries the block address, so
        # tracebacks through compiled code are attributable.
        assert f"{block.start_pc:#x}" in block.compiled.__code__.co_filename


# ----------------------------------------------------------------------
# Stuck-at register files on the direct shape
# ----------------------------------------------------------------------

def _every_register_loop():
    """A hot loop that reads (and mostly writes) every GPR, x0 included
    through ``bnez``, with sp-relative memory traffic."""
    lines = ["_start:"]
    lines += [f"    li x{n}, {(n * 0x01234567) & 0x7FFFFFFF:#x}"
              for n in range(1, 31) if n != 2]
    lines += ["    li x31, 12", "loop:", "    sw x3, -4(x2)",
              "    lw x4, -4(x2)", "    xor x1, x1, x2"]
    lines += [f"    add x{n}, x{n}, x{n + 1}"
              for n in range(1, 31) if n != 2]
    lines += ["    addi x31, x31, -1", "    bnez x31, loop",
              "    li a7, 93", "    ecall"]
    return "\n".join(lines) + "\n"


EVERY_REGISTER_LOOP = _every_register_loop()


def _stuck_run(backend, reg, stuck_one):
    from repro.faultsim import (STUCK_AT_0, STUCK_AT_1, TARGET_GPR, Fault,
                                inject)

    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend))
    machine.load(assemble(EVERY_REGISTER_LOOP, isa=RV32IMC_ZICSR))
    kind = STUCK_AT_1 if stuck_one else STUCK_AT_0
    inject(machine, Fault(TARGET_GPR, reg, (3 * reg + 1) % 32, kind))
    result = machine.run(max_instructions=5_000)
    return machine, _outcome(machine, result) + (
        machine.cpu.csrs.snapshot(),)


@pytest.mark.parametrize("stuck_one", [False, True], ids=["sa0", "sa1"])
@pytest.mark.parametrize("reg", range(32))
def test_stuck_register_matches_interpreter_on_direct_shape(reg, stuck_one):
    machine, compiled = _stuck_run("compiled", reg, stuck_one)
    _, interpreted = _stuck_run("interp", reg, stuck_one)
    assert compiled == interpreted
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] >= 1
    assert machine.cpu.backend.interpreted is None


def test_stuck_bit_is_folded_into_generated_reads():
    machine, _ = _stuck_run("compiled", 7, True)
    mask = 1 << 22
    fns = [block.compiled for block in machine.cpu._tb_cache.values()
           if block.compiled is not None]
    fns += [block.trace for block in machine.cpu._tb_cache.values()
            if block.trace is not None]
    # The mask is the namespace constant _SK, not a literal in the
    # source, so every bit of x7 shares these code objects.
    folded = [fn for fn in fns
              if "(R[7] | _SK)" in fn.__jit_source__
              or "(r7 | _SK)" in fn.__jit_source__]
    assert folded
    for fn in folded:
        assert fn.__globals__["_SK"] == mask
        assert f"{mask:#x}" not in fn.__jit_source__
    assert not any("_rd(" in fn.__jit_source__ for fn in fns)


# ----------------------------------------------------------------------
# Cache hygiene
# ----------------------------------------------------------------------

def _run_twice_with_patch(backend):
    """Run a counting loop, patch its stride from 1 to 2 in RAM, flush,
    run again from the entry point.  Returns both final a0 values."""
    source = """
    _start:
        li t0, 0
        li a0, 0
        li t1, 200
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        mv a0, t0
        li a7, 93
        li a0, 0
        ecall
    """
    program = assemble(source, isa=RV32IMC_ZICSR)
    patched = assemble(source.replace("addi t0, t0, 1", "addi t0, t0, 2"),
                       isa=RV32IMC_ZICSR)
    kwargs = {"backend": backend}
    if backend == "compiled":
        kwargs["jit_threshold"] = 1
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))
    machine.load(program)
    first = machine.run(max_instructions=10_000)
    assert first.stop_reason == "exit"
    # Self-modifying store: overwrite the whole text image with the
    # patched encoding, then flush — the contract for SMC.
    base, blob = patched.text_segment
    for offset in range(0, len(blob), 4):
        word = int.from_bytes(blob[offset:offset + 4], "little")
        machine.cpu.bus.store(base + offset, 4, word)
    machine.cpu.flush_translation_cache()
    assert not machine.cpu._tb_cache
    machine.cpu.pc = program.entry
    second = machine.run(max_instructions=10_000)
    assert second.stop_reason == "exit"
    return first.instructions, second.instructions


def test_smc_flush_never_runs_stale_compiled_code():
    interp = _run_twice_with_patch("interp")
    compiled = _run_twice_with_patch("compiled")
    assert compiled == interp
    # The patched loop strides by 2 — half the iterations.  If the stale
    # compiled block survived the flush, the second run's delta would
    # match the first run's count instead.  (``instructions`` accumulates
    # across run calls.)
    assert compiled[1] - compiled[0] < compiled[0]


def test_clear_on_full_drops_compiled_blocks():
    # A tiny cache cap forces wholesale clear-on-full flushes while the
    # loop blocks are hot and compiled.
    source = """
    _start:
        li t0, 0
        li t1, 50
    loop:
        addi t0, t0, 1
        beq t0, t1, out
        addi a1, a1, 2
        addi a2, a2, 3
        j loop
    out:
        li a0, 0
        li a7, 93
        ecall
    """
    machine, result = run_asm(source, backend="compiled", jit_threshold=1,
                              tb_cache_max_blocks=2)
    assert result.stop_reason == "exit"
    assert machine.cpu.tb_flushes >= 1
    reference_machine, reference = run_asm(source)
    assert (result.instructions, result.cycles) == \
        (reference.instructions, reference.cycles)
    assert machine.cpu.regs.snapshot() == \
        reference_machine.cpu.regs.snapshot()


def test_hook_attach_invalidates_compiled_code():
    from repro.vp import Plugin

    class Hook(Plugin):
        name = "late-hook"

        def __init__(self):
            self.count = 0

        def on_insn_exec(self, cpu, decoded, pc):
            self.count += 1

    def run(backend):
        kwargs = {"backend": backend}
        if backend == "compiled":
            kwargs["jit_threshold"] = 1
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))
        machine.load(assemble(HOT_LOOP, isa=RV32IMC_ZICSR))
        first = machine.run(max_instructions=300)
        stats = machine.jit_stats()
        hook = machine.add_plugin(Hook())
        second = machine.run(max_instructions=100_000)
        return (first.instructions, second.instructions, hook.count), \
            stats, machine.jit_stats()

    compiled, before, after = run("compiled")
    assert compiled == run("interp")[0]
    # The compiled loop runs interpreted once the hook is attached.
    assert before["compiled_instructions"] > 0
    assert after["compiled_instructions"] == before["compiled_instructions"]
    assert after["blocks_compiled"] == before["blocks_compiled"]


def test_hook_attached_mid_run_turns_compilation_off():
    """A hook attached inside one run (here by the run-loop watch)
    leaves compiled code at the next block boundary: the rest of the run
    is interpreted and the hook sees every instruction the interpreter
    would show it."""
    class Hook(Plugin):
        name = "mid-run-hook"

        def __init__(self):
            self.calls = []

        def on_insn_exec(self, cpu, decoded, pc):
            self.calls.append((pc, cpu.csrs.instret))

    def run(backend):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                        jit_threshold=1))
        machine.load(assemble(HOT_LOOP, isa=RV32IMC_ZICSR))
        hook = Hook()

        def attach(_key):
            machine.add_plugin(hook)
            return float("inf")

        machine.cpu.backend.set_watch(attach, 500)
        result = machine.run(max_instructions=100_000)
        return machine, (_outcome(machine, result), hook.calls)

    machine, compiled = run("compiled")
    assert compiled == run("interp")[1]
    stats = machine.jit_stats()
    assert stats["compiled_instructions"] > 0
    # Every instruction after the attach retired in the interpreter.
    assert stats["interp_instructions"] >= len(compiled[1]) - 1 > 0


def test_compile_failure_blacklists_block():
    machine = compiled_machine()
    machine.load(assemble(HOT_LOOP, isa=RV32IMC_ZICSR))
    # Force _refresh to build the compiler, then sabotage it.
    machine.run(max_instructions=1)
    backend = machine.cpu.backend

    class Broken:
        def compile(self, block):
            raise CompileError("forced failure")

        def compile_trace(self, blocks):
            raise CompileError("forced failure")

    backend._compiler = Broken()
    before = machine.jit_stats()["blocks_compiled"]
    result = machine.run(max_instructions=100_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    # Nothing new compiles once the compiler only raises.
    assert stats["blocks_compiled"] == before
    # Each block fails once, is blacklisted, and never retried — the
    # failure count stays at the number of distinct hot blocks.
    assert 0 < stats["compile_failures"] <= len(machine.cpu._tb_cache) + 1
    assert backend._no_compile
    reference = run_asm(HOT_LOOP)[1]
    assert (result.instructions, result.cycles) == \
        (reference.instructions, reference.cycles)


def test_icache_disables_compiled_tier():
    from repro.vp import ICacheConfig

    machine, result = run_asm(HOT_LOOP, backend="compiled", jit_threshold=1,
                              icache=ICacheConfig())
    assert result.stop_reason == "exit"
    assert machine.jit_stats()["blocks_compiled"] == 0


# ----------------------------------------------------------------------
# Interrupts inside the batched fused loop
# ----------------------------------------------------------------------

TIMER_SPIN = """
_start:
    la t0, handler
    csrw mtvec, t0
    li t0, 0x0200BFF8
    lw t1, 0(t0)
    li t2, {delta}
    add t1, t1, t2
    li t0, 0x02004000
    sw t1, 0(t0)
    sw zero, 4(t0)
    li t0, 0x80
    csrw mie, t0
    li s2, 1
    csrsi mstatus, 8
spin:
    addi s0, s0, 1
    xor s1, s1, s0
    blt zero, s2, spin
handler:
    csrr a0, mcause
    li a7, 93
    ecall
"""


@pytest.mark.parametrize("delta", [3, 7, 50, 51, 52, 400, 1001])
def test_timer_interrupt_lands_identically_in_batched_loop(delta):
    """The batched fused loop must take the timer trap on the same
    instruction, with the same counters, as the interpreter — the
    timer-horizon computation caps each batch exactly at the firing
    point."""
    def run(backend):
        kwargs = {"backend": backend}
        if backend == "compiled":
            kwargs["jit_threshold"] = 1
        machine, result = run_asm(TIMER_SPIN.format(delta=delta),
                                  max_instructions=100_000, **kwargs)
        return (result.stop_reason, result.exit_code, result.instructions,
                result.cycles, machine.cpu.regs.snapshot(),
                machine.cpu.csrs.read(0x342),   # mcause
                machine.cpu.csrs.read(0x341))   # mepc

    compiled = run("compiled")
    assert compiled == run("interp")
    assert compiled[5] == 0x80000007  # machine timer interrupt


def test_budget_split_parity():
    """Identical run-call split patterns retire identically across
    backends, and every run that ends ``max_insns`` retires exactly its
    budget."""
    splits = (7, 93, 1000, 900, 50_000)

    def run(backend):
        kwargs = {"backend": backend}
        if backend == "compiled":
            kwargs["jit_threshold"] = 1
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))
        machine.load(assemble(HOT_LOOP, isa=RV32IMC_ZICSR))
        outcomes = []
        for budget in splits:
            result = machine.run(max_instructions=budget)
            if result.stop_reason == "max_insns":
                assert result.instructions == budget
            outcomes.append((result.stop_reason, result.instructions,
                             result.cycles, machine.cpu.pc))
        return outcomes

    assert run("compiled") == run("interp")


# ----------------------------------------------------------------------
# Trace tier
# ----------------------------------------------------------------------

#: Body long enough (40 ops) that the loop splits into two translation
#: blocks — the minimal shape that exercises cross-block traces.
MULTI_BLOCK_LOOP = """
_start:
    la s0, scratch
    li t0, 0
    li t1, {iters}
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

MULTI_BLOCK_TIMER = """
_start:
    la t0, handler
    csrw mtvec, t0
    li t0, 0x0200BFF8
    lw t1, 0(t0)
    li t2, {delta}
    add t1, t1, t2
    li t0, 0x02004000
    sw t1, 0(t0)
    sw zero, 4(t0)
    li t0, 0x80
    csrw mie, t0
    la s0, scratch
    li s2, 1
    csrsi mstatus, 8
spin:
""" + "\n".join(
    f"    lw s1, {(k % 4) * 4}(s0)\n"
    "    addi s1, s1, 1\n"
    f"    sw s1, {(k % 4) * 4}(s0)"
    for k in range(12)) + """
    blt zero, s2, spin
handler:
    csrr a0, mcause
    li a7, 93
    ecall
.data
scratch: .word 0, 0, 0, 0
"""


def trace_machine(iters=400, **kwargs):
    kwargs.setdefault("jit_trace_threshold", 4)
    machine = compiled_machine(threshold=2, **kwargs)
    machine.load(assemble(MULTI_BLOCK_LOOP.format(iters=iters),
                          isa=RV32IMC_ZICSR))
    return machine


def test_trace_forms_over_hot_chain():
    machine = trace_machine()
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["traces_compiled"] == 1
    assert stats["trace_failures"] == 0
    # Once formed, the trace carries the loop: it retires more than the
    # per-block compiled tier and the interp warm-up combined.
    assert stats["trace_instructions"] > (stats["compiled_instructions"]
                                          + stats["interp_instructions"])
    heads = [block for block in machine.cpu._tb_cache.values()
             if block.trace is not None]
    assert len(heads) == 1
    backend = machine.cpu.backend
    assert heads[0].trace_token == backend._token
    members = [block for block in machine.cpu._tb_cache.values()
               if block.trace_member]
    assert len(members) >= 2


def test_trace_source_attached_for_introspection():
    machine = trace_machine()
    machine.run(max_instructions=1_000_000)
    head = next(block for block in machine.cpu._tb_cache.values()
                if block.trace is not None)
    source = head.trace.__jit_source__
    # The code object's filename carries the head address, so tracebacks
    # through trace code are attributable, like per-block functions.
    assert head.trace.__code__.co_filename == \
        f"<jit-trace:{head.start_pc:#x}>"
    # The loop-shaped trace re-enters its own head without leaving the
    # function, and its memory ops carry the inline fast-path guards.
    assert "while True:" in source
    assert "_ramok" in source and "_dirty.add" in source


def test_trace_threshold_gates_formation():
    machine = trace_machine(jit_trace_threshold=10**9)
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["traces_compiled"] == 0
    assert stats["trace_instructions"] == 0


def test_trace_threshold_validated():
    with pytest.raises(ValueError):
        CompiledBackend(Machine(MachineConfig(isa=RV32IMC_ZICSR)).cpu,
                        trace_threshold=0)


def test_self_loop_blocks_do_not_trace():
    """A single-block self-loop is already optimal as a batched fused
    loop — branch-terminated blocks have no static chain edge, so the
    trace walk never considers them and nothing is charged as a
    failure."""
    machine, result = run_asm(HOT_LOOP, backend="compiled",
                              jit_threshold=1, jit_trace_threshold=1)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["traces_compiled"] == 0
    assert stats["trace_failures"] == 0


#: The 32-op head chains into a block whose body holds an untemplated
#: CSR read: structurally untraceable, so the walk must blacklist the
#: head instead of re-walking the chain every execution.
UNTRACEABLE_CHAIN = """
_start:
    li t0, 0
    li t1, 200
    li a0, 0
loop:
""" + "\n".join("    add a0, a0, t0\n    xor a1, a1, a0"
                for _ in range(16)) + """
    csrr t3, mscratch
    add a0, a0, t3
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
"""


def test_untraceable_chain_blacklists_head():
    machine = compiled_machine(threshold=2, jit_trace_threshold=4)
    machine.load(assemble(UNTRACEABLE_CHAIN, isa=RV32IMC_ZICSR))
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["traces_compiled"] == 0
    # Exactly one failed walk, then the head is blacklisted for good.
    assert stats["trace_failures"] == 1
    assert machine.cpu.backend._no_trace


def test_hook_attach_prevents_tracing():
    """Instruction hooks keep every block interpreted, so no trace (whose
    interior exits could not replay per-instruction hook order) forms."""
    machine = trace_machine()

    from repro.vp import Plugin

    class P(Plugin):
        name = "insn-counter"

        def on_insn_exec(self, cpu, decoded, pc):
            pass

    machine.add_plugin(P())
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    assert machine.jit_stats()["traces_compiled"] == 0


def test_trace_budget_split_parity():
    """Budget exhaustion exits a trace at the last member boundary that
    fits, and the run loop runs the prefix of the next member that does:
    every run that ends ``max_insns`` retires exactly its budget."""
    splits = (7, 93, 1000, 900, 17, 50_000)

    def run(backend):
        kwargs = {"backend": backend}
        if backend == "compiled":
            kwargs["jit_threshold"] = 2
            kwargs["jit_trace_threshold"] = 4
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))
        machine.load(assemble(MULTI_BLOCK_LOOP.format(iters=400),
                              isa=RV32IMC_ZICSR))
        outcomes = []
        for budget in splits:
            result = machine.run(max_instructions=budget)
            if result.stop_reason == "max_insns":
                assert result.instructions == budget
            outcomes.append((result.stop_reason, result.instructions,
                             result.cycles, machine.cpu.pc))
        return outcomes, machine.jit_stats()

    compiled, stats = run("compiled")
    assert stats["traces_compiled"] >= 1
    assert compiled == run("interp")[0]


@pytest.mark.parametrize("delta", [40, 173, 1009, 5003])
def test_timer_interrupt_lands_identically_in_trace(delta):
    """The trace polls interrupts at member boundaries, exactly where
    the interpreter's run loop polls between blocks."""
    def run(backend):
        kwargs = {"backend": backend, "max_instructions": 200_000}
        if backend == "compiled":
            kwargs["jit_threshold"] = 2
            kwargs["jit_trace_threshold"] = 4
        machine, result = run_asm(MULTI_BLOCK_TIMER.format(delta=delta),
                                  **kwargs)
        return (result.stop_reason, result.exit_code, result.instructions,
                result.cycles, machine.cpu.regs.snapshot(),
                machine.cpu.csrs.read(0x342),   # mcause
                machine.cpu.csrs.read(0x341))   # mepc

    compiled = run("compiled")
    assert compiled == run("interp")
    assert compiled[5] == 0x80000007  # machine timer interrupt


def test_flush_discards_trace_state():
    machine = trace_machine()
    first = machine.run(max_instructions=5_000)
    assert first.stop_reason == "max_insns"
    assert machine.jit_stats()["traces_compiled"] == 1
    machine.cpu.flush_translation_cache()
    assert not machine.cpu._tb_cache
    # The program re-translates, re-compiles, and re-traces.
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    assert machine.jit_stats()["traces_compiled"] == 2


# ----------------------------------------------------------------------
# Bus slow path (out-of-line _bus_load / _bus_store helpers)
# ----------------------------------------------------------------------

#: A fused polling loop whose load goes to the CLINT and whose store goes
#: to the UART: both leave the RAM window for the bus slow path.
MMIO_LOOP = """
_start:
    li t0, 0x0200BFF8
    li t2, 0x10000000
    li t1, 20
loop:
    lw a1, 0(t0)
    lb a2, 0(t0)
    sb t1, 0(t2)
    addi t1, t1, -1
    bnez t1, loop
    li a0, 0
    li a7, 93
    ecall
"""

#: Walks a load (or store) off the end of RAM inside a compiled block:
#: the bus slow path must take the access fault with exact accounting.
WALK_OFF_RAM = """
_start:
    li s0, 0x803FFFD8
walk:
    {op} a0, 0(s0)
    addi s0, s0, 4
    j walk
"""


def _outcome(machine, result):
    cpu = machine.cpu
    return (result.stop_reason, result.exit_code, result.trap_cause,
            result.instructions, result.cycles, cpu.regs.snapshot(), cpu.pc,
            machine.mem_stats(), machine.uart.output,
            tuple(sorted(machine.ram.dirty_pages())))


def test_bus_slow_path_matches_interpreter():
    compiled = _outcome(*run_asm(MMIO_LOOP, backend="compiled",
                                 jit_threshold=1))
    assert compiled == _outcome(*run_asm(MMIO_LOOP, backend="interp"))
    mem = compiled[7]
    assert mem["fastpath_fallback_loads"] == 40
    assert mem["fastpath_fallback_stores"] == 20


@pytest.mark.parametrize("op,cause", [
    ("lw", csrdef.CAUSE_LOAD_ACCESS), ("sw", csrdef.CAUSE_STORE_ACCESS)])
def test_bus_slow_path_access_fault_matches_interpreter(op, cause):
    source = WALK_OFF_RAM.format(op=op)
    compiled = _outcome(*run_asm(source, backend="compiled",
                                 jit_threshold=1))
    assert compiled == _outcome(*run_asm(source, backend="interp"))
    assert compiled[0] == "unhandled_trap"
    assert compiled[2] == cause


# ----------------------------------------------------------------------
# Process-wide code cache
# ----------------------------------------------------------------------

@pytest.fixture
def code_cache(monkeypatch):
    """A fresh, empty process-wide cache, with ``compile()`` counted."""
    cache = jit_compiler.CodeCache()
    monkeypatch.setattr(jit_compiler, "_CODE_CACHE", cache)
    calls = []
    real = compile

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(jit_compiler, "compile", counting, raising=False)
    cache.compile_calls = calls
    return cache


def _run_multi_block(**kwargs):
    machine = trace_machine(**kwargs)
    result = machine.run(max_instructions=1_000_000)
    return machine, result


def test_second_machine_compiles_nothing(code_cache):
    first_machine, first_result = _run_multi_block()
    compiles = len(code_cache.compile_calls)
    stats = first_machine.jit_stats()
    assert stats["traces_compiled"] == 1
    assert compiles == stats["blocks_compiled"] + stats["traces_compiled"]
    assert code_cache_stats()["misses"] == compiles

    second_machine, second_result = _run_multi_block()
    assert len(code_cache.compile_calls) == compiles  # zero new compiles
    assert code_cache_stats()["hits"] == compiles
    def state(machine, result):
        return (_outcome(machine, result), result,
                machine.cpu.csrs.snapshot(), machine.jit_stats())

    assert state(second_machine, second_result) == \
        state(first_machine, first_result)
    # History-dependent cache counters never leak into jit_stats().
    assert not any("cache" in key for key in second_machine.jit_stats())


def test_shared_code_gets_a_fresh_namespace(code_cache):
    first, _ = _run_multi_block()
    second, _ = _run_multi_block()
    fn1 = next(iter(compiled_blocks(first).values())).compiled
    fn2 = next(iter(compiled_blocks(second).values())).compiled
    assert fn1.__code__ is fn2.__code__
    assert fn1 is not fn2
    assert fn1.__globals__ is not fn2.__globals__
    assert fn1.__globals__["block"] is not fn2.__globals__["block"]


def test_different_ram_size_misses(code_cache):
    _run_multi_block()
    before = len(code_cache.compile_calls)
    # The RAM window bounds are folded into memory templates.
    machine, result = _run_multi_block(ram_size=2 * 1024 * 1024)
    assert result.stop_reason == "exit"
    assert len(code_cache.compile_calls) - before == \
        machine.jit_stats()["blocks_compiled"] \
        + machine.jit_stats()["traces_compiled"]


def test_hooked_machine_misses(code_cache):
    from repro.vp import Plugin

    class Hook(Plugin):
        name = "cache-hook"

        def on_insn_exec(self, cpu, decoded, pc):
            pass

    plain, plain_result = _run_multi_block()
    before = len(code_cache.compile_calls)
    lookups = code_cache.stats()
    hooked = trace_machine()
    hooked.add_plugin(Hook())
    result = hooked.run(max_instructions=1_000_000)
    # A hooked machine compiles nothing, so it neither compiles nor
    # looks up code.
    assert len(code_cache.compile_calls) == before
    assert code_cache.stats() == lookups
    assert hooked.jit_stats()["blocks_compiled"] == 0
    assert (result.instructions, result.cycles, hooked.cpu.regs.snapshot()) \
        == (plain_result.instructions, plain_result.cycles,
            plain.cpu.regs.snapshot())


def test_lru_bound_and_order():
    cache = jit_compiler.CodeCache(max_entries=2)
    emitted = []

    def lookup(key):
        def emit():
            emitted.append(key)
            return f"x = {key!r}\n"
        return cache.code_for((key,), f"<{key}>", emit)

    a = lookup("a")
    assert a[1] == "x = 'a'\n" and a[0].co_filename == "<a>"
    lookup("b")
    assert lookup("a") is a                    # hit; "a" now newest
    lookup("c")                                # evicts "b"
    assert cache.stats() == {"entries": 2, "hits": 1, "misses": 3,
                             "evictions": 1}
    assert lookup("a") is a
    lookup("b")                                # emitted and compiled again
    assert cache.stats()["misses"] == 4
    # A hit skips emission: only misses rendered source.
    assert emitted == ["a", "b", "c", "b"]


def test_bound_holds_under_machine_load(monkeypatch):
    monkeypatch.setattr(jit_compiler, "_CODE_CACHE",
                        jit_compiler.CodeCache(max_entries=3))
    for iters in (50, 60, 50):
        source = MULTI_BLOCK_LOOP.format(iters=iters)
        compiled = _outcome(*run_asm(source, backend="compiled",
                                     jit_threshold=1, jit_trace_threshold=2))
        assert compiled == _outcome(*run_asm(source, backend="interp"))
        assert code_cache_stats()["entries"] <= 3
    assert code_cache_stats()["evictions"] > 0


def test_concurrent_compiles_stay_correct(code_cache):
    """More threads than cores compile the same programs at once, with a
    tiny switch interval to force interleavings inside the cache."""
    import sys
    import threading

    programs = [HOT_LOOP, MEM_LOOP, MULTI_BLOCK_LOOP.format(iters=200),
                MMIO_LOOP]
    expected = [_outcome(*run_asm(src, backend="interp")) for src in programs]
    results = {}
    lookups = []

    def worker(index):
        outcomes = []
        for source in programs[index:] + programs[:index]:
            machine, result = run_asm(source, backend="compiled",
                                      jit_threshold=1, jit_trace_threshold=2)
            stats = machine.jit_stats()
            lookups.append(stats["blocks_compiled"]
                           + stats["traces_compiled"])
            outcomes.append(_outcome(machine, result))
        results[index] = outcomes

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index in range(4):
        assert results[index] == expected[index:] + expected[:index]
    stats = code_cache_stats()
    # No lost counter update: every lookup is exactly one hit or miss.
    assert stats["hits"] + stats["misses"] == sum(lookups)
    assert stats["hits"] > 0
    assert stats["entries"] <= stats["misses"]


def test_fork_child_gets_a_fresh_lock(code_cache):
    import os
    import threading
    import time
    import warnings

    held = threading.Event()
    release = threading.Event()

    def hold():
        with code_cache._lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    holder.start()
    held.wait(10)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # child: the holder thread does not exist here
            try:
                _, result = run_asm(HOT_LOOP, backend="compiled",
                                    jit_threshold=1)
                os._exit(0 if result.stop_reason == "exit" else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 30
        status = None
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child deadlocked on the code cache lock")
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    finally:
        release.set()
        holder.join()


def test_vp_run_job_identical_cold_and_warm(code_cache):
    from repro.serve.executors import execute_job

    payload = {"source": MULTI_BLOCK_LOOP.format(iters=300),
               "backend": "compiled"}
    cold = execute_job("vp_run", payload)
    misses = code_cache_stats()["misses"]
    assert misses > 0
    warm = execute_job("vp_run", payload)
    assert code_cache_stats()["misses"] == misses
    assert code_cache_stats()["hits"] > 0
    assert warm == cold
    assert set(warm["jit"]) == set(CompiledBackend(
        Machine(MachineConfig(isa=RV32IMC_ZICSR)).cpu).stats.as_dict())


def test_cache_counters_published_as_gauges(code_cache):
    from repro.isa import decode_cache_stats
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    machine = trace_machine()
    machine.telemetry = telemetry
    machine.run(max_instructions=1_000_000)
    gauges = telemetry.metrics.to_dict()
    for key, value in code_cache_stats().items():
        assert gauges[f"vp.jit.code_cache.{key}"]["value"] == value
    assert set(decode_cache_stats()) == {"entries", "misses", "evictions"}
    for key, value in decode_cache_stats().items():
        assert gauges[f"vp.isa.decode_cache.{key}"]["value"] == value


def test_canary_caught_with_warm_cache(code_cache):
    from repro.isa import decode_cache_stats
    from repro.verify import DiffCampaign, VerifyCampaignConfig
    from repro.verify.canary import perturbed_semantics

    config = VerifyCampaignConfig(corpus="torture:2",
                                  matrix="interp:compiled",
                                  max_instructions=3000)
    clean = DiffCampaign(RV32IMC_ZICSR, config).run()
    assert clean.divergences == 0
    warmed = code_cache_stats()["entries"]
    assert warmed > 0
    # The clean pass warmed the decode memo too: the perturbed pass
    # decodes the same corpus words from it.
    assert decode_cache_stats()["entries"] > 0
    with perturbed_semantics(RV32IMC_ZICSR, mnemonic="add"):
        result = DiffCampaign(RV32IMC_ZICSR, config).run()
    assert code_cache_stats()["hits"] > 0
    assert result.divergences > 0
    record = result.escalations[0]
    assert record["disasm"].split()[0] == "add"
    assert 0 < len(record["words"]) < record["minimized_from"]


# ----------------------------------------------------------------------
# The code-cache key: equal keys always carry equal sources
# ----------------------------------------------------------------------

class _CheckingCache(jit_compiler.CodeCache):
    """A code cache that re-emits on every lookup, hit or miss, and
    records each source that differs from the one cached, or first seen,
    under the same key."""

    def __init__(self):
        super().__init__(max_entries=1 << 20)
        self.sources = {}
        self.lookups = 0
        self.mismatches = []

    def code_for(self, key, filename, emit):
        fresh = emit()
        code, source = super().code_for(key, filename, lambda: fresh)
        first = self.sources.setdefault(key, fresh)
        self.lookups += 1
        if source != fresh or first != fresh:
            self.mismatches.append((filename, first, fresh))
        return code, source


@pytest.fixture
def checking_cache(monkeypatch):
    cache = _CheckingCache()
    monkeypatch.setattr(jit_compiler, "_CODE_CACHE", cache)
    return cache


def _assert_sources_agree(cache, machine=None):
    assert cache.lookups > 0
    assert not cache.mismatches, cache.mismatches[0]
    if machine is not None:
        compiler = machine.cpu.backend._compiler
        for block in compiled_blocks(machine).values():
            assert block.compiled.__jit_source__ == compiler._emit(block)


def test_verify_corpus_keys_carry_one_source(checking_cache):
    from repro.verify import DiffCampaign, VerifyCampaignConfig
    from repro.verify.campaign import build_corpus

    corpus = build_corpus(RV32IMC_ZICSR, "torture:150", 0)
    for matrix in ("interp:compiled", "backends", "traces"):
        campaign = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
            corpus="torture:150", matrix=matrix))
        campaign._corpus = corpus
        assert campaign.run().divergences == 0
    stats = checking_cache.stats()
    assert stats["misses"] == len(checking_cache.sources)
    assert stats["hits"] > 0
    _assert_sources_agree(checking_cache)


def test_hooked_and_traced_keys_carry_one_source(checking_cache):
    """Hooked machines (which compile nothing) next to the direct, fused
    and trace shapes of the same programs.  Register files no longer
    trace, so the hooked machine is the only one that compiles
    nothing."""
    from repro.vp import Plugin

    class Hook(Plugin):
        name = "key-hook"

        def on_insn_exec(self, cpu, decoded, pc):
            pass

    for _ in range(2):
        for source in (HOT_LOOP, MEM_LOOP, MULTI_BLOCK_LOOP.format(iters=50)):
            hooked = compiled_machine()
            hooked.load(assemble(source, isa=RV32IMC_ZICSR))
            hooked.add_plugin(Hook())
            hooked.run(max_instructions=100_000)
            plain, _ = run_asm(source, backend="compiled", jit_threshold=1)
            assert hooked.jit_stats()["blocks_compiled"] == 0
            assert not compiled_blocks(hooked)
            _assert_sources_agree(checking_cache, plain)
    assert checking_cache.hits > 0
    sources = list(checking_cache.sources.values())
    assert not any("HI" in src or "_rd(" in src for src in sources)
    assert any("while True" in src and "b_1" not in src for src in sources)
    assert any("b_1.exec_count" in src for src in sources)


def test_stuck_register_keys_carry_one_source(checking_cache):
    sources = {}
    for reg, stuck_one in ((7, True), (7, False), (9, True), (7, True)):
        machine, _ = _stuck_run("compiled", reg, stuck_one)
        assert machine.jit_stats()["blocks_compiled"] > 0
        _assert_sources_agree(checking_cache, machine)
        sources.setdefault((reg, stuck_one), set()).update(
            _sources(machine))
    assert checking_cache.hits > 0
    # Each stuck bit folds into its own source.
    assert len({frozenset(srcs) for srcs in sources.values()}) == 3
