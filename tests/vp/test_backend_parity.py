"""Backend parity: ``interp`` and ``compiled`` must be architecturally
indistinguishable.

Every program from the three testgen suites plus a 200-program fuzz
corpus runs under both execution backends — with and without
per-instruction hooks attached for the directed suites — and the suite
asserts byte-identical :class:`RunResult`, final register file, raw CSR
file (the ``mip`` shadow included), counters, ``mtime`` and pc.  With an
instruction or memory hook, or traced registers, the compiled backend
compiles nothing: its blocks run in the interpreter's loop, which keeps
hook order exact.
"""

import random

import pytest

from repro.fuzz.executor import ProgramBuilder
from repro.fuzz.mutators import IsaMutator
from repro.isa import RV32IMC_ZICSR
from repro.testgen import (ArchSuiteGenerator, TortureConfig,
                           TortureGenerator, UnitSuiteGenerator)
from repro.vp import (BACKEND_NAMES, Machine, MachineConfig, Plugin,
                      run_lockstep)

#: Promote after two executions so even short directed programs exercise
#: the compiled tier.
JIT_THRESHOLD = 2

class _CountingHooks(Plugin):
    """Per-instruction + per-block hooks; the compiled backend runs every
    block interpreted."""

    name = "parity-counter"

    def __init__(self) -> None:
        self.insns = 0
        self.blocks = 0

    def on_insn_exec(self, cpu, decoded, pc) -> None:
        self.insns += 1

    def on_block_exec(self, cpu, block) -> None:
        self.blocks += 1


def state_digest(machine):
    cpu = machine.cpu
    return (
        tuple(cpu.regs.snapshot()),
        cpu.pc,
        tuple(sorted(cpu.csrs._regs.items())),
        cpu.csrs.instret,
        cpu.csrs.cycle,
        machine.clint.mtime,
    )


def build_machine(backend):
    kwargs = {"backend": backend}
    if backend == "compiled":
        kwargs["jit_threshold"] = JIT_THRESHOLD
    return Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))


def run_one(program, backend, hooks=False, budget=200_000):
    machine = build_machine(backend)
    machine.load(program)
    plugin = machine.add_plugin(_CountingHooks()) if hooks else None
    result = machine.run(max_instructions=budget)
    hook_counts = (plugin.insns, plugin.blocks) if plugin else None
    return result, state_digest(machine), hook_counts, machine


def _suite_programs():
    programs = []
    programs += [(f"arch:{name}", prog) for name, prog
                 in ArchSuiteGenerator(RV32IMC_ZICSR).generate()]
    programs += [(f"unit:{name}", prog) for name, prog
                 in UnitSuiteGenerator(RV32IMC_ZICSR, seed=0).generate()]
    torture = TortureGenerator(RV32IMC_ZICSR,
                               TortureConfig(length=80, seed=7))
    programs += [(f"torture:{name}", prog) for name, prog
                 in torture.generate_suite(3, start_seed=7)]
    return programs


SUITE_PROGRAMS = _suite_programs()


@pytest.mark.parametrize("hooks", [False, True], ids=["nohooks", "hooks"])
@pytest.mark.parametrize("name,program", SUITE_PROGRAMS,
                         ids=[name for name, _ in SUITE_PROGRAMS])
def test_suite_program_parity(name, program, hooks):
    results = {}
    for backend in BACKEND_NAMES:
        result, digest, hook_counts, machine = run_one(
            program, backend, hooks=hooks)
        results[backend] = (result, digest, hook_counts)
        if backend == "compiled":
            stats = machine.jit_stats()
            assert stats is not None
            if hooks:
                assert stats["blocks_compiled"] == 0
    assert results["compiled"] == results["interp"], (
        f"{name} diverged under compiled:\n"
        f"  interp:   {results['interp']}\n"
        f"  compiled: {results['compiled']}")


#: A memory-heavy loop long enough to split into multiple translation
#: blocks: the compiled tier must chain them into a cross-block trace,
#: and every backend routes the traffic through the RAM fast path.
TRACE_SOURCE = """
_start:
    la s0, scratch
    li t0, 0
    li t1, 300
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


@pytest.mark.parametrize("hooks", [False, True], ids=["nohooks", "hooks"])
def test_trace_and_fastpath_parity(hooks):
    """The trace tier and the RAM fast path are architecturally silent.

    Beyond the usual digest, the memory observables must match: the
    fast-path/bus access counters (the generated code increments them
    per access, exactly like :meth:`Cpu.load`/:meth:`Cpu.store`) and the
    dirty-page set (the fast path marks pages inline).
    """
    from repro.asm import assemble

    program = assemble(TRACE_SOURCE, isa=RV32IMC_ZICSR)
    results = {}
    observables = {}
    for backend in BACKEND_NAMES:
        result, digest, hook_counts, machine = run_one(
            program, backend, hooks=hooks)
        results[backend] = (result, digest, hook_counts)
        mem = machine.mem_stats()
        observables[backend] = (mem,
                                tuple(sorted(machine.ram.dirty_pages())))
        assert mem["fastpath_hit_rate"] > 0, (backend, mem)
        if backend == "compiled" and not hooks:
            stats = machine.jit_stats()
            assert stats["traces_compiled"] >= 1, stats
            assert stats["trace_instructions"] > \
                stats["compiled_instructions"], stats
        elif backend == "compiled":
            assert machine.jit_stats()["blocks_compiled"] == 0
    assert results["compiled"] == results["interp"]
    assert observables["compiled"] == observables["interp"]


class _InsnRecorder(Plugin):
    """Records every instruction and block hook call, in order."""

    name = "parity-insn-recorder"

    def __init__(self) -> None:
        self.calls = []

    def on_insn_exec(self, cpu, decoded, pc) -> None:
        self.calls.append((pc, cpu.csrs.instret, cpu.regs.snapshot()))

    def on_block_exec(self, cpu, block) -> None:
        self.calls.append((block.start_pc,))


class _MemRecorder(Plugin):
    """Records every memory hook call, in order."""

    name = "parity-mem-recorder"

    def __init__(self) -> None:
        self.calls = []

    def on_mem_access(self, cpu, addr, width, value, is_store) -> None:
        self.calls.append((cpu.pc, addr, width, value, is_store))


def _observed_corpus():
    from repro.verify.campaign import RepeatBuilder, build_corpus

    builder = RepeatBuilder(RV32IMC_ZICSR)
    return [(name, builder.build(words))
            for spec in ("suites", "torture:20")
            for name, words in build_corpus(RV32IMC_ZICSR, spec, 0)]


@pytest.mark.parametrize("observer", ["insn-hook", "mem-hook"])
def test_observed_runs_compile_nothing(observer):
    """An instruction hook or a memory hook keeps every block of a
    compiled run interpreted: the run, the hook calls, the GPRs, the
    CSRs and the dirty pages equal the interpreter's over
    ``suites`` and ``torture:20`` (each body looped four times, so its
    blocks would get hot)."""
    corpus = _observed_corpus()
    assert len(corpus) > 20
    for name, program in corpus:
        outcomes = {}
        for backend in BACKEND_NAMES:
            machine = Machine(MachineConfig(
                isa=RV32IMC_ZICSR, backend=backend, jit_threshold=1))
            machine.load(program)
            recorder = (_InsnRecorder if observer == "insn-hook"
                        else _MemRecorder)
            plugin = machine.add_plugin(recorder())
            result = machine.run(max_instructions=20_000)
            outcomes[backend] = (
                result, plugin.calls, machine.cpu.regs.snapshot(),
                machine.cpu.csrs.snapshot(),
                sorted(machine.ram.dirty_pages()))
            if backend == "compiled":
                assert machine.jit_stats()["blocks_compiled"] == 0, name
        assert outcomes["compiled"] == outcomes["interp"], name


def lockstep(pair, program):
    """Per-instruction lockstep of two backends over ``program``."""
    return run_lockstep(build_machine(pair[0]), build_machine(pair[1]),
                        program)


@pytest.mark.parametrize("pair", [("interp", "compiled")],
                         ids=lambda p: "-vs-".join(p))
def test_lockstep_over_trace_program(pair):
    """Per-instruction lockstep across the multi-block memory loop."""
    from repro.asm import assemble

    outcome = lockstep(pair, assemble(TRACE_SOURCE, isa=RV32IMC_ZICSR))
    assert not outcome.diverged
    assert outcome.instructions > 0


def test_fastpath_names_the_interpreter():
    """``fastpath`` is the retired name of ``interp``; unknown names
    still fail with the valid ones."""
    from repro.vp import canonical_backend, create_backend
    from repro.vp.backends import InterpBackend

    machine = Machine(MachineConfig(backend="fastpath"))
    assert type(machine.cpu.backend) is InterpBackend
    assert canonical_backend("fastpath") == "interp"
    assert BACKEND_NAMES == ("interp", "compiled")
    with pytest.raises(ValueError,
                       match="expected one of interp, compiled"):
        create_backend("turbo", machine.cpu)


def test_compiled_tier_actually_engages():
    """The parity suite must not silently compare interpreter to itself."""
    # A hot loop long enough to clear the threshold many times over.
    source = """
    _start:
        li t0, 0
        li t1, 400
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        li a0, 0
        li a7, 93
        ecall
    """
    from repro.asm import assemble

    program = assemble(source, isa=RV32IMC_ZICSR)
    _result, _digest, _hooks, machine = run_one(program, "compiled")
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] >= 1
    assert stats["compiled_instructions"] > stats["interp_instructions"]


def test_fuzz_corpus_parity():
    """200 seeded random programs, both backends, identical outcomes."""
    rng = random.Random(0xC0FFEE)
    mutator = IsaMutator(RV32IMC_ZICSR)
    builder = ProgramBuilder(RV32IMC_ZICSR)
    for index in range(200):
        words = []
        for _ in range(rng.randint(1, 24)):
            word = mutator.random_instruction(rng)
            if word is not None:
                words.append(word)
        program = builder.build(words)
        reference = run_one(program, "interp", budget=5_000)[:3]
        got = run_one(program, "compiled", budget=5_000)[:3]
        assert got == reference, (
            f"fuzz program {index} diverged under compiled: "
            f"words={[hex(w) for w in words]}")


@pytest.mark.parametrize("pair", [("interp", "compiled")],
                         ids=lambda p: "-vs-".join(p))
def test_lockstep_per_instruction(pair):
    """Per-instruction lockstep over a branchy, memory-touching loop."""
    from repro.asm import assemble

    program = assemble("""
    _start:
        la s0, scratch
        li t0, 0
        li t1, 60
    loop:
        andi t2, t0, 3
        slli t3, t2, 2
        add t4, s0, t3
        sw t0, 0(t4)
        lw t5, 0(t4)
        add a0, a0, t5
        addi t0, t0, 1
        blt t0, t1, loop
        li a7, 93
        li a0, 0
        ecall
    .data
    scratch: .word 0, 0, 0, 0
    """, isa=RV32IMC_ZICSR)
    outcome = lockstep(pair, program)
    assert not outcome.diverged
    assert outcome.instructions > 0


# ---------------------------------------------------------------------------
# Instruction-count watch (ExecutionBackend.set_watch)
# ---------------------------------------------------------------------------

#: A single-block self-loop (the fused shape) and then a loop over two
#: blocks joined by a jump (a trace).
WATCH_SOURCE = """
_start:
    li a0, 1
    li t0, 0
    li t1, 300
spin:
    add a0, a0, t0
    xor a0, a0, t1
    addi t0, t0, 1
    blt t0, t1, spin
    li t0, 0
outer:
    addi a0, a0, 7
    j inner
inner:
    slli t2, a0, 1
    xor a0, a0, t2
    addi t0, t0, 1
    blt t0, t1, outer
    andi a0, a0, 0xff
    li a7, 93
    ecall
"""

WATCH_EVERY = 37


def watched_run(backend, stop_at=None):
    """Run WATCH_SOURCE with a watch every WATCH_EVERY instructions;
    returns the (key, instret, pc) of every call, the result, and the
    machine."""
    from repro.asm import assemble
    from repro.vp import StopRun

    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                    jit_threshold=JIT_THRESHOLD,
                                    jit_trace_threshold=4))
    machine.load(assemble(WATCH_SOURCE, isa=RV32IMC_ZICSR))
    cpu = machine.cpu
    calls = []

    def watch(key):
        retired = cpu.csrs.instret
        calls.append((key, retired, cpu.pc))
        if stop_at is not None and retired >= stop_at:
            raise StopRun
        return (retired // WATCH_EVERY + 1) * WATCH_EVERY

    cpu.backend.set_watch(watch, WATCH_EVERY)
    result = machine.run(max_instructions=100_000)
    return calls, result, machine


def test_watch_pauses_at_the_same_boundaries_on_every_backend():
    """Fused loops and traces stop at the first block boundary at or
    after each key, where the interpreter's per-block loop does; the
    watch changes nothing architectural."""
    runs = {backend: watched_run(backend) for backend in BACKEND_NAMES}
    calls, result, machine = runs["interp"]
    assert result.stop_reason == "exit"
    assert len(calls) > 40
    for key, retired, _pc in calls:
        assert 0 <= retired - key < 32  # one block of overshoot at most
    plain = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend="interp"))
    from repro.asm import assemble

    plain.load(assemble(WATCH_SOURCE, isa=RV32IMC_ZICSR))
    plain_result = plain.run(max_instructions=100_000)
    assert result == plain_result
    assert state_digest(machine) == state_digest(plain)
    for backend in BACKEND_NAMES:
        got_calls, got_result, got_machine = runs[backend]
        assert got_calls == calls, backend
        assert got_result == result, backend
        assert state_digest(got_machine) == state_digest(machine), backend
    compiled = runs["compiled"][2]
    assert compiled.jit_stats()["traces_compiled"] >= 1
    assert any("_horizon(" in block.compiled.__jit_source__
               for block in compiled.cpu._tb_cache.values()
               if block.compiled is not None)


def test_watch_stops_the_run_and_resumes():
    for backend in BACKEND_NAMES:
        calls, result, machine = watched_run(backend, stop_at=500)
        assert result.stop_reason == "stop_requested"
        assert result.instructions == machine.cpu.csrs.instret
        assert calls[-1][1] == result.instructions >= 500
        hooks_version = machine.cpu.hooks.version
        flushes = machine.cpu.tb_flushes
        machine.cpu.backend.set_watch()
        assert (machine.cpu.hooks.version, machine.cpu.tb_flushes) == (
            hooks_version, flushes)
        final = machine.run(max_instructions=100_000, resume=True)
        assert final == watched_run("interp")[1]
