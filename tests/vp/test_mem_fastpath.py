"""RAM fast-path window and trace invalidation regressions.

The CPU caches one ``(base, end, buffer)`` window over the first plain
:class:`~repro.vp.memory.Ram` region and serves aligned loads/stores
straight from the buffer — in :meth:`Cpu.load`/:meth:`Cpu.store` and in
JIT-generated code alike.  These tests pin the invalidation contract:
every event that changes what an address means (device replacement,
snapshot restore) must be visible to the very next access, including
from already-compiled blocks and traces (stale *view*), and a
translation-cache flush must tear down compiled traces so patched code
never executes stale semantics (stale *code*).  The dirty-page side of
the contract — the fast path marks pages inline, keeping
``Ram.dirty_pages()`` exact — is what lets the checkpointed fault
campaigns below classify identically on every backend.
"""

import pytest

from repro.asm import assemble
from repro.faultsim import FaultCampaign, MutantBudget, generate_mutants
from repro.isa import RV32IMC_ZICSR
from repro.vp import Machine, MachineConfig
from repro.vp.machine import CLINT_BASE, RAM_BASE
from repro.vp.memory import Device
from repro.vp.trap import Trap

ADDR = RAM_BASE + 0x200


class StuckBitDevice(Device):
    """A bus device in front of RAM that forces one bit of one byte on
    loads: the stand-in for any device swapped in over the window."""

    def __init__(self, inner, offset, mask):
        self.inner = inner
        self._offset = offset
        self._mask = mask

    def load(self, offset, width):
        value = self.inner.load(offset, width)
        if offset <= self._offset < offset + width:
            value |= self._mask << (8 * (self._offset - offset))
        return value

    def store(self, offset, width, value):
        self.inner.store(offset, width, value)


def make_machine(backend="interp", **kwargs):
    return Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend,
                                 **kwargs))


# ---------------------------------------------------------------------------
# Window mechanics in Cpu.load / Cpu.store
# ---------------------------------------------------------------------------

def test_ram_access_takes_fast_path_and_marks_dirty():
    machine = make_machine()
    cpu = machine.cpu
    cpu.store(ADDR, 4, 0xDEADBEEF)
    assert cpu.load(ADDR, 4) == 0xDEADBEEF
    assert (cpu.mem_fast_loads, cpu.mem_fast_stores) == (1, 1)
    assert (cpu.mem_bus_loads, cpu.mem_bus_stores) == (0, 0)
    page = (ADDR - RAM_BASE) // machine.ram.page_size
    assert page in machine.ram.dirty_pages()


def test_subword_and_signed_window_access():
    cpu = make_machine().cpu
    cpu.store(ADDR, 1, 0x80)
    cpu.store(ADDR + 2, 2, 0xFFFE)
    assert cpu.load(ADDR, 1) == 0x80
    assert cpu.load(ADDR, 1, signed=True) & 0xFFFFFFFF == 0xFFFFFF80
    assert cpu.load(ADDR + 2, 2, signed=True) & 0xFFFFFFFF == 0xFFFFFFFE
    # The word read sees both sub-word stores merged in the buffer.
    assert cpu.load(ADDR, 4) == 0xFFFE0080


def test_mmio_still_dispatches_through_the_bus():
    cpu = make_machine().cpu
    cpu.load(CLINT_BASE + 0xBFF8, 4)  # mtime
    assert cpu.mem_bus_loads == 1
    assert cpu.mem_fast_loads == 0


def test_misaligned_access_traps_before_the_window():
    cpu = make_machine().cpu
    with pytest.raises(Trap):
        cpu.load(ADDR + 1, 4)
    with pytest.raises(Trap):
        cpu.store(ADDR + 1, 2, 0)
    assert cpu.mem_fast_loads == cpu.mem_bus_loads == 0


def test_window_does_not_extend_past_ram_end():
    machine = make_machine()
    cpu = machine.cpu
    end = RAM_BASE + machine.ram.size
    assert cpu.load(end - 4, 4) == 0  # last word: in the window
    assert cpu.mem_fast_loads == 1
    with pytest.raises(Trap):
        cpu.load(end, 4)  # first address past RAM: bus fallback faults


# ---------------------------------------------------------------------------
# Stale view: the window must die with the mapping
# ---------------------------------------------------------------------------

def test_replace_invalidates_the_cached_window():
    machine = make_machine()
    cpu = machine.cpu
    cpu.store(ADDR, 4, 0)
    assert cpu.mem_fast_stores == 1  # window is primed
    wrapper = StuckBitDevice(machine.ram, offset=ADDR - RAM_BASE, mask=0x01)
    machine.bus.replace(RAM_BASE, wrapper)
    # The wrapper is a Device, not a Ram: the refreshed window is empty
    # and the very next access must see the stuck bit via the bus.
    assert cpu.load(ADDR, 4) == 1
    assert cpu.mem_bus_loads == 1


def test_restore_rebinds_the_window():
    machine = make_machine()
    cpu = machine.cpu
    cpu.store(ADDR, 4, 0x1111)
    snap = machine.snapshot()
    cpu.store(ADDR, 4, 0x2222)
    machine.restore(snap)
    assert cpu.load(ADDR, 4) == 0x1111
    assert cpu.mem_fast_loads == 1  # served from the (re-derived) window
    assert machine.ram.dirty_pages() == set()


def test_page_rewrites_stay_visible_through_the_window():
    """write_page / fill mutate the buffer in place, so a
    primed window keeps reading the live bytes with no invalidation."""
    machine = make_machine()
    cpu = machine.cpu
    assert cpu.load(ADDR, 4) == 0  # prime the window
    machine.ram.write_page(0, b"\x7f" * machine.ram.page_size)
    assert cpu.load(RAM_BASE, 4) == 0x7F7F7F7F
    machine.ram.fill(0xAB)
    assert cpu.load(ADDR, 4) == 0xABABABAB
    assert cpu.mem_bus_loads == 0


# ---------------------------------------------------------------------------
# Stale view / stale code from compiled traces
# ---------------------------------------------------------------------------

#: Two translation blocks of dense RAM traffic: hot enough to compile
#: and fuse into one trace within a few hundred instructions.
HOT_MEMORY_LOOP = """
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
    li a7, 93
    ecall
.data
scratch: .word 0, 0, 0, 0, 0, 0, 0, 0
"""


def hot_machine(backend):
    machine = make_machine(backend=backend, jit_threshold=2,
                           jit_trace_threshold=4)
    machine.load(assemble(HOT_MEMORY_LOOP.format(iters=400),
                          isa=RV32IMC_ZICSR))
    return machine


def digest(machine):
    return (tuple(machine.cpu.regs.snapshot()), machine.cpu.pc,
            machine.cpu.csrs.instret, machine.cpu.csrs.cycle,
            tuple(sorted(machine.ram.dirty_pages())))


def test_replace_disables_fast_path_in_live_trace():
    """A device swap mid-run must reach code that is *already* compiled:
    the generated functions re-check the window binding at entry, so the
    very next trace execution falls back to bus dispatch."""
    outcomes = {}
    for backend in ("interp", "compiled"):
        machine = hot_machine(backend)
        first = machine.run(max_instructions=5_000)
        assert first.stop_reason == "max_insns"
        if backend == "compiled":
            assert machine.jit_stats()["traces_compiled"] >= 1
        # Stuck bit parked in untouched RAM: the point is the bus
        # fallback after the swap, not the corruption itself (a stuck
        # code byte would derail fetch on both backends alike).
        wrapper = StuckBitDevice(machine.ram, offset=0x10_0000, mask=0x01)
        machine.bus.replace(RAM_BASE, wrapper)
        bus_loads = machine.cpu.mem_bus_loads
        trace_retired = (machine.jit_stats()["trace_instructions"]
                         if backend == "compiled" else 0)
        second = machine.run(max_instructions=5_000_000)
        assert second.stop_reason == "exit"
        if backend == "compiled":
            stats = machine.jit_stats()
            # The trace kept running (no teardown needed) ...
            assert stats["trace_instructions"] > trace_retired
        # ... but every RAM access after the swap went through the bus.
        assert machine.cpu.mem_bus_loads > bus_loads
        outcomes[backend] = ((first.instructions, second.instructions,
                              second.exit_code), digest(machine))
    assert outcomes["compiled"] == outcomes["interp"]


def test_flush_tears_down_stale_traces():
    """Code patching: flushing the translation cache discards the member
    blocks (and with them the trace), so patched bytes retranslate."""
    outcomes = {}
    for backend in ("interp", "compiled"):
        machine = hot_machine(backend)
        first = machine.run(max_instructions=5_000)
        if backend == "compiled":
            assert machine.jit_stats()["traces_compiled"] >= 1
            head = next(block for block in
                        machine.cpu._tb_cache.values()
                        if block.trace is not None)
            assert head.trace_token is not None
        # Patch the loop-counter increment ``addi t0, t0, 1`` to step by
        # 2 (halving the remaining iterations) and flush, as fence.i
        # would.  The instruction is located by its encoding — word or
        # compressed, whichever the assembler emitted — and must be
        # unique in the image so the patch lands on the intended site.
        image = machine.ram.read_bytes(0, 4096)
        old32 = ((1 << 20) | (5 << 15) | (5 << 7) | 0x13).to_bytes(
            4, "little")
        old16 = (0x0285).to_bytes(2, "little")  # c.addi t0, 1
        if image.count(old32) == 1:
            patch_addr = image.index(old32)
            patch = ((2 << 20) | (5 << 15) | (5 << 7) | 0x13).to_bytes(
                4, "little")
        else:
            assert image.count(old16) == 1, "cannot locate loop addi"
            patch_addr = image.index(old16)
            patch = (0x0289).to_bytes(2, "little")  # c.addi t0, 2
        machine.ram.write_bytes(patch_addr, patch)
        machine.cpu.flush_translation_cache()
        assert not machine.cpu._tb_cache  # trace died with its blocks
        second = machine.run(max_instructions=5_000_000)
        assert second.stop_reason == "exit"
        outcomes[backend] = ((first.instructions, second.instructions,
                              second.exit_code), digest(machine))
    assert outcomes["compiled"] == outcomes["interp"]


# ---------------------------------------------------------------------------
# RAM stuck bit: held in the buffer, honoured by the fast path
# ---------------------------------------------------------------------------

#: Stores of every width over a word whose byte 1 holds a stuck bit,
#: each followed by loads of every width covering that byte, then the
#: word goes out through the write ecall.
STUCK_LOOP = """
_start:
    la s0, value
    li s1, 0
    li t1, {iters}
loop:
    sw zero, 0(s0)
    lw t0, 0(s0)
    add s1, s1, t0
    sh zero, 0(s0)
    lhu t0, 0(s0)
    add s1, s1, t0
    lh t0, 0(s0)
    add s1, s1, t0
    sb zero, 1(s0)
    lbu t0, 1(s0)
    add s1, s1, t0
    lb t0, 1(s0)
    add s1, s1, t0
    addi t1, t1, -1
    bnez t1, loop
    li a0, 1
    mv a1, s0
    li a2, 4
    li a7, 64
    ecall
    mv a0, s1
    li a7, 93
    ecall
.data
value: .word 0x11223344
"""

#: ``fastpath`` is the retired alias of ``interp``: machines that name it
#: must behave exactly like ``interp`` ones.
BACKENDS = ("interp", "fastpath", "compiled")


def stuck_machine(backend, iters=40):
    machine = make_machine(backend=backend, jit_threshold=2,
                           jit_trace_threshold=4)
    program = assemble(STUCK_LOOP.format(iters=iters), isa=RV32IMC_ZICSR)
    machine.load(program)
    return machine, program.symbols["value"] - RAM_BASE


def install(machine, offset, mask, stuck_one):
    machine.ram.install_stuck(offset, mask, stuck_one)
    machine.cpu.invalidate_ram_window()


@pytest.mark.parametrize("backend", BACKENDS)
def test_stuck_bit_seen_by_every_access_width(backend):
    machine, offset = stuck_machine(backend)
    snap = machine.snapshot()
    install(machine, offset + 1, 0x04, True)
    result = machine.run(max_instructions=100_000)
    assert result.stop_reason == "exit"
    # Per iteration: word and two halfword loads read 0x400, two byte
    # loads read 0x04, whatever the stores before them wrote.
    assert result.exit_code == 40 * (3 * 0x400 + 2 * 0x04)
    assert bytes(machine.uart.tx_log) == b"\x00\x04\x00\x00"
    stats = machine.mem_stats()
    assert stats["fastpath_fallback_loads"] == 0
    assert stats["fastpath_fallback_stores"] == 0
    assert stats["fastpath_loads"] > 0 and stats["fastpath_stores"] > 0
    if backend == "compiled":
        assert machine.jit_stats()["compiled_instructions"] > 0
    machine.ram.remove_stuck()
    machine.cpu.invalidate_ram_window()
    machine.restore(snap)
    assert bytes(machine.ram.data) == snap.materialize_ram()
    assert machine.ram.dirty_pages() == set()


@pytest.mark.parametrize("backend", BACKENDS)
def test_stuck_code_byte_is_fetched(backend):
    machine = make_machine(backend=backend)
    machine.load(assemble("_start:\n    addi a0, zero, 1\n"
                          "    li a7, 93\n    ecall\n", isa=RV32IMC_ZICSR))
    # Byte 2 bit 5 is immediate bit 1: the instruction becomes li a0, 3.
    install(machine, 2, 0x20, True)
    assert machine.run(max_instructions=100).exit_code == 3


def test_install_after_compilation_reaches_compiled_code():
    """Code compiled before the install (no flush in between) stops
    running: the RAM fault is in the specialization token, so stores
    that recompile bind the stuck bit's page set."""
    outcomes = {}
    for backend in BACKENDS:
        machine, offset = stuck_machine(backend, iters=400)
        first = machine.run(max_instructions=2_000)
        assert first.stop_reason == "max_insns"
        if backend == "compiled":
            assert machine.jit_stats()["blocks_compiled"] > 0
        install(machine, offset + 1, 0x04, True)
        second = machine.run(max_instructions=100_000)
        assert second.stop_reason == "exit"
        outcomes[backend] = (second.exit_code, digest(machine),
                             bytes(machine.ram.data))
    assert outcomes["compiled"] == outcomes["interp"] == outcomes["fastpath"]
    assert outcomes["interp"][0] != 0


def test_moving_the_stuck_bit_keeps_the_compiler():
    """A Ram binds one stuck page set for life, so the token records only
    that a bit is installed: moving the bit keeps the compiled code, and
    compiled stores force the new bit."""
    outcomes = {}
    for backend in BACKENDS:
        machine, offset = stuck_machine(backend, iters=400)
        install(machine, offset + 1, 0x04, True)
        first = machine.run(max_instructions=2_000)
        assert first.stop_reason == "max_insns"
        compiler = getattr(machine.cpu.backend, "_compiler", None)
        machine.ram.remove_stuck()
        install(machine, offset, 0x01, True)
        second = machine.run(max_instructions=100_000)
        assert second.stop_reason == "exit"
        if backend == "compiled":
            assert machine.cpu.backend._compiler is compiler
            assert machine.jit_stats()["compiled_instructions"] > 0
        outcomes[backend] = (second.exit_code, digest(machine),
                             bytes(machine.ram.data))
    assert outcomes["compiled"] == outcomes["interp"] == outcomes["fastpath"]


# ---------------------------------------------------------------------------
# Checkpointed fault campaigns classify identically on every backend
# ---------------------------------------------------------------------------

def test_checkpointed_campaign_parity_across_backends():
    """Byte-identical classifications, compiled vs interp, with warm
    checkpoints on — the campaign engine leans on ``dirty_pages()``
    for delta snapshots, so this exercises the inline dirty marking
    under real restore traffic."""
    program = assemble(HOT_MEMORY_LOOP.format(iters=40), isa=RV32IMC_ZICSR)
    budget = MutantBudget(code=8, gpr_transient=8, gpr_stuck=4,
                          memory_transient=6, memory_stuck=4)
    faults = generate_mutants(program, budget=budget,
                              golden_instructions=1_700, seed=11)
    assert faults
    outcomes = {}
    for backend in ("interp", "compiled"):
        campaign = FaultCampaign(program, isa=RV32IMC_ZICSR,
                                 backend=backend, checkpoints=True)
        result = campaign.run(faults)
        outcomes[backend] = (
            campaign.golden(),
            [(r.fault, r.outcome, r.exit_code, r.trap_cause,
              r.instructions) for r in result.results])
    assert outcomes["compiled"] == outcomes["interp"]
