"""The RV32 CPU core with a QEMU-style translation-block engine.

Execution proceeds block-wise: straight-line instruction sequences are
decoded once into a :class:`TranslationBlock`, cached by start address, and
replayed on subsequent visits — the structure (translate, cache, execute,
chain) that makes QEMU fast, reproduced here because the Scale4Edge tools
(QTA, coverage, fault analysis) hook exactly this structure.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..isa import csr as csrdef
from ..isa.decoder import Decoder, IllegalInstructionError
from ..isa.fields import WORD_MASK, sign_extend
from ..isa.registers import FPRegisterFile, RegisterFile
from ..isa.spec import Decoded
from .memory import (PACK_HALF, PACK_WORD, UNPACK_HALF, UNPACK_WORD, Ram,
                     SystemBus)
from .plugins import HookTable
from .timing import TimingModel
from .trap import BusError, MachineExit, Trap, UnhandledTrap

#: Maximum instructions per translation block (like QEMU's TB size cap).
MAX_BLOCK_INSNS = 32

# Stop reasons reported by Cpu.run().
STOP_MAX_INSNS = "max_insns"
STOP_WFI = "wfi"
STOP_EXIT = "exit"  # produced by Machine, not Cpu.run itself
STOP_LIVELOCK = "trap_livelock"
STOP_REQUESTED = "stop_requested"


class StopRun(Exception):
    """Raised by a plugin hook or a run-loop watch to end :meth:`Cpu.run`
    with ``stop_requested``.

    From an ``on_insn_exec`` hook it halts *before* the current
    instruction executes, with the pc parked on it and the partial
    block's accounting flushed.  The checkpoint engine's re-convergence
    check raises it from the watch, between blocks.  An exact
    instruction count needs neither: ``max_instructions`` is exact.
    """

#: Consecutive zero-progress block steps (trap -> trap -> ...) after which
#: the run is declared livelocked.  A healthy trap entry always retires
#: handler instructions on the next step.
LIVELOCK_LIMIT = 64

#: Interrupt deadline meaning "poll only after an event".
_NEVER = float("inf")


#: Unconditional pc-relative jumps whose target is a translate-time
#: constant — the only redirecting instructions a block can chain through.
_DIRECT_JUMPS = frozenset({"jal", "c.jal", "c.j"})


class TranslationBlock:
    """A decoded straight-line code region starting at ``start_pc``.

    ``insns`` and ``pcs`` are parallel lists; the block ends at the first
    control-flow or system instruction, at :data:`MAX_BLOCK_INSNS`, or just
    before an undecodable word.  ``ends_system`` records the system case:
    such a block may change the interrupt state (a CSR write, ``mret``,
    an ``ecall`` handler, ``wfi``), so the next boundary polls.

    :meth:`finalize` precomputes the per-instruction execution data the hot
    loop needs (``ops``), the instruction-cache lines the block spans, and
    the statically known successor address (``chain_pc``) used for direct
    block chaining.
    """

    __slots__ = ("start_pc", "insns", "pcs", "size", "exec_count",
                 "ops", "next", "chain_pc", "ends_system", "icache_lines",
                 "compiled", "compiled_version",
                 "trace", "trace_token", "trace_heat", "trace_member")

    def __init__(self, start_pc: int, insns: List[Decoded], pcs: List[int]) -> None:
        self.start_pc = start_pc
        self.insns = insns
        self.pcs = pcs
        self.size = sum(d.spec.length for d in insns)
        self.exec_count = 0
        #: Fused ``(decoded, execute, pc, fallthrough, base_cost,
        #: taken_cost)`` tuples — everything the execute loop needs without
        #: calling back into the timing model, chasing ``decoded.spec``
        #: attributes, or recomputing ``pc + length``.
        self.ops: List[tuple] = []
        #: Chained successor block (same-cache only), or ``None``.
        self.next: Optional["TranslationBlock"] = None
        #: Statically known successor pc: the fallthrough address for blocks
        #: that end without control flow, the jump target for blocks ending
        #: in a direct jump, ``None`` for branches/system/indirect ends.
        self.chain_pc: Optional[int] = None
        self.ends_system = False
        #: Cache-line numbers the block spans (empty without an icache).
        self.icache_lines: tuple = ()
        #: Specialized compiled step function (the JIT tier), or ``None``
        #: while the block is still interpreted.
        self.compiled: Optional[Callable] = None
        #: The :class:`~repro.vp.jit.backend.CompiledBackend` specialization
        #: token ``compiled`` was generated for; a mismatch forces a
        #: recompile (hook table changed, register file swapped, ...).
        self.compiled_version: Optional[tuple] = None
        #: Compiled multi-block trace headed at this block (the superblock
        #: tier above ``compiled``), or ``None``.  Lives on the head block
        #: only; a TB flush discards blocks wholesale so stale traces can
        #: never outlive their members.
        self.trace: Optional[Callable] = None
        #: Specialization token ``trace`` was generated for (see
        #: ``compiled_version``).
        self.trace_token: Optional[tuple] = None
        #: Hot-chain-edge counter: executions of this block while already
        #: compiled and chain-headed.  Crossing the trace threshold
        #: triggers a trace-formation attempt.
        self.trace_heat = 0
        #: True when this block's ops are embedded in some compiled trace
        #: (profiler tier labelling).
        self.trace_member = False

    def finalize(self, timing, icache=None) -> None:
        """Precompute hot-loop data against ``timing`` (and ``icache``)."""
        penalty = timing.taken_penalty
        ops = []
        for decoded, pc in zip(self.insns, self.pcs):
            base = timing.base_cost(decoded)
            ops.append((decoded, decoded.spec.execute, pc,
                        pc + decoded.spec.length, base, base + penalty))
        self.ops = ops
        if icache is not None:
            line_size = icache.config.line_size
            self.icache_lines = tuple(
                range(self.start_pc // line_size,
                      (self.end_pc - 1) // line_size + 1))
        last = self.insns[-1]
        spec = last.spec
        self.ends_system = spec.is_system
        if spec.is_jump and spec.name in _DIRECT_JUMPS:
            self.chain_pc = (self.pcs[-1] + last.imm) & WORD_MASK
        elif not (spec.is_branch or spec.is_jump or spec.is_system):
            self.chain_pc = self.end_pc

    @property
    def end_pc(self) -> int:
        """First address after the block."""
        return self.start_pc + self.size

    def __len__(self) -> int:
        return len(self.insns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TranslationBlock({self.start_pc:#010x}, {len(self.insns)} "
                f"insns, {self.size} bytes)")


@dataclass
class RunResult:
    """Outcome of a :meth:`Cpu.run` call."""

    stop_reason: str
    instructions: int
    cycles: int
    exit_code: Optional[int] = None
    trap_cause: Optional[int] = None
    trap_pc: Optional[int] = None


class Cpu:
    """A single RV32 hart executing from a :class:`SystemBus`.

    Interesting attributes:

    * ``regs`` / ``fregs`` / ``csrs`` — architectural state,
    * ``pc`` — address of the instruction currently executing,
    * ``next_pc`` — where control goes next (semantics overwrite to jump),
    * ``hooks`` — the plugin hook table,
    * ``timing`` — the cycle cost model (shared with the WCET analysis).

    ``ecall_handler`` (if set) intercepts ``ecall`` before the architectural
    trap is raised; machines use it for semihosting-style services.
    """

    def __init__(
        self,
        decoder: Decoder,
        bus: SystemBus,
        timing: Optional[TimingModel] = None,
        block_cache_enabled: bool = True,
        icache=None,
        max_blocks: Optional[int] = None,
    ) -> None:
        self.decoder = decoder
        self.bus = bus
        self.timing = timing or TimingModel()
        self.regs = RegisterFile()
        self.fregs = FPRegisterFile()
        self.csrs = csrdef.CsrFile(modules=set(decoder.config.modules))
        self.pc = 0
        self.next_pc = 0
        self.hooks = HookTable()
        self.ecall_handler: Optional[Callable[["Cpu"], None]] = None
        self.block_cache_enabled = block_cache_enabled
        #: Optional :class:`repro.vp.icache.ICache`: fetch misses charge
        #: extra cycles per executed block.
        self.icache = icache
        #: Cached-block cap: on reaching it the cache is flushed wholesale
        #: (cheap clear-on-full eviction).  ``None`` means unbounded.
        if max_blocks is not None and max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
        self.max_blocks = max_blocks
        self._fetch_align_mask = 1 if decoder.config.has_compressed else 3
        self._tb_cache: Dict[int, TranslationBlock] = {}
        #: Block that just completed with a statically known successor —
        #: the chain source for the next step's block lookup.
        self._chain_from: Optional[TranslationBlock] = None
        self._current: Optional[Decoded] = None
        # Softmmu-style RAM fast-path window: direct references to the
        # first plain Ram region's buffer and dirty set, validated against
        # ``bus.version`` before every use so device swaps are picked up
        # instantly.  ``_ram_version = -1`` marks the cache stale; the
        # sentinel base/end make the window check fail for every 32-bit
        # address until refreshed.
        self._ram_version = -1
        self._ram_base = 0x1_0000_0000
        self._ram_end = 0
        self._ram: Optional[Ram] = None
        self._ram_data: Optional[mmap.mmap] = None
        self._ram_dirty = None
        self._ram_shift = 0
        #: Data-access counters: window hits vs bus-dispatch fallbacks
        #: (fetches are not counted — these describe guest loads/stores).
        self.mem_fast_loads = 0
        self.mem_fast_stores = 0
        self.mem_bus_loads = 0
        self.mem_bus_stores = 0
        self._wfi_pending = False
        self._interrupt_poll: Callable[[], int] = lambda: 0
        self._timer_wait: Callable[[], Optional[int]] = lambda: None
        #: Interrupt deadline: the cycle count from which a block boundary
        #: polls the interrupt sources.  0 means the next boundary (an
        #: event may have changed the interrupt state), infinity means
        #: only after an event.  See :meth:`_pending_interrupt`.
        self._poll_at = 0
        # Statistics.
        self.tb_hits = 0
        self.tb_misses = 0
        self.tb_flushes = 0
        #: The :class:`~repro.vp.backends.ExecutionBackend` driving
        #: :meth:`run`.  ``None`` lazily becomes the default ``interp``
        #: backend on the first run.
        self.backend = None

    # ------------------------------------------------------------------
    # Configuration hooks used by Machine
    # ------------------------------------------------------------------

    def set_interrupt_sources(self, poll: Callable[[], int],
                              timer_wait: Callable[[], Optional[int]]
                              ) -> None:
        """``poll()`` returns the mip bits asserted by platform devices;
        ``timer_wait()`` the cycles until the timer newly asserts, or
        ``None`` when it cannot.  The two set the interrupt deadline and
        WFI's fast-forward."""
        self._interrupt_poll = poll
        self._timer_wait = timer_wait
        self._poll_at = 0

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------

    def reset(self, pc: int = 0) -> None:
        self.regs.reset()
        self.fregs.reset()
        self.csrs = csrdef.CsrFile(modules=set(self.decoder.config.modules))
        self.pc = pc & WORD_MASK
        self.next_pc = self.pc
        self._wfi_pending = False
        self._poll_at = 0
        self.flush_translation_cache()

    def flush_translation_cache(self) -> None:
        """Invalidate all cached blocks (``fence.i``, code patching)."""
        self._tb_cache.clear()
        self._chain_from = None
        self.tb_flushes += 1
        if self.hooks.tb_flush:
            for hook in self.hooks.tb_flush:
                hook(self)
            self._poll_at = 0

    def current_word(self) -> int:
        """Raw encoding of the instruction currently executing (for mtval)."""
        return self._current.word if self._current is not None else 0

    # ------------------------------------------------------------------
    # Memory interface used by instruction semantics
    # ------------------------------------------------------------------

    def _refresh_ram_window(self) -> None:
        """Re-derive the RAM fast-path window from the current bus map.

        Only a *plain* :class:`~repro.vp.memory.Ram` is eligible (exact
        type check, not ``isinstance``): anything that wraps or overrides
        ``load``/``store`` — coverage shims, test doubles — must keep
        observing every access through the bus-dispatch path.
        """
        self._ram_version = self.bus.version
        for base, size, device in self.bus.regions:
            if type(device) is Ram:
                self._ram = device
                self._ram_base = base
                self._ram_end = base + size
                self._ram_data = device.data
                self._ram_dirty = device._dirty
                self._ram_shift = device._page_shift
                return
        self._ram = None
        self._ram_base = 0x1_0000_0000
        self._ram_end = 0
        self._ram_data = None
        self._ram_dirty = None
        self._ram_shift = 0

    def invalidate_ram_window(self) -> None:
        """Force a window refresh before the next fast-path access.

        ``bus.version`` already covers device swaps; this is the explicit
        hook for events the bus cannot see (snapshot restore rebinding
        machine state, a RAM stuck bit switching the dirty-page set,
        external mutation of the memory map).
        """
        self._ram_version = -1

    def translation_covers(self, addr: int) -> bool:
        """Whether a translated block may hold decoded code from byte
        ``addr``: a write there leaves that translation stale until the
        cache is flushed.  Without a block cache the executing block is
        not cached, so every address counts as covered."""
        if not self.block_cache_enabled:
            return True
        for block in self._tb_cache.values():
            if block.start_pc <= addr < block.start_pc + block.size:
                return True
        return False

    def load(self, addr: int, width: int, signed: bool = False) -> int:
        if addr % width:
            raise Trap(csrdef.CAUSE_MISALIGNED_LOAD, addr)
        if self._ram_version != self.bus.version:
            self._refresh_ram_window()
        base = self._ram_base
        if base <= addr and addr + width <= self._ram_end:
            offset = addr - base
            data = self._ram_data
            if width == 4:
                value = UNPACK_WORD(data, offset)[0]
            elif width == 1:
                value = data[offset]
            else:
                value = UNPACK_HALF(data, offset)[0]
            self.mem_fast_loads += 1
        else:
            self._poll_at = 0  # a device may change the interrupt state
            try:
                value = self.bus.load(addr, width)
            except BusError:
                raise Trap(csrdef.CAUSE_LOAD_ACCESS, addr) from None
            self.mem_bus_loads += 1
        if self.hooks.mem_access:
            for hook in self.hooks.mem_access:
                hook(self, addr, width, value, False)
        if signed:
            value = sign_extend(value, width * 8)
        return value

    def load_window_bytes(self, addr: int, length: int) -> bytes:
        """The longest prefix of ``[addr, addr + length)`` inside the RAM
        fast-path window, read in one slice and counted as fast loads
        (empty when ``addr`` lies outside it).  Memory hooks do not see
        these reads: callers use it only when none is attached."""
        if self._ram_version != self.bus.version:
            self._refresh_ram_window()
        base = self._ram_base
        if not base <= addr < self._ram_end:
            return b""
        count = min(length, self._ram_end - addr)
        self.mem_fast_loads += count
        return self._ram_data[addr - base:addr - base + count]

    def store(self, addr: int, width: int, value: int) -> None:
        if addr % width:
            raise Trap(csrdef.CAUSE_MISALIGNED_STORE, addr)
        if self.hooks.mem_access:
            for hook in self.hooks.mem_access:
                hook(self, addr, width, value, True)
        if self._ram_version != self.bus.version:
            self._refresh_ram_window()
        base = self._ram_base
        if base <= addr and addr + width <= self._ram_end:
            offset = addr - base
            data = self._ram_data
            if width == 4:
                PACK_WORD(data, offset, value & 0xFFFFFFFF)
            elif width == 1:
                data[offset] = value & 0xFF
            else:
                PACK_HALF(data, offset, value & 0xFFFF)
            # Aligned accesses never straddle a page (page size is a power
            # of two >= 4), so one dirty-set add keeps dirty_pages() exact.
            self._ram_dirty.add(offset >> self._ram_shift)
            self.mem_fast_stores += 1
        else:
            self._poll_at = 0  # a device may change the interrupt state
            try:
                self.bus.store(addr, width, value)
            except BusError:
                raise Trap(csrdef.CAUSE_STORE_ACCESS, addr) from None
            self.mem_bus_stores += 1

    # ------------------------------------------------------------------
    # System interface used by instruction semantics
    # ------------------------------------------------------------------

    def environment_call(self) -> None:
        if self.ecall_handler is not None:
            self.ecall_handler(self)
        else:
            self.trap(csrdef.CAUSE_ECALL_M, 0)

    def trap(self, cause: int, tval: int) -> None:
        raise Trap(cause, tval)

    def wait_for_interrupt(self) -> None:
        self._wfi_pending = True

    def _wfi_wait(self) -> Optional[int]:
        """Cycles WFI fast-forwards: 0 when a device asserts an interrupt
        now (the hart resumes on a pending interrupt whatever the
        enables say), else until the timer asserts, else ``None`` (no
        future event can wake the hart)."""
        if self._interrupt_poll():
            return 0
        return self._timer_wait()

    # ------------------------------------------------------------------
    # Fetch and translate
    # ------------------------------------------------------------------

    def _fetch_halfword(self, addr: int) -> int:
        if not self._ram_base <= addr < self._ram_end:
            self._poll_at = 0  # a device may observe the fetch
        try:
            return self.bus.load(addr, 2)
        except BusError:
            raise Trap(csrdef.CAUSE_FETCH_ACCESS, addr) from None

    def _fetch_word(self, addr: int) -> int:
        """Fetch up to 32 bits at ``addr`` (16-bit granular, like RVC fetch)."""
        low = self._fetch_halfword(addr)
        if low & 0x3 != 0x3:
            return low
        return low | (self._fetch_halfword(addr + 2) << 16)

    def _build_block(self, start_pc: int) -> TranslationBlock:
        insns: List[Decoded] = []
        pcs: List[int] = []
        pc = start_pc
        if self._ram_version != self.bus.version:
            self._refresh_ram_window()  # fetches test it for events
        while len(insns) < MAX_BLOCK_INSNS:
            word = self._fetch_word(pc)
            try:
                decoded = self.decoder.decode(word, pc)
            except IllegalInstructionError:
                if not insns:
                    raise Trap(csrdef.CAUSE_ILLEGAL_INSTRUCTION, word) from None
                break  # end block before the undecodable word
            insns.append(decoded)
            pcs.append(pc)
            pc += decoded.spec.length
            spec = decoded.spec
            if spec.is_branch or spec.is_jump or spec.is_system:
                break
        block = TranslationBlock(start_pc, insns, pcs)
        block.finalize(self.timing, self.icache)
        if self.hooks.block_translate:
            for hook in self.hooks.block_translate:
                hook(self, block)
            self._poll_at = 0
        return block

    def _translate(self, pc: int) -> TranslationBlock:
        """Translate the block at ``pc`` on a block-cache miss (every
        block, with the cache disabled) and cache it."""
        if pc & self._fetch_align_mask:
            raise Trap(csrdef.CAUSE_MISALIGNED_FETCH, pc)
        if not self.block_cache_enabled:
            self.tb_misses += 1
            return self._build_block(pc)
        if (self.max_blocks is not None
                and len(self._tb_cache) >= self.max_blocks):
            self.flush_translation_cache()
        self.tb_misses += 1
        block = self._build_block(pc)
        self._tb_cache[pc] = block
        return block

    # ------------------------------------------------------------------
    # Interrupts and traps
    # ------------------------------------------------------------------

    def _pending_interrupt(self) -> Optional[int]:
        """Poll the interrupt sources: write the raw ``mip`` shadow,
        re-arm the deadline, and return the cause of the interrupt to
        take, or ``None``.

        The deadline becomes the cycle at which the timer asserts, or
        infinity when it cannot newly assert: until then only an event
        (a device access, a system instruction, a trap entry, host code
        between runs) can change what a poll returns.  An interrupt to
        take, or a hook that runs mid-block and may change the state,
        keeps it at 0: the next boundary polls too.
        """
        csrs = self.csrs
        mip = self._interrupt_poll()
        csrs.raw_write(csrdef.MIP, mip)
        if mip and csrs.raw_read(csrdef.MSTATUS) & csrdef.MSTATUS_MIE:
            enabled = mip & csrs.raw_read(csrdef.MIE)
            if enabled:
                self._poll_at = 0
                # Priority order per the privileged spec: external,
                # software, timer.
                if enabled & csrdef.MIE_MEIE:
                    return csrdef.CAUSE_MACHINE_EXTERNAL_INT
                if enabled & csrdef.MIE_MSIE:
                    return csrdef.CAUSE_MACHINE_SOFTWARE_INT
                return csrdef.CAUSE_MACHINE_TIMER_INT
        hooks = self.hooks
        if hooks.block_exec or hooks.insn_exec or hooks.mem_access:
            self._poll_at = 0
        else:
            wait = self._timer_wait()
            self._poll_at = _NEVER if wait is None else csrs.cycle + wait
        return None

    def _take_trap(self, cause: int, tval: int) -> None:
        self._poll_at = 0  # trap entry rewrites mstatus
        mtvec = self.csrs.raw_read(csrdef.MTVEC)
        if mtvec == 0 and not (cause & csrdef.INTERRUPT_BIT):
            raise UnhandledTrap(cause, tval, self.pc)
        if self.hooks.trap:
            for hook in self.hooks.trap:
                hook(self, cause, self.pc)
        self.csrs.raw_write(csrdef.MEPC, self.pc)
        self.csrs.raw_write(csrdef.MCAUSE, cause)
        self.csrs.raw_write(csrdef.MTVAL, tval)
        status = self.csrs.raw_read(csrdef.MSTATUS)
        mie = bool(status & csrdef.MSTATUS_MIE)
        status &= ~(csrdef.MSTATUS_MIE | csrdef.MSTATUS_MPIE)
        if mie:
            status |= csrdef.MSTATUS_MPIE
        status |= csrdef.MSTATUS_MPP  # we came from (and stay in) M-mode
        self.csrs.raw_write(csrdef.MSTATUS, status)
        base = mtvec & ~0x3
        if (mtvec & 0x3) == 1 and (cause & csrdef.INTERRUPT_BIT):
            self.pc = (base + 4 * (cause & 0x3FF)) & WORD_MASK
        else:
            self.pc = base

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _enter_block(self) -> Optional[TranslationBlock]:
        """Poll interrupts if the deadline has passed, then find the
        block at ``pc``: the chain link of the block that just completed
        when it lands there, else the block cache, else
        :meth:`_translate`.

        A chained transition skips the ``_tb_cache`` dict lookup; it
        still counts as a ``tb_hits`` event so cache statistics stay
        meaningful.  Returns ``None`` when an interrupt or a
        fetch/translate trap was taken instead (no instruction retired).
        """
        if self.csrs.cycle >= self._poll_at:
            interrupt = self._pending_interrupt()
            if interrupt is not None:
                self._wfi_pending = False
                self._take_trap(interrupt, 0)
                return None
        pc = self.pc
        prev = self._chain_from
        if prev is not None:
            self._chain_from = None
            block = prev.next
            if block is not None and block.start_pc == pc:
                self.tb_hits += 1
                return block
        block = self._tb_cache.get(pc)
        if block is not None:
            self.tb_hits += 1
        else:
            try:
                block = self._translate(pc)
            except Trap as trap:
                self._take_trap(trap.cause, trap.tval)
                return None
        if (prev is not None and prev.chain_pc == pc
                and self.block_cache_enabled):
            prev.next = block
        return block

    def _execute_block(self, block: TranslationBlock,
                       budget=_NEVER) -> int:
        """Interpret ``block`` with every hook honoured; returns the
        number of instructions retired.  The one interpreter loop: both
        backends run cold blocks here.  A ``budget`` shorter than the
        block runs only its first ``budget`` instructions and parks the
        pc on the next one, as QEMU's icount mode does, which makes
        ``max_instructions`` exact in every tier."""
        block.exec_count += 1
        if self.hooks.block_exec:
            for hook in self.hooks.block_exec:
                hook(self, block)
        insn_hooks = self.hooks.insn_exec
        retired = 0
        cycles = 0
        if self.icache is not None:
            cycles += self.icache.penalty_for_lines(block.icache_lines)
        ops = block.ops
        if budget < MAX_BLOCK_INSNS and budget < len(ops):
            ops = ops[:budget]
        pending_trap: Optional[Trap] = None
        try:
            for decoded, execute, pc, fallthrough, base_cost, taken_cost \
                    in ops:
                self.pc = pc
                self._current = decoded
                self.next_pc = fallthrough
                if insn_hooks:
                    for hook in insn_hooks:
                        hook(self, decoded, pc)
                try:
                    execute(self, decoded)
                except Trap as trap:
                    cycles += base_cost
                    pending_trap = trap
                    break
                except MachineExit:
                    # The exiting instruction consumed its cycles; the
                    # finally block below flushes them before unwinding.
                    cycles += base_cost
                    raise
                retired += 1
                next_pc = self.next_pc
                self.pc = next_pc
                if next_pc != fallthrough:
                    cycles += taken_cost
                    break
                cycles += base_cost
        finally:
            # Flush accounting even when MachineExit/UnhandledTrap unwinds
            # mid-block, so RunResult counters stay exact.
            self.csrs.instret += retired
            self.csrs.cycle += cycles
        if pending_trap is not None:
            self._take_trap(pending_trap.cause, pending_trap.tval)
        elif block.ends_system:
            self._poll_at = 0
        elif self.block_cache_enabled and block.chain_pc == self.pc:
            self._chain_from = block
        return retired

    def run(self, max_instructions: Optional[int] = None) -> RunResult:
        """Execute until WFI-with-no-event or the instruction budget ends.

        A run that ends ``max_insns`` has retired exactly
        ``max_instructions``, in every tier.  The run loop itself lives
        in the active
        :class:`~repro.vp.backends.ExecutionBackend` (``interp`` or the
        JIT's ``compiled`` tier); without an explicit backend ``interp``
        is used.

        :class:`~repro.vp.trap.MachineExit` and
        :class:`~repro.vp.trap.UnhandledTrap` propagate to the caller
        (:class:`repro.vp.machine.Machine` turns them into results).
        """
        backend = self.backend
        if backend is None:
            from .backends import create_backend

            backend = self.backend = create_backend("interp", self)
        return backend.run(max_instructions)
