"""The full-system virtual prototype: CPU + bus + peripherals.

Default memory map (a typical small RISC-V edge platform):

=============== ============ =====================================
base            size         device
=============== ============ =====================================
``0x0010_0000`` 8            test finisher (``tohost``-style exit)
``0x0200_0000`` 64 KiB       CLINT (msip, mtime, mtimecmp)
``0x1000_0000`` 256 B        UART
``0x8000_0000`` configurable RAM
=============== ============ =====================================

A :class:`Machine` is the top-level object users interact with: load a
program, register plugins, call :meth:`run`, inspect the result and the
UART output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..isa import csr as csrdef
from ..isa.decoder import Decoder, IsaConfig, RV32IMC_ZICSR
from .backends import create_backend
from .cpu import Cpu, RunResult, STOP_EXIT, STOP_MAX_INSNS
from .devices.clint import Clint, WINDOW_SIZE as CLINT_SIZE
from .devices.exitdev import ExitDevice, WINDOW_SIZE as EXIT_SIZE
from .devices.gpio import Gpio, WINDOW_SIZE as GPIO_SIZE
from .devices.uart import Uart, WINDOW_SIZE as UART_SIZE
from .icache import ICache, ICacheConfig
from .memory import Ram, SystemBus
from .plugins import Plugin
from .timing import TimingModel
from .trap import MachineExit, UnhandledTrap

RAM_BASE = 0x8000_0000
UART_BASE = 0x1000_0000
GPIO_BASE = 0x1000_1000
CLINT_BASE = 0x0200_0000
EXIT_BASE = 0x0010_0000

DEFAULT_RAM_SIZE = 4 * 1024 * 1024

STOP_UNHANDLED_TRAP = "unhandled_trap"

# Linux-flavoured syscall numbers honoured by the semihosting ecall handler.
SYSCALL_WRITE = 64
SYSCALL_EXIT = 93


@dataclass
class MachineSnapshot:
    """A complete machine checkpoint (see :meth:`Machine.snapshot`).

    Captured: CPU architectural state (pc, GPRs, FPRs, CSRs), the RAM
    image, and every device's guest-visible state — CLINT timer
    registers, UART TX log / RX queue / interrupt enable, GPIO pins
    *including* :attr:`~repro.vp.devices.gpio.Gpio.out_history`, and the
    exit device's value.

    RAM is stored either as a **full image** (``ram`` set, ``parent``
    ``None``) or as a **delta**: only the pages dirtied since ``parent``
    was taken (``ram_pages`` maps page index -> page bytes).  Deltas form
    a chain back to a full-image root; :meth:`page_bytes` resolves one
    page through the chain and :meth:`materialize_ram` rebuilds the whole
    image.  The checkpoint engine uses delta chains so that snapshotting
    every fault trigger point costs O(pages written), not O(RAM).

    Intentionally excluded (reconstructed or deliberately reset on
    :meth:`Machine.restore`):

    * the translation-block cache and icache *contents* — pure caches,
      flushed/cold-reset on restore and rebuilt on demand;
    * registered plugins and their internal state — structural, not
      architectural;
    * register/CSR access-trace sets and the UART ``access_log`` —
      measurement state owned by the coverage/analysis tooling;
    * structural fault-injection wrappers (stuck-at register files,
      wrapped RAM) — a snapshot cannot undo object replacement.
    """

    pc: int
    entry: int
    regs: tuple
    fregs: tuple
    csrs: dict
    ram: Optional[bytes]
    clint: tuple
    uart: tuple
    gpio: tuple
    exit_value: int
    #: Delta-chain fields (full-image snapshots: all at their defaults).
    ram_pages: Optional[dict] = None
    parent: Optional["MachineSnapshot"] = None
    page_size: int = 0
    depth: int = 0

    def page_bytes(self, index: int) -> bytes:
        """Contents of RAM page ``index`` in this snapshot's state,
        resolved through the delta chain."""
        node = self
        while node.ram is None:
            blob = node.ram_pages.get(index)
            if blob is not None:
                return blob
            node = node.parent
        start = index * node.page_size
        return node.ram[start:start + node.page_size]

    def materialize_ram(self) -> bytes:
        """The full RAM image for this snapshot (chain flattened)."""
        if self.ram is not None:
            return self.ram
        chain = []
        node = self
        while node.ram is None:
            chain.append(node)
            node = node.parent
        image = bytearray(node.ram)
        size = node.page_size
        for delta in reversed(chain):  # root-most delta first
            for index, blob in delta.ram_pages.items():
                image[index * size:index * size + size] = blob
        return bytes(image)


@dataclass
class MachineConfig:
    """Construction parameters for a :class:`Machine`."""

    isa: IsaConfig = field(default_factory=lambda: RV32IMC_ZICSR)
    ram_size: int = DEFAULT_RAM_SIZE
    timing: Optional[TimingModel] = None
    trace_registers: bool = False
    block_cache_enabled: bool = True
    #: Translation-cache block cap: when the cache holds this many blocks
    #: the next miss flushes it wholesale (clear-on-full eviction), so
    #: long-running campaigns cannot grow it without limit.  ``None``
    #: disables the cap.
    tb_cache_max_blocks: Optional[int] = 4096
    semihosting: bool = True  # handle exit/write ecalls in the machine
    icache: Optional["ICacheConfig"] = None  # fetch-cache model, off by default
    #: Execution backend: ``fastpath`` (default), ``interp``, or
    #: ``compiled`` (the tiered template JIT, see docs/performance.md).
    backend: str = "fastpath"
    #: Block executions before the ``compiled`` backend promotes a block
    #: to its JIT tier.  Ignored by the other backends.
    jit_threshold: int = 8
    #: Compiled-with-hot-chain-edge executions before the ``compiled``
    #: backend fuses a block chain into a multi-block trace.  Ignored by
    #: the other backends.
    jit_trace_threshold: int = 16


class Machine:
    """A single-hart RV32 platform.

    Example::

        machine = Machine()
        machine.load(program)
        result = machine.run(max_instructions=1_000_000)
        print(result.exit_code, machine.uart.output)
    """

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.decoder = Decoder(self.config.isa)
        self.bus = SystemBus()
        self.ram = Ram(self.config.ram_size)
        self.uart = Uart()
        self.gpio = Gpio()
        self.clint = Clint()
        self.exit_device = ExitDevice()
        self.bus.attach(RAM_BASE, self.config.ram_size, self.ram)
        self.bus.attach(UART_BASE, UART_SIZE, self.uart)
        self.bus.attach(GPIO_BASE, GPIO_SIZE, self.gpio)
        self.bus.attach(CLINT_BASE, CLINT_SIZE, self.clint)
        self.bus.attach(EXIT_BASE, EXIT_SIZE, self.exit_device)
        self.cpu = Cpu(
            self.decoder,
            self.bus,
            timing=self.config.timing,
            trace_registers=self.config.trace_registers,
            block_cache_enabled=self.config.block_cache_enabled,
            icache=ICache(self.config.icache) if self.config.icache else None,
            max_blocks=self.config.tb_cache_max_blocks,
        )
        self.cpu.backend = create_backend(
            self.config.backend, self.cpu,
            threshold=self.config.jit_threshold,
            trace_threshold=self.config.jit_trace_threshold)
        self.cpu.set_interrupt_poll(self._poll_interrupts)
        self.cpu.set_wfi_wait(self._wfi_wait)
        self.cpu.csrs._time_source = lambda: self.clint.mtime
        self.cpu.csrs._mip_source = self._poll_interrupts
        if self.config.semihosting:
            self.cpu.ecall_handler = self._handle_ecall
        self.entry = RAM_BASE
        #: Optional telemetry session (see :mod:`repro.telemetry`): when
        #: set, :meth:`run` brackets execution with ``run.started`` /
        #: ``run.finished`` events.  ``None`` (the default) costs one
        #: attribute test per run() call.
        self.telemetry = None
        #: The snapshot whose RAM state current memory *extends*: RAM ==
        #: that snapshot's image + the pages in ``ram.dirty_pages()``.
        #: Maintained by :meth:`snapshot`/:meth:`restore`; the invariant
        #: survives arbitrary execution because every RAM write path marks
        #: its pages dirty.  ``None`` until the first snapshot.
        self._ram_epoch: Optional[MachineSnapshot] = None

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------

    def load(self, program) -> None:
        """Load a program image.

        ``program`` must expose ``segments`` (iterable of ``(addr, bytes)``)
        and ``entry`` — :class:`repro.asm.Program` does.  The CPU is reset
        to the entry point with the stack pointer at the top of RAM.
        """
        for addr, blob in program.segments:
            offset = addr - RAM_BASE
            self.ram.write_bytes(offset, blob)
        self.entry = program.entry
        self.reset()

    def load_blob(self, blob: bytes, addr: int = RAM_BASE,
                  entry: Optional[int] = None) -> None:
        """Load raw machine code at ``addr`` (defaults to start of RAM)."""
        self.ram.write_bytes(addr - RAM_BASE, blob)
        self.entry = entry if entry is not None else addr
        self.reset()

    def reset(self) -> None:
        """Reset CPU state to the program entry, sp at top of RAM."""
        self.cpu.reset(self.entry)
        if self.cpu.icache is not None:
            self.cpu.icache.reset()
        self.cpu.csrs._time_source = lambda: self.clint.mtime
        self.cpu.csrs._mip_source = self._poll_interrupts
        self.cpu.regs.raw_write(2, RAM_BASE + self.config.ram_size - 16)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self, parent: Optional["MachineSnapshot"] = None
                 ) -> "MachineSnapshot":
        """Checkpoint the complete machine state (CPU, RAM, devices).

        With ``parent`` set to the machine's current RAM epoch (the last
        snapshot taken or restored on this machine), RAM is captured as a
        **delta**: only the pages dirtied since then, chained to
        ``parent``.  Otherwise a full image is captured.  Either way the
        new snapshot becomes the machine's RAM epoch.
        """
        if parent is not None and parent is self._ram_epoch:
            ram = None
            ram_pages = {index: self.ram.page_bytes(index)
                         for index in sorted(self.ram.dirty_pages())}
            depth = parent.depth + 1
        else:
            ram = bytes(self.ram.data)
            ram_pages = None
            parent = None
            depth = 0
        snap = MachineSnapshot(
            pc=self.cpu.pc,
            entry=self.entry,
            regs=self.cpu.regs.snapshot(),
            fregs=self.cpu.fregs.snapshot(),
            csrs=self.cpu.csrs.snapshot(),
            ram=ram,
            clint=(self.clint.mtime, self.clint.mtimecmp, self.clint.msip),
            uart=(bytes(self.uart.tx_log), tuple(self.uart._rx_queue),
                  self.uart.interrupt_enable),
            gpio=(self.gpio.out, self.gpio.inputs,
                  tuple(self.gpio.out_history)),
            exit_value=self.exit_device.value,
            ram_pages=ram_pages,
            parent=parent,
            page_size=self.ram.page_size,
            depth=depth,
        )
        self._ram_epoch = snap
        self.ram.clear_dirty()
        return snap

    def _restore_ram(self, snapshot: "MachineSnapshot") -> int:
        """Rewrite RAM to ``snapshot``'s state; returns pages copied.

        When the machine's current RAM provably extends a snapshot on the
        same delta chain (the epoch invariant), only the pages that can
        differ are rewritten: the machine's dirty set plus every page
        recorded on the chain segments between the epoch, the target, and
        their lowest common ancestor.  Anything else falls back to a full
        image copy.
        """
        epoch = self._ram_epoch
        if (epoch is not None
                and snapshot.page_size == self.ram.page_size):
            pages = self.ram.dirty_pages()
            a, b = epoch, snapshot
            while a is not None and b is not None and a is not b:
                if a.depth >= b.depth:
                    if a.ram_pages:
                        pages.update(a.ram_pages)
                    a = a.parent
                else:
                    if b.ram_pages:
                        pages.update(b.ram_pages)
                    b = b.parent
            if a is b and a is not None:  # common ancestor found
                for index in pages:
                    self.ram.write_page(index, snapshot.page_bytes(index))
                self._ram_epoch = snapshot
                self.ram.clear_dirty()
                return len(pages)
        self.ram.load_image(snapshot.materialize_ram())
        self._ram_epoch = snapshot
        self.ram.clear_dirty()
        return self.ram.page_count

    def restore(self, snapshot: "MachineSnapshot") -> int:
        """Restore a checkpoint taken on *this machine configuration*.

        The translation cache is flushed (RAM contents may differ).
        Register-file *objects* are kept — a snapshot/restore pair cannot
        undo structural changes such as injected stuck-at wrappers.  See
        :class:`MachineSnapshot` for exactly what is captured and what
        is intentionally excluded.  Returns the number of RAM pages
        rewritten (O(dirty) when the snapshot shares a delta chain with
        the machine's last checkpoint).
        """
        self.entry = snapshot.entry
        self.cpu.pc = snapshot.pc
        self.cpu.next_pc = snapshot.pc
        self.cpu.regs.restore(snapshot.regs)
        self.cpu.regs.clear_trace()
        self.cpu.fregs.restore(snapshot.fregs)
        self.cpu.fregs.clear_trace()
        self.cpu.csrs.restore(snapshot.csrs)
        self.cpu.csrs.clear_trace()
        pages_copied = self._restore_ram(snapshot)
        self.clint.mtime, self.clint.mtimecmp, self.clint.msip = \
            snapshot.clint
        tx_log, rx_queue, interrupt_enable = snapshot.uart
        self.uart.tx_log = bytearray(tx_log)
        self.uart._rx_queue.clear()
        self.uart._rx_queue.extend(rx_queue)
        self.uart.interrupt_enable = interrupt_enable
        self.gpio.out, self.gpio.inputs, out_history = snapshot.gpio
        self.gpio.out_history[:] = out_history
        self.exit_device.value = snapshot.exit_value
        if self.cpu.icache is not None:
            # Cache contents are not checkpointed; restart cold, which is
            # exact for snapshots taken right after load().
            self.cpu.icache.reset()
        self.cpu.flush_translation_cache()
        # RAM contents changed underneath any cached fast-path window;
        # force the CPU to re-derive it before the next direct access.
        self.cpu.invalidate_ram_window()
        return pages_copied

    # ------------------------------------------------------------------
    # Plugins
    # ------------------------------------------------------------------

    def add_plugin(self, plugin: Plugin) -> Plugin:
        self.cpu.hooks.register(plugin)
        plugin.on_attach(self)
        # Blocks translated before registration would miss the translate
        # hook; flush so the plugin sees every block.
        self.cpu.flush_translation_cache()
        return plugin

    def remove_plugin(self, plugin: Plugin) -> None:
        self.cpu.hooks.unregister(plugin)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def attach_telemetry(self, telemetry=None) -> "Plugin":
        """Enable telemetry on this machine.

        Registers a :class:`repro.telemetry.TelemetryPlugin` bound to
        ``telemetry`` (default: the process-wide session) and arranges for
        run lifecycle events.  Returns the plugin so callers can
        ``finish()`` runs that stop without a guest exit.
        """
        from ..telemetry import TelemetryPlugin
        from ..telemetry.session import resolve

        self.telemetry = resolve(telemetry)
        return self.add_plugin(TelemetryPlugin(self.telemetry))

    def run(self, max_instructions: Optional[int] = None,
            resume: bool = False) -> RunResult:
        """Run until exit, unhandled trap, WFI-halt, or the budget ends.

        With ``resume=True`` the call continues a run that was previously
        interrupted (e.g. after restoring a mid-execution checkpoint):
        ``max_instructions`` then bounds the *total* instructions since
        reset, and the result's ``instructions`` reports that total — so
        a resumed run is accounted exactly like one uninterrupted run.
        """
        prefix = self.cpu.csrs.instret if resume else 0
        remaining = max_instructions
        if resume and max_instructions is not None:
            remaining = max_instructions - prefix
            if remaining <= 0:  # checkpoint already past the budget
                return RunResult(STOP_MAX_INSNS, prefix, self.cpu.csrs.cycle)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.events.emit(
                "run.started",
                entry=self.entry,
                isa=self.config.isa.name,
                max_instructions=max_instructions,
            )
        try:
            result = self.cpu.run(remaining)
            # Exception paths report csrs.instret, which already counts
            # from reset; only the normal return needs the prefix added.
            if prefix:
                result.instructions += prefix
        except MachineExit as exit_event:
            result = RunResult(
                STOP_EXIT,
                self.cpu.csrs.instret,
                self.cpu.csrs.cycle,
                exit_code=exit_event.code,
            )
        except UnhandledTrap as trap:
            result = RunResult(
                STOP_UNHANDLED_TRAP,
                self.cpu.csrs.instret,
                self.cpu.csrs.cycle,
                trap_cause=trap.cause,
                trap_pc=trap.pc,
            )
        if self.cpu.hooks.exit:
            for hook in self.cpu.hooks.exit:
                hook(result.exit_code if result.exit_code is not None else -1)
        if telemetry is not None and telemetry.enabled:
            telemetry.events.emit(
                "run.finished",
                stop_reason=result.stop_reason,
                exit_code=result.exit_code,
                instructions=result.instructions,
                cycles=result.cycles,
            )
            stats = self.jit_stats()
            metrics = telemetry.metrics
            if stats is not None:
                from .jit import code_cache_stats

                for key, value in stats.items():
                    metrics.gauge(f"vp.jit.{key}").set(value)
                # Process-wide, history-dependent: gauges only, never
                # part of jit_stats() (which job results copy).
                for key, value in code_cache_stats().items():
                    metrics.gauge(f"vp.jit.code_cache.{key}").set(value)
            for key, value in self.mem_stats().items():
                metrics.gauge(f"vp.mem.{key}").set(value)
        return result

    def jit_stats(self) -> Optional[dict]:
        """Tier counters when running the ``compiled`` backend, else
        ``None`` — see :class:`repro.vp.jit.JitStats`."""
        stats = getattr(self.cpu.backend, "stats", None)
        return stats.as_dict() if stats is not None else None

    def mem_stats(self) -> dict:
        """RAM fast-path counters (all backends): direct-window hits vs
        bus-dispatch fallbacks for guest data accesses, plus the derived
        hit rate.  Published as ``vp.mem.*`` gauges when telemetry is
        attached."""
        cpu = self.cpu
        fast = cpu.mem_fast_loads + cpu.mem_fast_stores
        total = fast + cpu.mem_bus_loads + cpu.mem_bus_stores
        return {
            "fastpath_loads": cpu.mem_fast_loads,
            "fastpath_stores": cpu.mem_fast_stores,
            "fastpath_fallback_loads": cpu.mem_bus_loads,
            "fastpath_fallback_stores": cpu.mem_bus_stores,
            "fastpath_hit_rate": round(fast / total, 6) if total else 0.0,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _poll_interrupts(self) -> int:
        pending = self.clint.pending_interrupts()
        if self.uart.interrupt_pending():
            pending |= csrdef.MIE_MEIE  # UART drives the external line
        return pending

    def _wfi_wait(self) -> Optional[int]:
        if self.uart.interrupt_pending():
            return 0
        if self.clint.mtimecmp == 0xFFFFFFFFFFFFFFFF and not self.clint.msip:
            return None  # nothing armed: sleeping forever
        return self.clint.cycles_until_timer()

    def _handle_ecall(self, cpu: Cpu) -> None:
        number = cpu.regs.raw_read(17)  # a7
        if number == SYSCALL_EXIT:
            raise MachineExit(cpu.regs.raw_read(10))
        if number == SYSCALL_WRITE:
            # write(fd=a0, buf=a1, len=a2) -> UART, returns length in a0.
            buf = cpu.regs.raw_read(11)
            length = cpu.regs.raw_read(12)
            for i in range(length):
                self.uart.store(0, 1, cpu.load(buf + i, 1))
            cpu.regs.raw_write(10, length)
            return
        cpu.trap(csrdef.CAUSE_ECALL_M, 0)
