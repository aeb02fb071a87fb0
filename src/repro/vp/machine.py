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
from ..isa.decoder import (Decoder, IsaConfig, RV32IMC_ZICSR,
                           decode_cache_stats)
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

    Captured: CPU architectural state (pc, GPRs, FPRs, CSRs), RAM, and
    every device's guest-visible state — CLINT timer registers, UART TX
    log / RX queue / interrupt enable, GPIO pins *including*
    :attr:`~repro.vp.devices.gpio.Gpio.out_history`, and the exit
    device's value.

    RAM is stored as pages plus a parent.  ``ram_pages`` maps page index
    -> page bytes for the pages written since ``parent`` was taken or,
    for a root (``parent`` ``None``), since the RAM was built; a page
    that no node of the chain holds reads as zero.  So no snapshot holds
    a whole RAM image: a fresh machine's root holds no page, and a root
    taken after :meth:`Machine.load` holds the pages the loader wrote.
    Snapshotting costs O(pages written), never O(RAM).
    :meth:`page_bytes` resolves one page through the chain;
    :meth:`materialize_ram` rebuilds the whole image for inspection
    (no restore uses it).

    Intentionally excluded (reconstructed or deliberately reset on
    :meth:`Machine.restore`):

    * the translation-block cache and icache *contents* — pure caches,
      flushed/cold-reset on restore and rebuilt on demand;
    * registered plugins and their internal state — structural, not
      architectural;
    * the UART ``access_log`` — measurement state owned by the
      analysis tooling;
    * injected permanent faults (stuck-at register files, a RAM stuck
      bit) — a snapshot cannot undo object replacement, and a restore
      keeps an installed stuck bit forced.
    """

    pc: int
    entry: int
    regs: tuple
    fregs: tuple
    csrs: dict
    clint: tuple
    uart: tuple
    gpio: tuple
    exit_value: int
    ram_pages: dict
    page_size: int
    ram_size: int
    parent: Optional["MachineSnapshot"] = None
    depth: int = 0

    def page_bytes(self, index: int) -> bytes:
        """Contents of RAM page ``index`` in this snapshot's state,
        resolved through the chain (zero when no node holds it)."""
        node = self
        while node is not None:
            blob = node.ram_pages.get(index)
            if blob is not None:
                return blob
            node = node.parent
        return bytes(self.page_size)

    def materialize_ram(self) -> bytes:
        """The full RAM image for this snapshot (chain flattened)."""
        chain = []
        node = self
        while node is not None:
            chain.append(node)
            node = node.parent
        image = bytearray(self.ram_size)
        size = self.page_size
        for node in reversed(chain):  # root first
            for index, blob in node.ram_pages.items():
                image[index * size:index * size + size] = blob
        return bytes(image)


@dataclass
class MachineConfig:
    """Construction parameters for a :class:`Machine`."""

    isa: IsaConfig = field(default_factory=lambda: RV32IMC_ZICSR)
    ram_size: int = DEFAULT_RAM_SIZE
    timing: Optional[TimingModel] = None
    block_cache_enabled: bool = True
    #: Translation-cache block cap: when the cache holds this many blocks
    #: the next miss flushes it wholesale (clear-on-full eviction), so
    #: long-running campaigns cannot grow it without limit.  ``None``
    #: disables the cap.
    tb_cache_max_blocks: Optional[int] = 4096
    icache: Optional["ICacheConfig"] = None  # fetch-cache model, off by default
    #: Execution backend: ``interp`` (default) or ``compiled`` (the
    #: tiered template JIT, see docs/performance.md).  The retired name
    #: ``fastpath`` still selects ``interp``.
    backend: str = "interp"
    #: Block executions before the ``compiled`` backend promotes a block
    #: to its JIT tier.  Ignored by the interpreter.
    jit_threshold: int = 8
    #: Compiled-with-hot-chain-edge executions before the ``compiled``
    #: backend fuses a block chain into a multi-block trace.  Ignored by
    #: the interpreter.
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
        # mtime follows the cycle count of whatever CSR file the CPU holds
        # (reset and stuck-at CSR faults replace it).
        self.clint = Clint(lambda: self.cpu.csrs.cycle)
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
            block_cache_enabled=self.config.block_cache_enabled,
            icache=ICache(self.config.icache) if self.config.icache else None,
            max_blocks=self.config.tb_cache_max_blocks,
        )
        self.cpu.backend = create_backend(
            self.config.backend, self.cpu,
            threshold=self.config.jit_threshold,
            trace_threshold=self.config.jit_trace_threshold)
        self.cpu.set_interrupt_sources(self._poll_interrupts,
                                       self.clint.cycles_until_timer)
        self._wire_csrs()
        # Semihosting: exit and write ecalls are machine services.
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
        """Reset CPU state to the program entry, sp at top of RAM.

        The new CSR file counts cycles from 0; ``mtime`` carries over."""
        mtime = self.clint.mtime
        self.cpu.reset(self.entry)
        if self.cpu.icache is not None:
            self.cpu.icache.reset()
        self._wire_csrs()
        self.clint.mtime = mtime
        self.cpu.regs.raw_write(2, RAM_BASE + self.config.ram_size - 16)

    def _wire_csrs(self) -> None:
        """Connect the CPU's CSR file to the platform: ``time`` reads the
        CLINT, ``mip`` reads poll the devices, and ``mcycle`` writes
        rebase the CLINT so that ``mtime`` does not jump."""
        csrs = self.cpu.csrs
        csrs._time_source = lambda: self.clint.mtime
        csrs._mip_source = self._poll_interrupts
        csrs._cycle_moved = self.clint.rebase

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self, parent: Optional["MachineSnapshot"] = None
                 ) -> "MachineSnapshot":
        """Checkpoint the complete machine state (CPU, RAM, devices).

        With ``parent`` set to the machine's current RAM epoch (the last
        snapshot taken or restored on this machine), RAM is captured as a
        **delta**: only the pages dirtied since then, chained to
        ``parent``.  Otherwise the snapshot is a root holding the pages
        written since the RAM was built.  Either way the new snapshot
        becomes the machine's RAM epoch.
        """
        ram = self.ram
        if parent is not None and parent is self._ram_epoch:
            pages = ram.dirty_pages()
            depth = parent.depth + 1
        else:
            pages = ram.written_pages()
            parent = None
            depth = 0
        snap = MachineSnapshot(
            pc=self.cpu.pc,
            entry=self.entry,
            regs=self.cpu.regs.snapshot(),
            fregs=self.cpu.fregs.snapshot(),
            csrs=self.cpu.csrs.snapshot(),
            clint=(self.clint.mtime, self.clint.mtimecmp, self.clint.msip),
            uart=(bytes(self.uart.tx_log), tuple(self.uart._rx_queue),
                  self.uart.interrupt_enable),
            gpio=(self.gpio.out, self.gpio.inputs,
                  tuple(self.gpio.out_history)),
            exit_value=self.exit_device.value,
            ram_pages={index: ram.page_bytes(index)
                       for index in sorted(pages)},
            page_size=ram.page_size,
            ram_size=ram.size,
            parent=parent,
            depth=depth,
        )
        self._ram_epoch = snap
        ram.clear_dirty()
        return snap

    def _restore_ram(self, snapshot: "MachineSnapshot") -> int:
        """Rewrite RAM to ``snapshot``'s state; returns pages copied.

        Only pages that can differ are rewritten.  When the machine's
        current RAM provably extends a snapshot on the same chain (the
        epoch invariant), those are the machine's dirty set plus every
        page recorded on the chain segments between the epoch, the
        target, and their lowest common ancestor.  With no common
        ancestor they are the pages this RAM has written plus every page
        of the target's chain: all other pages are zero on both sides.
        """
        ram = self.ram
        if (snapshot.page_size, snapshot.ram_size) != (ram.page_size,
                                                      ram.size):
            raise ValueError("snapshot was taken on a different RAM size")
        pages = ram.dirty_pages()
        a, b = self._ram_epoch, snapshot
        while a is not None and b is not None and a is not b:
            if a.depth >= b.depth:
                pages.update(a.ram_pages)
                a = a.parent
            else:
                pages.update(b.ram_pages)
                b = b.parent
        if a is not b:  # no common ancestor
            pages = ram.written_pages()
            b = snapshot
            while b is not None:
                pages.update(b.ram_pages)
                b = b.parent
        for index in pages:
            ram.write_page(index, snapshot.page_bytes(index))
        self._ram_epoch = snapshot
        ram.clear_dirty()
        return len(pages)

    def restore(self, snapshot: "MachineSnapshot") -> int:
        """Restore a checkpoint taken on *this machine configuration*.

        The translation cache is flushed (RAM contents may differ).
        Register-file *objects* are kept — a snapshot/restore pair cannot
        undo structural changes such as injected stuck-at wrappers.  See
        :class:`MachineSnapshot` for exactly what is captured and what
        is intentionally excluded.  Returns the number of RAM pages
        rewritten (O(dirty) when the snapshot shares a delta chain with
        the machine's last checkpoint, O(pages written) otherwise).
        """
        self.entry = snapshot.entry
        self.cpu.pc = snapshot.pc
        self.cpu.next_pc = snapshot.pc
        self.cpu.regs.restore(snapshot.regs)
        self.cpu.fregs.restore(snapshot.fregs)
        self.cpu.csrs.restore(snapshot.csrs)
        pages_copied = self._restore_ram(snapshot)
        # After the CSR file: the mtime write sets the CLINT's offset from
        # the restored cycle count.
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
        self.cpu._poll_at = 0  # devices and CSRs changed
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
            for key, value in decode_cache_stats().items():
                metrics.gauge(f"vp.isa.decode_cache.{key}").set(value)
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

    def _handle_ecall(self, cpu: Cpu) -> None:
        number = cpu.regs.raw_read(17)  # a7
        if number == SYSCALL_EXIT:
            raise MachineExit(cpu.regs.raw_read(10))
        if number == SYSCALL_WRITE:
            # write(fd=a0, buf=a1, len=a2) -> UART, returns length in a0.
            buf = cpu.regs.raw_read(11)
            length = cpu.regs.raw_read(12)
            start = 0
            if not cpu.hooks.mem_access and not self.uart.trace:
                # Nothing observes the individual accesses: copy the part
                # of the buffer inside the plain-RAM window in one slice.
                # The byte loop below finishes from the first byte outside
                # it (MMIO, or the load-access trap past the end of RAM).
                chunk = cpu.load_window_bytes(buf, length)
                self.uart.tx_log += chunk
                start = len(chunk)
            for i in range(start, length):
                self.uart.store(0, 1, cpu.load(buf + i, 1))
            cpu.regs.raw_write(10, length)
            return
        cpu.trap(csrdef.CAUSE_ECALL_M, 0)
