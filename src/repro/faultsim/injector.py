"""Fault injection machinery: applying a :class:`~repro.faultsim.faults.Fault`
to a live :class:`~repro.vp.machine.Machine`.

* **Code faults** patch the loaded binary (the XEMU-style binary mutant)
  and flush the translation cache.
* **Permanent register/CSR faults** interpose subclassed register files
  whose read ports force the stuck bit.
* **Permanent memory faults** wrap the RAM device on the bus.
* **Transient faults** install a countdown plugin that flips the target
  bit after the configured number of retired instructions.
"""

from __future__ import annotations

from typing import Optional

from ..isa.csr import CsrFile
from ..isa.registers import FPRegisterFile, RegisterFile
from ..vp.machine import Machine, RAM_BASE
from ..vp.memory import Device, Ram
from ..vp.plugins import Plugin
from .faults import (
    Fault,
    STUCK_AT_1,
    TARGET_CODE,
    TARGET_CSR,
    TARGET_FPR,
    TARGET_GPR,
    TARGET_MEMORY,
    TRANSIENT,
)


class InjectionError(Exception):
    """The fault cannot be applied to this machine/program combination."""


def _stuck(value: int, mask: int, stuck_one: bool) -> int:
    return (value | mask) if stuck_one else (value & ~mask)


class StuckRegisterFile(RegisterFile):
    """Register file whose read port forces one bit of one register."""

    def __init__(self, reg: int, mask: int, stuck_one: bool,
                 trace: bool = False) -> None:
        super().__init__(trace=trace)
        self._fault_reg = reg
        self._fault_mask = mask
        self._fault_one = stuck_one

    def read(self, num: int) -> int:
        value = super().read(num)
        if num == self._fault_reg:
            value = _stuck(value, self._fault_mask, self._fault_one)
        return value

    def raw_read(self, num: int) -> int:
        value = super().raw_read(num)
        if num == self._fault_reg:
            value = _stuck(value, self._fault_mask, self._fault_one)
        return value


class StuckFPRegisterFile(FPRegisterFile):
    def __init__(self, reg: int, mask: int, stuck_one: bool,
                 trace: bool = False) -> None:
        super().__init__(trace=trace)
        self._fault_reg = reg
        self._fault_mask = mask
        self._fault_one = stuck_one

    def read(self, num: int) -> int:
        value = super().read(num)
        if num == self._fault_reg:
            value = _stuck(value, self._fault_mask, self._fault_one)
        return value


class StuckCsrFile(CsrFile):
    def __init__(self, addr: int, mask: int, stuck_one: bool,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self._fault_addr = addr
        self._fault_mask = mask
        self._fault_one = stuck_one

    def read(self, addr: int) -> int:
        value = super().read(addr)
        if addr == self._fault_addr:
            value = _stuck(value, self._fault_mask, self._fault_one)
        return value

    def raw_read(self, addr: int) -> int:
        value = super().raw_read(addr)
        if addr == self._fault_addr:
            value = _stuck(value, self._fault_mask, self._fault_one)
        return value


class StuckRamWrapper(Device):
    """Bus wrapper forcing one bit of one byte of the wrapped RAM."""

    def __init__(self, inner: Ram, offset: int, mask: int,
                 stuck_one: bool) -> None:
        self.inner = inner
        self._offset = offset
        self._mask = mask
        self._one = stuck_one

    def load(self, offset: int, width: int) -> int:
        value = self.inner.load(offset, width)
        if offset <= self._offset < offset + width:
            byte_shift = 8 * (self._offset - offset)
            value = _stuck(value, self._mask << byte_shift, self._one)
        return value

    def store(self, offset: int, width: int, value: int) -> None:
        self.inner.store(offset, width, value)

    def tick(self, cycles: int) -> None:
        self.inner.tick(cycles)

    def __getattr__(self, name):
        # Forward write_bytes/read_bytes etc. to the real RAM.
        return getattr(self.inner, name)


def _ram_offset(ram_size: int, address: int) -> int:
    """``address`` as a RAM offset; a fault outside RAM (an MMIO address
    taken from coverage, say) cannot be applied."""
    offset = address - RAM_BASE
    if not 0 <= offset < ram_size:
        raise InjectionError(f"fault address {address:#x} outside RAM")
    return offset


def check_transient(machine: Machine, fault: Fault) -> None:
    """Raise :class:`InjectionError` if ``fault`` could never be flipped
    on ``machine`` — checked before a mutant runs, so the plugin and the
    checkpoint engine classify it the same way (``masked``)."""
    if fault.target == TARGET_MEMORY:
        _ram_offset(machine.ram.size, fault.index)


def apply_transient_flip(cpu, fault: Fault) -> None:
    """Flip the fault's target bit in ``cpu``'s architectural state *now*.

    Shared by :class:`TransientInjectorPlugin` (which fires it after its
    countdown) and the checkpoint engine (which restores a warm snapshot
    at the trigger point and applies the flip immediately) — one
    implementation, so both paths produce identical mutants.
    """
    if fault.target == TARGET_GPR:
        cpu.regs.raw_write(fault.index,
                           cpu.regs.raw_read(fault.index) ^ fault.mask)
    elif fault.target == TARGET_FPR:
        cpu.fregs.write(fault.index,
                        cpu.fregs.read(fault.index) ^ fault.mask)
    elif fault.target == TARGET_CSR:
        cpu.csrs.raw_write(fault.index,
                           cpu.csrs.raw_read(fault.index) ^ fault.mask)
    elif fault.target == TARGET_MEMORY:
        ram = cpu.bus.ram()
        offset = _ram_offset(ram.size, fault.index)
        byte = ram.load(offset, 1)
        ram.store(offset, 1, byte ^ fault.mask)
    else:
        raise InjectionError(
            f"transient fault target {fault.target} unsupported"
        )


class TransientInjectorPlugin(Plugin):
    """Flips the target bit once, after ``trigger`` retired instructions."""

    name = "fault-injector"

    def __init__(self, fault: Fault) -> None:
        if fault.kind != TRANSIENT:
            raise InjectionError("plugin only handles transient faults")
        self.fault = fault
        self._remaining = fault.trigger
        self.fired = False

    def on_insn_exec(self, cpu, decoded, pc) -> None:
        if self.fired:
            return
        if self._remaining > 0:
            self._remaining -= 1
            return
        self.fired = True
        apply_transient_flip(cpu, self.fault)


def inject(machine: Machine, fault: Fault) -> Optional[Plugin]:
    """Apply ``fault`` to a loaded machine (before :meth:`Machine.run`).

    Returns the transient-injector plugin when one was installed (callers
    can check ``plugin.fired``), ``None`` for permanent faults.
    """
    if fault.kind == TRANSIENT:
        check_transient(machine, fault)
        plugin = TransientInjectorPlugin(fault)
        machine.add_plugin(plugin)
        return plugin

    stuck_one = fault.kind == STUCK_AT_1
    if fault.target == TARGET_CODE or fault.target == TARGET_MEMORY:
        offset = _ram_offset(machine.ram.size, fault.index)
        if fault.target == TARGET_CODE:
            # Binary mutation: patch the byte in place, once.
            byte = machine.ram.load(offset, 1)
            machine.ram.store(offset, 1, _stuck(byte, fault.mask, stuck_one))
            machine.cpu.flush_translation_cache()
        else:
            wrapper = StuckRamWrapper(machine.ram, offset, fault.mask,
                                      stuck_one)
            machine.bus.replace(RAM_BASE, wrapper)
        return None

    if fault.target == TARGET_GPR:
        faulty = StuckRegisterFile(fault.index, fault.mask, stuck_one,
                                   trace=machine.cpu.regs.trace)
        faulty.restore(machine.cpu.regs.snapshot())
        machine.cpu.regs = faulty
        return None
    if fault.target == TARGET_FPR:
        faulty_fpr = StuckFPRegisterFile(fault.index, fault.mask, stuck_one,
                                         trace=machine.cpu.fregs.trace)
        faulty_fpr.restore(machine.cpu.fregs.snapshot())
        machine.cpu.fregs = faulty_fpr
        return None
    if fault.target == TARGET_CSR:
        old = machine.cpu.csrs
        faulty_csr = StuckCsrFile(
            fault.index, fault.mask, stuck_one,
            modules=set(machine.decoder.config.modules),
            trace=old.trace,
        )
        faulty_csr.restore(old.snapshot())
        faulty_csr._time_source = old._time_source
        faulty_csr._mip_source = old._mip_source
        machine.cpu.csrs = faulty_csr
        return None
    raise InjectionError(f"unsupported fault: {fault}")
