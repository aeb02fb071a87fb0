"""Fault injection machinery: applying a :class:`~repro.faultsim.faults.Fault`
to a live :class:`~repro.vp.machine.Machine`.

Permanent faults are applied before a run, by :func:`inject`:

* **Code faults** patch the loaded binary (the XEMU-style binary mutant)
  and flush the translation cache.
* **Permanent register/CSR faults** interpose subclassed register files
  whose read ports force the stuck bit.
* **Permanent memory faults** install a stuck bit in the RAM itself
  (:meth:`~repro.vp.memory.Ram.install_stuck`), which the CPU's RAM fast
  path honours.

A **transient fault** flips its bit after ``trigger`` retired
instructions.  :func:`run_transient` runs the machine to the trigger on
an exact instruction budget, flips the bit (:func:`apply_transient_flip`)
and resumes; no plugin is attached, so compiled code keeps all of its
shapes.  The checkpoint engine starts from a snapshot at the trigger
instead and applies the same flip.

:func:`remove_fault` undoes :func:`inject` on a machine that runs the
next mutant too, after a snapshot restore.
"""

from __future__ import annotations

from typing import Tuple

from ..isa.csr import CsrFile
from ..isa.registers import FPRegisterFile, StuckRegisterFile
from ..vp.cpu import RunResult, STOP_MAX_INSNS
from ..vp.machine import Machine, RAM_BASE
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


class StuckFPRegisterFile(FPRegisterFile):
    def __init__(self, reg: int, mask: int, stuck_one: bool) -> None:
        super().__init__()
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


def _ram_offset(ram_size: int, address: int) -> int:
    """``address`` as a RAM offset; a fault outside RAM (an MMIO address
    taken from coverage, say) cannot be applied."""
    offset = address - RAM_BASE
    if not 0 <= offset < ram_size:
        raise InjectionError(f"fault address {address:#x} outside RAM")
    return offset


def check_transient(machine: Machine, fault: Fault) -> None:
    """Raise :class:`InjectionError` if ``fault`` could never be flipped
    on ``machine`` — checked before a mutant runs, so both transient
    paths classify it the same way (``masked``)."""
    if fault.target == TARGET_MEMORY:
        _ram_offset(machine.ram.size, fault.index)


def apply_transient_flip(cpu, fault: Fault) -> None:
    """Flip the fault's target bit in ``cpu``'s architectural state *now*.

    Shared by :func:`run_transient` and the checkpoint engine (which
    restores a warm snapshot at the trigger point and applies the flip
    immediately) — one implementation, so both paths produce identical
    mutants.  A memory flip into translated code flushes the translation
    cache, so the flipped instruction runs as it now reads.
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
        if cpu.translation_covers(fault.index):
            cpu.flush_translation_cache()
    else:
        raise InjectionError(
            f"transient fault target {fault.target} unsupported"
        )


def run_transient(machine: Machine, fault: Fault, max_instructions: int
                  ) -> Tuple[RunResult, bool]:
    """Run a transient mutant on a loaded ``machine``: retire
    ``fault.trigger`` instructions (counted from reset), flip the bit,
    and resume until ``max_instructions`` in all.

    Returns ``(result, fired)``.  ``fired`` is false when the run ended
    (an exit, a trap, WFI) or the budget ran out before the trigger;
    ``result`` is then that run's.  Raises :class:`InjectionError`,
    before anything runs, when the flip could never apply.
    """
    if fault.kind != TRANSIENT:
        raise ValueError("run_transient takes transient faults only")
    check_transient(machine, fault)
    result = machine.run(max_instructions=min(fault.trigger,
                                              max_instructions),
                         resume=True)
    if (result.stop_reason != STOP_MAX_INSNS
            or fault.trigger >= max_instructions):
        return result, False
    apply_transient_flip(machine.cpu, fault)
    return machine.run(max_instructions=max_instructions, resume=True), True


def inject(machine: Machine, fault: Fault) -> None:
    """Apply a permanent ``fault`` to a loaded machine (before
    :meth:`Machine.run`).  Transient faults run through
    :func:`run_transient`.  Callers that keep the machine for another
    mutant undo the fault with :func:`remove_fault`.
    """
    if fault.kind == TRANSIENT:
        raise ValueError("inject() takes permanent faults only; run "
                         "transient faults with run_transient()")
    stuck_one = fault.kind == STUCK_AT_1
    if fault.target == TARGET_CODE or fault.target == TARGET_MEMORY:
        offset = _ram_offset(machine.ram.size, fault.index)
        if fault.target == TARGET_CODE:
            # Binary mutation: patch the byte in place, once.
            byte = machine.ram.load(offset, 1)
            machine.ram.store(offset, 1, _stuck(byte, fault.mask, stuck_one))
        else:
            machine.ram.install_stuck(offset, fault.mask, stuck_one)
            machine.cpu.invalidate_ram_window()
        machine.cpu.flush_translation_cache()
        return None

    if fault.target == TARGET_GPR:
        faulty = StuckRegisterFile(fault.index, fault.mask, stuck_one)
        faulty.restore(machine.cpu.regs.snapshot())
        machine.cpu.regs = faulty
        return None
    if fault.target == TARGET_FPR:
        faulty_fpr = StuckFPRegisterFile(fault.index, fault.mask, stuck_one)
        faulty_fpr.restore(machine.cpu.fregs.snapshot())
        machine.cpu.fregs = faulty_fpr
        return None
    if fault.target == TARGET_CSR:
        old = machine.cpu.csrs
        faulty_csr = StuckCsrFile(
            fault.index, fault.mask, stuck_one,
            modules=set(machine.decoder.config.modules),
        )
        faulty_csr.restore(old.snapshot())
        faulty_csr._time_source = old._time_source
        faulty_csr._mip_source = old._mip_source
        faulty_csr._cycle_moved = old._cycle_moved
        machine.cpu.csrs = faulty_csr
        return None
    raise InjectionError(f"unsupported fault: {fault}")


def remove_fault(machine: Machine, files: Tuple) -> None:
    """Undo :func:`inject` so ``machine`` can run another mutant.

    ``files`` is the CPU's ``(regs, fregs, csrs)`` from before it, which
    stuck-at register and CSR faults replaced.  A RAM stuck bit is
    released.  The bytes a fault changed (a code patch, a flip, a stuck
    byte) stay as they are, in pages marked dirty, for the caller's next
    snapshot restore.  So do the CSR values; ``mtime``, which follows the
    CSR file's cycle count, keeps its value across the swap.
    """
    cpu = machine.cpu
    mtime = machine.clint.mtime
    cpu.regs, cpu.fregs, cpu.csrs = files
    machine.clint.mtime = mtime
    if machine.ram.stuck is not None:
        machine.ram.remove_stuck()
        cpu.invalidate_ram_window()
