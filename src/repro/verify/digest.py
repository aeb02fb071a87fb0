"""Golden architectural-state digests of finished runs.

Adapts the fault-injection checkpoint engine's golden-digest model (PR 4,
:meth:`repro.faultsim.checkpoint.CheckpointEngine._state_tuple`) into a
standalone capture: the complete architectural state of a machine after a
run — pc, GPRs, FPRs, CSRs, retired-instruction count, device state —
with memory reduced to a hash of the pages the run has written (every
other page still holds the load image, by construction, so hashing the
written set is exact as long as both sides of a pair execute the same
stores — and executing *different* stores is itself a divergence).

Cycle counts and CLINT time are kept in separate fields so pairs whose
configurations legitimately alter the timing model (e.g. an instruction
cache) can compare pure architectural state while timing-identical pairs
compare cycles too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..isa import csr as csrdef

__all__ = ["StateDigest", "capture_state", "compare_digests"]


@dataclass(frozen=True)
class StateDigest:
    """Complete post-run architectural state, hash-compressed memory.
    ``csrs`` ends with ``minstret``'s offset (see ``CsrFile``)."""

    stop_reason: str
    exit_code: Optional[int]
    trap_cause: Optional[int]
    instructions: int
    pc: int
    regs: Tuple[int, ...]
    fregs: Tuple[int, ...]
    csrs: Tuple[Tuple[int, int], ...]
    uart_tx: bytes
    gpio: tuple
    exit_value: Optional[int]
    pages: Tuple[int, ...]
    ram_digest: bytes
    # Timing-model-dependent state, compared only for timing-identical
    # configuration pairs:
    cycles: int
    clint: Tuple[int, int, int]

    def arch_key(self, include_timing: bool = True) -> tuple:
        key = (self.stop_reason, self.exit_code, self.trap_cause,
               self.instructions, self.pc, self.regs, self.fregs,
               self.csrs, self.uart_tx, self.gpio, self.exit_value,
               self.pages, self.ram_digest)
        if include_timing:
            key += (self.cycles, self.clint)
        return key

    def hexdigest(self, include_timing: bool = True) -> str:
        """A short stable hex digest of the (canonical) state tuple."""
        payload = repr(self.arch_key(include_timing)).encode()
        return hashlib.blake2b(payload, digest_size=16).hexdigest()


def capture_state(machine, result, pages: Iterable[int]) -> StateDigest:
    """Digest a machine's state after ``result`` finished on it.

    ``pages`` is the cumulative set of RAM page indices the run may have
    written (including the load image); callers that roll through
    checkpoints must pass the union of the dirty sets observed across
    every segment, since :meth:`~repro.vp.machine.Machine.restore` clears
    the dirty tracking.
    """
    cpu = machine.cpu
    csrs = cpu.csrs
    sorted_pages = tuple(sorted(set(pages)))
    ram = hashlib.blake2b(digest_size=16)
    page_bytes = machine.ram.page_bytes
    for index in sorted_pages:
        ram.update(page_bytes(index))
    return StateDigest(
        stop_reason=result.stop_reason,
        exit_code=result.exit_code,
        trap_cause=result.trap_cause,
        instructions=result.instructions,
        pc=cpu.pc,
        regs=cpu.regs.snapshot(),
        fregs=cpu.fregs.snapshot(),
        csrs=(*sorted(csrs._regs.items()),
              (csrdef.MINSTRET, csrs.instret_offset)),
        uart_tx=bytes(machine.uart.tx_log),
        gpio=(machine.gpio.out, machine.gpio.inputs,
              tuple(machine.gpio.out_history)),
        exit_value=machine.exit_device.value,
        pages=sorted_pages,
        ram_digest=ram.digest(),
        cycles=csrs.cycle,
        clint=(machine.clint.mtime, machine.clint.mtimecmp,
               machine.clint.msip),
    )


def compare_digests(a: StateDigest, b: StateDigest,
                    include_timing: bool = True) -> List[str]:
    """Field-level mismatch descriptions; empty when the states agree."""
    mismatches: List[str] = []
    for field in ("stop_reason", "exit_code", "trap_cause",
                  "instructions", "pc", "exit_value"):
        va, vb = getattr(a, field), getattr(b, field)
        if va != vb:
            mismatches.append(f"{field}: {va!r} vs {vb!r}")
    if a.regs != b.regs:
        diffs = [f"x{i}: {ra:#x} vs {rb:#x}"
                 for i, (ra, rb) in enumerate(zip(a.regs, b.regs))
                 if ra != rb]
        mismatches.append("regs: " + "; ".join(diffs))
    if a.fregs != b.fregs:
        mismatches.append("fregs differ")
    if a.csrs != b.csrs:
        ca, cb = dict(a.csrs), dict(b.csrs)
        diffs = [f"csr {addr:#x}: {ca.get(addr)!r} vs {cb.get(addr)!r}"
                 for addr in sorted(set(ca) | set(cb))
                 if ca.get(addr) != cb.get(addr)]
        mismatches.append("csrs: " + "; ".join(diffs))
    if a.uart_tx != b.uart_tx:
        mismatches.append(f"uart tx: {a.uart_tx!r} vs {b.uart_tx!r}")
    if a.gpio != b.gpio:
        mismatches.append("gpio state differs")
    if a.pages != b.pages or a.ram_digest != b.ram_digest:
        mismatches.append(
            f"ram: {len(a.pages)} written pages "
            f"{a.ram_digest.hex()[:12]} vs {len(b.pages)} pages "
            f"{b.ram_digest.hex()[:12]}")
    if include_timing:
        if a.cycles != b.cycles:
            mismatches.append(f"cycles: {a.cycles} vs {b.cycles}")
        if a.clint != b.clint:
            mismatches.append(f"clint: {a.clint} vs {b.clint}")
    return mismatches
