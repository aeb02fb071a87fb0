"""Core-local interruptor: machine timer (mtime/mtimecmp) and software IRQ.

Register map (subset of the SiFive CLINT layout, single hart):

========== ========== ===========================
offset     name       width
========== ========== ===========================
0x0000     MSIP       32-bit software interrupt
0x4000     MTIMECMP   64-bit (lo at +0, hi at +4)
0xBFF8     MTIME      64-bit (lo at +0, hi at +4)
========== ========== ===========================

``mtime`` is a view of the hart's cycle counter, as QEMU's CLINT derives
it from the virtual clock: the value of :attr:`clock` (the machine wires
it to ``cpu.csrs.cycle``) plus an offset.  Nothing ticks the device.
Writing ``mtime`` sets the offset; cycle moves that are not time (an
``mcycle`` write, a reset's fresh CSR file) call :meth:`rebase` so that
``mtime`` stays where it was.  The CPU polls :meth:`pending_interrupts`
when :meth:`cycles_until_timer` says the timer may have asserted, or
after an event that can change the interrupt state, and reflects the
result into ``mip``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..memory import Device
from ..trap import BusError
from ...isa import csr as csrdef

MSIP = 0x0000
MTIMECMP_LO = 0x4000
MTIMECMP_HI = 0x4004
MTIME_LO = 0xBFF8
MTIME_HI = 0xBFFC

WINDOW_SIZE = 0x10000

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF


class Clint(Device):
    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        #: The cycle count ``mtime`` follows; a stopped clock without one.
        self.clock: Callable[[], int] = clock or (lambda: 0)
        self._offset = 0
        self.mtimecmp = _U64  # no timer interrupt until armed
        self.msip = 0

    @property
    def mtime(self) -> int:
        return (self.clock() + self._offset) & _U64

    @mtime.setter
    def mtime(self, value: int) -> None:
        self._offset = (value & _U64) - self.clock()

    def rebase(self, delta: int) -> None:
        """The clock moved by ``delta`` cycles that are not time: keep
        ``mtime`` where it was."""
        self._offset -= delta

    def pending_interrupts(self) -> int:
        """mip bits this device asserts right now."""
        pending = 0
        if self.msip & 1:
            pending |= csrdef.MIE_MSIE
        if self.mtime >= self.mtimecmp:
            pending |= csrdef.MIE_MTIE
        return pending

    def cycles_until_timer(self) -> Optional[int]:
        """Cycles until the timer newly asserts, or ``None`` when it
        cannot: already pending, or never armed (``mtimecmp`` at its
        reset value).  The CPU's interrupt deadline and WFI's
        fast-forward both come from this."""
        mtime = self.mtime
        if mtime >= self.mtimecmp or self.mtimecmp == _U64:
            return None
        return self.mtimecmp - mtime

    def load(self, offset: int, width: int) -> int:
        if offset == MSIP:
            return self.msip
        if offset == MTIMECMP_LO:
            return self.mtimecmp & _U32
        if offset == MTIMECMP_HI:
            return (self.mtimecmp >> 32) & _U32
        if offset == MTIME_LO:
            return self.mtime & _U32
        if offset == MTIME_HI:
            return (self.mtime >> 32) & _U32
        raise BusError(offset, f"CLINT load from unknown register {offset:#x}")

    def store(self, offset: int, width: int, value: int) -> None:
        value &= _U32
        if offset == MSIP:
            self.msip = value & 1
        elif offset == MTIMECMP_LO:
            self.mtimecmp = (self.mtimecmp & ~_U32) | value
        elif offset == MTIMECMP_HI:
            self.mtimecmp = (self.mtimecmp & _U32) | (value << 32)
        elif offset == MTIME_LO:
            self.mtime = (self.mtime & ~_U32) | value
        elif offset == MTIME_HI:
            self.mtime = (self.mtime & _U32) | (value << 32)
        else:
            raise BusError(offset, f"CLINT store to unknown register {offset:#x}")
