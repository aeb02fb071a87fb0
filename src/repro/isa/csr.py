"""Control and status register (CSR) file for machine-mode RV32.

Implements the machine-mode CSR subset the Scale4Edge virtual prototype and
its demonstrators need: trap handling (mstatus/mtvec/mepc/mcause/mtval/mie/
mip), counters (cycle/instret and their machine aliases), identification
registers, and a handful of scratch registers.  Unknown CSR accesses raise
:class:`IllegalCsrError` which the CPU turns into an illegal-instruction
trap, matching hardware behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from .fields import WORD_MASK

# --- CSR addresses (subset) -------------------------------------------------
MSTATUS = 0x300
MISA = 0x301
MIE = 0x304
MTVEC = 0x305
MCOUNTEREN = 0x306
MSCRATCH = 0x340
MEPC = 0x341
MCAUSE = 0x342
MTVAL = 0x343
MIP = 0x344

MCYCLE = 0xB00
MINSTRET = 0xB02
MCYCLEH = 0xB80
MINSTRETH = 0xB82

CYCLE = 0xC00
TIME = 0xC01
INSTRET = 0xC02
CYCLEH = 0xC80
TIMEH = 0xC81
INSTRETH = 0xC82

MVENDORID = 0xF11
MARCHID = 0xF12
MIMPID = 0xF13
MHARTID = 0xF14

#: Names for disassembly and assembly.
CSR_NAMES: Dict[int, str] = {
    MSTATUS: "mstatus", MISA: "misa", MIE: "mie", MTVEC: "mtvec",
    MCOUNTEREN: "mcounteren", MSCRATCH: "mscratch", MEPC: "mepc",
    MCAUSE: "mcause", MTVAL: "mtval", MIP: "mip",
    MCYCLE: "mcycle", MINSTRET: "minstret",
    MCYCLEH: "mcycleh", MINSTRETH: "minstreth",
    CYCLE: "cycle", TIME: "time", INSTRET: "instret",
    CYCLEH: "cycleh", TIMEH: "timeh", INSTRETH: "instreth",
    MVENDORID: "mvendorid", MARCHID: "marchid", MIMPID: "mimpid",
    MHARTID: "mhartid",
}

CSR_ADDRS: Dict[str, int] = {name: addr for addr, name in CSR_NAMES.items()}

# mstatus bits we model.
MSTATUS_MIE = 1 << 3
MSTATUS_MPIE = 1 << 7
MSTATUS_MPP = 3 << 11
MSTATUS_WRITABLE = MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP

# mie/mip bits.
MIE_MSIE = 1 << 3
MIE_MTIE = 1 << 7
MIE_MEIE = 1 << 11

# mcause values (exceptions).
CAUSE_MISALIGNED_FETCH = 0
CAUSE_FETCH_ACCESS = 1
CAUSE_ILLEGAL_INSTRUCTION = 2
CAUSE_BREAKPOINT = 3
CAUSE_MISALIGNED_LOAD = 4
CAUSE_LOAD_ACCESS = 5
CAUSE_MISALIGNED_STORE = 6
CAUSE_STORE_ACCESS = 7
CAUSE_ECALL_M = 11

# mcause values (interrupts; bit 31 set).
INTERRUPT_BIT = 1 << 31
CAUSE_MACHINE_SOFTWARE_INT = INTERRUPT_BIT | 3
CAUSE_MACHINE_TIMER_INT = INTERRUPT_BIT | 7
CAUSE_MACHINE_EXTERNAL_INT = INTERRUPT_BIT | 11


def misa_value(modules: Set[str]) -> int:
    """Compose the misa register value from enabled ISA module letters."""
    value = 1 << 30  # MXL=1 (32-bit)
    for letter in modules:
        if len(letter) == 1 and letter.isalpha():
            value |= 1 << (ord(letter.upper()) - ord("A"))
    return value


class IllegalCsrError(Exception):
    """Raised for accesses to unimplemented or read-only-violating CSRs."""

    def __init__(self, addr: int, message: str) -> None:
        super().__init__(message)
        self.addr = addr


class CsrFile:
    """Machine-mode CSR file.

    ``time_source`` supplies the value of the memory-mapped timer so the
    user-level ``time`` CSR mirrors the CLINT's mtime, as on real platforms.
    """

    def __init__(
        self,
        modules: Optional[Set[str]] = None,
        hart_id: int = 0,
        time_source: Optional[Callable[[], int]] = None,
    ) -> None:
        self._regs: Dict[int, int] = {
            MSTATUS: 0,
            MISA: misa_value(modules or {"I"}),
            MIE: 0,
            MTVEC: 0,
            MCOUNTEREN: 0,
            MSCRATCH: 0,
            MEPC: 0,
            MCAUSE: 0,
            MTVAL: 0,
            MIP: 0,
            MVENDORID: 0,
            MARCHID: 0x53344544,  # "S4ED"
            MIMPID: 1,
            MHARTID: hart_id,
        }
        self.cycle = 0
        #: Instructions retired since reset, which run budgets read.  A
        #: guest write to ``minstret``/``minstreth`` moves the offset
        #: instead (as ``mtime`` is an offset over the cycle count).
        self.instret = 0
        self.instret_offset = 0
        self._time_source = time_source or (lambda: self.cycle)
        #: Optional live source for mip: platforms wire this to the device
        #: interrupt poll so reads reflect the *current* pending lines
        #: rather than the last snapshot the CPU wrote.
        self._mip_source: Optional[Callable[[], int]] = None
        #: Optional callback told how far an ``mcycle``/``mcycleh`` write
        #: moved the cycle count: platforms whose timer derives ``mtime``
        #: from ``cycle`` rebase it there, since such a write is not time.
        self._cycle_moved: Optional[Callable[[int], None]] = None

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def is_read_only(addr: int) -> bool:
        """CSR addresses with top two bits ``11`` are read-only by spec."""
        return (addr >> 10) & 0b11 == 0b11

    def known_addresses(self) -> Set[int]:
        """All CSR addresses this file implements."""
        counters = {MCYCLE, MINSTRET, MCYCLEH, MINSTRETH,
                    CYCLE, TIME, INSTRET, CYCLEH, TIMEH, INSTRETH}
        return set(self._regs) | counters

    # -- architectural access ------------------------------------------------

    def read(self, addr: int) -> int:
        if addr in (MCYCLE, CYCLE):
            return self.cycle & WORD_MASK
        if addr in (MCYCLEH, CYCLEH):
            return (self.cycle >> 32) & WORD_MASK
        if addr in (MINSTRET, INSTRET):
            return (self.instret + self.instret_offset) & WORD_MASK
        if addr in (MINSTRETH, INSTRETH):
            return ((self.instret + self.instret_offset) >> 32) & WORD_MASK
        if addr == TIME:
            return self._time_source() & WORD_MASK
        if addr == TIMEH:
            return (self._time_source() >> 32) & WORD_MASK
        if addr == MIP and self._mip_source is not None:
            return self._mip_source() & WORD_MASK
        try:
            return self._regs[addr]
        except KeyError:
            raise IllegalCsrError(addr, f"read of unimplemented CSR {addr:#05x}") from None

    def write(self, addr: int, value: int) -> None:
        if self.is_read_only(addr):
            raise IllegalCsrError(addr, f"write to read-only CSR {addr:#05x}")
        value &= WORD_MASK
        if addr == MCYCLE or addr == MCYCLEH:
            if addr == MCYCLE:
                cycle = (self.cycle & ~WORD_MASK) | value
            else:
                cycle = (self.cycle & WORD_MASK) | (value << 32)
            if self._cycle_moved is not None:
                self._cycle_moved(cycle - self.cycle)
            self.cycle = cycle
            return
        if addr == MINSTRET or addr == MINSTRETH:
            count = self.instret + self.instret_offset
            count = ((count & ~WORD_MASK) | value if addr == MINSTRET
                     else (count & WORD_MASK) | (value << 32))
            self.instret_offset = count - self.instret
            return
        if addr not in self._regs:
            raise IllegalCsrError(addr, f"write to unimplemented CSR {addr:#05x}")
        if addr == MSTATUS:
            self._regs[addr] = value & MSTATUS_WRITABLE
        elif addr == MISA:
            pass  # WARL: writes ignored, misa is fixed by configuration
        elif addr == MTVEC:
            self._regs[addr] = value & ~0b10  # mode 2/3 reserved -> clamp
        else:
            self._regs[addr] = value

    # -- raw access for traps, fault injection, snapshots --------------------

    def raw_read(self, addr: int) -> int:
        return self._regs[addr]

    def raw_write(self, addr: int, value: int) -> None:
        self._regs[addr] = value & WORD_MASK

    def snapshot(self) -> Dict[int, int]:
        state = dict(self._regs)
        state["cycle"] = self.cycle  # type: ignore[index]
        state["instret"] = self.instret  # type: ignore[index]
        state["instret_offset"] = self.instret_offset  # type: ignore[index]
        return state

    def restore(self, state: Dict) -> None:
        self.cycle = state["cycle"]
        self.instret = state["instret"]
        self.instret_offset = state["instret_offset"]
        for addr, value in state.items():
            if isinstance(addr, int):
                self._regs[addr] = value
