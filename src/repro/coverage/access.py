"""The registers and CSRs each decoded instruction accesses.

Execute functions (:mod:`repro.isa.semantics` and registered extensions)
pick registers by operand field, never by value, so :func:`access_of`
runs an instruction's own execute function once against a recording
stand-in CPU and memoizes what it touched: the sets cannot drift from
the semantics.  The stand-in's CSR side is a real
:class:`~repro.isa.csr.CsrFile`, so an illegal CSR access stops where
the machine's would.
"""

from __future__ import annotations

from contextlib import suppress
from functools import cached_property
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from ..isa.csr import CsrFile
from ..isa.decoder import DECODE_MEMO_MAX_ENTRIES
from ..isa.spec import Decoded

__all__ = ["Access", "access_of"]


class Access(NamedTuple):
    """Register numbers and CSR addresses one instruction accessed."""

    gpr_reads: FrozenSet[int]
    gpr_writes: FrozenSet[int]
    fpr_reads: FrozenSet[int]
    fpr_writes: FrozenSet[int]
    csr_reads: FrozenSet[int]
    csr_writes: FrozenSet[int]


class _Trap(Exception):
    pass


class _Registers:
    def __init__(self) -> None:
        self.reads, self.writes = set(), set()

    def read(self, num: int) -> int:
        self.reads.add(num)
        return 0

    def write(self, num: int, value: int) -> None:
        self.writes.add(num)


class _Csrs(CsrFile):
    """Records a read before it may raise, and a write once it passed
    the read-only check."""

    def __init__(self, reads: set, writes: set) -> None:
        super().__init__()
        self.reads, self.writes = reads, writes

    def read(self, addr: int) -> int:
        self.reads.add(addr)
        return super().read(addr)

    def write(self, addr: int, value: int) -> None:
        if not self.is_read_only(addr):
            self.writes.add(addr)
        super().write(addr, value)


class _Recorder:
    """The CPU protocol of :mod:`repro.isa.semantics`, recording."""

    def __init__(self, word: int) -> None:
        self.regs, self.fregs = _Registers(), _Registers()
        self.csr_reads, self.csr_writes = set(), set()
        self.pc = self.next_pc = 0
        self._word = word
        #: The accesses made before the first load, store or ``ecall``:
        #: all that an instruction one of them stopped made.
        self.before_memory: Optional[Access] = None

    @cached_property
    def csrs(self) -> _Csrs:
        # Built on first use: most instructions touch no CSR, and a CSR
        # file costs more than the rest of the stand-in.
        return _Csrs(self.csr_reads, self.csr_writes)

    def access(self) -> Access:
        return _intern(Access(*(_intern(frozenset(accessed)) for accessed in (
            self.regs.reads, self.regs.writes, self.fregs.reads,
            self.fregs.writes, self.csr_reads, self.csr_writes))))

    def _memory(self, *args, **kwargs) -> int:
        if self.before_memory is None:
            self.before_memory = self.access()
        return 0

    load = store = environment_call = _memory

    def trap(self, cause: int, tval: int) -> None:
        raise _Trap

    def current_word(self) -> int:
        return self._word

    def wait_for_interrupt(self) -> None:
        pass

    flush_translation_cache = wait_for_interrupt


#: Decoded instruction -> (accesses when it retires, accesses before it
#: stopped).  Keyed by object: decodes are shared, and a ``Decoded``
#: never changes after decode.  Cleared when full, as the decode memo is.
_MEMO: Dict[Decoded, Tuple[Access, Access]] = {}
#: One object per distinct register set and :class:`Access`: encodings
#: share most of them, which keeps a full memo small.
_INTERNED: Dict[object, object] = {}


def _intern(value):
    return _INTERNED.setdefault(value, value)


def access_of(decoded: Decoded) -> Tuple[Access, Access]:
    """``(retired, stopped)``: the accesses of ``decoded`` when it
    retires, and those it made before a trap or an exit stopped it."""
    entry = _MEMO.get(decoded)
    if entry is None:
        cpu = _Recorder(decoded.word)
        with suppress(_Trap):  # it always traps: it never retires
            decoded.spec.execute(cpu, decoded)
        retired = cpu.access()
        if len(_MEMO) >= DECODE_MEMO_MAX_ENTRIES:
            _MEMO.clear()
            _INTERNED.clear()
        entry = _MEMO[decoded] = (retired, cpu.before_memory or retired)
    return entry
