"""Execution tracing plugin.

Produces an instruction-level trace (pc, disassembly, register writes,
memory effects) with an optional bounded ring buffer — the VP equivalent
of ``qemu -d in_asm,exec``.  Used interactively for debugging.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional

from ..isa.disasm import disassemble
from ..isa.registers import gpr_name
from .plugins import Plugin


@dataclass
class TraceEntry:
    """One executed instruction."""

    index: int
    pc: int
    word: int
    text: str

    def __str__(self) -> str:
        return f"{self.index:>8}  {self.pc:#010x}  {self.word:08x}  {self.text}"


class ExecutionTracer(Plugin):
    """Records every executed instruction.

    ``limit`` bounds memory use: only the most recent ``limit`` entries
    are retained (``None`` keeps the complete trace).
    """

    name = "tracer"

    def __init__(self, limit: Optional[int] = 10_000) -> None:
        self.limit = limit
        self.entries: Deque[TraceEntry] = deque(maxlen=limit)
        self.count = 0

    def on_insn_exec(self, cpu, decoded, pc) -> None:
        self.entries.append(TraceEntry(
            index=self.count,
            pc=pc,
            word=decoded.word,
            text=disassemble(decoded, pc=pc),
        ))
        self.count += 1

    def tail(self, count: int = 20) -> List[TraceEntry]:
        """The last ``count`` executed instructions."""
        entries = list(self.entries)
        return entries[-count:]

    def render(self, count: int = 20) -> str:
        return "\n".join(str(entry) for entry in self.tail(count))

    def clear(self) -> None:
        self.entries.clear()
        self.count = 0


class RegisterWatch(Plugin):
    """Records every change of selected registers as (insn index, value).

    Watches are evaluated *before* each instruction executes, so the entry
    records the instruction index at which the new value became visible.
    """

    name = "register-watch"

    def __init__(self, registers: Iterable[int]) -> None:
        self.registers = sorted(set(registers))
        self.history = {reg: [] for reg in self.registers}
        self._last = {reg: None for reg in self.registers}
        self._index = 0

    def on_insn_exec(self, cpu, decoded, pc) -> None:
        for reg in self.registers:
            value = cpu.regs.raw_read(reg)
            if value != self._last[reg]:
                self.history[reg].append((self._index, value))
                self._last[reg] = value
        self._index += 1

    def render(self) -> str:
        lines = []
        for reg in self.registers:
            changes = ", ".join(f"@{i}={v:#x}" for i, v in self.history[reg])
            lines.append(f"{gpr_name(reg)}: {changes}")
        return "\n".join(lines)
