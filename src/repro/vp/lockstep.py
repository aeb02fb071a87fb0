"""Lockstep differential execution of two machines.

Runs the same program on two differently configured machines (block
cache on vs. off, interpreter vs. JIT, ...) and pinpoints the first
instruction after which their architectural state differs — the
software analogue of the dual-core lockstep operation of safety MCUs,
and how verify escalates a digest divergence.

Each side runs in the tiers and shapes it uses without lockstep: the
run-loop watch (:meth:`~repro.vp.backends.ExecutionBackend.set_watch`,
not a plugin, so nothing is flushed) records ``(instret, pc, GPRs)`` at
every block boundary.  Only the first block whose end state differs is
replayed, from its start, with one more instruction each time, by
:meth:`~repro.vp.backends.ExecutionBackend.run_prefix`: interpreted on
an ``interp`` side, and compiled as a prefix block of its own on a
``compiled`` side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..asm import Program
from .cpu import LIVELOCK_LIMIT, TranslationBlock
from .machine import Machine
from .trap import MachineExit, UnhandledTrap

#: The state compared at a block boundary: instructions retired since
#: the program was loaded, pc and the GPRs.
State = Tuple[int, int, Tuple[int, ...]]


class LockstepDivergence(Exception):
    """The two machines disagreed on architectural state.

    Beyond the instruction index / pc / detail string, the report carries
    the *culprit* instruction — the one whose execution produced the
    differing state — as ``disasm`` (via :mod:`repro.isa.disasm`) plus the
    ``reg_delta`` of the first diverging state: ``(reg, primary,
    secondary)`` triples for every GPR the two machines disagree on.
    ``kind`` classifies the mismatch (``registers``, ``control-flow``,
    ``count``, ``exit``) so downstream triage can key on the divergence
    class rather than on value-bearing detail strings.
    """

    def __init__(self, index: int, pc: int, detail: str,
                 kind: str = "state",
                 disasm: Optional[str] = None,
                 reg_delta: Tuple[Tuple[int, int, int], ...] = ()) -> None:
        message = f"divergence at instruction {index}, pc {pc:#010x}: {detail}"
        if disasm:
            message += f" [after: {disasm}]"
        super().__init__(message)
        self.index = index
        self.pc = pc
        self.detail = detail
        self.kind = kind
        self.disasm = disasm
        self.reg_delta = reg_delta


@dataclass
class LockstepResult:
    """Outcome of a lockstep comparison run."""

    instructions: int
    diverged: bool = False
    divergence: Optional[LockstepDivergence] = None
    primary_exit: Optional[int] = None
    secondary_exit: Optional[int] = None


class _Side:
    """One machine of the pair: its run, recorded at every block
    boundary, and replays of one block of it."""

    def __init__(self, machine: Machine, program: Program,
                 max_instructions: int) -> None:
        self.machine = machine
        machine.load(program)
        self.start = machine.snapshot()
        #: The state after every step that retired an instruction, then
        #: the final state (unless the run ended on a boundary).
        self.records: List[State] = []
        self.result = self._run(max_instructions, self.records)
        if not self.records or self.records[-1] != self._state():
            self.records.append(self._state())

    def _state(self) -> State:
        cpu = self.machine.cpu
        return (cpu.csrs.instret, cpu.pc, cpu.regs.snapshot())

    def _run(self, budget: int, records: List[State]):
        """Run from the load snapshot's state with the watch pausing at
        every block boundary, so that a re-run takes the recorded steps."""
        cpu = self.machine.cpu

        def boundary(_key):
            records.append(self._state())
            return cpu.csrs.instret + 1

        cpu.backend.set_watch(boundary, cpu.csrs.instret + 1)
        try:
            return self.machine.run(max_instructions=budget)
        finally:
            cpu.backend.set_watch()

    def enter(self, start: int) -> Optional[TranslationBlock]:
        """Re-run to ``start`` retired instructions, poll as the watch's
        return made the recorded run poll there, and enter the next
        block (after any interrupt or fetch trap it takes first).
        :meth:`step` restarts from the snapshot taken here."""
        machine = self.machine
        machine.restore(self.start)
        if start:
            self._run(start, [])
        cpu = machine.cpu
        cpu._poll_at = 0
        try:
            for _ in range(LIVELOCK_LIMIT):
                block = cpu._enter_block()
                if block is not None:
                    self.entered = machine.snapshot()
                    return block
        except (MachineExit, UnhandledTrap):
            pass
        return None

    def step(self, block: TranslationBlock, count: int) -> State:
        """The state after ``block``'s first ``count`` instructions."""
        self.machine.restore(self.entered)
        try:
            self.machine.cpu.backend.run_prefix(block, count)
        except (MachineExit, UnhandledTrap):
            pass
        return self._state()


def run_lockstep(
    primary: Machine,
    secondary: Machine,
    program: Program,
    max_instructions: int = 1_000_000,
    raise_on_divergence: bool = True,
) -> LockstepResult:
    """Run ``program`` on both machines and pinpoint the first
    instruction after which their state differs.

    Machines must share the ISA configuration.  Returns a
    :class:`LockstepResult`; raises :class:`LockstepDivergence` on mismatch
    unless ``raise_on_divergence`` is False.
    """
    if primary.config.isa != secondary.config.isa:
        raise ValueError("lockstep machines must share an ISA configuration")
    a = _Side(primary, program, max_instructions)
    b = _Side(secondary, program, max_instructions)
    result = LockstepResult(
        instructions=min(a.records[-1][0], b.records[-1][0]),
        primary_exit=a.result.exit_code,
        secondary_exit=b.result.exit_code,
    )
    divergence = _compare(a, b)
    if divergence is not None:
        result.diverged = True
        result.divergence = divergence
        if raise_on_divergence:
            raise divergence
    return result


def _compare(a: _Side, b: _Side) -> Optional[LockstepDivergence]:
    for index in range(max(len(a.records), len(b.records))):
        if a.records[index:index + 1] != b.records[index:index + 1]:
            return _pinpoint(a, b, index)
    if a.result.exit_code != b.result.exit_code:
        instret, pc, _regs = a.records[-1]
        return LockstepDivergence(
            instret, pc,
            f"exit codes differ ({a.result.exit_code} vs "
            f"{b.result.exit_code})",
            kind="exit")
    return None


def _pinpoint(a: _Side, b: _Side, index: int) -> LockstepDivergence:
    """Replay the block of record ``index`` on both sides, one more
    instruction per replay, and report the first prefix after which they
    differ.  When none does (one side stopped there, or an interrupt or
    a trace member's own code told them apart), report the records
    without a culprit."""
    start = a.records[index - 1][0] if index else 0
    blocks = (a.enter(start), b.enter(start))
    if None not in blocks:
        for count in range(1, max(len(block) for block in blocks) + 1):
            state_a = a.step(blocks[0], count)
            state_b = b.step(blocks[1], count)
            divergence = _differ(state_a, state_b,
                                 _disasm(blocks, count - 1))
            if divergence is not None:
                return divergence
            if state_a[0] - start < count and state_b[0] - start < count:
                break  # both blocks ended early: a trap or an exit
    # A side without record ``index`` stopped at its last one, which
    # differs from the other side's record ``index`` (instret grows).
    return _differ(*(side.records[min(index, len(side.records) - 1)]
                     for side in (a, b)), None)


def _differ(state_a: State, state_b: State,
            disasm: Optional[str]) -> Optional[LockstepDivergence]:
    instret_a, pc_a, regs_a = state_a
    instret_b, pc_b, regs_b = state_b
    if pc_a != pc_b:
        return LockstepDivergence(
            instret_a, pc_a,
            f"control flow differs (secondary at {pc_b:#010x})",
            kind="control-flow", disasm=disasm)
    if regs_a != regs_b:
        delta = tuple((i, x, y) for i, (x, y)
                      in enumerate(zip(regs_a, regs_b)) if x != y)
        diffs = [f"x{i}: {x:#x} vs {y:#x}" for i, x, y in delta]
        return LockstepDivergence(
            instret_a, pc_a, "registers differ: " + "; ".join(diffs),
            kind="registers", disasm=disasm, reg_delta=delta)
    if instret_a != instret_b:
        return LockstepDivergence(
            instret_a, pc_a,
            f"instruction counts differ ({instret_a} vs {instret_b})",
            kind="count", disasm=disasm)
    return None


def _disasm(blocks, index: int) -> Optional[str]:
    """Disassemble instruction ``index`` of the primary's block (the
    secondary's when the primary's is shorter)."""
    from ..isa.disasm import disassemble

    for block in blocks:
        if index < len(block):
            try:
                return disassemble(block.insns[index], block.pcs[index])
            except Exception:  # noqa: BLE001 — diagnostics must not mask the report
                return None
    return None
