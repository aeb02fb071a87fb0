"""Lockstep differential execution of two machines.

Runs the same program on two differently configured machines (e.g. block
cache on vs. off, or two ISA-compatible timing models) and compares the
architectural state after every executed instruction.  Divergence is
reported with the instruction index, pc, and the differing state — the
software analogue of the dual-core lockstep operation of safety MCUs, and
the tool this repo uses to prove that the translation-block cache is
behaviour-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..asm import Program
from .machine import Machine
from .plugins import Plugin


class LockstepDivergence(Exception):
    """The two machines disagreed on architectural state.

    Beyond the instruction index / pc / detail string, the report carries
    the *culprit* instruction — the one whose execution produced the
    differing state — as ``disasm`` (via :mod:`repro.isa.disasm`) plus the
    ``reg_delta`` of the first diverging snapshot: ``(reg, primary,
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


class _StepRecorder(Plugin):
    """Captures (pc, registers, decoded insn) before every instruction."""

    def __init__(self) -> None:
        self.steps: List[Tuple[int, Tuple[int, ...], object]] = []

    def on_insn_exec(self, cpu, decoded, pc) -> None:
        self.steps.append((pc, cpu.regs.snapshot(), decoded))


def _run_with_recorder(machine: Machine, program: Program,
                       max_instructions: int):
    machine.load(program)
    recorder = _StepRecorder()
    machine.add_plugin(recorder)
    result = machine.run(max_instructions=max_instructions)
    machine.remove_plugin(recorder)
    return recorder.steps, result


def run_lockstep(
    primary: Machine,
    secondary: Machine,
    program: Program,
    max_instructions: int = 1_000_000,
    raise_on_divergence: bool = True,
) -> LockstepResult:
    """Run ``program`` on both machines and compare per-instruction state.

    Machines must share the ISA configuration.  Returns a
    :class:`LockstepResult`; raises :class:`LockstepDivergence` on mismatch
    unless ``raise_on_divergence`` is False.
    """
    if primary.config.isa != secondary.config.isa:
        raise ValueError("lockstep machines must share an ISA configuration")
    primary_steps, primary_result = _run_with_recorder(
        primary, program, max_instructions)
    secondary_steps, secondary_result = _run_with_recorder(
        secondary, program, max_instructions)

    result = LockstepResult(
        instructions=min(len(primary_steps), len(secondary_steps)),
        primary_exit=primary_result.exit_code,
        secondary_exit=secondary_result.exit_code,
    )
    divergence = _compare(primary_steps, secondary_steps,
                          primary_result.exit_code,
                          secondary_result.exit_code)
    if divergence is not None:
        result.diverged = True
        result.divergence = divergence
        if raise_on_divergence:
            raise divergence
    return result


def _step_disasm(steps, index: int) -> Optional[str]:
    """Disassemble the recorded instruction at ``index``, if any.

    The recorder snapshots state *before* each instruction executes, so a
    mismatch first visible at snapshot ``index`` was produced by the
    instruction recorded at ``index - 1`` — callers pass that culprit
    index here.
    """
    from ..isa.disasm import disassemble

    if not 0 <= index < len(steps):
        return None
    pc, _regs, decoded = steps[index]
    if decoded is None:
        return None
    try:
        return disassemble(decoded, pc)
    except Exception:  # noqa: BLE001 — diagnostics must not mask the report
        return None


def _compare(primary_steps, secondary_steps, primary_exit, secondary_exit
             ) -> Optional[LockstepDivergence]:
    for index, ((pc_a, regs_a, _dec_a), (pc_b, regs_b, _dec_b)) in enumerate(
            zip(primary_steps, secondary_steps)):
        if pc_a != pc_b:
            return LockstepDivergence(
                index, pc_a,
                f"control flow differs (secondary at {pc_b:#010x})",
                kind="control-flow",
                disasm=_step_disasm(primary_steps, index - 1))
        if regs_a != regs_b:
            delta = tuple(
                (i, a, b)
                for i, (a, b) in enumerate(zip(regs_a, regs_b)) if a != b
            )
            diffs = [f"x{i}: {a:#x} vs {b:#x}" for i, a, b in delta]
            return LockstepDivergence(
                index, pc_a,
                "registers differ: " + "; ".join(diffs),
                kind="registers",
                disasm=_step_disasm(primary_steps, index - 1),
                reg_delta=delta)
    if len(primary_steps) != len(secondary_steps):
        short = min(len(primary_steps), len(secondary_steps))
        longer_steps = (primary_steps if len(primary_steps) > short
                        else secondary_steps)
        pc = longer_steps[short][0]
        return LockstepDivergence(
            short, pc,
            f"instruction counts differ ({len(primary_steps)} vs "
            f"{len(secondary_steps)})",
            kind="count",
            disasm=_step_disasm(longer_steps, short))
    if primary_exit != secondary_exit:
        return LockstepDivergence(
            len(primary_steps), 0,
            f"exit codes differ ({primary_exit} vs {secondary_exit})",
            kind="exit",
            disasm=_step_disasm(primary_steps, len(primary_steps) - 1))
    return None
