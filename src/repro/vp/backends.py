"""Selectable execution backends for :meth:`repro.vp.cpu.Cpu.run`.

An :class:`ExecutionBackend` owns the run loop — budget accounting,
livelock detection, WFI fast-forward, :class:`~repro.vp.cpu.StopRun`
handling and an optional instruction-count watch
(:meth:`ExecutionBackend.set_watch`) — and delegates the per-block step
to a tier-specific strategy.  The loop also raises the interrupt events
only it sees: the start of a run, a hook-table change and the return of
a watch callback make the next block boundary poll (host code may have
changed devices or CSRs there).  The strategies:

* ``interp``    — :meth:`~repro.vp.cpu.Cpu._execute_block` for every
  block, instruction hooks honoured,
* ``compiled``  — the template JIT tier (:mod:`repro.vp.jit`): interpret
  a block with the same loop until its ``exec_count`` crosses a
  threshold (or for good, with instruction or memory hooks), then
  execute a compiled function cached on the block.

Both produce bit-identical architectural results, and a run that ends
``max_insns`` has retired exactly its budget in both: the block the
budget ends in runs only its prefix, interpreted.  The backend choice
only moves the speed/observability trade-off.  ``create_backend`` is the
single factory the machine layer, CLI, and tests go through, and
:func:`canonical_backend` the single place a backend name is checked.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..isa import csr as csrdef
from .cpu import (LIVELOCK_LIMIT, STOP_LIVELOCK, STOP_MAX_INSNS,
                  STOP_REQUESTED, STOP_WFI, Cpu, RunResult, StopRun)

__all__ = ["ExecutionBackend", "InterpBackend", "create_backend",
           "canonical_backend", "BACKEND_NAMES"]

#: Watch key meaning "no key ahead".
_NEVER = float("inf")


class ExecutionBackend:
    """Base class: the shared run loop over a per-block step.

    :meth:`_step` executes one translation block (or takes one
    interrupt/trap) and returns the number of instructions retired; the
    base step interprets it.  Subclasses may replace it with their tiers
    and override :meth:`_refresh` (called at run start and
    whenever the hook table version changes mid-run) to re-specialize.
    ``remaining`` is the budget left, and exact: a step runs only the
    prefix that fits of a longer block.  ``pause`` is the watch key: a
    step that runs several blocks (fused loops, traces) starts none once
    ``csrs.instret`` has reached it.
    """

    name = "base"

    def __init__(self, cpu: Cpu) -> None:
        self.cpu = cpu
        self._watch: Optional[Callable[[float], float]] = None
        self._watch_key: float = _NEVER

    def set_watch(self, callback: Optional[Callable[[float], float]] = None,
                  key: float = _NEVER) -> None:
        """Install an instruction-count watch, or remove it (no callback).

        :meth:`run` pauses at the first block boundary where
        ``csrs.instret >= key`` and calls ``callback(key)`` there; it
        never splits a block to pause, and a run whose budget ends first
        returns without calling it.  Fused loops and traces, which run
        several blocks per step, pause at that boundary too.  The
        callback raises :class:`StopRun` to end the run
        (``stop_requested``) or returns the next key, which must lie
        beyond the current count (infinity: none).  The watch stays
        installed across runs until removed.  It is not a plugin: setting
        it neither bumps the hook table version nor flushes translations,
        so compiled code keeps all of its shapes.
        """
        self._watch = callback
        self._watch_key = key

    def _refresh(self) -> None:
        pass

    def _step(self, remaining, pause) -> int:
        cpu = self.cpu
        block = cpu._enter_block()
        return 0 if block is None else cpu._execute_block(block, remaining)

    def _unwound(self, retired: int) -> None:
        """Account the ``retired`` instructions of a step that raised."""

    def run_prefix(self, block, count: int) -> int:
        """Run the first ``count`` instructions of ``block`` as this
        backend runs code (lockstep replays a diverging block this way);
        returns the instructions retired."""
        return self.cpu._execute_block(block, count)

    def run(self, max_instructions: Optional[int] = None) -> RunResult:
        cpu = self.cpu
        executed = 0
        budget = (max_instructions if max_instructions is not None
                  else float("inf"))
        zero_steps = 0
        hooks = cpu.hooks
        hook_version = hooks.version
        self._refresh()
        cpu._poll_at = 0
        start_instret = cpu.csrs.instret
        watch = self._watch
        # Steps run while below ``limit``: the budget, or the watch key
        # (``pause``) when it comes first.
        pause = self._watch_key if watch is not None else _NEVER
        limit = min(budget, pause - start_instret)
        try:
            while True:
                while executed < limit:
                    if hooks.version != hook_version:  # plugin added/removed
                        hook_version = hooks.version
                        self._refresh()
                        cpu._poll_at = 0
                    retired = self._step(budget - executed, pause)
                    executed += retired
                    if retired:
                        zero_steps = 0
                    else:
                        zero_steps += 1
                        if zero_steps >= LIVELOCK_LIMIT:
                            return RunResult(STOP_LIVELOCK, executed,
                                             cpu.csrs.cycle,
                                             trap_cause=cpu.csrs.raw_read(
                                                 csrdef.MCAUSE),
                                             trap_pc=cpu.pc)
                    if cpu._wfi_pending:
                        cpu._wfi_pending = False
                        skip = cpu._wfi_wait()
                        if skip is None:
                            return RunResult(STOP_WFI, executed,
                                             cpu.csrs.cycle)
                        # Time is the cycle count: advancing it is the
                        # whole fast-forward.
                        cpu.csrs.cycle += skip
                if executed >= budget:
                    break
                pause = self._watch_key = watch(self._watch_key)
                cpu._poll_at = 0
                limit = min(budget, executed + pause - cpu.csrs.instret)
        except BaseException as stop:
            # An exit, a trap or a hook stopped mid-block (the partial
            # block's accounting is already flushed to the CSRs), or the
            # watch stopped between steps.
            self._unwound(cpu.csrs.instret - start_instret - executed)
            if not isinstance(stop, StopRun):
                raise
            return RunResult(STOP_REQUESTED,
                             cpu.csrs.instret - start_instret,
                             cpu.csrs.cycle)
        return RunResult(STOP_MAX_INSNS, executed, cpu.csrs.cycle)


class InterpBackend(ExecutionBackend):
    """The interpreter: :meth:`~repro.vp.cpu.Cpu._execute_block` per
    block."""

    name = "interp"


def _make_compiled(cpu: Cpu, **options) -> ExecutionBackend:
    from .jit.backend import CompiledBackend

    return CompiledBackend(cpu, **options)


_FACTORIES = {
    "interp": lambda cpu, **options: InterpBackend(cpu),
    "compiled": _make_compiled,
}

#: The accepted ``--backend`` choices, in documentation order.
BACKEND_NAMES = ("interp", "compiled")


def canonical_backend(name: str) -> str:
    """The backend ``name`` selects.  The retired name ``fastpath``
    selects ``interp``, so stored JobSpecs, JSONL stores and scripts
    that name it keep working.  Raises :class:`ValueError` naming the
    valid choices."""
    if name == "fastpath":
        return "interp"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"expected one of {', '.join(BACKEND_NAMES)}")
    return name


def create_backend(name: str, cpu: Cpu, **options) -> ExecutionBackend:
    """Instantiate the named backend for ``cpu``.

    ``options`` are backend-specific (the compiled tier takes
    ``threshold=`` and ``trace_threshold=``); the interpreter accepts
    and ignores them so one config surface can drive either backend.
    """
    return _FACTORIES[canonical_backend(name)](cpu, **options)
