"""The ``compiled`` execution backend: hot-block tiering over the JIT.

Blocks start life interpreted; once a block's ``exec_count`` crosses the
tier threshold it is compiled by :class:`~repro.vp.jit.compiler.BlockCompiler`
and the compiled function is cached on the block together with the
specialization token it was generated for.  The token captures
everything the generated code folded in — the hook-table version, the
register-file shape, and whether block chaining is live — so any change
recompiles instead of executing stale assumptions.

Above the compiled tier sits **trace compilation**: a compiled block
that keeps re-executing with a statically known successor (a hot chain
edge, the same ``chain_pc`` mechanism block chaining uses) becomes the
head of a multi-block trace.  The backend walks the chain through the
TB cache, collects up to :data:`~repro.vp.jit.compiler.TRACE_MAX_BLOCKS`
template-covered members, and asks the compiler for one specialized
function with interior side exits.  Traces live on their head block and
are keyed on the same specialization token; a TB flush (fence.i, SMC,
clear-on-full) discards the member blocks wholesale, so stale trace
code can never run.

Fallback rules (documented in ``docs/performance.md``): an instruction
cache or a disabled translation-block cache turns compilation off
entirely and every block stays interpreted; a codegen failure blacklists
just that block (or trace head).  The tier split is observable through
:class:`JitStats` (``repro profile``'s tier report and the
``emulator_compiled`` bench section read it).
"""

from __future__ import annotations

from typing import List, Optional

from ...isa import semantics as sem
from ...isa.registers import RegisterFile
from ..backends import ExecutionBackend
from ..trap import MachineExit, Trap
from .compiler import (TRACE_MAX_BLOCKS, BlockCompiler, CompileError)
from .templates import BRANCH_CONDS, EMITTERS

__all__ = ["CompiledBackend", "JitStats", "DEFAULT_THRESHOLD",
           "DEFAULT_TRACE_THRESHOLD"]

#: Executions before a block is promoted to the compiled tier.  Small
#: enough that a hot loop compiles almost immediately, large enough that
#: translate-once/run-once code never pays the codegen cost.
DEFAULT_THRESHOLD = 8

#: Compiled-with-hot-chain-edge executions before a block is promoted to
#: a trace head.  Counted from the compiled promotion onward, so a block
#: must prove itself hot twice before the (larger) trace codegen runs.
DEFAULT_TRACE_THRESHOLD = 16


class JitStats:
    """Tier observability counters maintained by :class:`CompiledBackend`."""

    __slots__ = ("blocks_compiled", "compiled_retired", "interp_retired",
                 "compile_failures", "traces_compiled", "trace_retired",
                 "trace_failures")

    def __init__(self) -> None:
        #: Blocks given a compiled function, whether its code object came
        #: from the process-wide code cache or a fresh ``compile()``.
        #: Cache counters stay out of this class: they depend on what the
        #: process ran before (see ``code_cache_stats``).
        self.blocks_compiled = 0
        #: Instructions retired by compiled functions / the interp tier.
        self.compiled_retired = 0
        self.interp_retired = 0
        self.compile_failures = 0
        #: Multi-block traces built / instructions they retired / chain
        #: walks that found an uncompilable shape.
        self.traces_compiled = 0
        self.trace_retired = 0
        self.trace_failures = 0

    def as_dict(self) -> dict:
        return {"blocks_compiled": self.blocks_compiled,
                "compiled_instructions": self.compiled_retired,
                "interp_instructions": self.interp_retired,
                "compile_failures": self.compile_failures,
                "traces_compiled": self.traces_compiled,
                "trace_instructions": self.trace_retired,
                "trace_failures": self.trace_failures}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JitStats({self.as_dict()})"


def _interior_ok(block) -> bool:
    """Whether ``block`` can sit in a trace with a successor after it:
    every body instruction is template-covered and the block ends in a
    pure fallthrough or a direct jal (whose link write the trace emits
    at the member boundary)."""
    ops = block.ops
    if block.chain_pc is None:
        return False
    if ops[-1][1] is sem.exec_jal:
        return all(op[1] in EMITTERS for op in ops[:-1])
    return all(op[1] in EMITTERS for op in ops)


def _terminal_ok(block) -> bool:
    """Whether ``block`` can terminate a trace with a conditional branch."""
    ops = block.ops
    return (ops[-1][1] in BRANCH_CONDS
            and all(op[1] in EMITTERS for op in ops[:-1]))


class CompiledBackend(ExecutionBackend):
    """Tiered execution: interpret cold blocks, JIT-compile hot ones,
    fuse hot chains into traces."""

    name = "compiled"

    def __init__(self, cpu, threshold: int = DEFAULT_THRESHOLD,
                 trace_threshold: int = DEFAULT_TRACE_THRESHOLD) -> None:
        super().__init__(cpu)
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if trace_threshold < 1:
            raise ValueError(
                f"trace_threshold must be >= 1, got {trace_threshold}")
        self.threshold = threshold
        self.trace_threshold = trace_threshold
        self.stats = JitStats()
        self._token: Optional[tuple] = None
        self._compiler: Optional[BlockCompiler] = None
        self._compile_ok = False
        self._trace_ok = False
        self._no_compile: set = set()
        self._no_trace: set = set()

    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Recompute the specialization token (run start / hook change)."""
        cpu = self.cpu
        regs = cpu.regs
        direct_ok = type(regs) is RegisterFile and not regs.trace
        # An icache charges per-fetch penalties the generated code does
        # not model, and a disabled block cache never re-executes the
        # same TranslationBlock object — both force the interp tier.
        self._compile_ok = cpu.icache is None and cpu.block_cache_enabled
        token = (cpu.hooks.version, direct_ok, cpu.block_cache_enabled)
        if token != self._token:
            self._token = token
            self._compiler = BlockCompiler(
                cpu, chain_enabled=cpu.block_cache_enabled,
                direct_ok=direct_ok)
            self._no_compile.clear()
            self._no_trace.clear()
        # Traces are direct-shape only (no hooks of any kind: interior
        # side exits cannot replay per-block hook ordering).
        self._trace_ok = (self._compile_ok and self._compiler.direct
                          and not self._compiler.hb)

    def _step(self, remaining) -> int:
        cpu = self.cpu
        interrupt = cpu._pending_interrupt()
        if interrupt is not None:
            cpu._wfi_pending = False
            cpu._take_trap(interrupt, 0)
            return 0
        try:
            block = cpu._next_block()
        except Trap as trap:
            cpu._take_trap(trap.cause, trap.tval)
            return 0
        fn = block.compiled
        if fn is not None and block.compiled_version == self._token:
            trace = block.trace
            if trace is not None:
                if block.trace_token == self._token:
                    retired = trace(cpu, remaining)
                    self.stats.trace_retired += retired
                    return retired
                block.trace = None  # stale specialization; allow rebuild
            elif (self._trace_ok and block.chain_pc is not None
                    and block.start_pc not in self._no_trace):
                block.trace_heat += 1
                if block.trace_heat >= self.trace_threshold:
                    trace = self._compile_trace(block)
                    if trace is not None:
                        retired = trace(cpu, remaining)
                        self.stats.trace_retired += retired
                        return retired
            retired = fn(cpu, remaining)
            self.stats.compiled_retired += retired
            return retired
        if (self._compile_ok and block.exec_count + 1 >= self.threshold
                and block.start_pc not in self._no_compile):
            fn = self._compile(block)
            if fn is not None:
                retired = fn(cpu, remaining)
                self.stats.compiled_retired += retired
                return retired
        retired = self._interpret(block)
        self.stats.interp_retired += retired
        return retired

    def _compile(self, block):
        try:
            fn = self._compiler.compile(block)
        except (CompileError, SyntaxError, ValueError):
            self.stats.compile_failures += 1
            self._no_compile.add(block.start_pc)
            return None
        block.compiled = fn
        block.compiled_version = self._token
        self.stats.blocks_compiled += 1
        return fn

    # -- trace formation -----------------------------------------------

    def _trace_members(self, head) -> Optional[List]:
        """Walk hot chain edges from ``head`` to collect trace members.

        Returns the member list, or ``None`` for a *soft* miss — a
        successor not yet in the TB cache (the walk retries once it has
        been translated).  Raises :class:`CompileError` for structurally
        untraceable shapes, which blacklists the head.
        """
        if not _interior_ok(head):
            raise CompileError("trace head is not interior-shaped")
        cache = self.cpu._tb_cache
        members = [head]
        seen = {head.start_pc}
        pc = head.chain_pc
        while len(members) < TRACE_MAX_BLOCKS:
            nxt = cache.get(pc)
            if nxt is None:
                return None  # successor not translated yet; retry later
            if nxt.start_pc in seen:
                break  # chain folds back without a branch: stop here
            if _terminal_ok(nxt):
                members.append(nxt)
                return members
            if not _interior_ok(nxt):
                break  # jalr/system/untemplated end: trace stops before it
            members.append(nxt)
            seen.add(nxt.start_pc)
            pc = nxt.chain_pc
        if len(members) < 2:
            raise CompileError("no traceable successor")
        return members

    def _compile_trace(self, head):
        try:
            members = self._trace_members(head)
            if members is None:
                # Not a failure — reset the heat so the edge re-proves
                # itself once the successor block exists.
                head.trace_heat = 0
                return None
            fn = self._compiler.compile_trace(members)
        except (CompileError, SyntaxError, ValueError):
            self.stats.trace_failures += 1
            self._no_trace.add(head.start_pc)
            return None
        head.trace = fn
        head.trace_token = self._token
        for member in members:
            member.trace_member = True
        self.stats.traces_compiled += 1
        return fn

    # ------------------------------------------------------------------

    def _interpret(self, block) -> int:
        """One interpreted block execution — the warm-up tier.

        A verbatim mirror of :meth:`repro.vp.cpu.Cpu.step_block` after
        the interrupt poll and block fetch (which :meth:`_step` already
        performed); kept in lockstep with cpu.py by the backend parity
        suite.
        """
        cpu = self.cpu
        block.exec_count += 1
        hooks = cpu.hooks
        if hooks.block_exec:
            for hook in hooks.block_exec:
                hook(cpu, block)
        insn_hooks = hooks.insn_exec
        retired = 0
        cycles = 0
        if cpu.icache is not None:
            cycles += cpu.icache.penalty_for_lines(block.icache_lines)
        pending_trap: Optional[Trap] = None
        try:
            for decoded, execute, pc, fallthrough, base_cost, taken_cost \
                    in block.ops:
                cpu.pc = pc
                cpu._current = decoded
                cpu.next_pc = fallthrough
                if insn_hooks:
                    for hook in insn_hooks:
                        hook(cpu, decoded, pc)
                try:
                    execute(cpu, decoded)
                except Trap as trap:
                    cycles += base_cost
                    pending_trap = trap
                    break
                except MachineExit:
                    cycles += base_cost
                    raise
                retired += 1
                next_pc = cpu.next_pc
                cpu.pc = next_pc
                if next_pc != fallthrough:
                    cycles += taken_cost
                    break
                cycles += base_cost
        finally:
            csrs = cpu.csrs
            csrs.instret += retired
            csrs.cycle += cycles
            cpu.bus.tick(cycles)
        if pending_trap is not None:
            cpu._take_trap(pending_trap.cause, pending_trap.tval)
        elif cpu.block_cache_enabled and block.chain_pc == cpu.pc:
            cpu._chain_from = block
        return retired
