"""The ``compiled`` execution backend: hot-block tiering over the JIT.

Blocks start life interpreted by the same loop as the ``interp``
backend (:meth:`~repro.vp.cpu.Cpu._execute_block`); once a block's ``exec_count`` crosses the
tier threshold it is compiled by :class:`~repro.vp.jit.compiler.BlockCompiler`
and the compiled function is cached on the block together with the
specialization token it was generated for.  The token captures
everything the generated code folded in — the hook-table version, the
register-file shape (including a stuck-at register file's forced bit,
and a RAM stuck bit), and whether block chaining is live — so any
change recompiles instead of executing stale assumptions.

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

Fallback rules (documented in ``docs/performance.md``): an icache, a
disabled block cache, an instruction or memory hook, or a subclassed
register file keeps every block interpreted (``interpreted`` says
which); a codegen failure blacklists just that block (or trace
head).  The tier split is observable through :class:`JitStats`
(``repro profile``'s tier report and ``repro run``'s ``jit:`` line).
"""

from __future__ import annotations

from typing import List, Optional

from ...isa import semantics as sem
from ...isa.registers import RegisterFile, StuckRegisterFile
from ..backends import ExecutionBackend
from ..cpu import MAX_BLOCK_INSNS, TranslationBlock
from .compiler import (TRACE_MAX_BLOCKS, BlockCompiler, CompileError,
                       _trap_exit, _TrapExit)
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

    __slots__ = ("blocks_compiled", "compiled_retired",
                 "interp_retired", "compile_failures", "traces_compiled",
                 "trace_retired", "trace_failures")

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
        #: Why every block runs interpreted, or ``None`` when blocks may
        #: compile (set at run start and on hook changes).
        self.interpreted: Optional[str] = None
        self._trace_ok = False
        self._no_compile: set = set()
        self._no_trace: set = set()
        #: The :class:`JitStats` counter of the step that raised last.
        self._unwinding = "interp_retired"

    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Recompute whether blocks may compile, the specialization token
        and the step (run start / hook change)."""
        cpu = self.cpu
        regs = cpu.regs
        kind = type(regs)
        hooks = cpu.hooks
        # Generated code retires whole blocks on the raw register list,
        # so anything that observes single instructions, accesses or
        # fetches keeps every block in the interpreter.
        reason = self.interpreted = next((why for why, applies in (
            ("an instruction cache is modelled", cpu.icache is not None),
            ("the block cache is off", not cpu.block_cache_enabled),
            ("an instruction hook is attached", hooks.insn_exec),
            ("a memory hook is attached", hooks.mem_access),
            ("the register file is subclassed",
             kind not in (RegisterFile, StuckRegisterFile))) if applies),
            None)
        # A stuck-at register file keeps the direct shape: its forced bit
        # is folded into the generated reads, and its (reg, mask,
        # stuck_one) stands for the register-file shape in the token.
        shape = stuck = regs.stuck if kind is StuckRegisterFile else None
        # A RAM stuck bit switches the Ram's dirty-page set, which
        # generated stores bind at compile time (``_DIRTY``): whether one
        # is installed joins the token so code bound to the other set
        # recompiles.  The bit itself is not folded into any code, and
        # the Ram keeps each of its two sets for life, so every stuck bit
        # shares one token.
        if cpu._ram_version != cpu.bus.version:
            cpu._refresh_ram_window()
        ram = cpu._ram
        if ram is not None and ram.stuck is not None:
            shape = (shape, True)
        token = (hooks.version, shape, reason)
        if token != self._token:
            self._token = token
            self._compiler = BlockCompiler(cpu, stuck=stuck)
            self._no_compile.clear()
            self._no_trace.clear()
        # Block hooks rule out traces: interior side exits cannot replay
        # per-block hook ordering.
        self._trace_ok = reason is None and not hooks.block_exec
        # With nothing to compile, a step is the interpreter's alone, so
        # a hooked run costs what it costs on the interp backend.
        if reason is None:
            self._step = self._step_compiled
        else:
            self._step = self._step_interpreted
            self._unwinding = "interp_retired"

    def _step_interpreted(self, remaining, pause) -> int:
        # The base step inlined: calling it cost a hooked run 3%.
        cpu = self.cpu
        block = cpu._enter_block()
        if block is None:
            return 0
        retired = cpu._execute_block(block, remaining)
        self.stats.interp_retired += retired
        return retired

    def _step_compiled(self, remaining, pause) -> int:
        """One block step: its trace, its compiled function or the
        interpreter, which also runs the prefix of a block longer than
        the budget left.  Generated code leaves through :class:`_TrapExit`
        to take a trap (a bus fault, or a trap site of a fused loop or
        trace, after it wrote its register locals back); the trap is
        taken here.  A step that raises names its tier for
        :meth:`_unwound`."""
        cpu = self.cpu
        block = cpu._enter_block()
        if block is None:
            return 0
        tier = "interp_retired"
        try:
            fn = block.compiled
            if remaining < MAX_BLOCK_INSNS and len(block.ops) > remaining:
                fn = None
            elif fn is not None and block.compiled_version == self._token:
                trace = block.trace
                if trace is None:
                    if (self._trace_ok and block.chain_pc is not None
                            and block.start_pc not in self._no_trace):
                        block.trace_heat += 1
                        if block.trace_heat >= self.trace_threshold:
                            trace = self._compile_trace(block)
                elif block.trace_token != self._token:
                    trace = block.trace = None  # stale; allow rebuild
                if trace is not None:
                    tier = "trace_retired"
                    try:
                        retired = trace(cpu, remaining, pause)
                    except _TrapExit as leave:
                        retired = _trap_exit(cpu, *leave.args)
                    self.stats.trace_retired += retired
                    return retired
            elif (block.exec_count + 1 >= self.threshold
                    and block.start_pc not in self._no_compile):
                fn = self._compile(block)
            else:
                fn = None
            if fn is None:
                retired = cpu._execute_block(block, remaining)
                self.stats.interp_retired += retired
                return retired
            tier = "compiled_retired"
            try:
                retired = fn(cpu, remaining, pause)
            except _TrapExit as leave:
                retired = _trap_exit(cpu, *leave.args)
            self.stats.compiled_retired += retired
            return retired
        except BaseException:
            self._unwinding = tier
            raise

    def _unwound(self, retired: int) -> None:
        tier = self._unwinding
        setattr(self.stats, tier, getattr(self.stats, tier) + retired)

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

    def run_prefix(self, block, count: int) -> int:
        """Compile the prefix as a block of its own, in the shape
        :meth:`BlockCompiler.compile` gives it (a whole fused loop runs
        one iteration), and run it; interpret it where nothing compiles."""
        if self.interpreted is not None:
            return super().run_prefix(block, count)
        cpu = self.cpu
        prefix = TranslationBlock(block.start_pc, block.insns[:count],
                                  block.pcs[:count])
        prefix.finalize(cpu.timing, cpu.icache)
        try:
            fn = self._compiler.compile(prefix)
        except (CompileError, SyntaxError, ValueError):
            return cpu._execute_block(prefix)
        try:
            return fn(cpu, count, float("inf"))
        except _TrapExit as leave:
            return _trap_exit(cpu, *leave.args)

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
