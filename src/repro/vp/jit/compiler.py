"""Whole-block source assembly for the template JIT.

:class:`BlockCompiler` turns a finalized
:class:`~repro.vp.cpu.TranslationBlock` into one specialized Python
function ``_tb(cpu, remaining) -> retired`` compiled with
:func:`compile`/``exec``.  Three shapes, picked per block:

* **direct**  — no instruction/memory hooks and a plain untraced
  register file: registers are raw-list accesses, per-instruction
  pc/next_pc bookkeeping disappears, retired/cycle accounting is
  constant-folded into each exit path.
* **fused**   — a direct-shape block whose final instruction is a
  conditional branch back to its own start (a single-block spin loop):
  the whole block becomes a native ``while`` loop that re-checks the
  instruction budget and pending interrupts between iterations, exactly
  where the interpreter's run loop would.
* **method**  — instruction or memory hooks attached, or a traced /
  fault-wrapped register file: an unrolled interpreter preserving the
  per-instruction hook ordering, pc/next_pc visibility, and redirect
  checks of :meth:`~repro.vp.cpu.Cpu.step_block` bit for bit.

Every exit path replicates the interpreter's accounting contract: CSR
``instret``/``cycle`` updated and the bus ticked before any trap is
taken or ``MachineExit`` unwinds, pc parked on the faulting instruction,
chain links only planted on statically known successor exits.

Compiled code objects are shared process-wide through :class:`CodeCache`,
keyed by the exact generated source: a second machine running the same
program executes the cached code in its own fresh namespace instead of
paying :func:`compile` again.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional

from ...isa import csr as csrdef
from ...isa import semantics as sem
from ..devices.clint import Clint
from ..memory import PACK_HALF, PACK_WORD, UNPACK_HALF, UNPACK_WORD
from ..trap import BusError, MachineExit, Trap
from .templates import BRANCH_CONDS, CONTROL_EMITTERS, EMITTERS, MASK, Ctx

__all__ = ["BlockCompiler", "CompileError", "TRACE_MAX_BLOCKS",
           "CODE_CACHE_MAX_ENTRIES", "CodeCache", "code_cache_stats"]

#: Maximum member blocks per compiled trace (keeps generated functions
#: and invalidation blast radius bounded).
TRACE_MAX_BLOCKS = 8

#: Code objects the process-wide cache keeps before evicting the least
#: recently used one (the default ``tb_cache_max_blocks``).
CODE_CACHE_MAX_ENTRIES = 4096

#: Interrupt-check constants folded into fused-loop source.
_MIP, _MSTATUS, _MIE, _MSTATUS_MIE = 0x344, 0x300, 0x304, 0x8


class CompileError(Exception):
    """Internal codegen failure; the backend falls back to interpreting."""


# -- runtime helpers shared by all generated functions ----------------------

def _trap_exit(cpu, cause, tval, retired, cycles, tick_cycles, pc,
               fallthrough, decoded):
    """Flush accounting, park the pc on the trapping instruction, and
    take the trap — the compiled equivalent of the interpreter's
    ``finally`` flush followed by ``_take_trap``.  Returns ``retired``
    so call sites can ``return`` it directly."""
    csrs = cpu.csrs
    csrs.instret += retired
    csrs.cycle += cycles
    cpu.bus.tick(tick_cycles)
    cpu.pc = pc
    cpu.next_pc = fallthrough
    cpu._current = decoded
    cpu._take_trap(cause, tval)
    return retired


def _exit_flush(cpu, retired, cycles, tick_cycles, pc, fallthrough, decoded):
    """Accounting flush on the ``MachineExit`` unwind path."""
    csrs = cpu.csrs
    csrs.instret += retired
    csrs.cycle += cycles
    cpu.bus.tick(tick_cycles)
    cpu.pc = pc
    cpu.next_pc = fallthrough
    cpu._current = decoded


def _bus_load(cpu, addr, width, retired, cycles, tick_cycles, pc,
              fallthrough, decoded):
    """Direct-shape load slow path: full bus dispatch for an access the
    RAM window does not serve.  Returns the value masked to canonical
    u32 (device models may return wider values, and the generated
    register write skips its mask), or ``None`` once the access fault
    has been taken — the caller then returns ``retired``."""
    try:
        value = cpu.bus.load(addr, width)
    except BusError:
        _trap_exit(cpu, csrdef.CAUSE_LOAD_ACCESS, addr, retired, cycles,
                   tick_cycles, pc, fallthrough, decoded)
        return None
    except MachineExit:
        _exit_flush(cpu, retired, cycles, tick_cycles, pc, fallthrough,
                    decoded)
        raise
    cpu.mem_bus_loads += 1
    return value & 0xFFFFFFFF


def _bus_store(cpu, addr, width, value, retired, cycles, tick_cycles, pc,
               fallthrough, decoded):
    """Direct-shape store slow path; returns ``True`` once the access
    fault has been taken (the caller then returns ``retired``)."""
    try:
        cpu.bus.store(addr, width, value)
    except BusError:
        _trap_exit(cpu, csrdef.CAUSE_STORE_ACCESS, addr, retired, cycles,
                   tick_cycles, pc, fallthrough, decoded)
        return True
    except MachineExit:
        _exit_flush(cpu, retired, cycles, tick_cycles, pc, fallthrough,
                    decoded)
        raise
    cpu.mem_bus_stores += 1
    return False


def _batch_safe(cpu) -> bool:
    """Whether bus ticks may be coalesced across fused-loop iterations.

    CLINT time is a plain cycle sum, so ``tick(n * c)`` equals ``n``
    calls of ``tick(c)``; any other tickable device might observe the
    call granularity, forcing the one-iteration-per-poll slow path.
    """
    for device in cpu.bus._tickable:
        if type(device) is not Clint:
            return False
    return True


def _horizon(cpu, budget_left, insns, taken, timer_live):
    """Iterations a pure fused loop may run between interrupt polls.

    Inside a pure (no memory access, no CSR access, no hooks) self-loop
    every interrupt source except the machine timer is frozen — stores
    can't reach the CLINT or UART and ``mie``/``mstatus`` can't change —
    so skipped polls are only observable where the timer comparand
    crosses.  The horizon stops one poll *at* that crossing: with
    ``wait`` cycles until ``mtime`` reaches ``mtimecmp`` and ``taken``
    cycles per iteration, poll ``j`` (after ``j`` iterations) is the
    first to see the interrupt at ``j == ceil(wait / taken)``, exactly
    where the per-block interpreter takes it.
    """
    n = -(-budget_left // insns)
    if timer_live:
        wait = cpu._wfi_wait()
        if wait is not None:
            if wait <= 0:
                return 1
            limit = -(-wait // taken)
            if limit < n:
                n = limit
    return n if n > 0 else 1


class _Src:
    """Indentation-aware source accumulator."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def add(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def extend(self, indent: int, lines: List[str]) -> None:
        pad = "    " * indent
        for line in lines:
            self.lines.append(pad + line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class CodeCache:
    """Process-wide LRU of compiled code objects keyed by
    ``(filename, source)``.

    Only immutable code objects are shared; every hit is executed in
    the block's own fresh namespace, so functions, namespaces, blocks
    and machines never are.  Everything a generated function
    specializes on is folded into its source text (pcs, RAM window,
    cycle costs, shape, hook presence) and everything object-valued is
    looked up in the namespace, so equal sources are interchangeable.

    Thread-safe: lookups and inserts hold a lock, :func:`compile` runs
    outside it (two threads racing on one source both compile; the
    first insert wins).
    """

    def __init__(self, max_entries: int = CODE_CACHE_MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def code_for(self, source: str, filename: str):
        """The code object for ``source``, compiled on a miss."""
        key = (filename, source)
        with self._lock:
            code = self._entries.get(key)
            if code is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return code
            self.misses += 1
        code = compile(source, filename, "exec")
        with self._lock:
            if key not in self._entries:
                self._entries[key] = code
                if len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        return code

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "evictions": self.evictions}

    def reset_lock(self) -> None:
        """Fresh lock in a forked child: the parent's may have been held
        by a thread that does not exist there."""
        self._lock = threading.Lock()


_CODE_CACHE = CodeCache()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _CODE_CACHE.reset_lock())


def code_cache_stats() -> Dict[str, int]:
    """Counters of the process-wide code cache: ``entries``, ``hits``,
    ``misses``, ``evictions``.

    They depend on everything this process compiled before, so they are
    kept out of :meth:`Machine.jit_stats` (which job results copy) and
    published only as ``vp.jit.code_cache.*`` telemetry gauges.
    """
    return _CODE_CACHE.stats()


class BlockCompiler:
    """Compiles blocks against one snapshot of the hook table and
    register-file shape; the backend rebuilds it whenever either
    changes (keyed by the specialization token)."""

    def __init__(self, cpu, chain_enabled: bool, direct_ok: bool) -> None:
        self.cpu = cpu
        hooks = cpu.hooks
        self.hb = tuple(hooks.block_exec)
        self.hi = tuple(hooks.insn_exec)
        self.hm = tuple(hooks.mem_access)
        #: Direct raw-register shape is only sound when nothing needs to
        #: observe individual accesses or instruction boundaries.
        self.direct = direct_ok and not self.hi and not self.hm
        self.chain_enabled = chain_enabled
        # Capture the CPU's RAM fast-path window so direct-mode memory
        # templates can fold the bounds in as constants.  Generated code
        # re-validates at entry (``_ramok`` binding): the captured buffer
        # must still be the CPU's current window, otherwise every access
        # takes the bus-dispatch fallback — so a fault wrapper swapped in
        # front of RAM mid-campaign is honoured without recompilation.
        if cpu._ram_version != cpu.bus.version:
            cpu._refresh_ram_window()
        self.mem = cpu._ram_data
        self.dirty = cpu._ram_dirty
        if self.mem is not None:
            self.win = (cpu._ram_base, cpu._ram_end, cpu._ram_shift)
        else:
            self.win = None

    # ------------------------------------------------------------------

    def compile(self, block):
        """Return the compiled step function for ``block``."""
        if not block.ops:
            raise CompileError("empty block")
        if self.direct and self._fusable(block):
            src = self._emit_fused(block)
        elif self.direct:
            src = self._emit_direct(block)
        else:
            src = self._emit_method(block)
        namespace = self._namespace(block)
        code = _CODE_CACHE.code_for(src, f"<jit:{block.start_pc:#x}>")
        exec(code, namespace)
        fn = namespace["_tb"]
        fn.__jit_source__ = src  # debugging / test introspection
        return fn

    def _base_namespace(self) -> dict:
        return {
            "Trap": Trap, "MachineExit": MachineExit,
            "BusError": BusError, "_trap_exit": _trap_exit,
            "_exit_flush": _exit_flush, "_batch_safe": _batch_safe,
            "_bus_load": _bus_load, "_bus_store": _bus_store,
            "_horizon": _horizon, "HB": self.hb, "HI": self.hi,
            "_u4": UNPACK_WORD, "_u2": UNPACK_HALF,
            "_p4": PACK_WORD, "_p2": PACK_HALF,
            "_MEM": self.mem, "_DIRTY": self.dirty,
            "__builtins__": {"abs": abs},
        }

    def _namespace(self, block) -> dict:
        namespace = self._base_namespace()
        namespace["block"] = block
        for i, op in enumerate(block.ops):
            namespace[f"d_{i}"] = op[0]
            namespace[f"x_{i}"] = op[1]
        return namespace

    def _fusable(self, block) -> bool:
        if self.hb:  # block hooks must fire per run-loop visible step
            return False
        ops = block.ops
        execute = ops[-1][1]
        if execute not in BRANCH_CONDS:
            return False
        d = ops[-1][0]
        if (ops[-1][2] + d.imm) & MASK != block.start_pc:
            return False
        return all(op[1] in EMITTERS for op in ops[:-1])

    # -- shared rendering ----------------------------------------------

    @staticmethod
    def _bindings(body_text: str, direct: bool) -> List[str]:
        lines = []
        if direct:
            lines.append("R = cpu.regs._regs")
            if "_ramok" in body_text:
                # The fast path is armed only while the CPU's current
                # window buffer is the one this code was specialized
                # against; a bus mutation (fault wrapper, remap) makes
                # every access take the bus fallback until recompiled.
                lines += ["if cpu._ram_version != cpu.bus.version:",
                          "    cpu._refresh_ram_window()",
                          "_mem = _MEM",
                          "_ramok = cpu._ram_data is _MEM"]
            if "_dirty.add" in body_text:
                lines.append("_dirty = _DIRTY")
        else:
            if "_rd(" in body_text:
                lines.append("_rd = cpu.regs.read")
            if "_wr(" in body_text:
                lines.append("_wr = cpu.regs.write")
        return lines

    def _flush_lines(self, retired, cycles, pc_expr) -> List[str]:
        return [f"_c = cpu.csrs",
                f"_c.instret += {retired}",
                f"_c.cycle += {cycles}",
                f"cpu.bus.tick({cycles})",
                f"cpu.pc = {pc_expr}",
                f"cpu.next_pc = {pc_expr}"]

    def _chain_line(self, block, pc_expr) -> List[str]:
        """Plant the chain link when this exit lands on ``chain_pc``."""
        if not self.chain_enabled or block.chain_pc is None:
            return []
        if pc_expr == f"{block.chain_pc:#x}":
            return ["cpu._chain_from = block"]
        return [f"if {pc_expr} == {block.chain_pc:#x}:",
                "    cpu._chain_from = block"]

    # -- direct shape ---------------------------------------------------

    def _emit_direct_insn(self, src: _Src, ctx: Ctx, i: int,
                          indent: int, block) -> None:
        """One body instruction: a template expansion or the generic
        execute-function fallback with its redirect check."""
        execute = ctx.ops[i][1]
        emitter = EMITTERS.get(execute)
        if emitter is not None:
            src.extend(indent, emitter(ctx, i))
            return
        ft = ctx.ft_at(i)
        src.add(indent, f"cpu.pc = {ctx.pc_at(i):#x}")
        src.add(indent, f"cpu._current = d_{i}")
        src.add(indent, f"cpu.next_pc = {ft:#x}")
        src.add(indent, "try:")
        src.add(indent + 1, f"x_{i}(cpu, d_{i})")
        src.add(indent, "except Trap as _t:")
        src.add(indent + 1, ctx.trap_exit(i, "_t.cause", "_t.tval"))
        src.add(indent, "except MachineExit:")
        src.add(indent + 1, ctx.exit_flush(i))
        src.add(indent + 1, "raise")
        src.add(indent, "_np = cpu.next_pc")
        src.add(indent, f"if _np != {ft:#x}:")
        redirect_cycles = ctx.prefix[i] + ctx.ops[i][5]
        # cpu.next_pc already holds _np; only pc needs the redirect.
        src.extend(indent + 1,
                   self._flush_lines(i + 1, redirect_cycles, "_np")[:-1])
        src.extend(indent + 1, self._chain_line(block, "_np"))
        src.add(indent + 1, f"return {i + 1}")

    def _emit_direct(self, block) -> str:
        ctx = Ctx(block, direct=True, win=self.win)
        ops = block.ops
        n = len(ops)
        last_d, last_exec = ops[-1][0], ops[-1][1]
        last_pc, last_ft, last_base, last_taken = \
            ops[-1][2], ops[-1][3], ops[-1][4], ops[-1][5]
        control_final = (last_exec in BRANCH_CONDS
                         or last_exec is sem.exec_jal
                         or last_exec is sem.exec_jalr)
        body = _Src()
        body_end = n - 1 if control_final else n
        for i in range(body_end):
            self._emit_direct_insn(body, ctx, i, 1, block)

        base_total = ctx.prefix[n - 1] + last_base
        taken_total = ctx.prefix[n - 1] + last_taken
        if last_exec in BRANCH_CONDS:
            target = (last_pc + last_d.imm) & MASK
            taken_cycles = taken_total if target != last_ft else base_total
            body.add(1, f"if {BRANCH_CONDS[last_exec](ctx, last_d)}:")
            body.extend(2, self._flush_lines(n, taken_cycles, f"{target:#x}"))
            body.add(2, f"return {n}")
            body.extend(1, self._flush_lines(n, base_total, f"{last_ft:#x}"))
            body.add(1, f"return {n}")
        elif last_exec is sem.exec_jal:
            target = (last_pc + last_d.imm) & MASK
            cycles = taken_total if target != last_ft else base_total
            body.extend(1, ctx.w(last_d.rd, f"{last_ft:#x}", canonical=True))
            body.extend(1, self._flush_lines(n, cycles, f"{target:#x}"))
            body.extend(1, self._chain_line(block, f"{target:#x}"))
            body.add(1, f"return {n}")
        elif last_exec is sem.exec_jalr:
            body.add(1, f"_t = ({ctx.r(last_d.rs1)} + {last_d.imm})"
                        " & 0xFFFFFFFE")
            body.extend(1, ctx.w(last_d.rd, f"{last_ft:#x}", canonical=True))
            body.add(1, "_c = cpu.csrs")
            body.add(1, f"_c.instret += {n}")
            body.add(1, f"if _t != {last_ft:#x}:")
            body.add(2, f"_c.cycle += {taken_total}")
            body.add(2, f"cpu.bus.tick({taken_total})")
            body.add(1, "else:")
            body.add(2, f"_c.cycle += {base_total}")
            body.add(2, f"cpu.bus.tick({base_total})")
            body.add(1, "cpu.pc = _t")
            body.add(1, "cpu.next_pc = _t")
            body.add(1, f"return {n}")
        else:
            # Plain or fallback final: the body already handled any
            # redirect; the straight exit lands on the fallthrough.
            end = f"{block.end_pc:#x}"
            body.extend(1, self._flush_lines(n, ctx.prefix[n], end))
            body.extend(1, self._chain_line(block, end))
            body.add(1, f"return {n}")

        body_text = "\n".join(body.lines)
        src = _Src()
        src.add(0, "def _tb(cpu, remaining):")
        src.add(1, "block.exec_count += 1")
        if self.hb:
            src.add(1, "for _h in HB:")
            src.add(2, "_h(cpu, block)")
        src.extend(1, self._bindings(body_text, direct=True))
        src.lines.append(body_text)
        return src.text()

    # -- fused self-loop shape ------------------------------------------

    def _emit_fused(self, block) -> str:
        ctx = Ctx(block, direct=True, fused=True, win=self.win)
        ops = block.ops
        n = len(ops)
        last_d = ops[-1][0]
        last_ft, last_base, last_taken = ops[-1][3], ops[-1][4], ops[-1][5]
        taken_total = ctx.prefix[n - 1] + last_taken
        base_total = ctx.prefix[n - 1] + last_base

        body = _Src()
        for i in range(n - 1):
            body.extend(0, EMITTERS[ops[i][1]](ctx, i))
        cond = BRANCH_CONDS[ops[-1][1]](ctx, last_d)
        body_text = "\n".join(body.lines)
        pure = ("_bus_load(" not in body_text
                and "_bus_store(" not in body_text)
        if pure:
            return self._emit_fused_batched(
                block, body.lines, cond, n, taken_total, base_total, last_ft)
        return self._emit_fused_polling(
            block, body.lines, cond, n, taken_total, base_total, last_ft)

    def _fused_prologue(self, body_text: str) -> _Src:
        src = _Src()
        src.add(0, "def _tb(cpu, remaining):")
        src.extend(1, self._bindings(body_text, direct=True))
        src.add(1, "_c = cpu.csrs")
        src.add(1, "_tick = cpu.bus.tick")
        src.add(1, "_poll = cpu._interrupt_poll")
        src.add(1, "_rr = _c.raw_read")
        src.add(1, "_rw = _c.raw_write")
        src.add(1, "ret = 0")
        src.add(1, "cyc = 0")
        return src

    def _fused_polling_exit(self, src: _Src, indent: int, pc: int) -> None:
        src.add(indent, "_c.instret += ret")
        src.add(indent, "_c.cycle += cyc")
        src.add(indent, f"cpu.pc = {pc:#x}")
        src.add(indent, f"cpu.next_pc = {pc:#x}")
        src.add(indent, "return ret")

    def _emit_fused_polling(self, block, body_lines, cond, n,
                            taken_total, base_total, last_ft) -> str:
        """One iteration per interrupt poll — blocks touching memory
        (loads may read device time, stores may arm interrupts)."""
        start = block.start_pc
        src = self._fused_prologue("\n".join(body_lines))
        src.add(1, "while True:")
        src.extend(2, body_lines)
        src.add(2, f"if {cond}:")
        src.add(3, f"ret += {n}")
        src.add(3, f"cyc += {taken_total}")
        src.add(3, "block.exec_count += 1")
        src.add(3, f"_tick({taken_total})")
        # Budget first (the interpreter's run loop would stop without
        # another interrupt poll), then the interrupt check the next
        # step would otherwise perform.
        src.add(3, "if ret >= remaining:")
        self._fused_polling_exit(src, 4, start)
        src.add(3, "_mip = _poll()")
        src.add(3, f"_rw({_MIP:#x}, _mip)")
        src.add(3, f"if _mip and (_rr({_MSTATUS:#x}) & {_MSTATUS_MIE:#x}) "
                    f"and (_mip & _rr({_MIE:#x})):")
        self._fused_polling_exit(src, 4, start)
        src.add(3, "continue")
        src.add(2, f"ret += {n}")
        src.add(2, f"cyc += {base_total}")
        src.add(2, "block.exec_count += 1")
        src.add(2, f"_tick({base_total})")
        self._fused_polling_exit(src, 2, last_ft)
        return src.text()

    def _emit_fused_batched(self, block, body_lines, cond, n,
                            taken_total, base_total, last_ft) -> str:
        """Pure-ALU self-loop: batch iterations up to the timer horizon.

        With no memory or CSR access in the body, nothing inside the
        loop can arm, mask, or observe an interrupt source — only the
        machine timer can newly fire, at an iteration :func:`_horizon`
        computes exactly.  Polls (and the ``mip`` shadow writes they
        perform) between those points are unobservable and elided; the
        shadow is refreshed at the next poll, so it may lag by one batch
        across a run boundary (architectural ``mip`` reads always
        re-poll the devices).
        """
        start = block.start_pc
        src = self._fused_prologue("\n".join(body_lines))
        src.add(1, f"_timer = (_rr({_MSTATUS:#x}) & {_MSTATUS_MIE:#x}) "
                   f"and (_rr({_MIE:#x}) & 0x80)")
        src.add(1, "_safe = _batch_safe(cpu)")
        src.add(1, "while True:")
        src.add(2, f"_n = _horizon(cpu, remaining - ret, {n}, "
                   f"{taken_total}, _timer) if _safe else 1")
        src.add(2, "_it = 0")
        src.add(2, "while _it < _n:")
        src.add(3, "_it += 1")
        src.extend(3, body_lines)
        src.add(3, f"if {cond}:")
        src.add(4, "continue")
        # Branch fell through: account _it - 1 taken iterations plus
        # this not-taken one, exactly like the interpreter's exit.
        src.add(3, f"ret += _it * {n}")
        src.add(3, f"cyc += (_it - 1) * {taken_total} + {base_total}")
        src.add(3, "block.exec_count += _it")
        src.add(3, f"_tick((_it - 1) * {taken_total} + {base_total})")
        self._fused_polling_exit(src, 3, last_ft)
        src.add(2, f"ret += _n * {n}")
        src.add(2, f"cyc += _n * {taken_total}")
        src.add(2, "block.exec_count += _n")
        src.add(2, f"_tick(_n * {taken_total})")
        src.add(2, "if ret >= remaining:")
        self._fused_polling_exit(src, 3, start)
        src.add(2, "_mip = _poll()")
        src.add(2, f"_rw({_MIP:#x}, _mip)")
        src.add(2, f"if _mip and (_rr({_MSTATUS:#x}) & {_MSTATUS_MIE:#x}) "
                   f"and (_mip & _rr({_MIE:#x})):")
        self._fused_polling_exit(src, 3, start)
        return src.text()

    # -- multi-block trace shape ----------------------------------------

    def compile_trace(self, blocks):
        """Compile a chain of blocks into one specialized trace function.

        ``blocks`` is the member list from the backend's hot-chain walk:
        every member but the last ends in a pure fallthrough or a direct
        jal (its link write is emitted at the member boundary); the last
        member either ends in a conditional branch — rendered as a
        native loop when it targets the head (the common hot-loop form)
        or as a pair of exits otherwise — or is itself interior-shaped
        with a ``chain_pc`` leaving the trace.

        The exact-parity contract of the fused shape is kept at **every**
        member boundary: retire/cycle accounting and a bus tick for the
        completed member, then the budget check and the interrupt poll
        (with the raw-``mip`` shadow write) in the order the
        interpreter's run loop performs them, exiting with the pc parked
        on the next member's start so the run loop can take over.
        """
        if not self.direct or self.hb:
            raise CompileError(
                "trace shape requires direct mode without block hooks")
        if len(blocks) < 2 or len(blocks) > TRACE_MAX_BLOCKS:
            raise CompileError(f"unsupported trace length {len(blocks)}")
        src = self._emit_trace(blocks)
        namespace = self._trace_namespace(blocks)
        code = _CODE_CACHE.code_for(
            src, f"<jit-trace:{blocks[0].start_pc:#x}>")
        exec(code, namespace)
        fn = namespace["_tb"]
        fn.__jit_source__ = src
        return fn

    def _trace_namespace(self, blocks) -> dict:
        namespace = self._base_namespace()
        offset = 0
        for m, block in enumerate(blocks):
            namespace[f"b_{m}"] = block
            for i, op in enumerate(block.ops):
                namespace[f"d_{offset + i}"] = op[0]
                namespace[f"x_{offset + i}"] = op[1]
            offset += len(block.ops)
        return namespace

    def _trace_boundary_exit(self, src: _Src, indent: int, pc: int,
                             chain_m: Optional[int]) -> None:
        """Flush accounting (cycles are already ticked), park the pc, and
        return — planting the chain link exactly when the interpreter
        would (the exiting member has this pc as its ``chain_pc``)."""
        src.add(indent, "_c.instret += ret")
        src.add(indent, "_c.cycle += cyc")
        src.add(indent, f"cpu.pc = {pc:#x}")
        src.add(indent, f"cpu.next_pc = {pc:#x}")
        if chain_m is not None and self.chain_enabled:
            src.add(indent, f"cpu._chain_from = b_{chain_m}")
        src.add(indent, "return ret")

    def _emit_trace_body(self, src: _Src, indent: int, ctx: Ctx, m: int,
                         block) -> None:
        """One member's body plus its retire/cycle/tick accounting.

        A trailing direct jal is not a template; its link write and
        taken-cycle cost are rendered here so the member completes
        exactly as the interpreter's redirect exit would.
        """
        ops = block.ops
        n = len(ops)
        src.add(indent, f"b_{m}.exec_count += 1")
        ends_jal = ops[-1][1] is sem.exec_jal
        body_n = n - 1 if ends_jal else n
        for i in range(body_n):
            src.extend(indent, EMITTERS[ops[i][1]](ctx, i))
        if ends_jal:
            d = ops[-1][0]
            src.extend(indent, ctx.w(d.rd, f"{ops[-1][3]:#x}",
                                     canonical=True))
            target = (ops[-1][2] + d.imm) & MASK
            cycles = ctx.prefix[n - 1] + (
                ops[-1][5] if target != ops[-1][3] else ops[-1][4])
        else:
            cycles = ctx.prefix[n]
        src.add(indent, f"ret += {n}")
        src.add(indent, f"cyc += {cycles}")
        src.add(indent, f"_tick({cycles})")

    def _emit_trace_checks(self, src: _Src, indent: int, pc: int,
                           chain_m: Optional[int]) -> None:
        """Budget check then interrupt poll, the run loop's boundary
        order, exiting to ``pc`` (the next member's start)."""
        src.add(indent, "if ret >= remaining:")
        self._trace_boundary_exit(src, indent + 1, pc, chain_m)
        src.add(indent, "_mip = _poll()")
        src.add(indent, f"_rw({_MIP:#x}, _mip)")
        src.add(indent, f"if _mip and (_rr({_MSTATUS:#x}) & "
                        f"{_MSTATUS_MIE:#x}) and (_mip & _rr({_MIE:#x})):")
        self._trace_boundary_exit(src, indent + 1, pc, chain_m)

    def _emit_trace(self, blocks) -> str:
        head = blocks[0]
        ctxs = []
        offset = 0
        for block in blocks:
            ctxs.append(Ctx(block, direct=True, fused=True, base=offset,
                            win=self.win))
            offset += len(block.ops)
        last = blocks[-1]
        last_ops = last.ops
        last_exec = last_ops[-1][1]
        branch_final = last_exec in BRANCH_CONDS
        looped = False
        if branch_final:
            last_d = last_ops[-1][0]
            target = (last_ops[-1][2] + last_d.imm) & MASK
            looped = target == head.start_pc
        indent = 2 if looped else 1

        body = _Src()
        for m, block in enumerate(blocks[:-1]):
            self._emit_trace_body(body, indent, ctxs[m], m, block)
            self._emit_trace_checks(body, indent, block.chain_pc, m)
        m = len(blocks) - 1
        if branch_final:
            ctx = ctxs[m]
            n = len(last_ops)
            body.add(indent, f"b_{m}.exec_count += 1")
            for i in range(n - 1):
                body.extend(indent, EMITTERS[last_ops[i][1]](ctx, i))
            cond = BRANCH_CONDS[last_exec](ctx, last_d)
            last_ft = last_ops[-1][3]
            base_total = ctx.prefix[n - 1] + last_ops[-1][4]
            taken_total = ctx.prefix[n - 1] + last_ops[-1][5]
            taken_cycles = taken_total if target != last_ft else base_total
            body.add(indent, f"if {cond}:")
            body.add(indent + 1, f"ret += {n}")
            body.add(indent + 1, f"cyc += {taken_cycles}")
            body.add(indent + 1, f"_tick({taken_cycles})")
            if looped:
                self._emit_trace_checks(body, indent + 1, head.start_pc,
                                        None)
                body.add(indent + 1, "continue")
            else:
                self._trace_boundary_exit(body, indent + 1, target, None)
            body.add(indent, f"ret += {n}")
            body.add(indent, f"cyc += {base_total}")
            body.add(indent, f"_tick({base_total})")
            self._trace_boundary_exit(body, indent, last_ft, None)
        else:
            # Straight trace: the final member exits to its chain_pc with
            # no boundary checks — the run loop polls before the next
            # step exactly as it would after an interpreted block.
            self._emit_trace_body(body, indent, ctxs[m], m, blocks[m])
            self._trace_boundary_exit(body, indent, blocks[m].chain_pc, m)

        src = self._fused_prologue("\n".join(body.lines))
        if looped:
            src.add(1, "while True:")
        src.lines.extend(body.lines)
        return src.text()

    # -- method (bookkeeping) shape -------------------------------------

    def _emit_method(self, block) -> str:
        ctx = Ctx(block, direct=False)
        ops = block.ops
        n = len(ops)
        body = _Src()
        for i in range(n):
            d, execute, pc, ft, base, taken = ops[i]
            body.add(2, f"cpu.pc = {pc:#x}")
            body.add(2, f"cpu._current = d_{i}")
            body.add(2, f"cpu.next_pc = {ft:#x}")
            if self.hi:
                body.add(2, "for _h in HI:")
                body.add(3, f"_h(cpu, d_{i}, {pc:#x})")
            emitter = EMITTERS.get(execute) or CONTROL_EMITTERS.get(execute)
            body.add(2, "try:")
            if emitter is not None:
                body.extend(3, emitter(ctx, i))
            else:
                body.add(3, f"x_{i}(cpu, d_{i})")
            body.add(2, "except Trap as _t:")
            body.add(3, f"cyc += {base}")
            body.add(3, "_pend = _t")
            body.add(3, "break")
            body.add(2, "except MachineExit:")
            body.add(3, f"cyc += {base}")
            body.add(3, "raise")
            body.add(2, "ret += 1")
            body.add(2, "_np = cpu.next_pc")
            body.add(2, "cpu.pc = _np")
            body.add(2, f"if _np != {ft:#x}:")
            body.add(3, f"cyc += {taken}")
            body.add(3, "break")
            body.add(2, f"cyc += {base}")
        body.add(2, "break")

        body_text = "\n".join(body.lines)
        src = _Src()
        src.add(0, "def _tb(cpu, remaining):")
        src.add(1, "block.exec_count += 1")
        if self.hb:
            src.add(1, "for _h in HB:")
            src.add(2, "_h(cpu, block)")
        src.extend(1, self._bindings(body_text, direct=False))
        src.add(1, "ret = 0")
        src.add(1, "cyc = 0")
        src.add(1, "_pend = None")
        src.add(1, "try:")
        src.add(2, "while True:")
        # body lines are already indented for the while loop; shift one
        # more level for the enclosing try.
        src.lines.extend("    " + line for line in body.lines)
        src.add(1, "finally:")
        src.add(2, "_c = cpu.csrs")
        src.add(2, "_c.instret += ret")
        src.add(2, "_c.cycle += cyc")
        src.add(2, "cpu.bus.tick(cyc)")
        src.add(1, "if _pend is not None:")
        src.add(2, "cpu._take_trap(_pend.cause, _pend.tval)")
        if self.chain_enabled and block.chain_pc is not None:
            src.add(1, f"elif cpu.pc == {block.chain_pc:#x}:")
            src.add(2, "cpu._chain_from = block")
        src.add(1, "return ret")
        return src.text()
