"""Whole-block source assembly for the template JIT.

:class:`BlockCompiler` turns a finalized
:class:`~repro.vp.cpu.TranslationBlock` into one specialized Python
function ``_tb(cpu, remaining, pause) -> retired`` compiled with
:func:`compile`/``exec`` (the run loop's two limits, see
:class:`~repro.vp.backends.ExecutionBackend`).  Three shapes, all on
a plain or stuck-at register file with no instruction or memory
hook attached (otherwise the backend compiles nothing and every
block runs in :meth:`~repro.vp.cpu.Cpu._execute_block`):

* **direct**  — registers are raw-list accesses ``R[n]`` (a stuck bit
  folded into reads of its register), per-instruction pc/next_pc
  bookkeeping disappears, retired/cycle accounting is constant-folded
  into each exit path.  Block hooks keep this shape but rule out the
  fused and trace shapes, which run several block executions per call.
* **fused**   — a direct-shape block whose final instruction is a
  conditional branch back to its own start (a single-block spin loop):
  the whole block becomes a native ``while`` loop that re-checks the
  instruction budget and the interrupt deadline between iterations,
  exactly where the interpreter's run loop would, and leaves at the
  last boundary from which another iteration fits the budget.  It holds every
  register it touches, and the RAM fast-path access counters, in Python
  locals, written back in one ``finally`` that every way out passes.
* **trace**   — a chain of direct-shape blocks (:meth:`compile_trace`),
  with the same locals and write-back as the fused shape.

Every exit path replicates the interpreter's accounting contract: CSR
``instret``/``cycle`` updated before any trap is taken or
``MachineExit`` unwinds, pc parked on the faulting instruction, chain
links only planted on statically known successor exits, and the
interrupt events the interpreter raises (a device access, a block that
ends in a system instruction) raised too.

Compiled code objects are shared process-wide through :class:`CodeCache`,
keyed on everything the emitters read: a second machine running the same
program executes the cached code in its own fresh namespace instead of
paying source emission and :func:`compile` again.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional

from ...isa import csr as csrdef
from ...isa import semantics as sem
from ..memory import PACK_HALF, PACK_WORD, UNPACK_HALF, UNPACK_WORD
from ..trap import BusError, MachineExit, Trap
from .templates import BRANCH_CONDS, EMITTERS, MASK, Ctx, Locals

__all__ = ["BlockCompiler", "CompileError", "TRACE_MAX_BLOCKS",
           "CODE_CACHE_MAX_ENTRIES", "CodeCache", "code_cache_stats"]

#: Maximum member blocks per compiled trace (keeps generated functions
#: and invalidation blast radius bounded).
TRACE_MAX_BLOCKS = 8

#: Code objects the process-wide cache keeps before evicting the least
#: recently used one (the default ``tb_cache_max_blocks``).
CODE_CACHE_MAX_ENTRIES = 4096

#: Iterations per batch of a pure fused loop when neither the budget nor
#: the interrupt deadline bounds it.
_BATCH_MAX = 1 << 16

_NEVER = float("inf")


class CompileError(Exception):
    """Internal codegen failure; the backend falls back to interpreting."""


class _TrapExit(Exception):
    """A trap leaving generated code; ``args`` are :func:`_trap_exit`'s
    after ``cpu``.  Raised by the bus helpers on a bus fault and by
    fused and trace functions at a trap site; the backend takes the trap
    where it called the function.  A function holding registers in
    locals has written them back by then (trap hooks see them), and no
    generated function needs a handler of its own."""


# -- runtime helpers shared by all generated functions ----------------------

def _trap_exit(cpu, cause, tval, retired, cycles, pc, fallthrough,
               decoded):
    """Flush accounting, park the pc on the trapping instruction, and
    take the trap — the compiled equivalent of the interpreter's
    ``finally`` flush followed by ``_take_trap``.  Returns ``retired``
    so call sites can ``return`` it directly."""
    _exit_flush(cpu, retired, cycles, pc, fallthrough, decoded)
    cpu._take_trap(cause, tval)
    return retired


def _exit_flush(cpu, retired, cycles, pc, fallthrough, decoded):
    """Accounting flush on the ``MachineExit`` unwind path."""
    csrs = cpu.csrs
    csrs.instret += retired
    csrs.cycle += cycles
    cpu.pc = pc
    cpu.next_pc = fallthrough
    cpu._current = decoded


def _bus_load(cpu, addr, width, retired, cycles, pc, fallthrough,
              decoded):
    """Direct-shape load slow path: full bus dispatch for an access the
    RAM window does not serve.  Returns the value masked to canonical
    u32 (device models may return wider values, and the generated
    register write skips its mask); a bus fault raises
    :class:`_TrapExit` for the access fault."""
    cpu._poll_at = 0  # a device may change the interrupt state
    try:
        value = cpu.bus.load(addr, width)
    except BusError:
        raise _TrapExit(csrdef.CAUSE_LOAD_ACCESS, addr, retired, cycles,
                        pc, fallthrough, decoded) from None
    except MachineExit:
        _exit_flush(cpu, retired, cycles, pc, fallthrough, decoded)
        raise
    cpu.mem_bus_loads += 1
    return value & 0xFFFFFFFF


def _bus_store(cpu, addr, width, value, retired, cycles, pc, fallthrough,
               decoded):
    """Direct-shape store slow path; a bus fault raises
    :class:`_TrapExit` for the access fault."""
    cpu._poll_at = 0  # a device may change the interrupt state
    try:
        cpu.bus.store(addr, width, value)
    except BusError:
        raise _TrapExit(csrdef.CAUSE_STORE_ACCESS, addr, retired, cycles,
                        pc, fallthrough, decoded) from None
    except MachineExit:
        _exit_flush(cpu, retired, cycles, pc, fallthrough, decoded)
        raise
    cpu.mem_bus_stores += 1


def _horizon(cpu, room, insns, taken):
    """Iterations a pure fused loop runs before its next boundary check.

    ``room // insns`` iterations after the current one fit the loop's
    limit (``Locals.limit``).  A pure (no memory access, no CSR access,
    no hooks) self-loop raises no interrupt event, so the only boundary
    inside it that must poll is the first one at or past the CPU's
    deadline.  With ``wait`` cycles to the deadline and ``taken`` cycles
    per iteration, that is the boundary after ``ceil(wait / taken)``
    iterations, exactly where the interpreter polls; the batch ends there
    or at the limit, whichever comes first.
    """
    if room == _NEVER:
        n = _BATCH_MAX
    else:
        n = room // insns + 1
    wait = cpu._poll_at - cpu.csrs.cycle
    if wait < n * taken:
        n = -(-wait // taken) if wait > 0 else 1
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
    """Process-wide LRU of compiled code objects keyed on the emitters'
    inputs (see :meth:`BlockCompiler.compile`).

    Each entry holds ``(code, source)``.  The key is everything the
    emitters read — the compiler's shape and each block's pcs, sizes,
    cycle costs, execute functions and operand fields — so equal keys
    render equal sources, and a hit skips emission as well as
    :func:`compile`.  Everything object-valued is looked up in the
    namespace, and only immutable code objects are shared: every hit is
    executed in the block's own fresh namespace, so functions,
    namespaces, blocks and machines never are.  The key holds execute
    functions, not their emitters (see ``templates.EMITTERS``).

    Thread-safe: lookups and inserts hold a lock; emission and
    :func:`compile` run outside it (two threads racing on one key both
    compile; the first insert wins).
    """

    def __init__(self, max_entries: int = CODE_CACHE_MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def code_for(self, key: tuple, filename: str, emit) -> tuple:
        """``(code, source)`` for ``key``; on a miss ``emit()`` renders
        the source, which is compiled under ``filename``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        source = emit()
        entry = (compile(source, filename, "exec"), source)
        with self._lock:
            if key not in self._entries:
                self._entries[key] = entry
                if len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        return entry

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


def _block_key(block) -> tuple:
    """The block half of a code-cache key: start pc, ``chain_pc``,
    ``ends_system``, size, then per op its execute function, pc,
    fallthrough, base and taken cost and the ``rd``/``rs1``/``rs2``/``imm``
    operand fields (one flat tuple: it outlives the block in the cache)."""
    key = [block.start_pc, block.chain_pc, block.ends_system, block.size]
    for d, execute, pc, ft, base, taken in block.ops:
        key += (execute, pc, ft, base, taken, d.rd, d.rs1, d.rs2, d.imm)
    return tuple(key)


class BlockCompiler:
    """Compiles blocks against one snapshot of the hook table and
    register-file shape; the backend rebuilds it whenever either
    changes (keyed by the specialization token)."""

    def __init__(self, cpu, stuck=None) -> None:
        self.cpu = cpu
        self.hb = tuple(cpu.hooks.block_exec)
        #: ``(reg, mask, stuck_one)`` of a stuck-at register file, folded
        #: into reads of that register (``None``: plain).  The code
        #: depends on ``(reg, stuck_one)`` only (``stuck_fold``); the mask
        #: is the namespace constant ``_SK``, so every bit of one register
        #: shares one code object.
        self.stuck = stuck
        self.stuck_fold = None
        if self.stuck is not None:
            self.stuck_fold = (self.stuck[0], self.stuck[2])
        # Capture the CPU's RAM fast-path window so memory templates can
        # fold the bounds in as constants.  Generated code
        # re-validates at entry (``_ramok`` binding): the captured buffer
        # must still be the CPU's current window, otherwise every access
        # takes the bus-dispatch fallback — so a device swapped in front
        # of RAM mid-run is honoured without recompilation.  The dirty
        # set is bound as is; a RAM stuck bit, which switches it, is in
        # the backend's specialization token instead.
        if cpu._ram_version != cpu.bus.version:
            cpu._refresh_ram_window()
        self.mem = cpu._ram_data
        self.dirty = cpu._ram_dirty
        if self.mem is not None:
            self.win = (cpu._ram_base, cpu._ram_end, cpu._ram_shift)
        else:
            self.win = None
        #: The compiler half of every code-cache key: all of this
        #: snapshot the emitters read.
        self.shape = (bool(self.hb), self.stuck_fold, self.win)

    # ------------------------------------------------------------------

    def compile(self, block):
        """Return the compiled step function for ``block``."""
        if not block.ops:
            raise CompileError("empty block")
        code, src = _CODE_CACHE.code_for(
            (self.shape, _block_key(block)), f"<jit:{block.start_pc:#x}>",
            lambda: self._emit(block))
        namespace = self._namespace(block)
        exec(code, namespace)
        fn = namespace["_tb"]
        fn.__jit_source__ = src  # debugging / test introspection
        return fn

    def _emit(self, block) -> str:
        """The generated source for ``block``: a fused loop when it is a
        single-block spin loop, else the direct shape."""
        if self._fusable(block):
            return self._emit_fused(block)
        return self._emit_direct(block)

    def _base_namespace(self) -> dict:
        namespace = {
            "Trap": Trap, "MachineExit": MachineExit, "_trap_exit": _trap_exit,
            "_TrapExit": _TrapExit, "_exit_flush": _exit_flush,
            "_bus_load": _bus_load, "_bus_store": _bus_store,
            "_horizon": _horizon, "HB": self.hb,
            "_u4": UNPACK_WORD, "_u2": UNPACK_HALF,
            "_p4": PACK_WORD, "_p2": PACK_HALF,
            "_MEM": self.mem, "_DIRTY": self.dirty,
            "__builtins__": {"abs": abs},
        }
        if self.stuck is not None:
            _reg, mask, stuck_one = self.stuck
            namespace["_SK"] = mask if stuck_one else ~mask & MASK
        return namespace

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
    def _bindings(body_text: str) -> List[str]:
        lines = ["R = cpu.regs._regs"]
        if "_ramok" in body_text:
            # The fast path is armed only while the CPU's current window
            # buffer is the one this code was specialized against; a bus
            # mutation (device swap, remap) makes every access take the
            # bus fallback until recompiled.
            lines += ["if cpu._ram_version != cpu.bus.version:",
                      "    cpu._refresh_ram_window()",
                      "_mem = _MEM",
                      "_ramok = cpu._ram_data is _MEM"]
        if "_dirty.add" in body_text:
            lines.append("_dirty = _DIRTY")
        return lines

    def _flush_lines(self, retired, cycles, pc_expr) -> List[str]:
        return [f"_c = cpu.csrs",
                f"_c.instret += {retired}",
                f"_c.cycle += {cycles}",
                f"cpu.pc = {pc_expr}",
                f"cpu.next_pc = {pc_expr}"]

    def _chain_line(self, block, pc_expr) -> List[str]:
        """Plant the chain link when this exit lands on ``chain_pc``
        (blocks compile only while the block cache is on)."""
        if block.chain_pc is None:
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
        if block.ends_system and i == len(ctx.ops) - 1:
            src.add(indent, "cpu._poll_at = 0")
        src.add(indent, "_np = cpu.next_pc")
        src.add(indent, f"if _np != {ft:#x}:")
        redirect_cycles = ctx.prefix[i] + ctx.ops[i][5]
        # cpu.next_pc already holds _np; only pc needs the redirect.
        src.extend(indent + 1,
                   self._flush_lines(i + 1, redirect_cycles, "_np")[:-1])
        src.extend(indent + 1, self._chain_line(block, "_np"))
        src.add(indent + 1, f"return {i + 1}")

    def _emit_direct(self, block) -> str:
        ctx = Ctx(block, win=self.win, stuck=self.stuck_fold)
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
            body.add(1, "else:")
            body.add(2, f"_c.cycle += {base_total}")
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
        src.add(0, "def _tb(cpu, remaining, pause):")
        src.add(1, "block.exec_count += 1")
        if self.hb:
            src.add(1, "for _h in HB:")
            src.add(2, "_h(cpu, block)")
        src.extend(1, self._bindings(body_text))
        src.lines.append(body_text)
        return src.text()

    # -- loop shapes: fused self-loops and traces -------------------------

    def _emit_loop(self, body: _Src, local: Locals) -> str:
        """A fused or trace function around ``body`` (its loop, at indent
        0): every register and counter ``local`` recorded is loaded into
        a local once and written back in one ``finally``, which every way
        out passes — the loop, budget and interrupt exits, a trap entry
        (a :class:`_TrapExit`, taken by the backend after the write-back)
        and ``MachineExit``.  The bus slow path and the interrupt poll
        read neither."""
        src = _Src()
        src.add(0, "def _tb(cpu, remaining, pause):")
        src.extend(1, self._bindings("\n".join(body.lines)))
        src.add(1, "_c = cpu.csrs")
        src.add(1, "ret = 0")
        src.extend(1, local.loads())
        stores = local.stores()
        if not stores:
            src.extend(1, body.lines)
            return src.text()
        src.add(1, "try:")
        src.extend(2, body.lines)
        src.add(1, "finally:")
        src.extend(2, stores)
        return src.text()

    def _emit_fused(self, block) -> str:
        local = Locals()
        ctx = Ctx(block, win=self.win, stuck=self.stuck_fold, local=local)
        ops = block.ops
        n = len(ops)
        last_d = ops[-1][0]
        last_ft, last_base, last_taken = ops[-1][3], ops[-1][4], ops[-1][5]
        taken_total = ctx.prefix[n - 1] + last_taken
        base_total = ctx.prefix[n - 1] + last_base

        body = []
        for i in range(n - 1):
            body += EMITTERS[ops[i][1]](ctx, i)
        cond = BRANCH_CONDS[ops[-1][1]](ctx, last_d)
        limit = local.limit(n)
        if any("_bus_" in line for line in body):
            loop = self._fused_polling(block, body, cond, n, taken_total,
                                       base_total, last_ft, limit)
        else:
            loop = self._fused_batched(block, body, cond, n, taken_total,
                                       base_total, last_ft, limit)
        return self._emit_loop(loop, local)

    def _loop_exit(self, src: _Src, indent: int, pc: int,
                   chain_m: Optional[int] = None) -> None:
        """Flush the retired count (cycles are already added), park the
        pc, and return — planting the chain link exactly when the
        interpreter would (trace member ``chain_m`` has this pc as its
        ``chain_pc``)."""
        src.add(indent, "_c.instret += ret")
        src.add(indent, f"cpu.pc = {pc:#x}")
        src.add(indent, f"cpu.next_pc = {pc:#x}")
        if chain_m is not None:
            src.add(indent, f"cpu._chain_from = b_{chain_m}")
        src.add(indent, "return ret")

    def _boundary_checks(self, src: _Src, indent: int, pc: int,
                         limit: str, chain_m: Optional[int] = None) -> None:
        """The run loop's block-boundary order, exiting to ``pc``: the
        limit check (``Locals.limit`` of the block at ``pc``; the run
        loop runs the prefix of one that does not fit), then the
        interrupt poll, which runs only once the cycle count reaches the
        CPU's deadline (an event inside the loop, a device access, sets
        it to 0)."""
        src.add(indent, f"if ret > {limit} or (_c.cycle >= cpu._poll_at"
                        " and cpu._pending_interrupt() is not None):")
        self._loop_exit(src, indent + 1, pc, chain_m)

    def _fused_polling(self, block, body_lines, cond, n,
                       taken_total, base_total, last_ft, limit) -> _Src:
        """One iteration per boundary check — blocks touching memory
        (loads may read device time, stores may arm interrupts).  The
        iteration counts itself first, as the interpreter's block entry
        does, so one that traps or exits midway is counted too."""
        src = _Src()
        src.add(0, "while True:")
        src.add(1, "block.exec_count += 1")
        src.extend(1, body_lines)
        src.add(1, f"if {cond}:")
        src.add(2, f"ret += {n}")
        src.add(2, f"_c.cycle += {taken_total}")
        self._boundary_checks(src, 2, block.start_pc, limit)
        src.add(2, "continue")
        src.add(1, f"ret += {n}")
        src.add(1, f"_c.cycle += {base_total}")
        self._loop_exit(src, 1, last_ft)
        return src

    def _fused_batched(self, block, body_lines, cond, n,
                       taken_total, base_total, last_ft, limit) -> _Src:
        """Pure-ALU self-loop: batch iterations up to the deadline.

        With no memory or CSR access in the body, nothing inside the
        loop raises an interrupt event; :func:`_horizon` ends each batch
        at the budget or at the first boundary past the deadline, where
        the boundary checks run as the interpreter's would.  The raw
        ``mip`` shadow is therefore written at the same boundaries in
        every shape.
        """
        src = _Src()
        src.add(0, "while True:")
        src.add(1, f"_n = _horizon(cpu, {limit} - ret, {n}, "
                   f"{taken_total})")
        src.add(1, "_it = 0")
        src.add(1, "while _it < _n:")
        src.add(2, "_it += 1")
        src.extend(2, body_lines)
        src.add(2, f"if {cond}:")
        src.add(3, "continue")
        # Branch fell through: account _it - 1 taken iterations plus
        # this not-taken one, exactly like the interpreter's exit.
        src.add(2, f"ret += _it * {n}")
        src.add(2, f"_c.cycle += (_it - 1) * {taken_total} + {base_total}")
        src.add(2, "block.exec_count += _it")
        self._loop_exit(src, 2, last_ft)
        src.add(1, f"ret += _n * {n}")
        src.add(1, f"_c.cycle += _n * {taken_total}")
        src.add(1, "block.exec_count += _n")
        self._boundary_checks(src, 1, block.start_pc, limit)
        return src

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
        member boundary: the completed member's cycles added to
        ``csrs.cycle``, then the budget check and the deadline-gated
        interrupt poll in the order the interpreter's run loop performs
        them, exiting with the pc parked on the next member's start so
        the run loop can take over.
        """
        if self.hb:
            raise CompileError("trace shape requires no block hooks")
        if len(blocks) < 2 or len(blocks) > TRACE_MAX_BLOCKS:
            raise CompileError(f"unsupported trace length {len(blocks)}")
        # A tuple of member keys never equals a block key (whose first
        # item is an int), so traces and blocks share one cache.
        code, src = _CODE_CACHE.code_for(
            (self.shape, tuple([_block_key(block) for block in blocks])),
            f"<jit-trace:{blocks[0].start_pc:#x}>",
            lambda: self._emit_trace(blocks))
        namespace = self._trace_namespace(blocks)
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

    def _emit_trace_body(self, src: _Src, indent: int, ctx: Ctx, m: int,
                         block) -> None:
        """One member's body plus its retire/cycle accounting.

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
        src.add(indent, f"_c.cycle += {cycles}")

    def _emit_trace(self, blocks) -> str:
        head = blocks[0]
        local = Locals()
        ctxs = []
        offset = 0
        for block in blocks:
            ctxs.append(Ctx(block, base=offset, win=self.win,
                            stuck=self.stuck_fold, local=local))
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
        indent = 1 if looped else 0

        body = _Src()
        if looped:
            body.add(0, "while True:")
        for m, block in enumerate(blocks[:-1]):
            self._emit_trace_body(body, indent, ctxs[m], m, block)
            self._boundary_checks(body, indent, block.chain_pc,
                                  local.limit(len(blocks[m + 1].ops)), m)
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
            body.add(indent + 1, f"_c.cycle += {taken_cycles}")
            if looped:
                self._boundary_checks(body, indent + 1, head.start_pc,
                                      local.limit(len(head.ops)))
                body.add(indent + 1, "continue")
            else:
                self._loop_exit(body, indent + 1, target)
            body.add(indent, f"ret += {n}")
            body.add(indent, f"_c.cycle += {base_total}")
            self._loop_exit(body, indent, last_ft)
        else:
            # Straight trace: the final member exits to its chain_pc with
            # no boundary checks — the run loop polls before the next
            # step exactly as it would after an interpreted block.
            self._emit_trace_body(body, indent, ctxs[m], m, blocks[m])
            self._loop_exit(body, indent, blocks[m].chain_pc, m)
        return self._emit_loop(body, local)
