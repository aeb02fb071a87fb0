"""Per-instruction Python source emitters for the template JIT.

Each emitter renders the exact semantics of one
:mod:`repro.isa.semantics` execute function as source text with the
decoded operands folded in as constants.  The table is keyed by the
execute *function object*, so every spec that reuses a base callback
(all of RV32C does) is covered automatically.

Two register renderings, chosen per block by the compiler; :class:`Ctx`
is the one place a register is named:

* **direct** — registers are accessed as ``R[n]`` on the raw backing
  list (the compiled backend compiles only for an untraced plain
  :class:`~repro.isa.registers.RegisterFile` or
  :class:`~repro.isa.registers.StuckRegisterFile`, whose stuck bit every
  read of that register folds in through the namespace constant
  ``_SK``); written values are masked to canonical 32-bit form exactly
  where ``RegisterFile.write`` would mask them, and ``x0`` writes are
  elided at compile time.
* **locals** — the direct rendering inside a fused self-loop or trace:
  each register the function touches is the Python local ``r{n}``, and
  the RAM fast-path access counters are the locals ``_fl``/``_fs``;
  :class:`Locals` renders their loads and write-back.

Control flow (branches, ``jal``, ``jalr``) ends a block, so the compiler
renders it in each shape's epilogue, with the conditions in
:data:`BRANCH_CONDS`.

Semantics corner cases (division toward zero, ``INT_MIN / -1``,
``jalr``'s read-before-link ordering, sign extension after the bus
access, ``to_unsigned`` immediates) mirror ``semantics.py`` line for
line — that file is the normative reference; change both together.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ...isa import semantics as sem
from ...isa import csr as csrdef

#: Sign-view helper: ``(v ^ SIGN) - SIGN`` maps canonical u32 -> signed.
SIGN = 0x80000000
MASK = 0xFFFFFFFF


def _s(expr: str) -> str:
    """Signed 32-bit view of a canonical unsigned expression."""
    return f"(({expr}) ^ 0x80000000) - 0x80000000"


def _sb(expr: str) -> str:
    """Sign-biased view for *comparisons only*: ``a <s b`` on canonical
    u32 values is ``(a ^ SIGN) < (b ^ SIGN)`` — the bias preserves order
    without materializing negative ints."""
    return f"(({expr}) ^ 0x80000000)"


class Locals:
    """The guest registers, RAM access counters and block-boundary
    limits one fused or trace function holds in Python locals.

    Shared by the :class:`Ctx` of every member of the function, which
    records each register it names; the compiler then loads every
    touched register once before the loop and writes back the written
    ones, and the counters, wherever control leaves the function.
    """

    #: Counter local -> the CPU attribute it accumulates into.
    COUNTERS = {"_fl": "cpu.mem_fast_loads", "_fs": "cpu.mem_fast_stores"}

    def __init__(self) -> None:
        self.used: set = set()
        self.written: set = set()
        self.counters: set = set()
        self.limits: set = set()

    def limit(self, length: int) -> str:
        """The local a block boundary tests before it starts a block of
        ``length`` instructions: the largest ``ret`` from which that block
        fits the budget and starts before the watch key (``pause``)."""
        self.limits.add(length)
        return f"_l{length}"

    def loads(self) -> List[str]:
        lines = [f"r{n} = R[{n}]" for n in sorted(self.used)]
        lines += [f"{name} = 0" for name in sorted(self.counters)]
        if self.limits:
            lines.append("_p = pause - _c.instret - 1")
        for n in sorted(self.limits):
            lines += [f"_l{n} = remaining - {n}",
                      f"if _l{n} > _p:",
                      f"    _l{n} = _p"]
        return lines

    def stores(self) -> List[str]:
        return ([f"R[{n}] = r{n}" for n in sorted(self.written)]
                + [f"{self.COUNTERS[name]} += {name}"
                   for name in sorted(self.counters)])


class Ctx:
    """Per-block codegen context handed to every emitter.

    Carries the register rendering, per-instruction accounting
    constants (retired count, optionally offset by the fused loop's
    running ``ret``, and cycle prefix sums), and the trap/exit epilogue
    renderers shared by all memory emitters.
    """

    def __init__(self, block, base: int = 0, win=None, stuck=None,
                 local: Optional[Locals] = None) -> None:
        #: Reads of the stuck register (``stuck`` is
        #: ``(reg, stuck_one)`` of a StuckRegisterFile) render with the
        #: bit forced through the namespace constant ``_SK`` (the mask, or
        #: its complement for stuck-at-0), the value its ``read``
        #: returns; writes stay raw.  The mask is not in the source, so
        #: every bit of one register shares one code object.
        self._stuck_reg = None
        if stuck is not None:
            self._stuck_reg, stuck_one = stuck
            self._stuck_op = "|" if stuck_one else "&"
        #: In the fused self-loop and trace shapes, registers and access
        #: counters are the locals ``local`` records, and the retired
        #: count is offset by the running ``ret``; prior iterations and
        #: members have already added their cycles to ``csrs.cycle``.
        self.local = local
        #: Namespace name offset: instruction ``i`` of this block binds
        #: ``d_{base+i}`` / ``x_{base+i}``.  Non-zero only for trace
        #: members, whose blocks share one function namespace.
        self.base = base
        #: RAM fast-path window ``(base, end, page_shift)`` captured at
        #: compile time, or ``None`` — memory emitters guard on it and
        #: fall back to bus dispatch outside it.
        self.win = win
        self.ops = block.ops
        prefix = [0]
        for op in self.ops:
            prefix.append(prefix[-1] + op[4])
        #: prefix[i] == cycles charged before instruction ``i`` executes.
        self.prefix = prefix

    # -- register access ------------------------------------------------

    def _name(self, num: int) -> str:
        if self.local is None:
            return f"R[{num}]"
        self.local.used.add(num)
        return f"r{num}"

    def r(self, num: int) -> str:
        """Read of GPR ``num`` (x0 reads the raw slot, like the file)."""
        if num == self._stuck_reg:
            return f"({self._name(num)} {self._stuck_op} _SK)"
        return self._name(num)

    def w(self, num: int, expr: str, canonical: bool = False) -> List[str]:
        """Write ``expr`` to GPR ``num``; ``canonical`` skips the mask."""
        if num == 0:
            return []
        if self.local is not None:
            self.local.written.add(num)
        if canonical:
            return [f"{self._name(num)} = {expr}"]
        return [f"{self._name(num)} = ({expr}) & 0xFFFFFFFF"]

    def count(self, name: str) -> str:
        """Count one RAM fast-path access: ``name`` is ``_fl`` (a load)
        or ``_fs`` (a store)."""
        if self.local is None:
            return f"{Locals.COUNTERS[name]} += 1"
        self.local.counters.add(name)
        return f"{name} += 1"

    # -- accounting constants -------------------------------------------

    def ret_at(self, i: int) -> str:
        """Instructions retired when instruction ``i`` traps."""
        return f"ret + {i}" if self.local is not None else str(i)

    def cyc_at(self, i: int) -> str:
        """Cycles to flush when instruction ``i`` traps (its base cost
        charged, like the interpreter's trap path)."""
        return str(self.prefix[i] + self.ops[i][4])

    def pc_at(self, i: int) -> int:
        return self.ops[i][2]

    def ft_at(self, i: int) -> int:
        return self.ops[i][3]

    def trap_exit(self, i: int, cause, tval: str) -> str:
        """Take a trap at instruction ``i``: ``return _trap_exit(...)``,
        or, with registers in locals, ``raise _TrapExit(...)`` so the
        function writes them back before the trap is taken."""
        if self.local is None:
            return (f"return _trap_exit(cpu, {cause}, {tval}, "
                    f"{self.flush_args(i)})")
        return f"raise _TrapExit({cause}, {tval}, {self.flush_args(i)})"

    def exit_flush(self, i: int) -> str:
        """Accounting flush before re-raising ``MachineExit``."""
        return f"_exit_flush(cpu, {self.flush_args(i)})"

    def flush_args(self, i: int) -> str:
        """Instruction ``i``'s trailing arguments to ``_trap_exit``,
        ``_exit_flush``, ``_bus_load`` and ``_bus_store``: retired,
        cycles, pc, fallthrough, decoded."""
        return (f"{self.ret_at(i)}, {self.cyc_at(i)}, "
                f"{self.pc_at(i):#x}, {self.ft_at(i):#x}, d_{self.base + i}")


Emitter = Callable[[Ctx, int], List[str]]


# ---------------------------------------------------------------------------
# ALU
# ---------------------------------------------------------------------------

def _rr_emitter(render) -> Emitter:
    def emit(ctx: Ctx, i: int) -> List[str]:
        d = ctx.ops[i][0]
        expr, canonical = render(ctx, d)
        if d.rd == 0:
            return []  # pure computation into x0: no effect
        return ctx.w(d.rd, expr, canonical)
    return emit


emit_add = _rr_emitter(lambda c, d: (f"{c.r(d.rs1)} + {c.r(d.rs2)}", False))
emit_sub = _rr_emitter(lambda c, d: (f"{c.r(d.rs1)} - {c.r(d.rs2)}", False))
emit_sll = _rr_emitter(
    lambda c, d: (f"{c.r(d.rs1)} << ({c.r(d.rs2)} & 31)", False))
emit_slt = _rr_emitter(
    lambda c, d: (f"1 if {_sb(c.r(d.rs1))} < {_sb(c.r(d.rs2))} else 0", True))
emit_sltu = _rr_emitter(
    lambda c, d: (f"1 if {c.r(d.rs1)} < {c.r(d.rs2)} else 0", True))
emit_xor = _rr_emitter(lambda c, d: (f"{c.r(d.rs1)} ^ {c.r(d.rs2)}", True))
emit_srl = _rr_emitter(
    lambda c, d: (f"{c.r(d.rs1)} >> ({c.r(d.rs2)} & 31)", True))
emit_sra = _rr_emitter(
    lambda c, d: (f"({_s(c.r(d.rs1))}) >> ({c.r(d.rs2)} & 31)", False))
emit_or = _rr_emitter(lambda c, d: (f"{c.r(d.rs1)} | {c.r(d.rs2)}", True))
emit_and = _rr_emitter(lambda c, d: (f"{c.r(d.rs1)} & {c.r(d.rs2)}", True))

emit_addi = _rr_emitter(lambda c, d: (f"{c.r(d.rs1)} + {d.imm}", False))
emit_slti = _rr_emitter(
    lambda c, d: (f"1 if {_sb(c.r(d.rs1))} < "
                  f"{(d.imm & MASK) ^ SIGN:#x} else 0", True))
emit_sltiu = _rr_emitter(
    lambda c, d: (f"1 if {c.r(d.rs1)} < {d.imm & MASK:#x} else 0", True))
emit_xori = _rr_emitter(
    lambda c, d: (f"{c.r(d.rs1)} ^ {d.imm & MASK:#x}", True))
emit_ori = _rr_emitter(
    lambda c, d: (f"{c.r(d.rs1)} | {d.imm & MASK:#x}", True))
emit_andi = _rr_emitter(
    lambda c, d: (f"{c.r(d.rs1)} & {d.imm & MASK:#x}", True))
emit_slli = _rr_emitter(lambda c, d: (f"{c.r(d.rs1)} << {d.imm}", False))
emit_srli = _rr_emitter(lambda c, d: (f"{c.r(d.rs1)} >> {d.imm}", True))
emit_srai = _rr_emitter(
    lambda c, d: (f"({_s(c.r(d.rs1))}) >> {d.imm}", False))
emit_lui = _rr_emitter(lambda c, d: (f"{d.imm & MASK:#x}", True))


def emit_auipc(ctx: Ctx, i: int) -> List[str]:
    d = ctx.ops[i][0]
    value = (ctx.pc_at(i) + d.imm) & MASK
    return ctx.w(d.rd, f"{value:#x}", canonical=True)


# -- M extension ------------------------------------------------------------

emit_mul = _rr_emitter(lambda c, d: (f"{c.r(d.rs1)} * {c.r(d.rs2)}", False))
emit_mulh = _rr_emitter(
    lambda c, d: (f"(({_s(c.r(d.rs1))}) * ({_s(c.r(d.rs2))})) >> 32", False))
emit_mulhsu = _rr_emitter(
    lambda c, d: (f"(({_s(c.r(d.rs1))}) * {c.r(d.rs2)}) >> 32", False))
emit_mulhu = _rr_emitter(
    lambda c, d: (f"({c.r(d.rs1)} * {c.r(d.rs2)}) >> 32", False))


def emit_div(ctx: Ctx, i: int) -> List[str]:
    d = ctx.ops[i][0]
    if d.rd == 0:
        return []
    lines = [f"_a = {_s(ctx.r(d.rs1))}",
             f"_b = {_s(ctx.r(d.rs2))}",
             "if _b == 0:",
             "    _q = -1",
             "elif _a == -0x80000000 and _b == -1:",
             "    _q = -0x80000000",
             "else:",
             "    _q = abs(_a) // abs(_b)",
             "    if (_a < 0) != (_b < 0):",
             "        _q = -_q"]
    return lines + ctx.w(d.rd, "_q")


def emit_divu(ctx: Ctx, i: int) -> List[str]:
    d = ctx.ops[i][0]
    if d.rd == 0:
        return []
    return ctx.w(d.rd,
                 f"0xFFFFFFFF if {ctx.r(d.rs2)} == 0 "
                 f"else {ctx.r(d.rs1)} // {ctx.r(d.rs2)}", canonical=True)


def emit_rem(ctx: Ctx, i: int) -> List[str]:
    d = ctx.ops[i][0]
    if d.rd == 0:
        return []
    lines = [f"_a = {_s(ctx.r(d.rs1))}",
             f"_b = {_s(ctx.r(d.rs2))}",
             "if _b == 0:",
             "    _q = _a",
             "elif _a == -0x80000000 and _b == -1:",
             "    _q = 0",
             "else:",
             "    _q = abs(_a) % abs(_b)",
             "    if _a < 0:",
             "        _q = -_q"]
    return lines + ctx.w(d.rd, "_q")


def emit_remu(ctx: Ctx, i: int) -> List[str]:
    d = ctx.ops[i][0]
    if d.rd == 0:
        return []
    return ctx.w(d.rd,
                 f"{ctx.r(d.rs1)} if {ctx.r(d.rs2)} == 0 "
                 f"else {ctx.r(d.rs1)} % {ctx.r(d.rs2)}", canonical=True)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------
#
# Loads and stores emit a softmmu-style RAM fast path when the
# compiler captured a window: a ``base <= addr <= end - width`` guard
# (alignment already checked) selects a direct struct read/write on the
# captured buffer — with the page-dirty update inlined on stores so
# ``Ram.dirty_pages()`` stays exact — and everything else (MMIO, faults,
# a swapped-out RAM detected via the ``_ramok`` binding) falls back to
# the full bus dispatch with the interpreter's trap semantics.  That
# slow path lives out of line in the compiler's ``_bus_load`` /
# ``_bus_store`` helpers, keeping the generated source (and its compile
# time) small; they raise ``_TrapExit`` on a bus fault, which leaves
# the function (after any register write-back) for the backend to take.

def _addr_lines(ctx: Ctx, d) -> List[str]:
    """Effective-address computation for the fast-path shape.

    With a window, ``_a`` is left *unmasked*: an overflowing or negative
    ``rs1 + imm`` can never satisfy ``base <= _a < end`` (RAM sits below
    2**32), so the in-window fast path sees only values where the mask
    is a no-op, and the bus fallback re-masks before dispatching.
    ``_a % width`` is mask-invariant too (2**32 is a multiple of every
    access width), so the misalignment check also works unmasked.
    """
    if ctx.win is None:
        return [f"_a = ({ctx.r(d.rs1)} + {d.imm}) & 0xFFFFFFFF"]
    if d.imm:
        return [f"_a = {ctx.r(d.rs1)} + {d.imm}"]
    return [f"_a = {ctx.r(d.rs1)}"]


def _masked_a(ctx: Ctx) -> str:
    """The architectural (masked) address for trap ``tval`` rendering."""
    return "_a" if ctx.win is None else "(_a & 0xFFFFFFFF)"


def _load_emitter(width: int, signed: bool) -> Emitter:
    sign_bit = 1 << (width * 8 - 1)

    def emit(ctx: Ctx, i: int) -> List[str]:
        d = ctx.ops[i][0]
        lines = _addr_lines(ctx, d)
        if width > 1:
            lines += [f"if _a % {width}:",
                      f"    {ctx.trap_exit(i, csrdef.CAUSE_MISALIGNED_LOAD, _masked_a(ctx))}"]
        # The register write below skips its mask (the fast path is
        # canonical by construction), so _bus_load masks the bus value.
        slow = [f"_v = _bus_load(cpu, _a, {width}, {ctx.flush_args(i)})"]
        if ctx.win is not None:
            base, end, _shift = ctx.win
            if width == 4:
                read = f"_v = _u4(_mem, _a - {base:#x})[0]"
            elif width == 1:
                read = f"_v = _mem[_a - {base:#x}]"
            else:
                read = f"_v = _u2(_mem, _a - {base:#x})[0]"
            lines += [f"if _ramok and {base:#x} <= _a < {end - width + 1:#x}:",
                      f"    {read}",
                      f"    {ctx.count('_fl')}",
                      "else:",
                      "    _a &= 0xFFFFFFFF"]
            lines += ["    " + line for line in slow]
        else:
            lines += slow
        if signed:
            value = f"((_v ^ {sign_bit:#x}) - {sign_bit:#x})"
            canonical = False
        else:
            # Loads from the window and from the bus (devices mask to
            # their width) both produce canonical u32 values already.
            value = "_v"
            canonical = True
        if d.rd:
            lines += ctx.w(d.rd, value, canonical=canonical)
        return lines
    return emit


def _store_emitter(width: int) -> Emitter:
    def emit(ctx: Ctx, i: int) -> List[str]:
        d = ctx.ops[i][0]
        lines = _addr_lines(ctx, d)
        if width > 1:
            lines += [f"if _a % {width}:",
                      f"    {ctx.trap_exit(i, csrdef.CAUSE_MISALIGNED_STORE, _masked_a(ctx))}"]
        slow = [f"_bus_store(cpu, _a, {width}, {ctx.r(d.rs2)}, "
                f"{ctx.flush_args(i)})"]
        if ctx.win is not None:
            base, end, shift = ctx.win
            # Register values are canonical u32, so only sub-word widths
            # need a store mask.
            if width == 4:
                write = f"_p4(_mem, _o, {ctx.r(d.rs2)})"
            elif width == 1:
                write = f"_mem[_o] = {ctx.r(d.rs2)} & 0xFF"
            else:
                write = f"_p2(_mem, _o, {ctx.r(d.rs2)} & 0xFFFF)"
            lines += [f"if _ramok and {base:#x} <= _a < {end - width + 1:#x}:",
                      f"    _o = _a - {base:#x}",
                      f"    {write}",
                      f"    _dirty.add(_o >> {shift})",
                      f"    {ctx.count('_fs')}",
                      "else:",
                      "    _a &= 0xFFFFFFFF"]
            lines += ["    " + line for line in slow]
        else:
            lines += slow
        return lines
    return emit


emit_lb = _load_emitter(1, True)
emit_lh = _load_emitter(2, True)
emit_lw = _load_emitter(4, False)
emit_lbu = _load_emitter(1, False)
emit_lhu = _load_emitter(2, False)
emit_sb = _store_emitter(1)
emit_sh = _store_emitter(2)
emit_sw = _store_emitter(4)


# ---------------------------------------------------------------------------
# Branch conditions (rendered by the compiler's block-final epilogues)
# ---------------------------------------------------------------------------

#: exec function -> rendered comparison of a conditional branch, used by
#: the compiler's direct, fused and trace epilogues.  As for
#: :data:`EMITTERS`, the code cache keys on the execute function: code
#: that rebinds a condition must start a fresh ``compiler.CodeCache``.
BRANCH_CONDS = {
    sem.exec_beq: lambda c, d: f"{c.r(d.rs1)} == {c.r(d.rs2)}",
    sem.exec_bne: lambda c, d: f"{c.r(d.rs1)} != {c.r(d.rs2)}",
    sem.exec_blt: lambda c, d: f"{_sb(c.r(d.rs1))} < {_sb(c.r(d.rs2))}",
    sem.exec_bge: lambda c, d: f"{_sb(c.r(d.rs1))} >= {_sb(c.r(d.rs2))}",
    sem.exec_bltu: lambda c, d: f"{c.r(d.rs1)} < {c.r(d.rs2)}",
    sem.exec_bgeu: lambda c, d: f"{c.r(d.rs1)} >= {c.r(d.rs2)}",
}


# ---------------------------------------------------------------------------
# The dispatch table
# ---------------------------------------------------------------------------

#: execute function -> emitter for straight-line (non-control) bodies.
#: The JIT code cache keys on the execute function, not the emitter:
#: code that rebinds the emitter of a function already here must start a
#: fresh ``compiler.CodeCache``, or blocks keep running source the old
#: emitter rendered.
EMITTERS: Dict[Callable, Emitter] = {
    sem.exec_add: emit_add, sem.exec_sub: emit_sub, sem.exec_sll: emit_sll,
    sem.exec_slt: emit_slt, sem.exec_sltu: emit_sltu, sem.exec_xor: emit_xor,
    sem.exec_srl: emit_srl, sem.exec_sra: emit_sra, sem.exec_or: emit_or,
    sem.exec_and: emit_and, sem.exec_addi: emit_addi, sem.exec_slti: emit_slti,
    sem.exec_sltiu: emit_sltiu, sem.exec_xori: emit_xori,
    sem.exec_ori: emit_ori, sem.exec_andi: emit_andi, sem.exec_slli: emit_slli,
    sem.exec_srli: emit_srli, sem.exec_srai: emit_srai, sem.exec_lui: emit_lui,
    sem.exec_auipc: emit_auipc,
    sem.exec_mul: emit_mul, sem.exec_mulh: emit_mulh,
    sem.exec_mulhsu: emit_mulhsu, sem.exec_mulhu: emit_mulhu,
    sem.exec_div: emit_div, sem.exec_divu: emit_divu, sem.exec_rem: emit_rem,
    sem.exec_remu: emit_remu,
    sem.exec_lb: emit_lb, sem.exec_lh: emit_lh, sem.exec_lw: emit_lw,
    sem.exec_lbu: emit_lbu, sem.exec_lhu: emit_lhu,
    sem.exec_sb: emit_sb, sem.exec_sh: emit_sh, sem.exec_sw: emit_sw,
}
