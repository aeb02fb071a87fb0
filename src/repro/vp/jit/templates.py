"""Per-instruction Python source emitters for the template JIT.

Each emitter renders the exact semantics of one
:mod:`repro.isa.semantics` execute function as source text with the
decoded operands folded in as constants.  The table is keyed by the
execute *function object*, so every spec that reuses a base callback
(all of RV32C does) is covered automatically.

Two rendering modes, chosen per block by the compiler:

* **direct** — registers are accessed as ``R[n]`` on the raw backing
  list (only legal when the register file is a plain untraced
  :class:`~repro.isa.registers.RegisterFile`); written values are masked
  to canonical 32-bit form exactly where ``RegisterFile.write`` would
  mask them, and ``x0`` writes are elided at compile time.
* **method** — registers go through the bound ``read``/``write``
  methods, preserving access tracing and fault-wrapper subclasses.

Semantics corner cases (division toward zero, ``INT_MIN / -1``,
``jalr``'s read-before-link ordering, sign extension after the bus
access, ``to_unsigned`` immediates) mirror ``semantics.py`` line for
line — that file is the normative reference; change both together.
"""

from __future__ import annotations

from typing import Callable, Dict, List

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


class Ctx:
    """Per-block codegen context handed to every emitter.

    Carries the register-access mode, per-instruction accounting
    constants (retired count and cycle prefix sums, optionally offset by
    the fused loop's running accumulators), and the trap/exit epilogue
    renderers shared by all memory emitters.
    """

    def __init__(self, block, direct: bool, fused: bool = False,
                 base: int = 0, win=None) -> None:
        self.block = block
        self.direct = direct
        #: In the fused self-loop shape, accounting is offset by the
        #: running ``ret``/``cyc`` locals and prior iterations have
        #: already ticked the bus.
        self.fused = fused
        #: Namespace name offset: instruction ``i`` of this block binds
        #: ``d_{base+i}`` / ``x_{base+i}``.  Non-zero only for trace
        #: members, whose blocks share one function namespace.
        self.base = base
        #: RAM fast-path window ``(base, end, page_shift)`` captured at
        #: compile time, or ``None`` — direct-mode memory emitters guard
        #: on it and fall back to bus dispatch outside it.
        self.win = win
        self.ops = block.ops
        prefix = [0]
        for op in self.ops:
            prefix.append(prefix[-1] + op[4])
        #: prefix[i] == cycles charged before instruction ``i`` executes.
        self.prefix = prefix

    # -- register access ------------------------------------------------

    def r(self, num: int) -> str:
        """Read of GPR ``num`` (x0 reads the raw slot, like the file)."""
        return f"R[{num}]" if self.direct else f"_rd({num})"

    def w(self, num: int, expr: str, canonical: bool = False) -> List[str]:
        """Write ``expr`` to GPR ``num``; ``canonical`` skips the mask."""
        if self.direct:
            if num == 0:
                return []
            if canonical:
                return [f"R[{num}] = {expr}"]
            return [f"R[{num}] = ({expr}) & 0xFFFFFFFF"]
        return [f"_wr({num}, {expr})"]

    # -- accounting constants -------------------------------------------

    def ret_at(self, i: int) -> str:
        """Instructions retired when instruction ``i`` traps."""
        return f"ret + {i}" if self.fused else str(i)

    def cyc_at(self, i: int) -> str:
        """Cycles to flush when instruction ``i`` traps (its base cost
        charged, like the interpreter's trap path)."""
        partial = self.prefix[i] + self.ops[i][4]
        return f"cyc + {partial}" if self.fused else str(partial)

    def tick_at(self, i: int) -> str:
        """Cycles not yet ticked when instruction ``i`` traps."""
        return str(self.prefix[i] + self.ops[i][4])

    def pc_at(self, i: int) -> int:
        return self.ops[i][2]

    def ft_at(self, i: int) -> int:
        return self.ops[i][3]

    def trap_exit(self, i: int, cause, tval: str) -> str:
        """``return _trap_exit(...)`` with instruction ``i``'s constants."""
        return (f"return _trap_exit(cpu, {cause}, {tval}, "
                f"{self.flush_args(i)})")

    def exit_flush(self, i: int) -> str:
        """Accounting flush before re-raising ``MachineExit``."""
        return f"_exit_flush(cpu, {self.flush_args(i)})"

    def flush_args(self, i: int) -> str:
        """Instruction ``i``'s trailing arguments to ``_trap_exit``,
        ``_exit_flush``, ``_bus_load`` and ``_bus_store``: retired,
        cycles, tick, pc, fallthrough, decoded."""
        return (f"{self.ret_at(i)}, {self.cyc_at(i)}, {self.tick_at(i)}, "
                f"{self.pc_at(i):#x}, {self.ft_at(i):#x}, d_{self.base + i}")


Emitter = Callable[[Ctx, int], List[str]]


# ---------------------------------------------------------------------------
# ALU
# ---------------------------------------------------------------------------

def _rr_emitter(render) -> Emitter:
    def emit(ctx: Ctx, i: int) -> List[str]:
        d = ctx.ops[i][0]
        expr, canonical = render(ctx, d)
        if ctx.direct and d.rd == 0:
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
    if ctx.direct and d.rd == 0:
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
    if ctx.direct and d.rd == 0:
        return []
    return ctx.w(d.rd,
                 f"0xFFFFFFFF if {ctx.r(d.rs2)} == 0 "
                 f"else {ctx.r(d.rs1)} // {ctx.r(d.rs2)}", canonical=True)


def emit_rem(ctx: Ctx, i: int) -> List[str]:
    d = ctx.ops[i][0]
    if ctx.direct and d.rd == 0:
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
    if ctx.direct and d.rd == 0:
        return []
    return ctx.w(d.rd,
                 f"{ctx.r(d.rs1)} if {ctx.r(d.rs2)} == 0 "
                 f"else {ctx.r(d.rs1)} % {ctx.r(d.rs2)}", canonical=True)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------
#
# Direct-mode loads/stores emit a softmmu-style RAM fast path when the
# compiler captured a window: a ``base <= addr <= end - width`` guard
# (alignment already checked) selects a direct struct read/write on the
# captured buffer — with the page-dirty update inlined on stores so
# ``Ram.dirty_pages()`` stays exact — and everything else (MMIO, faults,
# a swapped-out RAM detected via the ``_ramok`` binding) falls back to
# the full bus dispatch with the interpreter's trap semantics.  That
# slow path lives out of line in the compiler's ``_bus_load`` /
# ``_bus_store`` helpers, keeping the generated source (and its compile
# time) small.

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
        if not ctx.direct:
            kwargs = ", signed=True" if signed else ""
            addr = f"({ctx.r(d.rs1)} + {d.imm}) & 0xFFFFFFFF"
            return ctx.w(d.rd, f"cpu.load({addr}, {width}{kwargs})")
        lines = _addr_lines(ctx, d)
        if width > 1:
            lines += [f"if _a % {width}:",
                      f"    {ctx.trap_exit(i, csrdef.CAUSE_MISALIGNED_LOAD, _masked_a(ctx))}"]
        # The register write below skips its mask (the fast path is
        # canonical by construction), so _bus_load masks the bus value.
        slow = [f"_v = _bus_load(cpu, _a, {width}, {ctx.flush_args(i)})",
                "if _v is None:",
                f"    return {ctx.ret_at(i)}"]
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
                      "    cpu.mem_fast_loads += 1",
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
        if not ctx.direct:
            addr = f"({ctx.r(d.rs1)} + {d.imm}) & 0xFFFFFFFF"
            return [f"cpu.store({addr}, {width}, {ctx.r(d.rs2)})"]
        lines = _addr_lines(ctx, d)
        if width > 1:
            lines += [f"if _a % {width}:",
                      f"    {ctx.trap_exit(i, csrdef.CAUSE_MISALIGNED_STORE, _masked_a(ctx))}"]
        slow = [f"if _bus_store(cpu, _a, {width}, {ctx.r(d.rs2)}, "
                f"{ctx.flush_args(i)}):",
                f"    return {ctx.ret_at(i)}"]
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
                      "    cpu.mem_fast_stores += 1",
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
# Control flow (method mode only — the direct shape renders block-final
# control flow itself in the compiler's epilogues)
# ---------------------------------------------------------------------------

#: exec function -> rendered comparison, used by both the method-mode
#: branch emitter and the compiler's direct-mode branch epilogue.
BRANCH_CONDS = {
    sem.exec_beq: lambda c, d: f"{c.r(d.rs1)} == {c.r(d.rs2)}",
    sem.exec_bne: lambda c, d: f"{c.r(d.rs1)} != {c.r(d.rs2)}",
    sem.exec_blt: lambda c, d: f"{_sb(c.r(d.rs1))} < {_sb(c.r(d.rs2))}",
    sem.exec_bge: lambda c, d: f"{_sb(c.r(d.rs1))} >= {_sb(c.r(d.rs2))}",
    sem.exec_bltu: lambda c, d: f"{c.r(d.rs1)} < {c.r(d.rs2)}",
    sem.exec_bgeu: lambda c, d: f"{c.r(d.rs1)} >= {c.r(d.rs2)}",
}


def _branch_emitter(execute) -> Emitter:
    cond = BRANCH_CONDS[execute]

    def emit(ctx: Ctx, i: int) -> List[str]:
        d = ctx.ops[i][0]
        target = (ctx.pc_at(i) + d.imm) & MASK
        return [f"if {cond(ctx, d)}:",
                f"    cpu.next_pc = {target:#x}"]
    return emit


def emit_jal(ctx: Ctx, i: int) -> List[str]:
    d = ctx.ops[i][0]
    target = (ctx.pc_at(i) + d.imm) & MASK
    return (ctx.w(d.rd, f"{ctx.ft_at(i):#x}", canonical=True)
            + [f"cpu.next_pc = {target:#x}"])


def emit_jalr(ctx: Ctx, i: int) -> List[str]:
    d = ctx.ops[i][0]
    # rs1 is read before rd is linked (rd may alias rs1).
    return ([f"_t = ({ctx.r(d.rs1)} + {d.imm}) & 0xFFFFFFFE"]
            + ctx.w(d.rd, f"{ctx.ft_at(i):#x}", canonical=True)
            + ["cpu.next_pc = _t"])


# ---------------------------------------------------------------------------
# The dispatch table
# ---------------------------------------------------------------------------

#: execute function -> emitter for straight-line (non-control) bodies.
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

#: Control-flow emitters (method mode renders these inline; direct mode
#: uses them only through the compiler's block-final epilogues).
CONTROL_EMITTERS: Dict[Callable, Emitter] = {
    sem.exec_jal: emit_jal,
    sem.exec_jalr: emit_jalr,
}
CONTROL_EMITTERS.update(
    {execute: _branch_emitter(execute) for execute in BRANCH_CONDS})
