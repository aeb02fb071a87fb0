"""Architectural register files: GPRs, FPRs, and ABI naming.

The coverage subsystem (``repro.coverage``) derives its GPR/FPR access
metric from each instruction's encoding (``repro.coverage.access``), so
the register files here only hold values.
"""

from __future__ import annotations

from typing import List, Tuple

from .fields import WORD_MASK

NUM_GPRS = 32
NUM_FPRS = 32

#: ABI register names indexed by register number, per the RISC-V psABI.
ABI_NAMES: Tuple[str, ...] = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)

FPR_ABI_NAMES: Tuple[str, ...] = (
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
    "fs0", "fs1", "fa0", "fa1", "fa2", "fa3", "fa4", "fa5",
    "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
    "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
)

_NAME_TO_NUM = {name: i for i, name in enumerate(ABI_NAMES)}
_NAME_TO_NUM.update({f"x{i}": i for i in range(NUM_GPRS)})
_NAME_TO_NUM["fp"] = 8  # alias for s0

_FPR_NAME_TO_NUM = {name: i for i, name in enumerate(FPR_ABI_NAMES)}
_FPR_NAME_TO_NUM.update({f"f{i}": i for i in range(NUM_FPRS)})


def parse_gpr(name: str) -> int:
    """Resolve a GPR name (``x5``, ``t0``, ``fp`` ...) to its number.

    Raises ``KeyError`` for unknown names.
    """
    try:
        return _NAME_TO_NUM[name.lower()]
    except KeyError:
        raise KeyError(f"unknown register name {name!r}") from None


def parse_fpr(name: str) -> int:
    """Resolve an FPR name (``f3``, ``fa0`` ...) to its number."""
    try:
        return _FPR_NAME_TO_NUM[name.lower()]
    except KeyError:
        raise KeyError(f"unknown FP register name {name!r}") from None


def gpr_name(num: int) -> str:
    """ABI name for GPR ``num``."""
    return ABI_NAMES[num]


class RegisterFile:
    """The 32-entry integer register file with hardwired ``x0``.

    Values are stored in unsigned canonical 32-bit form.
    """

    __slots__ = ("_regs",)

    def __init__(self) -> None:
        self._regs: List[int] = [0] * NUM_GPRS

    def read(self, num: int) -> int:
        return self._regs[num]

    def write(self, num: int, value: int) -> None:
        if num:
            self._regs[num] = value & WORD_MASK

    # Raw access bypasses x0 hardwiring: used by fault injection
    # (a stuck-at fault may legitimately target the x0 read port) and by
    # state snapshotting.
    def raw_read(self, num: int) -> int:
        return self._regs[num]

    def raw_write(self, num: int, value: int) -> None:
        self._regs[num] = value & WORD_MASK

    def snapshot(self) -> Tuple[int, ...]:
        """Immutable copy of all register values."""
        return tuple(self._regs)

    def restore(self, values) -> None:
        if len(values) != NUM_GPRS:
            raise ValueError("snapshot must contain exactly 32 values")
        self._regs = [v & WORD_MASK for v in values]
        self._regs[0] = 0

    def reset(self) -> None:
        self._regs = [0] * NUM_GPRS

    def __getitem__(self, num: int) -> int:
        return self.read(num)

    def __setitem__(self, num: int, value: int) -> None:
        self.write(num, value)

    def dump(self) -> str:
        """Human-readable register dump (four columns)."""
        lines = []
        for row in range(8):
            cells = []
            for col in range(4):
                i = row * 4 + col
                cells.append(f"{ABI_NAMES[i]:>5}={self._regs[i]:08x}")
            lines.append("  ".join(cells))
        return "\n".join(lines)


class StuckRegisterFile(RegisterFile):
    """Register file whose read port forces one bit of one register.

    The permanent-GPR fault model: every read of register ``reg``
    (``x0`` included) returns the stored value with ``mask`` set
    (``stuck_one``) or cleared; writes store the value unchanged.
    ``stuck`` holds ``(reg, mask, stuck_one)`` so the compiled tier can
    fold the same forcing into its generated register reads.
    """

    def __init__(self, reg: int, mask: int, stuck_one: bool) -> None:
        super().__init__()
        self.stuck = (reg, mask, stuck_one)
        self._fault_reg = reg
        self._fault_mask = mask
        self._fault_one = stuck_one

    def _force(self, value: int) -> int:
        if self._fault_one:
            return value | self._fault_mask
        return value & ~self._fault_mask

    def read(self, num: int) -> int:
        value = super().read(num)
        if num == self._fault_reg:
            value = self._force(value)
        return value

    def raw_read(self, num: int) -> int:
        value = super().raw_read(num)
        if num == self._fault_reg:
            value = self._force(value)
        return value


class FPRegisterFile:
    """Floating-point register file.

    The Scale4Edge coverage metric counts FPR accesses; full IEEE-754
    arithmetic is out of scope for the RV32IMC demonstrators, so values are
    stored as raw 32-bit bit patterns and the file exists primarily to give
    the F-extension load/store/move subset and the coverage metric a real
    register model to observe.
    """

    __slots__ = ("_regs",)

    def __init__(self) -> None:
        self._regs: List[int] = [0] * NUM_FPRS

    def read(self, num: int) -> int:
        return self._regs[num]

    def write(self, num: int, value: int) -> None:
        self._regs[num] = value & WORD_MASK

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(self._regs)

    def restore(self, values) -> None:
        if len(values) != NUM_FPRS:
            raise ValueError("snapshot must contain exactly 32 values")
        self._regs = [v & WORD_MASK for v in values]

    def reset(self) -> None:
        self._regs = [0] * NUM_FPRS

    def __getitem__(self, num: int) -> int:
        return self.read(num)

    def __setitem__(self, num: int, value: int) -> None:
        self.write(num, value)
