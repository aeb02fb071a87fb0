"""Torture-style random test program generator.

Like the RISC-V Torture generator, emits long random-but-safe instruction
sequences: every register is fair game, memory accesses stay inside a
dedicated scratch arena, branches only jump forward, and the program always
terminates with an exit code.  Random programs push *register* coverage to
100 % quickly while leaving rare system instructions untouched — the
coverage trade-off the Scale4Edge coverage analysis reports for Torture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..asm import Program, assemble
from ..isa.decoder import IsaConfig, RV32IMC_ZICSR
from ..isa.registers import gpr_name
from ..isa.registers import FPR_ABI_NAMES

#: Register reserved as the scratch-memory base pointer.  x8 (s0) is chosen
#: because the compressed load/store forms require an x8..x15 base.
BASE_REG = 8

#: Instructions never emitted: they trap, halt, or jump unpredictably.
UNSAFE = frozenset({
    "ecall", "ebreak", "c.ebreak", "wfi", "mret", "jalr", "c.jr", "c.jalr",
    "jal", "c.jal",  # direct calls handled via the label mechanism below
    "c.j",
})

SCRATCH_SIZE = 1024

#: Destination registers: every GPR but the base register (x0 included:
#: writes are architectural no-ops).
_DEST_REGS = tuple(i for i in range(32) if i != BASE_REG)
#: Destinations of the compressed forms that reserve x0 (c.li, c.slli,
#: c.mv, c.add) and of c.lui, which also reserves x2.
_NONZERO_DEST_REGS = tuple(i for i in range(1, 32) if i != BASE_REG)
_LUI_DEST_REGS = tuple(i for i in range(3, 32) if i != BASE_REG)

#: Instruction formats the ALU emitter draws from, in draw-pool order.
_ALU_SYNTAXES = ("R", "I", "SHIFT", "U", "R2", "CR", "CI", "FR", "FMVX",
                 "FMVF")


@dataclass
class TortureConfig:
    """Knobs for the random generator."""

    length: int = 500               # number of random instructions
    seed: int = 0
    branch_probability: float = 0.1
    memory_probability: float = 0.2
    csr_probability: float = 0.02
    fp_probability: float = 0.1


class TortureGenerator:
    """Seeded random program generator for one ISA configuration."""

    def __init__(self, isa: IsaConfig = RV32IMC_ZICSR,
                 config: Optional[TortureConfig] = None) -> None:
        from ..isa.decoder import Decoder

        self.isa = isa
        self.config = config or TortureConfig()
        self.decoder = Decoder(isa)
        by_syntax = {}
        for spec in self.decoder.specs:
            if spec.name in UNSAFE:
                continue
            by_syntax.setdefault(spec.syntax, []).append(spec)
        # The draw pools, built once: every program draws from them.
        self._alu_pool = [
            (syntax, spec) for syntax in _ALU_SYNTAXES
            for spec in by_syntax.get(syntax, [])
            if not spec.reads_mem and not spec.writes_mem
            and not spec.is_branch and not spec.is_jump
            and spec.module != "Zicsr"]
        self._memory_pool = [spec for spec in self.decoder.specs
                             if (spec.reads_mem or spec.writes_mem)
                             and spec.name not in UNSAFE]
        self._branch_pool = by_syntax.get("BRANCH", []) + \
            by_syntax.get("CBZ", [])

    # -- operand pickers ---------------------------------------------------

    def _any_reg(self, rng: random.Random) -> str:
        return gpr_name(rng.choice(_DEST_REGS))

    def _src_reg(self, rng: random.Random) -> str:
        return gpr_name(rng.choice(range(32)))

    def _prime_reg(self, rng: random.Random, allow_base: bool = False) -> str:
        low = 8 if allow_base else 9
        return gpr_name(rng.choice(range(low, 16)))

    def _fpr(self, rng: random.Random) -> str:
        return FPR_ABI_NAMES[rng.randrange(32)]

    def _prime_fpr(self, rng: random.Random) -> str:
        return FPR_ABI_NAMES[rng.randrange(8, 16)]

    # -- instruction emitters ------------------------------------------------

    def _emit_alu(self, rng: random.Random, lines: List[str]) -> None:
        if not self._alu_pool:
            return
        syntax, spec = rng.choice(self._alu_pool)
        if syntax == "R":
            lines.append(f"{spec.name} {self._any_reg(rng)}, "
                         f"{self._src_reg(rng)}, {self._src_reg(rng)}")
        elif syntax == "FR":
            lines.append(f"{spec.name} {self._fpr(rng)}, {self._fpr(rng)}, "
                         f"{self._fpr(rng)}")
        elif syntax == "FMVX":
            lines.append(f"{spec.name} {self._any_reg(rng)}, {self._fpr(rng)}")
        elif syntax == "FMVF":
            lines.append(f"{spec.name} {self._fpr(rng)}, {self._src_reg(rng)}")
        elif syntax == "I":
            lines.append(f"{spec.name} {self._any_reg(rng)}, "
                         f"{self._src_reg(rng)}, {rng.randint(-2048, 2047)}")
        elif syntax == "SHIFT":
            lines.append(f"{spec.name} {self._any_reg(rng)}, "
                         f"{self._src_reg(rng)}, {rng.randint(0, 31)}")
        elif syntax == "U":
            lines.append(f"{spec.name} {self._any_reg(rng)}, "
                         f"{rng.randint(0, (1 << 20) - 1)}")
        elif syntax == "R2":
            lines.append(f"{spec.name} {self._any_reg(rng)}, "
                         f"{self._src_reg(rng)}")
        elif syntax == "CR":
            if spec.name in ("c.mv", "c.add"):
                dst = gpr_name(rng.choice(_NONZERO_DEST_REGS))
                src = gpr_name(rng.randrange(1, 32))
                lines.append(f"{spec.name} {dst}, {src}")
            else:  # c.sub/c.xor/c.or/c.and
                lines.append(f"{spec.name} {self._prime_reg(rng)}, "
                             f"{self._prime_reg(rng, allow_base=True)}")
        elif syntax == "CI":
            self._emit_ci(rng, spec, lines)

    def _emit_ci(self, rng: random.Random, spec, lines: List[str]) -> None:
        name = spec.name
        if name == "c.addi":
            lines.append(f"c.addi {self._any_reg(rng)}, "
                         f"{rng.randint(-32, 31)}")
        elif name == "c.li":
            dst = gpr_name(rng.choice(_NONZERO_DEST_REGS))
            lines.append(f"c.li {dst}, {rng.randint(-32, 31)}")
        elif name == "c.lui":
            dst = gpr_name(rng.choice(_LUI_DEST_REGS))
            value = rng.choice([1, 2, 3, 30, 31])
            lines.append(f"c.lui {dst}, {value}")
        elif name in ("c.srli", "c.srai", "c.andi"):
            operand = rng.randint(1, 31) if name != "c.andi" else \
                rng.randint(-32, 31)
            lines.append(f"{name} {self._prime_reg(rng)}, {operand}")
        elif name == "c.slli":
            dst = gpr_name(rng.choice(_NONZERO_DEST_REGS))
            lines.append(f"c.slli {dst}, {rng.randint(1, 31)}")
        elif name == "c.addi16sp":
            pass  # touching sp would corrupt the (unused) stack; skip
        elif name == "c.addi4spn":
            lines.append(f"c.addi4spn {self._prime_reg(rng)}, "
                         f"{rng.randrange(4, 1024, 4)}")

    def _emit_memory(self, rng: random.Random, lines: List[str]) -> None:
        if not self._memory_pool:
            return
        spec = rng.choice(self._memory_pool)
        base = gpr_name(BASE_REG)
        name = spec.name
        if name in ("lb", "lbu", "sb"):
            offset = rng.randrange(0, SCRATCH_SIZE)
        elif name in ("lh", "lhu", "sh"):
            offset = rng.randrange(0, SCRATCH_SIZE, 2)
        elif name in ("c.lw", "c.sw", "c.flw", "c.fsw"):
            offset = rng.randrange(0, 128, 4)
        elif name in ("c.lwsp", "c.swsp", "c.flwsp", "c.fswsp"):
            return  # sp-relative: skip (sp is not the scratch base)
        else:
            offset = rng.randrange(0, SCRATCH_SIZE, 4)
        if name.startswith("c."):
            reg = self._prime_fpr(rng) if "f" in name.split(".")[1] else \
                self._prime_reg(rng)
            lines.append(f"{name} {reg}, {offset}({base})")
        elif name in ("flw", "fsw"):
            lines.append(f"{name} {self._fpr(rng)}, {offset}({base})")
        elif spec.writes_mem:
            lines.append(f"{name} {self._src_reg(rng)}, {offset}({base})")
        else:
            lines.append(f"{name} {self._any_reg(rng)}, {offset}({base})")

    def _emit_branch(self, rng: random.Random, lines: List[str],
                     label_counter: List[int]) -> None:
        if not self._branch_pool:
            return
        spec = rng.choice(self._branch_pool)
        label = f"t{label_counter[0]}"
        label_counter[0] += 1
        if spec.syntax == "CBZ":
            lines.append(f"{spec.name} {self._prime_reg(rng)}, {label}")
        else:
            lines.append(f"{spec.name} {self._src_reg(rng)}, "
                         f"{self._src_reg(rng)}, {label}")
        # A couple of filler instructions the branch may skip.
        for _ in range(rng.randint(1, 3)):
            lines.append(f"addi {self._any_reg(rng)}, "
                         f"{self._src_reg(rng)}, {rng.randint(-16, 16)}")
        lines.append(f"{label}:")

    def _emit_csr(self, rng: random.Random, lines: List[str]) -> None:
        if "Zicsr" not in self.isa.modules:
            return
        op = rng.choice(["csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi",
                         "csrrci"])
        if op.endswith("i"):
            lines.append(f"{op} {self._any_reg(rng)}, mscratch, "
                         f"{rng.randint(0, 31)}")
        else:
            lines.append(f"{op} {self._any_reg(rng)}, mscratch, "
                         f"{self._src_reg(rng)}")

    # -- top level -----------------------------------------------------------

    def generate_source(self, seed: Optional[int] = None) -> str:
        rng = random.Random(self.config.seed if seed is None else seed)
        lines = [
            ".text",
            "_start:",
            f"    la {gpr_name(BASE_REG)}, scratch",
        ]
        # Seed a few registers with interesting values.
        for reg in range(1, 8):
            lines.append(f"    li {gpr_name(reg)}, "
                         f"{rng.choice([0, 1, -1, 0x7FFFFFFF, -2048, 42])}")
        label_counter = [0]
        body: List[str] = []
        config = self.config
        for _ in range(config.length):
            roll = rng.random()
            if roll < config.branch_probability:
                self._emit_branch(rng, body, label_counter)
            elif roll < config.branch_probability + config.memory_probability:
                self._emit_memory(rng, body)
            elif roll < (config.branch_probability + config.memory_probability
                         + config.csr_probability):
                self._emit_csr(rng, body)
            else:
                self._emit_alu(rng, body)
        lines.extend("    " + line if not line.endswith(":") else line
                     for line in body)
        lines += [
            "    li a0, 0",
            "    li a7, 93",
            "    ecall",
            ".data",
            f"scratch: .zero {SCRATCH_SIZE}",
        ]
        return "\n".join(lines) + "\n"

    def generate(self, seed: Optional[int] = None) -> Program:
        return assemble(self.generate_source(seed), isa=self.isa)

    def generate_suite(self, count: int, start_seed: int = 0):
        """A list of (name, Program) pairs with consecutive seeds."""
        return [
            (f"torture-{start_seed + i:03d}", self.generate(start_seed + i))
            for i in range(count)
        ]
