"""A two-pass RISC-V assembler targeting the :class:`~repro.asm.Program`
image format.

Supported surface:

* all instructions of the configured :class:`~repro.isa.IsaConfig`
  (including compressed mnemonics and registered extensions),
* the standard pseudo-instructions (``li``, ``la``, ``mv``, ``call``,
  ``ret``, ``beqz`` ...),
* labels, ``.text``/``.data`` sections, data directives (``.word``,
  ``.half``, ``.byte``, ``.ascii``, ``.asciz``, ``.zero``, ``.space``,
  ``.align``), constants via ``.equ``/``.set``,
* expressions with ``+``/``-``, ``%hi()``/``%lo()``, character literals.

Branch/jump operands that mention a symbol are pc-relative targets; bare
numeric operands are raw offsets (matching GNU as behaviour for ``beq x1,
x2, 12``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.csr import CSR_ADDRS
from ..isa.decoder import Decoder, IsaConfig, RV32IMC_ZICSR
from ..isa.encoder import EncodingError, encode, operand_roles
from ..isa.registers import parse_fpr, parse_gpr
from .program import Program

DEFAULT_TEXT_BASE = 0x8000_0000

_MEM_SYNTAXES = frozenset({
    "LOAD", "STORE", "FLOAD", "FSTORE",
    "CLOAD", "CSTORE", "CFLOAD", "CFSTORE",
})
_SP_MEM_SYNTAXES = frozenset({"CLSP", "CSSP", "CFLSP", "CFSSP"})
_PCREL_SYNTAXES = frozenset({"BRANCH", "J", "CJ", "CBZ"})

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_IDENT_RE = re.compile(r"[A-Za-z_.$][\w.$]*")


class AsmError(Exception):
    """An assembly-time error, annotated with the source line."""

    def __init__(self, message: str, line_no: Optional[int] = None,
                 line: str = "") -> None:
        location = f"line {line_no}: " if line_no is not None else ""
        suffix = f"\n    {line.strip()}" if line else ""
        super().__init__(f"{location}{message}{suffix}")
        self.line_no = line_no


@dataclass
class _Item:
    """One assembled unit: an instruction or a data directive."""

    kind: str                      # insn | word | half | byte | bytes | zero | align
    section: str
    line_no: int
    line: str
    mnemonic: str = ""
    args: List[str] = field(default_factory=list)
    exprs: List[str] = field(default_factory=list)
    blob: bytes = b""
    count: int = 0                 # for zero / align
    size: int = 0                  # filled in pass 1
    addr: int = 0                  # filled in pass 1


def _split_operands(text: str) -> List[str]:
    """Split an operand string on top-level commas (parens protected)."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _strip_comment(line: str) -> str:
    """``line`` up to its earliest comment marker (``#``, ``//`` or
    ``;``) outside a double-quoted string and a ``'x'`` character
    literal (the one character form expressions accept)."""
    if '"' not in line and "'" not in line:
        cut = len(line)
        for marker in ("#", "//", ";"):
            i = line.find(marker, 0, cut)
            if i >= 0:
                cut = i
        return line[:cut]
    in_string = False
    i = 0
    end = len(line)
    while i < end:
        ch = line[i]
        if in_string:
            if ch == "\\":
                i += 1  # the escaped character is data
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "'" and line[i + 2:i + 3] == "'":
            i += 2  # a character literal is one unit
        elif ch == "#" or ch == ";" or line.startswith("//", i):
            return line[:i]
        i += 1
    return line


def _parse_string_literal(text: str, line_no: int, line: str) -> bytes:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AsmError("expected a double-quoted string", line_no, line)
    body = text[1:-1]
    out = bytearray()
    i = 0
    escapes = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, '"': 34}
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body) or body[i] not in escapes:
                raise AsmError(f"bad escape in string: \\{body[i:i+1]}",
                               line_no, line)
            out.append(escapes[body[i]])
        else:
            out.append(ord(ch))
        i += 1
    return bytes(out)


class Assembler:
    """Assembles source text for one ISA configuration.

    The instance is reusable; each :meth:`assemble` call is independent.
    """

    def __init__(
        self,
        isa: IsaConfig = RV32IMC_ZICSR,
        text_base: int = DEFAULT_TEXT_BASE,
        data_base: Optional[int] = None,
    ) -> None:
        self.isa = isa
        self.decoder = Decoder(isa)
        self.text_base = text_base
        self.data_base = data_base

    # ------------------------------------------------------------------

    def assemble(self, source: str) -> Program:
        items, labels_by_item, constants = self._parse(source)
        symbols = self._layout(items, labels_by_item, constants)
        segments = self._emit(items, symbols)
        entry = symbols.get("_start", self.text_base)
        return Program(segments, entry, symbols, self.isa.name)

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    def _parse(self, source: str):
        items: List[_Item] = []
        pending_labels: List[str] = []
        labels_by_item: List[Tuple[str, int, str]] = []  # (label, item index, section)
        constants: Dict[str, int] = {}
        section = "text"

        def flush_labels() -> None:
            for label in pending_labels:
                labels_by_item.append((label, len(items), section))
            pending_labels.clear()

        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw).strip()
            while True:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                pending_labels.append(match.group(1))
                line = line[match.end():].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            head = head.strip()
            rest = rest.strip()
            if head.startswith("."):
                handled = self._parse_directive(
                    head, rest, line_no, raw, items, constants,
                    section, flush_labels,
                )
                if handled == "text" or handled == "data":
                    section = handled
                continue
            flush_labels()
            for mnemonic, args in self._expand_pseudo(head.lower(), rest,
                                                      line_no, raw):
                items.append(_Item(
                    kind="insn", section=section, line_no=line_no, line=raw,
                    mnemonic=mnemonic, args=args,
                ))
        # Labels at end of file attach to the end address.
        for label in pending_labels:
            labels_by_item.append((label, len(items), section))
        return items, labels_by_item, constants

    def _parse_directive(self, head, rest, line_no, raw, items, constants,
                         section, flush_labels) -> Optional[str]:
        name = head.lower()
        if name == ".text":
            flush_labels()
            return "text"
        if name in (".data", ".bss", ".rodata", ".section"):
            flush_labels()
            return "text" if ".text" in rest else "data" \
                if name == ".section" else "data"
        if name in (".globl", ".global", ".type", ".size", ".option",
                    ".file", ".attribute", ".p2align"):
            return None  # accepted and ignored
        if name in (".equ", ".set"):
            parts = _split_operands(rest)
            if len(parts) != 2:
                raise AsmError(f"{name} needs `name, value`", line_no, raw)
            constants[parts[0]] = self._eval(parts[1], constants, None,
                                             line_no, raw)
            return None
        flush_labels()
        if name in (".word", ".half", ".byte"):
            items.append(_Item(kind=name[1:], section=section,
                               line_no=line_no, line=raw,
                               exprs=_split_operands(rest)))
        elif name in (".ascii", ".asciz", ".string"):
            blob = _parse_string_literal(rest, line_no, raw)
            if name in (".asciz", ".string"):
                blob += b"\x00"
            items.append(_Item(kind="bytes", section=section,
                               line_no=line_no, line=raw, blob=blob))
        elif name in (".zero", ".space"):
            count = self._eval(rest, constants, None, line_no, raw)
            if count < 0:
                raise AsmError(f"negative {name} count", line_no, raw)
            items.append(_Item(kind="zero", section=section, line_no=line_no,
                               line=raw, count=count))
        elif name in (".align", ".balign"):
            value = self._eval(rest, constants, None, line_no, raw)
            boundary = value if name == ".balign" else (1 << value)
            items.append(_Item(kind="align", section=section,
                               line_no=line_no, line=raw, count=boundary))
        else:
            raise AsmError(f"unknown directive {head}", line_no, raw)
        return None

    # ------------------------------------------------------------------
    # Pseudo-instruction expansion
    # ------------------------------------------------------------------

    def _expand_pseudo(self, name: str, rest: str, line_no: int,
                       raw: str) -> List[Tuple[str, List[str]]]:
        args = _split_operands(rest) if rest else []

        def need(count: int) -> None:
            if len(args) != count:
                raise AsmError(f"{name} expects {count} operands", line_no, raw)

        simple = {
            "nop": [("addi", ["zero", "zero", "0"])],
            "ret": [("jalr", ["zero", "ra", "0"])],
        }
        if name in simple:
            need(0)
            return simple[name]
        if name == "li":
            need(2)
            return self._expand_li(args[0], args[1])
        if name == "la":
            need(2)
            return [
                ("lui", [args[0], f"%hi({args[1]})"]),
                ("addi", [args[0], args[0], f"%lo({args[1]})"]),
            ]
        if name == "mv":
            need(2)
            return [("addi", [args[0], args[1], "0"])]
        if name == "not":
            need(2)
            return [("xori", [args[0], args[1], "-1"])]
        if name == "neg":
            need(2)
            return [("sub", [args[0], "zero", args[1]])]
        if name == "seqz":
            need(2)
            return [("sltiu", [args[0], args[1], "1"])]
        if name == "snez":
            need(2)
            return [("sltu", [args[0], "zero", args[1]])]
        if name == "sltz":
            need(2)
            return [("slt", [args[0], args[1], "zero"])]
        if name == "sgtz":
            need(2)
            return [("slt", [args[0], "zero", args[1]])]
        branch_zero = {
            "beqz": ("beq", False), "bnez": ("bne", False),
            "bgez": ("bge", False), "bltz": ("blt", False),
            "blez": ("bge", True), "bgtz": ("blt", True),
        }
        if name in branch_zero:
            need(2)
            base, swapped = branch_zero[name]
            ops = (["zero", args[0]] if swapped else [args[0], "zero"])
            return [(base, ops + [args[1]])]
        branch_swap = {
            "bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu",
        }
        if name in branch_swap:
            need(3)
            return [(branch_swap[name], [args[1], args[0], args[2]])]
        if name == "j":
            need(1)
            return [("jal", ["zero", args[0]])]
        if name == "jal" and len(args) == 1:
            return [("jal", ["ra", args[0]])]
        if name == "jr":
            need(1)
            return [("jalr", ["zero", args[0], "0"])]
        if name == "jalr" and len(args) == 1:
            return [("jalr", ["ra", args[0], "0"])]
        if name == "call":
            need(1)
            return [("jal", ["ra", args[0]])]
        if name == "tail":
            need(1)
            return [("jal", ["zero", args[0]])]
        if name == "csrr":
            need(2)
            return [("csrrs", [args[0], args[1], "zero"])]
        if name in ("csrw", "csrs", "csrc"):
            need(2)
            base = {"csrw": "csrrw", "csrs": "csrrs", "csrc": "csrrc"}[name]
            return [(base, ["zero", args[0], args[1]])]
        if name in ("csrwi", "csrsi", "csrci"):
            need(2)
            base = {"csrwi": "csrrwi", "csrsi": "csrrsi",
                    "csrci": "csrrci"}[name]
            return [(base, ["zero", args[0], args[1]])]
        if name in ("rdcycle", "rdtime", "rdinstret"):
            need(1)
            return [("csrrs", [args[0], name[2:], "zero"])]
        if name == "fmv.s":
            need(2)
            return [("fsgnj.s", [args[0], args[1], args[1]])]
        # Not a pseudo: must be a real mnemonic of the configured ISA.
        if name not in self.decoder.spec_by_name:
            raise AsmError(
                f"unknown mnemonic {name!r} for {self.isa.name}", line_no, raw
            )
        return [(name, args)]

    def _expand_li(self, rd: str, expr: str) -> List[Tuple[str, List[str]]]:
        text = expr.strip()
        try:
            if len(text) == 3 and text[0] == text[-1] == "'":
                value = ord(text[1])  # a character literal is a constant
            else:
                value = int(text, 0)
        except ValueError:
            # Symbolic: always the full two-instruction form.
            return [
                ("lui", [rd, f"%hi({expr})"]),
                ("addi", [rd, rd, f"%lo({expr})"]),
            ]
        value &= 0xFFFFFFFF
        signed = value - (1 << 32) if value >= (1 << 31) else value
        if -2048 <= signed < 2048:
            return [("addi", [rd, "zero", str(signed)])]
        hi = ((value + 0x800) >> 12) & 0xFFFFF
        lo = value - ((hi << 12) & 0xFFFFFFFF)
        lo = lo - (1 << 32) if lo >= (1 << 31) else lo
        return [
            ("lui", [rd, str(hi)]),
            ("addi", [rd, rd, str(lo)]),
        ]

    # ------------------------------------------------------------------
    # Pass 1: layout
    # ------------------------------------------------------------------

    def _item_size(self, item: _Item, addr: int) -> int:
        if item.kind == "insn":
            spec = self.decoder.spec_by_name[item.mnemonic]
            return spec.length
        if item.kind == "word":
            return 4 * len(item.exprs)
        if item.kind == "half":
            return 2 * len(item.exprs)
        if item.kind == "byte":
            return len(item.exprs)
        if item.kind == "bytes":
            return len(item.blob)
        if item.kind == "zero":
            return item.count
        if item.kind == "align":
            boundary = item.count
            if boundary <= 0 or boundary & (boundary - 1):
                raise AsmError("alignment must be a power of two",
                               item.line_no, item.line)
            return (-addr) % boundary
        raise AsmError(f"internal: unknown item kind {item.kind}",
                       item.line_no, item.line)

    def _layout(self, items: List[_Item], labels_by_item, constants):
        text_addr = self.text_base
        for item in items:
            if item.section != "text":
                continue
            item.addr = text_addr
            item.size = self._item_size(item, text_addr)
            text_addr += item.size
        data_addr = self.data_base
        if data_addr is None:
            data_addr = (text_addr + 15) & ~15
        for item in items:
            if item.section != "data":
                continue
            item.addr = data_addr
            item.size = self._item_size(item, data_addr)
            data_addr += item.size
        end_addr = {"text": text_addr, "data": data_addr}
        symbols = dict(constants)
        for label, index, section in labels_by_item:
            if label in symbols:
                raise AsmError(f"duplicate label {label!r}")
            for item in items[index:]:
                if item.section == section:
                    symbols[label] = item.addr
                    break
            else:
                symbols[label] = end_addr[section]
        return symbols

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, text: str, symbols: Dict[str, int], pc: Optional[int],
              line_no: int, line: str) -> int:
        return self._eval_inner(text.strip(), symbols, pc, line_no, line)

    def _eval_inner(self, text, symbols, pc, line_no, line) -> int:
        if not text:
            raise AsmError("empty expression", line_no, line)
        lowered = text.lower()
        if lowered.startswith("%hi(") and text.endswith(")"):
            value = self._eval_inner(text[4:-1], symbols, pc, line_no, line)
            return ((value + 0x800) >> 12) & 0xFFFFF
        if lowered.startswith("%lo(") and text.endswith(")"):
            value = self._eval_inner(text[4:-1], symbols, pc, line_no, line)
            lo = value & 0xFFF
            return lo - 0x1000 if lo >= 0x800 else lo
        # Binary +/- at top level, left-associative: scan from the right so
        # "a-b+c" parses as (a-b)+c.
        depth = 0
        for i in range(len(text) - 1, 0, -1):
            ch = text[i]
            if ch == ")":
                depth += 1
            elif ch == "(":
                depth -= 1
            elif depth == 0 and ch in "+-" and text[i - 1] not in "+-*(":
                left = text[:i].strip()
                right = text[i + 1:].strip()
                if left and not left.endswith("%"):
                    lhs = self._eval_inner(left, symbols, pc, line_no, line)
                    rhs = self._eval_inner(right, symbols, pc, line_no, line)
                    return lhs + rhs if ch == "+" else lhs - rhs
        if text == ".":
            if pc is None:
                raise AsmError("`.` not allowed here", line_no, line)
            return pc
        if len(text) == 3 and text[0] == "'" and text[-1] == "'":
            return ord(text[1])
        try:
            return int(text, 0)
        except ValueError:
            pass
        if _IDENT_RE.fullmatch(text):
            if text in symbols:
                return symbols[text]
            raise AsmError(f"undefined symbol {text!r}", line_no, line)
        raise AsmError(f"cannot evaluate expression {text!r}", line_no, line)

    @staticmethod
    def _mentions_symbol(text: str) -> bool:
        stripped = re.sub(r"%(hi|lo)\(", "(", text)
        for token in _IDENT_RE.findall(stripped):
            if not re.fullmatch(r"0[xXbBoO]?\w*|\d\w*", token):
                return True
        return False

    # ------------------------------------------------------------------
    # Pass 2: emission
    # ------------------------------------------------------------------

    def _encode_insn(self, item: _Item, symbols: Dict[str, int]) -> bytes:
        spec = self.decoder.spec_by_name[item.mnemonic]
        roles = operand_roles(spec)
        args = list(item.args)
        syntax = spec.syntax
        # Re-split memory operands: "imm(rs1)" -> imm, rs1.
        if syntax in _MEM_SYNTAXES and len(args) == len(roles) - 1:
            match = re.fullmatch(r"(.*)\((\s*[\w$.]+\s*)\)", args[-1].strip())
            if not match:
                raise AsmError(f"{item.mnemonic} needs `reg, imm(base)`",
                               item.line_no, item.line)
            offset = match.group(1).strip() or "0"
            args = args[:-1] + [offset, match.group(2).strip()]
        if syntax in _SP_MEM_SYNTAXES:
            match = re.fullmatch(r"(.*)\(\s*(?:sp|x2)\s*\)", args[-1].strip())
            if match:
                args = args[:-1] + [match.group(1).strip() or "0"]
        if len(args) != len(roles):
            raise AsmError(
                f"{item.mnemonic} expects operands {roles}, got {args}",
                item.line_no, item.line,
            )
        values: List[int] = []
        for role, arg in zip(roles, args):
            if role in ("rd", "rs1", "rs2"):
                try:
                    values.append(parse_gpr(arg))
                except KeyError as exc:
                    raise AsmError(str(exc), item.line_no, item.line) from None
            elif role in ("frd", "frs1", "frs2"):
                try:
                    values.append(parse_fpr(arg))
                except KeyError as exc:
                    raise AsmError(str(exc), item.line_no, item.line) from None
            elif role == "csr":
                if arg.lower() in CSR_ADDRS:
                    values.append(CSR_ADDRS[arg.lower()])
                else:
                    values.append(self._eval(arg, symbols, item.addr,
                                             item.line_no, item.line))
            elif role == "imm":
                value = self._eval(arg, symbols, item.addr,
                                   item.line_no, item.line)
                if (syntax in _PCREL_SYNTAXES or spec.name == "jal") and \
                        self._mentions_symbol(arg):
                    value -= item.addr
                values.append(value)
            else:
                raise AsmError(f"internal: unknown role {role}",
                               item.line_no, item.line)
        try:
            word = encode(self.decoder, item.mnemonic, *values)
        except EncodingError as exc:
            raise AsmError(str(exc), item.line_no, item.line) from None
        return word.to_bytes(spec.length, "little")

    def _emit(self, items: List[_Item], symbols) -> List[Tuple[int, bytes]]:
        chunks: Dict[str, bytearray] = {"text": bytearray(), "data": bytearray()}
        bases: Dict[str, Optional[int]] = {"text": None, "data": None}
        for item in items:
            buf = chunks[item.section]
            if bases[item.section] is None:
                bases[item.section] = item.addr
            if item.kind == "insn":
                buf += self._encode_insn(item, symbols)
            elif item.kind in ("word", "half", "byte"):
                width = {"word": 4, "half": 2, "byte": 1}[item.kind]
                for expr in item.exprs:
                    value = self._eval(expr, symbols, item.addr,
                                       item.line_no, item.line)
                    buf += (value & ((1 << (8 * width)) - 1)).to_bytes(
                        width, "little")
            elif item.kind == "bytes":
                buf += item.blob
            elif item.kind in ("zero", "align"):
                buf += bytes(item.size)
        segments = []
        for section, buf in chunks.items():
            if buf:
                segments.append((bases[section], bytes(buf)))
        return segments


def assemble(source: str, isa: IsaConfig = RV32IMC_ZICSR,
             text_base: int = DEFAULT_TEXT_BASE,
             data_base: Optional[int] = None) -> Program:
    """Convenience one-shot assembly."""
    return Assembler(isa, text_base, data_base).assemble(source)
