"""ISA configuration and the decodetree-style instruction decoder.

The decoder is built from the spec tables of the ISA modules named in an
:class:`IsaConfig`.  Like QEMU's DecodeTree output, lookup is structured:
32-bit words are bucketed by major opcode and compressed halfwords by
(quadrant, funct3); within a bucket, candidates are ordered most-specific
mask first, so overlapping encodings (``c.ebreak`` / ``c.jalr`` / ``c.add``)
resolve deterministically.  Additional ISA modules (such as the Scale4Edge
BMI extension, :mod:`repro.bmi`) register their tables at import time via
:func:`register_extension`.

Decoding is pure in the word, so every :class:`Decoder` of one module set
shares a single decode memo (see :data:`DECODE_MEMO_MAX_ENTRIES` and
:func:`decode_cache_stats`): a word any machine, assembler or corpus
builder of the process has decoded is a dict lookup for all the others.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .rv32c import RV32C_SPECS, RV32CF_SPECS
from .rv32i import RV32F_SPECS, RV32I_SPECS, RV32M_SPECS, ZICSR_SPECS
from .spec import Decoded, InstructionSpec

#: Registered spec tables, keyed by ISA module name.
_EXTENSION_TABLES: Dict[str, List[InstructionSpec]] = {
    "I": RV32I_SPECS,
    "M": RV32M_SPECS,
    "C": RV32C_SPECS,
    "Zicsr": ZICSR_SPECS,
    "F": RV32F_SPECS,
}

#: Tables only active when *all* listed modules are configured.
_CONDITIONAL_TABLES: List[Tuple[FrozenSet[str], List[InstructionSpec]]] = [
    (frozenset({"C", "F"}), RV32CF_SPECS),
]

#: Entries one shared decode memo keeps before it is cleared, the way a
#: full TB cache is: above the verify working set (``torture:150``
#: decodes about 18k distinct words), yet bounded for long fuzz sessions
#: and ``repro serve``.
DECODE_MEMO_MAX_ENTRIES = 65536

#: The decode memo of each module set, shared by every :class:`Decoder`
#: built for it: word (or compressed low halfword) -> :class:`Decoded`.
#: Entries are shared, so nothing may change a ``Decoded`` after decode.
#: No lock: a dict get or set is atomic under the GIL, two threads racing
#: on one word store equal objects, and forked workers inherit the memo.
_MEMOS: Dict[FrozenSet[str], Dict[int, Decoded]] = {}
_memo_misses = 0
_memo_evictions = 0


def register_extension(name: str, specs: List[InstructionSpec]) -> None:
    """Register an additional ISA module's spec table under ``name``.

    Re-registering the same name replaces the table (useful in tests).
    Registration starts a new memo generation: decoders built before it
    keep their memo, decoders built after it share a fresh one, so a
    word decoded under the old tables never answers for the new ones.
    """
    _EXTENSION_TABLES[name] = list(specs)
    _MEMOS.clear()


def decode_cache_stats() -> Dict[str, int]:
    """Counters of the shared decode memos: ``entries`` (current
    generation), ``misses`` and ``evictions``.

    They depend on everything this process decoded before, so they are
    kept out of job results and published only as
    ``vp.isa.decode_cache.*`` telemetry gauges.  Like the memo they take
    no lock: threads decoding new words at once may lose an increment.
    """
    return {"entries": sum(len(memo) for memo in list(_MEMOS.values())),
            "misses": _memo_misses, "evictions": _memo_evictions}


def available_modules() -> List[str]:
    """Names of all registered ISA modules."""
    return sorted(_EXTENSION_TABLES)


class IllegalInstructionError(Exception):
    """Raised when a word does not decode under the configured ISA."""

    def __init__(self, word: int, pc: Optional[int] = None) -> None:
        location = f" at pc={pc:#010x}" if pc is not None else ""
        super().__init__(f"illegal instruction {word:#010x}{location}")
        self.word = word
        self.pc = pc


class IsaConfig:
    """An ISA subset configuration, e.g. RV32IMC with Zicsr.

    The Scale4Edge fault-analysis platform "scales to different RISC-V ISA
    standard subset configurations"; this object is the single source of
    truth for which instruction tables, registers and misa bits exist.
    """

    def __init__(self, modules: Iterable[str]) -> None:
        modules = frozenset(modules)
        if "I" not in modules:
            raise ValueError("the base module 'I' is mandatory")
        unknown = modules - set(_EXTENSION_TABLES)
        if unknown:
            raise ValueError(
                f"unknown ISA modules: {sorted(unknown)}; "
                f"registered: {available_modules()}"
            )
        self.modules: FrozenSet[str] = modules

    @classmethod
    def from_string(cls, text: str) -> "IsaConfig":
        """Parse names like ``rv32imc``, ``RV32IMC_Zicsr`` or ``rv32i_zbb``.

        Single letters after the ``rv32`` prefix are standard modules; longer
        ``Z...`` names are separated by underscores.  ``G`` expands to IM +
        Zicsr (the A/F/D parts of G beyond our F subset are not modelled).
        """
        text = text.strip()
        lowered = text.lower()
        if lowered.startswith("rv32"):
            lowered = lowered[4:]
        parts = [p for p in lowered.split("_") if p]
        if not parts:
            raise ValueError(f"cannot parse ISA string {text!r}")
        modules = set()
        for letter in parts[0]:
            if letter == "g":
                modules.update({"I", "M", "Zicsr"})
            else:
                modules.add(letter.upper())
        registered_lower = {name.lower(): name for name in _EXTENSION_TABLES}
        for part in parts[1:]:
            if part in registered_lower:
                modules.add(registered_lower[part])
            else:
                modules.add(part.capitalize())
        return cls(modules)

    @property
    def name(self) -> str:
        letters = "".join(
            m for m in "IEMAFDQC" if m in self.modules
        )
        extras = sorted(m for m in self.modules if len(m) > 1)
        return "RV32" + letters + "".join(f"_{m}" for m in extras)

    @property
    def has_compressed(self) -> bool:
        return "C" in self.modules

    def __contains__(self, module: str) -> bool:
        return module in self.modules

    def __eq__(self, other) -> bool:
        return isinstance(other, IsaConfig) and self.modules == other.modules

    def __hash__(self) -> int:
        return hash(self.modules)

    def __repr__(self) -> str:
        return f"IsaConfig({self.name})"


RV32I = IsaConfig({"I"})
RV32IM = IsaConfig({"I", "M"})
RV32IMC = IsaConfig({"I", "M", "C"})
RV32IMC_ZICSR = IsaConfig({"I", "M", "C", "Zicsr"})
RV32IMCF_ZICSR = IsaConfig({"I", "M", "C", "F", "Zicsr"})


def _mask_popcount(spec: InstructionSpec) -> int:
    return bin(spec.mask).count("1")


class Decoder:
    """Decodes raw instruction words for a given :class:`IsaConfig`."""

    def __init__(self, config: IsaConfig) -> None:
        self.config = config
        self.specs: List[InstructionSpec] = []
        for module in sorted(config.modules):
            self.specs.extend(_EXTENSION_TABLES[module])
        for required, table in _CONDITIONAL_TABLES:
            if required <= config.modules:
                self.specs.extend(table)
        self.spec_by_name: Dict[str, InstructionSpec] = {
            spec.name: spec for spec in self.specs
        }
        self._buckets32: Dict[int, List[InstructionSpec]] = {}
        self._buckets16: Dict[int, List[InstructionSpec]] = {}
        for spec in self.specs:
            if spec.length == 4:
                self._buckets32.setdefault(spec.match & 0x7F, []).append(spec)
            else:
                key = (spec.match & 0x3) | (((spec.match >> 13) & 0x7) << 2)
                self._buckets16.setdefault(key, []).append(spec)
        for bucket in self._buckets32.values():
            bucket.sort(key=_mask_popcount, reverse=True)
        for bucket in self._buckets16.values():
            bucket.sort(key=_mask_popcount, reverse=True)
        self._memo = _MEMOS.setdefault(config.modules, {})

    def decode(self, word: int, pc: Optional[int] = None) -> Decoded:
        """Decode ``word`` (32 bits fetched; low 16 used if compressed).

        Raises :class:`IllegalInstructionError` when nothing matches.
        Results are memoized process-wide per module set: decoding is
        pure in the word value, so ``pc`` only labels the error.
        """
        global _memo_misses, _memo_evictions
        if word & 0x3 == 0x3:
            key = word
        else:
            key = word & 0xFFFF
        memo = self._memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        _memo_misses += 1
        decoded = self._decode_uncached(key, pc)
        if len(memo) >= DECODE_MEMO_MAX_ENTRIES:
            _memo_evictions += len(memo)
            memo.clear()
        memo[key] = decoded
        return decoded

    def _decode_uncached(self, word: int, pc: Optional[int]) -> Decoded:
        if word & 0x3 == 0x3:
            bucket = self._buckets32.get(word & 0x7F, ())
            for spec in bucket:
                if (word & spec.mask) == spec.match:
                    return spec.decode(spec, word)
            raise IllegalInstructionError(word, pc)
        # Compressed encoding space.
        if not self.config.has_compressed:
            raise IllegalInstructionError(word, pc)
        if word == 0:
            # The all-zero halfword is defined illegal (guards erased flash).
            raise IllegalInstructionError(word, pc)
        key = (word & 0x3) | (((word >> 13) & 0x7) << 2)
        for spec in self._buckets16.get(key, ()):
            if (word & spec.mask) == spec.match:
                decoded = spec.decode(spec, word)
                if spec.name == "c.addi4spn" and decoded.imm == 0:
                    raise IllegalInstructionError(word, pc)
                return decoded
        raise IllegalInstructionError(word, pc)

    def try_decode(self, word: int) -> Optional[Decoded]:
        """Like :meth:`decode` but returns ``None`` instead of raising."""
        try:
            return self.decode(word)
        except IllegalInstructionError:
            return None

    def clear_cache(self) -> None:
        """Empty the memo this decoder shares with its module set."""
        self._memo.clear()

    def __repr__(self) -> str:
        return f"Decoder({self.config.name}, {len(self.specs)} specs)"
