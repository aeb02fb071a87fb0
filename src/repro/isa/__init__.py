"""RISC-V ISA model: encodings, decoder, register files, CSRs.

Public surface:

* :class:`IsaConfig` / :class:`Decoder` — ISA subset configuration and the
  decodetree-style decoder built from it; :func:`decode_cache_stats`
  reports the decode memo its instances share.
* :class:`RegisterFile` / :class:`FPRegisterFile` / :class:`CsrFile` — the
  architectural state with access tracing for the coverage metric.
* :func:`encode` / :func:`disassemble` — mnemonic-level encode and decode.
"""

from .csr import (
    CSR_ADDRS,
    CSR_NAMES,
    CsrFile,
    IllegalCsrError,
)
from .decoder import (
    RV32I,
    RV32IM,
    RV32IMC,
    RV32IMC_ZICSR,
    RV32IMCF_ZICSR,
    Decoder,
    IllegalInstructionError,
    IsaConfig,
    available_modules,
    decode_cache_stats,
    register_extension,
)
from .disasm import disassemble
from .encoder import EncodingError, encode
from .fields import WORD_MASK, XLEN, sign_extend, to_signed, to_unsigned
from .registers import (
    ABI_NAMES,
    FPRegisterFile,
    RegisterFile,
    gpr_name,
    parse_fpr,
    parse_gpr,
)
from .spec import SYNTAX_OPERANDS, Decoded, InstructionSpec

__all__ = [
    "ABI_NAMES",
    "CSR_ADDRS",
    "CSR_NAMES",
    "CsrFile",
    "Decoded",
    "Decoder",
    "EncodingError",
    "FPRegisterFile",
    "IllegalCsrError",
    "IllegalInstructionError",
    "InstructionSpec",
    "IsaConfig",
    "RegisterFile",
    "RV32I",
    "RV32IM",
    "RV32IMC",
    "RV32IMC_ZICSR",
    "RV32IMCF_ZICSR",
    "SYNTAX_OPERANDS",
    "WORD_MASK",
    "XLEN",
    "available_modules",
    "decode_cache_stats",
    "disassemble",
    "encode",
    "gpr_name",
    "parse_fpr",
    "parse_gpr",
    "register_extension",
    "sign_extend",
    "to_signed",
    "to_unsigned",
]
