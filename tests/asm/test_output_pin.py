"""Pin the assembler's output on every source the repo ships or generates.

The digest below covers the segments and entry point of each program the
repository assembles at fixed seeds: the BMI kernel pairs, the
demonstrators, the countermeasure variants, and the Torture, unit, arch
and structured suites.  A change to the assembler that moves one byte of
any of them changes the digest.  Update ``EXPECTED`` only for a change
that is meant to alter the output, and say why in the commit.
"""

import hashlib

from repro.asm import assemble
from repro.bmi import KERNELS, RV32IM_ZBB
from repro.core import demonstrators
from repro.faultsim.countermeasures import VARIANTS
from repro.isa import RV32I, RV32IMC_ZICSR, RV32IMCF_ZICSR
from repro.testgen import (ArchSuiteGenerator, StructuredGenerator,
                           TortureConfig, TortureGenerator,
                           UnitSuiteGenerator)

EXPECTED = "056b0f8e322608f965029661a95e0936"

SUITE_ISAS = (RV32I, RV32IMC_ZICSR, RV32IMCF_ZICSR)
TORTURE_SEEDS = range(12)
STRUCTURED_SEEDS = range(12)


def shipped_sources():
    """``(name, isa, source)`` for every program in the pinned set."""
    for kernel in KERNELS:
        yield f"bmi/{kernel.name}/baseline", RV32IM_ZBB, kernel.baseline_source
        yield f"bmi/{kernel.name}/bmi", RV32IM_ZBB, kernel.bmi_source
    for backdoor in (False, True):
        source = demonstrators._ACCESS_CONTROL_TEMPLATE.format(
            backdoor=demonstrators._BACKDOOR if backdoor else "",
            pin_bytes="49, 50, 51, 52")
        yield f"demo/access-control/{backdoor}", RV32IMC_ZICSR, source
    yield ("demo/sensor-node", RV32IMC_ZICSR,
           demonstrators._SENSOR_NODE_TEMPLATE.format(samples=16,
                                                      interval=100))
    for name, source in VARIANTS.items():
        yield f"countermeasure/{name}", RV32IMC_ZICSR, source
    for isa in SUITE_ISAS:
        for name, source in ArchSuiteGenerator(isa).generate_sources():
            yield f"{isa.name}/{name}", isa, source
        for name, source in UnitSuiteGenerator(isa).generate_sources():
            yield f"{isa.name}/{name}", isa, source
    for isa in (RV32IMC_ZICSR, RV32IMCF_ZICSR):
        torture = TortureGenerator(isa, TortureConfig(length=300))
        for seed in TORTURE_SEEDS:
            yield (f"{isa.name}/torture-{seed}", isa,
                   torture.generate_source(seed))
    structured = StructuredGenerator(RV32IMC_ZICSR)
    for seed in STRUCTURED_SEEDS:
        yield (f"structured-{seed}", RV32IMC_ZICSR,
               structured.lower(structured.generate_ast(seed)))


def output_digest() -> str:
    digest = hashlib.blake2b(digest_size=16)
    for name, isa, source in shipped_sources():
        program = assemble(source, isa=isa)
        digest.update(f"{name} {program.entry:#x}".encode())
        for addr, blob in program.segments:
            digest.update(f" {addr:#x}:{len(blob)}:".encode())
            digest.update(blob)
        digest.update(b"\n")
    return digest.hexdigest()


def test_every_shipped_source_assembles_unchanged():
    assert output_digest() == EXPECTED
