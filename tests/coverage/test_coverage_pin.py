"""Pin what coverage reports over the verify corpora, on both backends.

The digest covers the canonical :func:`measure_coverage` report (every
set, memory addresses included) of each ``suites`` and ``torture:150``
program, and the :class:`ProgramEvaluator` signature, outcome and
length of each ``fuzz:300 --seed 2`` program.  Every program is built by
``ProgramBuilder`` and runs at most 5,000 instructions.  ``EXPECTED``
was computed with the per-instruction collector over register files
that traced their own accesses, which the block-level collector
replaced.  Update it only for a change that is meant to alter what
coverage reports, and say why in the commit.
"""

import hashlib

import pytest

from repro.coverage import measure_coverage
from repro.fuzz import ProgramBuilder, ProgramEvaluator
from repro.isa import RV32IMC_ZICSR
from repro.verify.campaign import build_corpus
from repro.vp import Machine, MachineConfig

EXPECTED = "ee1d57d1eb36e6a97655fc41058d67ac"

BUDGET = 5000
REPORT_SETS = ("insn_types", "gprs_read", "gprs_written", "fprs_read",
               "fprs_written", "csrs_accessed", "mem_read_addrs",
               "mem_written_addrs")


def coverage_digest(backend: str) -> str:
    isa = RV32IMC_ZICSR
    digest = hashlib.blake2b(digest_size=16)
    builder = ProgramBuilder(isa)
    for spec, seed in (("suites", 0), ("torture:150", 0)):
        for name, words in build_corpus(isa, spec, seed):
            machine = Machine(MachineConfig(isa=isa, backend=backend,
                                            jit_threshold=2))
            report = measure_coverage(builder.build(words), machine=machine,
                                      max_instructions=BUDGET)
            digest.update(name.encode())
            for attr in REPORT_SETS:
                digest.update(
                    f" {attr}={sorted(getattr(report, attr))}".encode())
            digest.update(b"\n")
    evaluator = ProgramEvaluator(isa, max_instructions=BUDGET,
                                 backend=backend)
    for name, words in build_corpus(isa, "fuzz:300", 2):
        result = evaluator.evaluate(words)
        digest.update(f"{name} {sorted(result.signature)} {result.outcome} "
                      f"{result.instructions}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_coverage_of_the_verify_corpora_is_unchanged(backend):
    assert coverage_digest(backend) == EXPECTED
