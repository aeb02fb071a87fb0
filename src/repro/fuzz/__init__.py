"""Coverage-guided fuzzing over the VP — closes the testgen→coverage loop.

An AFL-style greybox fuzzer whose inputs are RISC-V instruction streams:
the three static testgen suites become the seed corpus, mutations go
through the :mod:`repro.isa` encoder (always re-encoding to valid
instructions), and the feedback signal is the coverage signature the
paper's quality metric already defines — instruction types, registers,
CSRs — extended with a translation-block edge bitmap.  See
docs/fuzzing.md for the design.
"""

from ..coverage.collector import EDGE_MAP_SIZE, edge_id
from .corpus import Corpus, CorpusEntry
from .engine import (
    FuzzConfig,
    FuzzEngine,
    FuzzResult,
    suite_seeds,
    trivial_seed,
)
from .executor import (
    EvalResult,
    FINDING_OUTCOMES,
    OUTCOME_EXIT,
    OUTCOME_EXIT_NONZERO,
    OUTCOME_HANG,
    OUTCOME_TRAP,
    ProgramBuilder,
    ProgramEvaluator,
    check_words,
    words_from_program,
)
from .feedback import FeedbackMap
from .mutators import IsaMutator, MAX_BODY_WORDS
from .triage import FuzzFinding, TriageReport

__all__ = [
    "Corpus",
    "CorpusEntry",
    "EDGE_MAP_SIZE",
    "EvalResult",
    "FINDING_OUTCOMES",
    "FeedbackMap",
    "FuzzConfig",
    "FuzzEngine",
    "FuzzFinding",
    "FuzzResult",
    "IsaMutator",
    "MAX_BODY_WORDS",
    "OUTCOME_EXIT",
    "OUTCOME_EXIT_NONZERO",
    "OUTCOME_HANG",
    "OUTCOME_TRAP",
    "ProgramBuilder",
    "ProgramEvaluator",
    "TriageReport",
    "check_words",
    "edge_id",
    "suite_seeds",
    "trivial_seed",
    "words_from_program",
]
