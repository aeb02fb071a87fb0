"""Finding triage: deduplicated classification of abnormal executions.

Findings are grouped by a stable triage key — ``(outcome, trap cause)``
— so a campaign that provokes the same illegal-instruction trap ten
thousand times reports one finding with a count, keeping triage output
readable and machine-parsable regardless of campaign length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .executor import EvalResult, ProgramBuilder

#: Human-readable names for RISC-V mcause values the fuzzer provokes.
_CAUSE_NAMES = {
    0: "insn_addr_misaligned",
    1: "insn_access_fault",
    2: "illegal_instruction",
    3: "breakpoint",
    4: "load_addr_misaligned",
    5: "load_access_fault",
    6: "store_addr_misaligned",
    7: "store_access_fault",
    8: "ecall_u",
    11: "ecall_m",
}


def _cause_name(cause: Optional[int]) -> str:
    if cause is None:
        return "-"
    return _CAUSE_NAMES.get(cause, f"cause_{cause}")


@dataclass
class FuzzFinding:
    """One distinct abnormal behaviour, with its first witness input."""

    outcome: str                      # trap | hang | divergence
    trap_cause: Optional[int]
    detail: str                       # cause name or divergence detail
    words: Tuple[int, ...]            # first input that exhibited it
    instructions: int                 # executed before the event
    found_at: int                     # execution index of first witness
    count: int = 1

    def key(self) -> Tuple[str, str]:
        return (self.outcome, self.detail)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "trap_cause": self.trap_cause,
            "detail": self.detail,
            "count": self.count,
            "instructions": self.instructions,
            "found_at": self.found_at,
            "code_hex": ProgramBuilder.encode_words(self.words).hex(),
            "words": len(self.words),
        }


class TriageReport:
    """Deduplicated findings of one fuzzing session."""

    def __init__(self) -> None:
        self.findings: Dict[Tuple[str, str], FuzzFinding] = {}

    def record(self, words: Sequence[int], result: EvalResult,
               found_at: int) -> bool:
        """Fold one abnormal execution in; True if the class is new."""
        finding = FuzzFinding(
            outcome=result.outcome,
            trap_cause=result.trap_cause,
            detail=_cause_name(result.trap_cause)
            if result.outcome == "trap" else result.stop_reason,
            words=tuple(words),
            instructions=result.instructions,
            found_at=found_at,
        )
        return self.fold(finding)

    def fold(self, finding: FuzzFinding) -> bool:
        """Fold one finding in; True if its class is new."""
        existing = self.findings.get(finding.key())
        if existing is not None:
            existing.count += 1
            return False
        self.findings[finding.key()] = finding
        return True

    # -- accessors / rendering ---------------------------------------------

    def __len__(self) -> int:
        return len(self.findings)

    def counts(self) -> Dict[str, int]:
        """Distinct finding classes per outcome."""
        totals: Dict[str, int] = {}
        for outcome, _detail in self.findings:
            totals[outcome] = totals.get(outcome, 0) + 1
        return dict(sorted(totals.items()))

    def ordered(self) -> List[FuzzFinding]:
        return [self.findings[key] for key in sorted(self.findings)]

    def to_dict(self) -> dict:
        return {
            "classes": len(self.findings),
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.ordered()],
        }

    def table(self) -> str:
        header = (f"{'outcome':<12} {'detail':<24} {'count':>8} "
                  f"{'insns':>8} {'found@':>8}")
        rows = [header, "-" * len(header)]
        for finding in self.ordered():
            rows.append(
                f"{finding.outcome:<12} {finding.detail:<24.24} "
                f"{finding.count:>8} {finding.instructions:>8} "
                f"{finding.found_at:>8}"
            )
        if len(rows) == 2:
            rows.append("(no findings)")
        return "\n".join(rows)
