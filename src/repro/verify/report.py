"""Campaign reports: deduplicated findings and the shared envelope.

:func:`verify_report_dict` is *the* report builder — direct campaign
runs, the ``verify`` service executor, and the cluster's shard merge all
produce their JSON through this one function, which is what makes a
fixed-seed campaign byte-identical across all three execution paths
(``elapsed_seconds`` aside; parity comparisons strip it).

Escalation records are funnelled through the fuzz
:class:`~repro.fuzz.triage.TriageReport`, keyed by ``pair + divergence
signature``: ten programs tripping the same wrong-emitter bug collapse
into one finding carrying a count and a single minimized repro.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

from ..fuzz.triage import FuzzFinding, TriageReport

__all__ = ["corpus_digest", "render_verify", "verify_report_dict"]

#: Pinpoint fields copied from a class's first escalation record onto
#: the deduplicated finding.
_PINPOINT_FIELDS = (
    "pair", "kind", "signature", "program", "program_index",
    "instruction_index", "pc", "disasm", "reg_delta", "digest_mismatch",
    "lockstep_clean", "minimized_from", "minimize_evals_used",
)


def corpus_digest(corpus: Sequence[Tuple[str, Sequence[int]]]) -> str:
    """A short stable digest of a ``(name, words)`` program corpus, so
    reports (and parity checks) can assert two runs saw the same input."""
    payload = repr([(name, tuple(words)) for name, words in corpus])
    return hashlib.blake2b(payload.encode(),
                           digest_size=16).hexdigest()


def verify_report_dict(meta: Dict[str, object],
                       escalations: Sequence[Dict[str, object]],
                       elapsed_seconds: float) -> Dict[str, object]:
    """The canonical campaign report for ``meta`` + escalation records.

    Pure function of its inputs (except the caller-measured
    ``elapsed_seconds``): triage-deduplicates the escalations by
    ``pair signature`` and enriches each finding class with the
    pinpoint data of its first witness.
    """
    triage = TriageReport()
    first_by_detail: Dict[str, Dict[str, object]] = {}
    for record in escalations:
        detail = f"{record['pair']} {record['signature']}"
        first_by_detail.setdefault(detail, record)
        triage.fold(FuzzFinding(
            outcome="divergence", trap_cause=None, detail=detail,
            words=tuple(record["words"]),
            instructions=record.get("instruction_index") or 0,
            found_at=record["program_index"]))
    findings: List[Dict[str, object]] = []
    for finding in triage.ordered():
        entry = finding.to_dict()
        witness = first_by_detail[finding.detail]
        for field in _PINPOINT_FIELDS:
            entry[field] = witness.get(field)
        findings.append(entry)
    report = dict(meta)
    report.update({
        "divergences": len(escalations),
        "classes": len(findings),
        "findings": findings,
        "elapsed_seconds": round(elapsed_seconds, 6),
    })
    return report


def render_verify(report: Dict[str, object]) -> str:
    """Human-readable campaign summary (the ``repro verify`` output)."""
    lines = [
        f"verify: corpus={report['corpus']} ({report['programs']} "
        f"programs, digest {str(report['corpus_digest'])[:12]}) "
        f"matrix={report['matrix']} seed={report['seed']}",
        f"pairs: {', '.join(report['pairs'])}",
        f"comparisons: {report['comparisons']}  "
        f"divergences: {report['divergences']}  "
        f"classes: {report['classes']}  "
        f"elapsed: {report['elapsed_seconds']:.3f}s",
    ]
    findings = report.get("findings") or []
    if not findings:
        lines.append("all configurations agree (zero divergences)")
        return "\n".join(lines)
    header = (f"{'pair':<22} {'signature':<26} {'count':>6} "
              f"{'insn@':>6} {'pc':>10} culprit")
    lines += [header, "-" * len(header)]
    for finding in findings:
        insn = finding.get("instruction_index")
        pc = finding.get("pc")
        lines.append(
            f"{str(finding['pair']):<22.22} "
            f"{str(finding['signature']):<26.26} "
            f"{finding['count']:>6} "
            f"{'-' if insn is None else insn:>6} "
            f"{'-' if pc is None else format(pc, '#010x'):>10} "
            f"{finding.get('disasm') or '-'}")
        lines.append(
            f"    repro: {finding['words']} words "
            f"(from {finding['minimized_from']}), "
            f"code {str(finding['code_hex'])[:48]}"
            f"{'...' if len(str(finding['code_hex'])) > 48 else ''}")
    return "\n".join(lines)
