#!/usr/bin/env python3
"""Bounded end-to-end smoke test for the differential verification
subsystem — the CI gate behind ``make verify-smoke``.

Four phases, all required:

1. **Clean matrix** — a seeded 20-program Torture corpus runs under the
   ``interp~compiled`` pair (the tier boundary where semantics drift
   lives) and must produce **zero divergences**: the execution backends
   are each other's reference models.
2. **Seeded-bug canary** — the same campaign re-runs with a deliberate
   cross-tier bug injected (``add``'s ``execute`` function perturbed
   while the JIT emitter stays faithful — exactly the hazard
   ``repro.isa.semantics`` documents).  The campaign must *catch* it
   (digest divergence), *pinpoint* it (lockstep escalation names the
   perturbed instruction), and *minimize* the witness while preserving
   the divergence signature.  A verification subsystem whose failure
   mode is silence needs its own canary.
3. **Branch canary** — the mirror image: ``bge``'s comparison is off by
   one (``>=`` rendered as ``>``) in compiled code only, a bug that
   lives in the direct, fused and trace shapes.  Every divergence must
   be pinpointed at the ``bge`` (lockstep replays the diverging block
   in the shape the compiled side ran it in) and minimized.
4. **Clean recheck** — neither perturbation leaks past its context.

Runs in well under a minute; CI wraps it in ``timeout`` as a backstop.

    python examples/verify_smoke.py

Exits 0 on success, non-zero on any violated assertion.
"""

import sys
import time

PROGRAMS = 20
SEED = 7
MAX_INSTRUCTIONS = 3000


def main() -> int:
    from repro.isa import RV32IMC_ZICSR
    from repro.verify import DiffCampaign, VerifyCampaignConfig
    from repro.verify.canary import perturbed_branch, perturbed_semantics

    config = VerifyCampaignConfig(
        corpus=f"torture:{PROGRAMS}", matrix="interp:compiled",
        seed=SEED, max_instructions=MAX_INSTRUCTIONS)
    started = time.monotonic()

    # -- 1. clean matrix: zero divergences --------------------------------
    clean = DiffCampaign(RV32IMC_ZICSR, config).run()
    print(clean.table())
    print()
    assert clean.divergences == 0, \
        f"clean corpus diverged: {clean.to_dict()['findings']}"
    report = clean.to_dict()
    assert report["programs"] == PROGRAMS
    assert report["comparisons"] == PROGRAMS
    print(f"clean: {report['comparisons']} comparisons, 0 divergences "
          f"({time.monotonic() - started:.1f}s)")
    print()

    # -- 2. seeded-bug canary: caught, pinpointed, minimized --------------
    with perturbed_semantics(RV32IMC_ZICSR, mnemonic="add"):
        canary = DiffCampaign(RV32IMC_ZICSR, config).run()
    print(canary.table())
    print()
    assert canary.divergences > 0, \
        "canary NOT caught: a cross-tier semantics bug went undetected"
    findings = canary.to_dict()["findings"]
    assert findings, "divergences did not fold into triage findings"
    finding = findings[0]
    assert finding["lockstep_clean"] is False, \
        "lockstep escalation did not confirm the divergence"
    assert finding["kind"] == "registers", finding
    assert finding["signature"].endswith(":add"), \
        f"lockstep blamed the wrong instruction: {finding['signature']}"
    assert finding["disasm"].split()[0] == "add", finding["disasm"]
    minimized = finding["words"]          # triage stores the word count
    assert 0 < minimized < finding["minimized_from"], \
        "witness was not minimized"
    print(f"canary: caught as {finding['signature']!r} at pc "
          f"{finding['pc']:#x} ({finding['disasm']}), witness minimized "
          f"{finding['minimized_from']} -> {minimized} words")

    # -- 3. branch canary: every divergence pinpointed at the branch -----
    with perturbed_branch(RV32IMC_ZICSR, mnemonic="bge"):
        branch = DiffCampaign(RV32IMC_ZICSR, config).run()
    print()
    print(branch.table())
    print()
    assert branch.divergences > 0, \
        "branch canary NOT caught: a compiled-only branch bug went undetected"
    for record in branch.escalations:
        assert record["lockstep_clean"] is False, \
            f"{record['program']}: lockstep did not pinpoint the branch bug"
        assert record["signature"] == "control-flow:bge", record["signature"]
        assert record["disasm"].split()[0] == "bge", record["disasm"]
    finding = branch.to_dict()["findings"][0]
    assert 0 < finding["words"] < finding["minimized_from"], \
        "branch witness was not minimized"
    print(f"branch canary: {branch.divergences} divergences, every one "
          f"pinpointed as 'control-flow:bge', witness minimized "
          f"{finding['minimized_from']} -> {finding['words']} words")

    # -- 4. the perturbations did not leak --------------------------------
    recheck = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
        corpus="torture:3", matrix="interp:compiled", seed=SEED,
        max_instructions=MAX_INSTRUCTIONS)).run()
    assert recheck.divergences == 0, "canary perturbation leaked"

    print(f"\nverify smoke OK ({time.monotonic() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
