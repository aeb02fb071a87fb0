"""Checkpoint parity smoke: accelerated campaigns must classify identically.

Runs one mixed-target campaign (transient + code + stuck-at mutants)
eight ways — {interp, compiled} x {checkpoints on, off} x {sequential,
jobs=2} — and asserts that every configuration serializes to
byte-identical ``CampaignResult`` JSON once wall time is zeroed.  The
checkpoint engine and the compiled tier are pure accelerations: any
divergence here is a correctness bug, not a tuning issue.

Self-checking; exits non-zero on any mismatch.  CI runs this under a hard
timeout as part of the bench-smoke job.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.asm import assemble  # noqa: E402
from repro.coverage import measure_coverage  # noqa: E402
from repro.faultsim import (  # noqa: E402
    FaultCampaign,
    MutantBudget,
    generate_mutants,
)
from repro.isa import RV32IMC_ZICSR  # noqa: E402

PROGRAM = """
_start:
    li a1, 6
    li a2, 7
    mul a0, a1, a2
    la t0, scratch
    sw a0, 0(t0)
    lw a4, 0(t0)
    li t1, 0
    li t2, 120
loop:
    addi t1, t1, 1
    xor a5, a4, t1
    blt t1, t2, loop
    li a3, 42
    beq a4, a3, good
    li a0, 1
    j out
good:
    li a0, 0
out:
    li a7, 93
    ecall
.data
scratch: .word 0
"""


def run_campaign(faults, backend, checkpoints, jobs):
    program = assemble(PROGRAM, isa=RV32IMC_ZICSR)
    campaign = FaultCampaign(program, isa=RV32IMC_ZICSR, backend=backend,
                             checkpoints=checkpoints)
    result = campaign.run(faults, jobs=jobs)
    result.elapsed_seconds = 0.0  # wall time is the only allowed delta
    return result.to_json()


def main() -> int:
    program = assemble(PROGRAM, isa=RV32IMC_ZICSR)
    campaign = FaultCampaign(program, isa=RV32IMC_ZICSR)
    golden = campaign.golden()
    coverage = measure_coverage(program, isa=RV32IMC_ZICSR)
    budget = MutantBudget(code=8, gpr_transient=20, gpr_stuck=6,
                          memory_transient=6, memory_stuck=4)
    faults = generate_mutants(program, coverage, budget,
                              golden_instructions=golden.instructions,
                              seed=11)
    print(f"golden: {golden.instructions} instructions, "
          f"{len(faults)} mutants")

    reference = run_campaign(faults, "interp", checkpoints=False, jobs=1)
    failures = 0
    for backend in ("interp", "compiled"):
        for checkpoints in (False, True):
            for jobs in (1, 2):
                if (backend, checkpoints, jobs) == ("interp", False, 1):
                    continue  # the reference itself
                got = run_campaign(faults, backend, checkpoints, jobs)
                ok = got == reference
                print(f"  backend={backend:<8} checkpoints={checkpoints!s:<5}"
                      f" jobs={jobs}: {'OK' if ok else 'MISMATCH'}")
                failures += 0 if ok else 1
    if failures:
        print(f"FAIL: {failures} configuration(s) diverged from the "
              "sequential baseline")
        return 1
    print("PASS: all configurations byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
