"""Checkpoint parity smoke: accelerated campaigns must classify identically.

Runs one mixed-target campaign (transient, code, and GPR/memory/CSR
stuck-at mutants, plus a transient flip into the loop's code) sixteen
ways — {interp, compiled} x {checkpoints on, off} x {machine reuse on,
off} x {sequential, jobs=2} — and asserts that every configuration
serializes to byte-identical ``CampaignResult`` JSON once wall time is
zeroed.  The reference is the interpreted full replay on a fresh
machine per mutant.  The checkpoint engine, the compiled tier and the
shared machine are pure accelerations: any divergence here is a
correctness bug, not a tuning issue.

The program reads ``scratch`` before writing it, so a byte a previous
mutant left behind on the shared machine changes the result; rewrites
and reloads it in the hot (compiled) loop, so a store that fails to
re-force a RAM stuck bit shows; and passes the loaded word through
``mscratch`` into the self-check, so memory and CSR stuck bits reach
the exit code.  The script refuses to pass if every stuck-at mutant on
either target is masked.

Self-checking; exits non-zero on any mismatch.  CI runs this under a hard
timeout in the bench-checks job (``make checkpoint-parity`` runs it
locally).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.asm import assemble  # noqa: E402
from repro.coverage import measure_coverage  # noqa: E402
from repro.faultsim import (  # noqa: E402
    OUTCOME_MASKED,
    TARGET_CSR,
    TARGET_MEMORY,
    TRANSIENT,
    Fault,
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
    lw a6, 0(t0)
    add a0, a0, a6
    li t1, 0
    li t2, 120
loop:
    addi t1, t1, 1
    sw a0, 0(t0)
    lw a4, 0(t0)
    blt t1, t2, loop
    csrw mscratch, a4
    csrr a4, mscratch
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


def run_campaign(faults, backend, checkpoints, reuse, jobs):
    program = assemble(PROGRAM, isa=RV32IMC_ZICSR)
    campaign = FaultCampaign(program, isa=RV32IMC_ZICSR, backend=backend,
                             checkpoints=checkpoints, reuse_machine=reuse)
    result = campaign.run(faults, jobs=jobs)
    result.elapsed_seconds = 0.0  # wall time is the only allowed delta
    return result


def blind_stuck_targets(result):
    """Stuck-at targets whose mutants all came out masked: the parity
    check could not tell a working stuck bit there from a broken one."""
    return [target for target in (TARGET_MEMORY, TARGET_CSR)
            if all(r.outcome == OUTCOME_MASKED for r in result.results
                   if r.fault.target == target and r.fault.kind != TRANSIENT)]


def main() -> int:
    program = assemble(PROGRAM, isa=RV32IMC_ZICSR)
    campaign = FaultCampaign(program, isa=RV32IMC_ZICSR)
    golden = campaign.golden()
    coverage = measure_coverage(program, isa=RV32IMC_ZICSR)
    budget = MutantBudget(code=8, gpr_transient=20, gpr_stuck=6,
                          memory_transient=6, memory_stuck=4, csr_stuck=4)
    faults = generate_mutants(program, coverage, budget,
                              golden_instructions=golden.instructions,
                              seed=11)
    # Flip the loop's first instruction mid-run, after it was translated
    # (and compiled): the flipped instruction must run on every path.
    faults.append(Fault(TARGET_MEMORY, program.symbols["loop"] + 1, 3,
                        TRANSIENT, trigger=golden.instructions // 2))
    print(f"golden: {golden.instructions} instructions, "
          f"{len(faults)} mutants")

    reference_result = run_campaign(faults, "interp", checkpoints=False,
                                    reuse=False, jobs=1)
    blind = blind_stuck_targets(reference_result)
    if blind:
        print(f"FAIL: every stuck-at mutant on {', '.join(blind)} is "
              "masked; the program must feed those bits to its self-check")
        return 1
    reference = reference_result.to_json()
    failures = 0
    for backend in ("interp", "compiled"):
        for checkpoints in (False, True):
            for reuse in (False, True):
                for jobs in (1, 2):
                    if (backend, checkpoints, reuse, jobs) == (
                            "interp", False, False, 1):
                        continue  # the reference itself
                    got = run_campaign(faults, backend, checkpoints, reuse,
                                       jobs).to_json()
                    ok = got == reference
                    print(f"  backend={backend:<8} "
                          f"checkpoints={checkpoints!s:<5} "
                          f"reuse={reuse!s:<5} jobs={jobs}: "
                          f"{'OK' if ok else 'MISMATCH'}")
                    failures += 0 if ok else 1
    if failures:
        print(f"FAIL: {failures} configuration(s) diverged from the "
              "fresh-machine full-replay reference")
        return 1
    print("PASS: all configurations byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
