#!/usr/bin/env python3
"""Bounded end-to-end smoke test for the coverage-guided fuzzer.

Runs a ~15-second time-budgeted fuzzing session from the *minimal* seed
(one ``addi`` instruction) and asserts the properties CI cares about:

* at least one coverage-increasing input beyond the seed was found
  (in practice: dozens within the first second);
* the triage output is machine-parsable JSON with consistent counts;
* a second, iteration-bounded session with the same ``--seed``
  reproduces the exact corpus signatures (the determinism guarantee);
* the same bounded session on the ``compiled`` backend reproduces them
  too, and its evaluator retires instructions in compiled code (the
  coverage collector works per block, so it must not keep every block
  interpreted).

Used by the CI ``fuzz-smoke`` job and runnable by hand:

    python examples/fuzz_smoke.py

Exits 0 on success, non-zero on any violated assertion.  The session is
wall-clock bounded internally; CI wraps it in ``timeout`` as well.
"""

import json
import sys
import time

TIME_BUDGET = 15.0        # seconds of fuzzing for the coverage assertion
REPRO_ITERATIONS = 300    # iteration-bounded pass for the determinism check
SEED = 2024


def main() -> int:
    from repro.fuzz import FuzzConfig, FuzzEngine, trivial_seed
    from repro.isa import RV32IMC_ZICSR

    started = time.monotonic()
    seeds = trivial_seed(RV32IMC_ZICSR)
    seed_elements = None

    # -- 1. time-budgeted session from the minimal seed ------------------
    engine = FuzzEngine(RV32IMC_ZICSR, FuzzConfig(
        iterations=10_000_000, seed=SEED, time_budget=TIME_BUDGET,
        max_instructions=2000, minimize_evals=8))
    result = engine.run(seeds)
    seed_elements = len(result.signatures[0])
    print(result.summary())
    print()

    assert result.corpus_size > 1, \
        "no coverage-increasing input found beyond the seed"
    assert result.coverage_elements > seed_elements, \
        "combined coverage did not grow past the seed signature"
    print(f"coverage grew {seed_elements} -> {result.coverage_elements} "
          f"elements across {result.corpus_size} corpus inputs")

    # -- 2. triage output parses and is self-consistent -------------------
    triage = json.loads(json.dumps(result.triage.to_dict()))
    assert triage["classes"] == len(triage["findings"])
    assert sum(triage["counts"].values()) == triage["classes"]
    for finding in triage["findings"]:
        assert finding["outcome"] in ("trap", "hang")
        assert finding["count"] >= 1
        bytes.fromhex(finding["code_hex"])   # witness must decode as hex
    print(f"triage parses: {triage['classes']} distinct classes "
          f"{triage['counts']}")

    # -- 3. seeded reproducibility (iteration-bounded) ---------------------
    def bounded_run(backend="interp"):
        bounded = FuzzEngine(RV32IMC_ZICSR, FuzzConfig(
            iterations=REPRO_ITERATIONS, seed=SEED,
            max_instructions=2000, minimize_evals=8, backend=backend))
        return bounded.run(trivial_seed(RV32IMC_ZICSR)), bounded

    first, _ = bounded_run()
    second, _ = bounded_run()
    assert first.signature_digests() == second.signature_digests(), \
        "same-seed sessions diverged"
    print(f"determinism holds: {REPRO_ITERATIONS} iterations twice -> "
          f"identical {first.corpus_size}-entry corpus")

    # -- 4. the compiled backend: same corpus, compiled blocks -------------
    compiled, engine = bounded_run("compiled")
    assert compiled.signature_digests() == first.signature_digests(), \
        "the compiled backend grew a different corpus"
    jit = engine.evaluator.machine.jit_stats()
    assert jit["compiled_instructions"] > 0, \
        f"the compiled fuzz session ran no compiled code: {jit}"
    total = (jit["compiled_instructions"] + jit["trace_instructions"]
             + jit["interp_instructions"])
    print(f"compiled backend: identical corpus, {jit['blocks_compiled']} "
          f"blocks compiled, {jit['compiled_instructions'] / total:.0%} of "
          "instructions in compiled code")

    print(f"\nfuzz smoke OK in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
