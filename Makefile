# Convenience targets for the Scale4Edge reproduction.
#
# PYTHONPATH is pointed at src/ so every target works from a clean
# checkout without an editable install (matching the tier-1 verify
# command in ROADMAP.md).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-report bench-smoke bench-e2e-test fuzz-smoke jit-smoke cluster-smoke verify-smoke examples experiments clean

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Headline performance numbers (MIPS, mutants/s, QTA overhead) written
# to BENCH_emulator.json at the repo root.
bench-report:
	$(PYTHON) benchmarks/bench_report.py

# Fast subset of the report for CI smoke runs.
bench-smoke:
	$(PYTHON) benchmarks/bench_report.py --smoke

# The end-to-end benchmark harness's own tests (benchmarks/e2e):
# workload plumbing, the span ledger, and the result-line contract.
bench-e2e-test:
	$(PYTHON) -m pytest benchmarks/e2e -q

# Bounded fuzzing smoke: coverage growth + triage parse + determinism.
fuzz-smoke:
	$(PYTHON) examples/fuzz_smoke.py

# Compiled-tier smoke: JIT engages on F1, results byte-identical to the
# interpreter, speedup above the floor.
jit-smoke:
	$(PYTHON) examples/jit_smoke.py

# Cluster-fabric smoke: coordinator + 2 worker nodes, sharded seeded
# campaign byte-identical to the single-process run, graceful drain.
cluster-smoke:
	$(PYTHON) examples/cluster_smoke.py

# Differential verification smoke: clean interp~compiled matrix over a
# seeded corpus, then a seeded-bug canary must be caught, lockstep-
# pinpointed, and minimized.
verify-smoke:
	$(PYTHON) examples/verify_smoke.py

# Run every example script (each asserts its own expected behaviour).
examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

# Regenerate the experiment tables referenced by EXPERIMENTS.md.
experiments: bench
	@echo; echo "tables written to benchmarks/out/:"; ls benchmarks/out/

clean:
	rm -rf benchmarks/out .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
