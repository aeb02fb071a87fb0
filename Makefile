# Convenience targets for the Scale4Edge reproduction.
#
# PYTHONPATH is pointed at src/ so every target works from a clean
# checkout without an editable install (matching the tier-1 verify
# command in ROADMAP.md).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-e2e-test fuzz-smoke jit-smoke service-smoke observe-smoke cluster-smoke verify-smoke verify-matrix checkpoint-parity examples experiments clean

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

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

# Service smoke: repro serve in thread and process mode, campaign
# byte-identical to the direct run, clean exit after a drained shutdown.
service-smoke:
	$(PYTHON) examples/service_smoke.py

# Observability smoke: /metrics parses, /v1/events tailing is loss-free,
# a traced job exports to Chrome trace, repro profile finds the hot loop.
observe-smoke:
	$(PYTHON) examples/observe_smoke.py

# Cluster-fabric smoke: coordinator + 2 worker nodes, sharded seeded
# campaign byte-identical to the single-process run, graceful drain.
cluster-smoke:
	$(PYTHON) examples/cluster_smoke.py

# Differential verification smoke: clean interp~compiled matrix over a
# seeded corpus, then two seeded-bug canaries (a perturbed execute
# function, a compiled-only branch comparison) must each be caught,
# lockstep-pinpointed, and minimized.
verify-smoke:
	$(PYTHON) examples/verify_smoke.py

# The oracle that accepts a JIT change: 200 fuzzed programs across the
# backends, block-cache, trace and checkpoint axes must report zero
# divergences (exit 1 on any).
verify-matrix:
	$(PYTHON) -m repro verify --corpus fuzz:200 --matrix backends,cache,traces,checkpoint

# Fault-campaign parity: one mixed campaign over {interp, compiled} x
# {checkpoints on, off} x {reuse on, off} x {jobs 1, 2}, all
# byte-identical.
checkpoint-parity:
	$(PYTHON) examples/checkpoint_parity.py

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
