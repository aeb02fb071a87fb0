"""Disabled telemetry and the idle profiler must be (near-)free.

Three angles, from strongest to most empirical:

1. structural — with telemetry disabled nothing is registered on the
   CPU's hook table, so the per-instruction path is untouched;
2. unit cost — the exact per-mutant null-instrumentation sequence is
   measured directly and must be < 5 % of one real mutant simulation;
3. end-to-end — disabled telemetry and an idle ``SamplingProfiler``
   each cost < 2 % on the F1 loop, measured as the median of per-slice
   CPU-time ratios against an uninstrumented machine.
"""

import statistics
import time

from repro.asm import assemble
from repro.faultsim import Fault, FaultCampaign, STUCK_AT_1, TARGET_GPR
from repro.isa import RV32IMC_ZICSR
from repro.observe import SamplingProfiler
from repro.telemetry import NULL_TELEMETRY, current_telemetry
from repro.vp import Machine, MachineConfig

# The F1 benchmark's compute-heavy loop (9 instructions per iteration).
LOOP = """
_start:
    li t0, 0
    li t1, {iterations}
    li a0, 0
loop:
    add a0, a0, t0
    xor a1, a0, t0
    srli a2, a1, 3
    and a3, a2, t0
    or a0, a0, a3
    slli a0, a0, 1
    srli a0, a0, 1
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
"""

WORKLOAD = LOOP.format(iterations=20_000)

CHECKED = """
_start:
    li a1, 6
    li a2, 7
    mul a0, a1, a2
    li a3, 42
    bne a0, a3, fail
    li a0, 0
    li a7, 93
    ecall
fail:
    li a0, 1
    li a7, 93
    ecall
"""


class TestStructurallyFree:
    def test_default_session_is_disabled(self):
        assert current_telemetry().enabled is False

    def test_no_hooks_registered_when_disabled(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble(WORKLOAD, isa=RV32IMC_ZICSR))
        hooks = machine.cpu.hooks
        assert machine.telemetry is None
        assert hooks.plugins == []
        for attr in ("block_translate", "block_exec", "insn_exec",
                     "mem_access", "trap", "tb_flush", "exit"):
            assert getattr(hooks, attr) == []

    def test_null_instruments_allocate_nothing(self):
        metrics = NULL_TELEMETRY.metrics
        assert metrics.counter("a") is metrics.counter("b")
        assert len(NULL_TELEMETRY.events) == 0
        NULL_TELEMETRY.events.emit("x", y=1)
        assert len(NULL_TELEMETRY.events) == 0


class TestUnitCost:
    def test_null_path_below_5_percent_of_mutant_cost(self):
        """Time the exact per-mutant instrumentation against one mutant."""
        campaign = FaultCampaign(assemble(CHECKED, isa=RV32IMC_ZICSR),
                                 isa=RV32IMC_ZICSR)
        fault = Fault(TARGET_GPR, 25, 3, STUCK_AT_1)
        campaign.run_one(fault)  # warm the golden run + snapshot
        rounds = 5
        start = time.perf_counter()
        for _ in range(rounds):
            campaign.run_one(fault)
        mutant_seconds = (time.perf_counter() - start) / rounds

        telemetry = campaign.telemetry
        assert telemetry.enabled is False
        metrics = telemetry.metrics.namespace("faultsim.campaign")
        timer = metrics.timer("mutant_seconds")
        counter = metrics.counter("mutants_done")
        iterations = 10_000
        start = time.perf_counter()
        for _ in range(iterations):
            # The per-mutant instrumentation sequence from
            # FaultCampaign.run, against the null session.
            with timer:
                pass
            counter.inc()
            counter.inc()
            if telemetry.enabled:  # pragma: no cover - always false here
                raise AssertionError
        per_mutant_overhead = (time.perf_counter() - start) / iterations
        assert per_mutant_overhead < 0.05 * mutant_seconds, (
            f"null instrumentation costs {per_mutant_overhead * 1e6:.2f}us "
            f"per mutant vs {mutant_seconds * 1e6:.0f}us mutant runtime"
        )


#: Observability on the F1 hot path must cost less than this fraction.
OVERHEAD_LIMIT = 0.02

#: Instructions per timed slice; groups of fresh machines, and rounds of
#: slices each group runs (160 slices per configuration in all).
SLICE = 10_000
GROUPS = 40
ROUNDS = 4

#: The loop touches no data memory; a small RAM keeps the 120 machines
#: the test builds cheap.
RAM_SIZE = 64 * 1024

SETUPS = {
    "plain": lambda machine: None,
    "telemetry_disabled":
        lambda machine: setattr(machine, "telemetry", NULL_TELEMETRY),
    "idle_profiler": lambda machine: machine.add_plugin(SamplingProfiler()),
}


class TestEndToEnd:
    def test_f1_overhead_median_slice_below_2_percent(self):
        """Disabled telemetry and an idle profiler vs. a plain machine.

        Three machines, one per configuration, run the F1 loop in
        alternating slices of ``SLICE`` instructions, in an order that
        reverses every round, each slice timed on thread CPU time.  Host
        noise moves whole stretches of time, which adjacent slices
        share, so the median of the per-slice ratios reads the
        instrumentation cost and not the host.  One machine can also run
        several percent faster or slower than an identical one for its
        whole life, so every ``ROUNDS`` rounds three fresh machines take
        over, and the earlier ones stay alive so that the new ones land
        elsewhere in memory.  Each ``run()`` call is charged once per
        slice, which overstates per-run costs rather than hiding them.
        """
        program = assemble(LOOP.format(iterations=SLICE * (ROUNDS + 1)),
                           isa=RV32IMC_ZICSR)
        times = {name: [] for name in SETUPS}
        machines = []
        for _group in range(GROUPS):
            trio = {}
            for name, setup in SETUPS.items():
                machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                                ram_size=RAM_SIZE))
                machine.load(program)
                setup(machine)
                machine.run(max_instructions=1_000)  # warm: translate
                trio[name] = machine
            machines.append(trio)
            order = list(trio)
            for round_index in range(ROUNDS):
                for name in (order if round_index % 2 else order[::-1]):
                    machine = trio[name]
                    start = time.thread_time()
                    result = machine.run(max_instructions=SLICE)
                    times[name].append(time.thread_time() - start)
                    assert result.stop_reason == "max_insns"
        plain = times["plain"]
        for name in ("telemetry_disabled", "idle_profiler"):
            ratios = [t / p for t, p in zip(times[name], plain)]
            low, median, high = statistics.quantiles(ratios, n=4)
            assert median < 1 + OVERHEAD_LIMIT, (
                f"{name} costs {median - 1:+.2%} on the F1 hot path "
                f"(median of {len(ratios)} slices, limit "
                f"{OVERHEAD_LIMIT:.0%}; quartiles {low:.3f}/{high:.3f}, "
                f"summed ratio {sum(times[name]) / sum(plain):.3f})")
