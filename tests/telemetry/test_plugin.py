"""TelemetryPlugin: VP instrumentation through the plugin API."""

from repro.asm import assemble
from repro.isa import RV32IMC_ZICSR
from repro.telemetry import Telemetry, TelemetryPlugin
from repro.vp import Machine, MachineConfig

PROGRAM = """
_start:
    la t0, buffer
    li t1, 0
    li t2, 10
loop:
    sw t1, 0(t0)
    lw t3, 0(t0)
    addi t0, t0, 4
    addi t1, t1, 1
    blt t1, t2, loop
    li a0, 0
    li a7, 93
    ecall
.data
buffer: .word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
"""


def run_instrumented():
    telemetry = Telemetry()
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
    machine.load(assemble(PROGRAM, isa=RV32IMC_ZICSR))
    machine.telemetry = telemetry
    machine.add_plugin(TelemetryPlugin(telemetry))
    result = machine.run(max_instructions=10_000)
    return telemetry, result


class TestCollectedMetrics:
    def test_instruction_and_cycle_counts(self):
        telemetry, result = run_instrumented()
        metrics = telemetry.metrics
        assert metrics.counter("vp.cpu.insns_retired").value == \
            result.instructions
        assert metrics.counter("vp.cpu.cycles").value == result.cycles
        assert metrics.gauge("vp.cpu.mips").value > 0

    def test_tb_cache_statistics(self):
        telemetry, _ = run_instrumented()
        metrics = telemetry.metrics
        hits = metrics.counter("vp.tb.hits").value
        misses = metrics.counter("vp.tb.misses").value
        assert misses > 0
        assert hits > 0  # the loop body re-executes from the cache
        assert metrics.gauge("vp.tb.hit_rate").value == \
            hits / (hits + misses)
        assert metrics.counter("vp.tb.translated").value > 0

    def test_memory_access_accounting(self):
        telemetry, _ = run_instrumented()
        metrics = telemetry.metrics
        assert metrics.counter("vp.mem.loads").value == 10
        assert metrics.counter("vp.mem.stores").value == 10

    def test_flush_counted_via_hook(self):
        telemetry, _ = run_instrumented()
        # add_plugin flushes the TB cache once after registration.
        assert telemetry.metrics.counter("vp.tb.flushes").value >= 1

    def test_run_summary_event_emitted(self):
        telemetry, result = run_instrumented()
        (event,) = telemetry.events.of_type("vp.run")
        assert event["instructions"] == result.instructions
        assert event["exit_code"] == 0
        assert event["loads"] == 10 and event["stores"] == 10
        assert event["tb_hit_rate"] > 0

    def test_machine_lifecycle_events(self):
        telemetry, _ = run_instrumented()
        assert len(telemetry.events.of_type("run.started")) == 1
        finished = telemetry.events.last("run.finished")
        assert finished["stop_reason"] == "exit"


class TestTrapCounting:
    def test_traps_counted(self):
        telemetry = Telemetry()
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        # Set up mtvec, take one ecall trap, then exit from the handler.
        machine.load(assemble("""
_start:
    la t0, handler
    csrw mtvec, t0
    ecall
handler:
    li a0, 0
    li a7, 93
    ecall
""", isa=RV32IMC_ZICSR))
        # a7 is 0 at the first ecall: no semihosting call, so it traps.
        machine.add_plugin(TelemetryPlugin(telemetry))
        machine.run(max_instructions=1000)
        assert telemetry.metrics.counter("vp.cpu.traps").value >= 1
        assert telemetry.metrics.counter("vp.cpu.interrupts").value == 0


class TestAttachHelper:
    def test_attach_telemetry_registers_plugin(self):
        telemetry = Telemetry()
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble(PROGRAM, isa=RV32IMC_ZICSR))
        plugin = machine.attach_telemetry(telemetry)
        assert isinstance(plugin, TelemetryPlugin)
        assert machine.telemetry is telemetry
        machine.run(max_instructions=10_000)
        assert telemetry.metrics.counter("vp.cpu.insns_retired").value > 0
