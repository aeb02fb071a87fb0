"""Ecosystem facade, demonstrators, and security monitor tests."""

import pytest

from repro.core import (
    Ecosystem,
    IoAccessMonitor,
    IoRegion,
    access_control_demo,
    crypto_demo,
    sensor_node_demo,
)
from repro.isa import RV32IMC_ZICSR
from repro.vp import Machine, UART_BASE

EXIT = "\n    li a7, 93\n    ecall\n"


class TestEcosystemFacade:
    def test_for_isa_parsing(self):
        eco = Ecosystem.for_isa("rv32imc_zicsr")
        assert eco.isa == RV32IMC_ZICSR

    def test_build_and_run(self):
        eco = Ecosystem()
        program = eco.build("_start: li a0, 9" + EXIT)
        _machine, result = eco.run(program)
        assert result.exit_code == 9

    def test_analyze_wcet(self):
        eco = Ecosystem()
        analysis = eco.analyze_wcet("""
        _start:
            li t0, 0
            li t1, 5
        loop:              # @loopbound 5
            addi t0, t0, 1
            blt t0, t1, loop
        """ + EXIT)
        assert analysis.static_bound.cycles >= analysis.result.wcet_time
        assert analysis.result.wcet_time >= analysis.result.actual_cycles

    def test_measure_coverage(self):
        eco = Ecosystem()
        report = eco.measure_coverage(eco.build("_start: nop" + EXIT))
        assert "addi" in report.insn_types

    def test_fault_campaign(self):
        from repro.faultsim import MutantBudget
        eco = Ecosystem()
        program = eco.build("_start: li a0, 3" + EXIT)
        result = eco.fault_campaign(
            program,
            budget=MutantBudget(code=5, gpr_transient=5, gpr_stuck=2,
                                memory_transient=0, memory_stuck=0),
            seed=1,
        )
        assert result.total == 12
        assert sum(result.counts.values()) == 12

    def test_suite_generators_accessible(self):
        eco = Ecosystem()
        assert len(eco.arch_suite()) >= 5
        assert len(eco.unit_suite()) >= 4
        assert len(eco.torture_suite(count=2, length=50)) == 2
        assert len(eco.structured_programs(count=2)) == 2

    def test_machine_configuration(self):
        eco = Ecosystem()
        machine = eco.machine(block_cache=False)
        assert not machine.cpu.block_cache_enabled


class TestAccessControlDemo:
    def test_correct_pin_opens(self):
        result = access_control_demo(pin=b"4711", attempt=b"4711")
        assert result.extras["granted"]
        assert "OPEN" in result.uart_output
        assert result.extras["violations"] == 0

    def test_wrong_pin_denied(self):
        result = access_control_demo(pin=b"4711", attempt=b"0000")
        assert not result.extras["granted"]
        assert "DENY" in result.uart_output

    def test_truncated_input_denied(self):
        result = access_control_demo(attempt=b"12")
        assert not result.extras["granted"]

    def test_empty_input_denied(self):
        result = access_control_demo(attempt=b"")
        assert not result.extras["granted"]

    def test_backdoor_detected(self):
        result = access_control_demo(with_backdoor=True)
        assert result.extras["violations"] == 2
        assert "unauthorized store" in result.extras["monitor_report"]
        # The backdoor leaked PIN bytes ahead of the OPEN message.
        assert result.uart_output.startswith("12")

    def test_clean_binary_reports_no_violation(self):
        result = access_control_demo(with_backdoor=False)
        assert "no violations" in result.extras["monitor_report"]

    def test_pin_validation(self):
        with pytest.raises(ValueError):
            access_control_demo(pin=b"123")
        with pytest.raises(ValueError):
            access_control_demo(attempt=b"12345")


class TestSensorNodeDemo:
    def test_runs_to_completion(self):
        result = sensor_node_demo(samples=8, interval=50)
        assert result.exit_code is not None
        assert 0 <= result.exit_code < 256

    def test_time_advances_by_interval_per_sample(self):
        result = sensor_node_demo(samples=10, interval=200)
        assert result.cycles >= 10 * 200

    def test_wfi_fast_forward_beats_busy_waiting(self):
        # Few instructions despite thousands of simulated cycles.
        result = sensor_node_demo(samples=10, interval=1000)
        assert result.cycles >= 10_000
        assert result.instructions < 1_000

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sensor_node_demo(samples=0)
        with pytest.raises(ValueError):
            sensor_node_demo(interval=5)


class TestCryptoDemo:
    def test_reports_speedups(self):
        result = crypto_demo()
        assert result.extras["overall_speedup"] > 1.0
        assert set(result.extras["kernels"]) == {
            "popcount", "clz-normalise", "arx-mix", "masked-select",
            "clamp", "bit-scan",
        }


class TestIoAccessMonitor:
    def _machine_with_monitor(self, source, regions):
        from repro.asm import assemble
        machine = Machine()
        machine.load(assemble(source))
        monitor = IoAccessMonitor(regions)
        machine.add_plugin(monitor)
        machine.run(max_instructions=10_000)
        return monitor

    UART_STORE = """
    _start:
        li t0, 0x10000000
        li t1, 'X'
        sb t1, 0(t0)
    """ + EXIT

    def test_allowed_access_recorded_not_flagged(self):
        monitor = self._machine_with_monitor(self.UART_STORE, [IoRegion(
            "uart", UART_BASE, 0x100,
            allowed_code=((0x8000_0000, 0x8000_1000),),
        )])
        assert monitor.accesses_by_region["uart"] == 1
        assert monitor.violation_count == 0

    def test_disallowed_access_flagged(self):
        monitor = self._machine_with_monitor(self.UART_STORE, [IoRegion(
            "uart", UART_BASE, 0x100, allowed_code=(),
        )])
        assert monitor.violation_count == 1
        record = monitor.violations[0]
        assert record.is_store and record.addr == UART_BASE

    def test_non_io_accesses_ignored_by_default(self):
        monitor = self._machine_with_monitor("""
        _start:
            li t0, 0x80001000
            sw t1, 0(t0)
        """ + EXIT, [IoRegion("uart", UART_BASE, 0x100)])
        assert monitor.records == []

    def test_record_all_keeps_ram_accesses(self):
        from repro.asm import assemble
        machine = Machine()
        machine.load(assemble("""
        _start:
            li t0, 0x80001000
            sw t1, 0(t0)
        """ + EXIT))
        monitor = IoAccessMonitor([IoRegion("uart", UART_BASE, 0x100)],
                                  record_all=True)
        machine.add_plugin(monitor)
        machine.run(max_instructions=10_000)
        assert any(r.addr == 0x80001000 for r in monitor.records)

    def test_report_text(self):
        monitor = self._machine_with_monitor(self.UART_STORE, [IoRegion(
            "uart", UART_BASE, 0x100,
        )])
        report = monitor.report()
        assert "VIOLATIONS: 1" in report
