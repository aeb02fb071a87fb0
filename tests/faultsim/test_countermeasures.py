"""Unit tests for the software fault-tolerance countermeasures."""

import pytest

from repro.asm import assemble
from repro.faultsim.countermeasures import (
    BENIGN,
    DETECT_EXIT,
    DETECTED,
    SDC,
    VARIANTS,
    evaluate_countermeasures,
    table,
)
from repro.isa import RV32IMC_ZICSR
from repro.vp import Machine, MachineConfig


def run_variant(name):
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
    machine.load(assemble(VARIANTS[name], isa=RV32IMC_ZICSR))
    return machine.run(max_instructions=100_000)


class TestVariants:
    def test_all_variants_compute_same_checksum(self):
        exits = {name: run_variant(name).exit_code for name in VARIANTS}
        assert len(set(exits.values())) == 1
        assert all(code != DETECT_EXIT for code in exits.values())

    def test_variants_terminate_cleanly(self):
        for name in VARIANTS:
            result = run_variant(name)
            assert result.stop_reason == "exit", name

    def test_redundant_variants_cost_more(self):
        plain = run_variant("unprotected").instructions
        dwc = run_variant("dwc").instructions
        tmr = run_variant("tmr").instructions
        assert plain < dwc < tmr
        # Redundancy overhead is roughly proportional to the copy count.
        assert dwc < 3 * plain
        assert tmr < 4 * plain

    def test_dwc_detects_a_seeded_corruption(self):
        from repro.faultsim import Fault, TARGET_GPR, TRANSIENT, run_transient

        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        program = assemble(VARIANTS["dwc"], isa=RV32IMC_ZICSR)
        machine.load(program)
        # Corrupt copy 0's accumulator (s2) late, after it holds state but
        # before the comparison.
        golden_insns = run_variant("dwc").instructions
        result, _fired = run_transient(
            machine, Fault(TARGET_GPR, 18, 9, TRANSIENT,
                           trigger=golden_insns // 2), 1_000_000)
        assert result.exit_code == DETECT_EXIT

    def test_tmr_corrects_a_seeded_corruption(self):
        from repro.faultsim import Fault, TARGET_GPR, TRANSIENT, run_transient

        golden = run_variant("tmr")
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble(VARIANTS["tmr"], isa=RV32IMC_ZICSR))
        result, _fired = run_transient(
            machine, Fault(TARGET_GPR, 18, 9, TRANSIENT,
                           trigger=golden.instructions // 3), 1_000_000)
        assert result.exit_code == golden.exit_code  # corrected


class TestEvaluation:
    @pytest.fixture(scope="class")
    def results(self):
        return evaluate_countermeasures(mutants=60, seed=2)

    def test_every_variant_evaluated(self, results):
        assert set(results) == set(VARIANTS)

    def test_verdicts_account_for_all_mutants(self, results):
        for result in results.values():
            assert sum(result.verdicts.values()) == result.total == 60

    def test_dwc_reduces_sdc(self, results):
        assert results["dwc"].rate(SDC) <= results["unprotected"].rate(SDC)

    def test_unprotected_cannot_detect(self, results):
        assert results["unprotected"].rate(DETECTED) == 0.0

    def test_table_lists_variants(self, results):
        text = table(results)
        for name in VARIANTS:
            assert name in text

    def test_rate_of_missing_verdict_is_zero(self, results):
        assert results["tmr"].rate("nonexistent") == 0.0
