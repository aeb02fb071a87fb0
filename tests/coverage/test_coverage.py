"""Coverage metric and collector tests."""

import pytest

from repro.asm import assemble
from repro.coverage import empty_report, measure_coverage, measure_suite
from repro.isa import RV32IMC_ZICSR, RV32IMCF_ZICSR, RV32IM, IsaConfig

EXIT = "\n    li a7, 93\n    ecall\n"


def cov(source, isa=RV32IMC_ZICSR, **kw):
    return measure_coverage(assemble(source, isa=isa), isa=isa, **kw)


class TestInstructionCoverage:
    def test_executed_types_recorded(self):
        report = cov("_start: add a0, a1, a2\nsub a3, a4, a5" + EXIT)
        assert {"add", "sub", "addi", "ecall"} <= report.insn_types

    def test_unexecuted_types_missing(self):
        report = cov("_start: nop" + EXIT)
        assert "mul" in report.missed_insn_types()
        assert "mul" not in report.insn_types

    def test_universe_matches_isa(self):
        small = cov("_start: nop" + EXIT, isa=RV32IM)
        big = cov("_start: nop" + EXIT, isa=RV32IMC_ZICSR)
        assert len(big.insn_universe) > len(small.insn_universe)
        assert "c.addi" not in small.insn_universe

    def test_coverage_fraction(self):
        report = cov("_start: nop" + EXIT)
        expected = len(report.insn_types) / len(report.insn_universe)
        assert report.insn_coverage == pytest.approx(expected)

    def test_skipped_code_not_counted(self):
        report = cov("""
        _start:
            j skip
            mul a0, a1, a2
        skip:
        """ + EXIT)
        assert "mul" not in report.insn_types

    def test_module_breakdown(self):
        report = cov("_start: mul a0, a1, a2" + EXIT)
        breakdown = report.module_breakdown()
        assert breakdown["M"][0] == 1
        assert breakdown["M"][1] == 8
        assert breakdown["I"][1] > 30


class TestRegisterCoverage:
    def test_gpr_reads_and_writes_tracked(self):
        report = cov("_start: add a3, a1, a2" + EXIT)
        assert 11 in report.gprs_read
        assert 12 in report.gprs_read
        assert 13 in report.gprs_written
        assert 13 in report.gprs_accessed

    def test_untouched_gprs_missed(self):
        report = cov("_start: nop" + EXIT)
        assert 25 in report.missed_gprs()

    def test_csr_accesses_tracked(self):
        report = cov("_start: csrr a0, mscratch" + EXIT)
        assert 0x340 in report.csrs_accessed
        assert report.csr_coverage > 0

    def test_fpr_tracking_needs_f(self):
        report = cov("""
        _start:
            fmv.w.x fa0, a1
            fmv.x.w a2, fa0
        """ + EXIT, isa=RV32IMCF_ZICSR)
        assert 10 in report.fprs_written
        assert 10 in report.fprs_read
        assert report.fpr_coverage == pytest.approx(1 / 32)

    def test_fpr_coverage_zero_without_f(self):
        report = cov("_start: nop" + EXIT)
        assert not report.has_fprs
        assert report.fpr_coverage == 0.0
        assert report.missed_fprs() == []

    def test_trapping_load_counts_its_base_but_writes_nothing(self):
        # No handler: the misaligned lw ends the run as an unhandled trap.
        report = cov("""
        _start:
            li s0, 0x80002001
            lw a5, 0(s0)
        """ + EXIT)
        assert "lw" in report.insn_types
        assert 8 in report.gprs_read
        assert 15 not in report.gprs_written
        assert "ecall" not in report.insn_types

    def test_block_counts_its_longest_retired_prefix(self):
        # The loop block (csrw ends the block before it) traps at its lw
        # on the first pass (misaligned address); the handler fixes the
        # address and resumes after the lw, so only the second pass of
        # the same block retires the lw.
        report = cov("""
        _start:
            la s0, data
            addi s0, s0, 1
            li s1, 2
            la t0, handler
            csrw mtvec, t0
        loop:
            addi s1, s1, -1
            lw a5, 0(s0)
            bnez s1, loop
        """ + EXIT + """
        handler:
            csrr t1, mepc
            addi t1, t1, 4
            csrw mepc, t1
            la s0, data
            mret
        .data
        data: .word 7
        """)
        assert 15 in report.gprs_written


class TestMemoryCoverage:
    def test_addresses_tracked_per_byte(self):
        report = cov("""
        _start:
            li t0, 0x80002000
            sw t1, 0(t0)
            lb t2, 8(t0)
        """ + EXIT)
        assert {0x80002000, 0x80002001, 0x80002002, 0x80002003} <= \
            report.mem_written_addrs
        assert report.mem_read_addrs == {0x80002008}


class TestUnion:
    def test_union_combines_all_sets(self):
        a = cov("_start: add a0, a1, a2" + EXIT)
        b = cov("_start: mul a3, a4, a5" + EXIT)
        combined = a | b
        assert {"add", "mul"} <= combined.insn_types
        assert combined.gprs_accessed >= a.gprs_accessed | b.gprs_accessed

    def test_union_monotone(self):
        a = cov("_start: add a0, a1, a2" + EXIT)
        b = cov("_start: mul a3, a4, a5" + EXIT)
        combined = a | b
        assert combined.insn_coverage >= max(a.insn_coverage, b.insn_coverage)
        assert combined.gpr_coverage >= max(a.gpr_coverage, b.gpr_coverage)

    def test_union_requires_same_universe(self):
        a = cov("_start: nop" + EXIT, isa=RV32IMC_ZICSR)
        b = cov("_start: nop" + EXIT, isa=RV32IMCF_ZICSR)
        with pytest.raises(ValueError, match="different ISA universes"):
            _ = a | b

    def test_union_idempotent(self):
        a = cov("_start: add a0, a1, a2" + EXIT)
        same = a | a
        assert same.insn_types == a.insn_types
        assert same.gprs_accessed == a.gprs_accessed


class TestSuiteMeasurement:
    def test_suite_reports_and_union(self):
        programs = [
            ("p1", assemble("_start: add a0, a1, a2" + EXIT)),
            ("p2", assemble("_start: mul a3, a4, a5" + EXIT)),
        ]
        suite = measure_suite(programs, isa=RV32IMC_ZICSR)
        assert len(suite.reports) == 2
        assert "mul" in suite.union.insn_types
        assert "add" in suite.union.insn_types

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            measure_suite([])

    def test_table_renders_all_rows(self):
        programs = [("only", assemble("_start: nop" + EXIT))]
        table = measure_suite(programs, isa=RV32IMC_ZICSR).table()
        assert "only" in table
        assert "combined" in table


class TestReportRendering:
    def test_to_text_mentions_key_figures(self):
        report = cov("_start: add a0, a1, a2" + EXIT)
        text = report.to_text("demo")
        assert "demo" in text
        assert "instruction types" in text
        assert "GPRs accessed" in text

    def test_summary_row_keys(self):
        report = cov("_start: nop" + EXIT)
        assert set(report.summary_row()) == {"insn", "gpr", "fpr", "csr"}

    def test_empty_report_is_zero(self):
        report = empty_report(RV32IMC_ZICSR)
        assert report.insn_coverage == 0.0
        assert report.gpr_coverage == 0.0


class TestDegenerateUniverses:
    """Empty denominators must read as 0.0 %, never ZeroDivisionError."""

    def _degenerate(self):
        from repro.coverage.report import CoverageReport
        return CoverageReport(isa_name="degenerate", insn_universe={},
                              csr_universe=frozenset(), has_fprs=False)

    def test_all_ratios_zero_not_crash(self):
        report = self._degenerate()
        assert report.insn_coverage == 0.0
        assert report.csr_coverage == 0.0
        assert report.fpr_coverage == 0.0
        assert report.gpr_coverage == 0.0

    def test_hits_against_empty_universe_still_zero(self):
        # Zero instructions in the universe but a non-empty hit set (e.g.
        # a report unioned across mismatched collectors) must not divide
        # by zero either.
        report = self._degenerate()
        report.insn_types = {"phantom"}
        report.csrs_accessed = {0x300}
        assert report.insn_coverage == 0.0
        assert report.csr_coverage == 0.0

    def test_rendering_survives_empty_universe(self):
        report = self._degenerate()
        text = report.to_text("degenerate")
        assert "0.0%" in text
        assert set(report.summary_row().values()) == {0.0}

    def test_fpr_coverage_without_fprs_is_zero(self):
        report = empty_report(RV32IM)
        report.fprs_read = {1}
        assert report.fpr_coverage == 0.0
