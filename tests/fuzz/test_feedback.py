"""Feedback map, TB-edge bitmap, and coverage-signature tests."""

import pytest

from repro.asm import assemble
from repro.coverage import (CoveragePlugin, coverage_signature,
                            measure_coverage)
from repro.fuzz import EDGE_MAP_SIZE, FeedbackMap, edge_id
from repro.isa import RV32IMC_ZICSR
from repro.vp import Machine, MachineConfig

EXIT = "\n    li a7, 93\n    ecall\n"


class TestEdgeId:
    def test_range(self):
        for src, dst in [(0x8000_0000, 0x8000_0010),
                         (0x8000_0010, 0x8000_0000),
                         (0, 0), (0xFFFF_FFFE, 0x2)]:
            assert 0 <= edge_id(src, dst) < EDGE_MAP_SIZE

    def test_direction_sensitive(self):
        a, b = 0x8000_0000, 0x8000_0040
        assert edge_id(a, b) != edge_id(b, a)

    def test_deterministic(self):
        assert edge_id(0x8000_0100, 0x8000_0200) == \
            edge_id(0x8000_0100, 0x8000_0200)


class TestTBEdgePlugin:
    """The translation-block edges :class:`CoveragePlugin` records."""

    def _run(self, source):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        plugin = machine.add_plugin(CoveragePlugin())
        machine.load(assemble(source, isa=RV32IMC_ZICSR))
        machine.run(max_instructions=10_000)
        return plugin

    def test_straightline_program_has_few_edges(self):
        plugin = self._run("_start: nop" + EXIT)
        assert len(plugin.edges) <= 1

    def test_loop_adds_back_edge(self):
        loop = """
        _start:
            li t0, 5
        again:
            addi t0, t0, -1
            bnez t0, again
        """ + EXIT
        straight = self._run("_start: nop" + EXIT)
        looped = self._run(loop)
        assert len(looped.edges) > len(straight.edges)

    def test_reset_clears(self):
        plugin = self._run("_start:\n    li t0, 2\nl:\n    addi t0, t0, -1\n"
                           "    bnez t0, l" + EXIT)
        assert plugin.edges
        plugin.reset()
        assert not plugin.edges


class TestCoverageSignature:
    def _report(self, source):
        program = assemble(source, isa=RV32IMC_ZICSR)
        return measure_coverage(program, isa=RV32IMC_ZICSR)

    def test_tags_present(self):
        signature = coverage_signature(self._report("_start: add a0, a1, a2"
                                                    + EXIT))
        tags = {tag for tag, _ in signature}
        assert "insn" in tags and "gpr" in tags

    def test_hashable_and_stable(self):
        a = coverage_signature(self._report("_start: nop" + EXIT))
        b = coverage_signature(self._report("_start: nop" + EXIT))
        assert a == b
        assert hash(a) == hash(b)

    def test_edges_included(self):
        report = self._report("_start: nop" + EXIT)
        plain = coverage_signature(report)
        with_edges = coverage_signature(report, tb_edges=(17, 99))
        assert ("edge", 17) in with_edges
        assert with_edges > plain

    def test_monotone_in_behaviour(self):
        small = coverage_signature(self._report("_start: nop" + EXIT))
        big = coverage_signature(
            self._report("_start: add a0, a1, a2\n    mul a3, a4, a5"
                         + EXIT))
        assert len(big) > len(small)


class TestFeedbackMap:
    def test_observe_reports_new_elements_once(self):
        feedback = FeedbackMap()
        sig = frozenset({("insn", "add"), ("gpr", 5)})
        first = feedback.observe(sig)
        assert first == sig
        assert feedback.observe(sig) == frozenset()
        assert len(feedback) == 2

    def test_version_bumps_only_on_news(self):
        feedback = FeedbackMap()
        sig = frozenset({("insn", "add")})
        v0 = feedback.version
        feedback.observe(sig)
        v1 = feedback.version
        feedback.observe(sig)
        assert v1 > v0
        assert feedback.version == v1

    def test_rarity_favors_rare_elements(self):
        feedback = FeedbackMap()
        common = frozenset({("insn", "add")})
        rare = frozenset({("insn", "mulhsu")})
        feedback.observe(common | rare)
        for _ in range(10):
            feedback.count_corpus_entry(common)
        feedback.count_corpus_entry(rare)
        assert feedback.rarity(rare) > feedback.rarity(common)

    def test_counts_by_tag(self):
        feedback = FeedbackMap()
        feedback.observe(frozenset({("insn", "add"), ("insn", "sub"),
                                    ("gpr", 1), ("edge", 7)}))
        counts = feedback.counts_by_tag()
        assert counts == {"edge": 1, "gpr": 1, "insn": 2}

    def test_rarity_deterministic_across_orderings(self):
        feedback = FeedbackMap()
        sig = frozenset({("insn", n) for n in ("add", "sub", "xor", "or")})
        feedback.observe(sig)
        feedback.count_corpus_entry(sig)
        assert feedback.rarity(sig) == pytest.approx(feedback.rarity(sig))
