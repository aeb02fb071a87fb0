"""Program building, evaluation, and triage-classification tests."""

import json

from repro.fuzz import (
    OUTCOME_EXIT,
    OUTCOME_HANG,
    OUTCOME_TRAP,
    ProgramBuilder,
    ProgramEvaluator,
    TriageReport,
    words_from_program,
)
from repro.isa import Decoder, RV32IMC_ZICSR, encode
from repro.testgen import TortureConfig, TortureGenerator
from repro.vp import Machine, MachineConfig


def w(name, *ops):
    return encode(Decoder(RV32IMC_ZICSR), name, *ops)


class TestProgramBuilder:
    def test_built_program_runs_and_exits(self):
        builder = ProgramBuilder(RV32IMC_ZICSR)
        program = builder.build((w("addi", 5, 0, 7),))
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(program)
        result = machine.run(max_instructions=1000)
        assert result.stop_reason == "exit"
        assert result.exit_code == 0

    def test_encode_words_mixed_widths(self):
        wide = w("add", 6, 5, 5)          # 32-bit
        narrow = w("c.addi", 9, 1)        # 16-bit
        blob = ProgramBuilder.encode_words((wide, narrow))
        assert len(blob) == 6

    def test_empty_body_is_just_prologue_epilogue(self):
        builder = ProgramBuilder(RV32IMC_ZICSR)
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(builder.build(()))
        result = machine.run(max_instructions=100)
        assert result.stop_reason == "exit"


class TestWordsFromProgram:
    def test_torture_program_round_trips(self):
        generator = TortureGenerator(RV32IMC_ZICSR,
                                     TortureConfig(length=50, seed=0))
        program = generator.generate(0)
        words = words_from_program(program, RV32IMC_ZICSR)
        assert len(words) > 20
        decoder = Decoder(RV32IMC_ZICSR)
        assert all(decoder.try_decode(word) is not None for word in words)


class TestEvaluator:
    def test_benign_input_classified_exit(self):
        evaluator = ProgramEvaluator(RV32IMC_ZICSR)
        result = evaluator.evaluate((w("addi", 5, 0, 1),))
        assert result.outcome == OUTCOME_EXIT
        assert result.signature
        assert ("insn", "addi") in result.signature

    def test_bad_load_classified_trap(self):
        # lw from address 0 (x0 base) — unmapped, must trap.
        evaluator = ProgramEvaluator(RV32IMC_ZICSR)
        result = evaluator.evaluate((w("lw", 5, 0, 0),))
        assert result.outcome == OUTCOME_TRAP
        assert result.trap_cause is not None

    def test_self_loop_classified_hang(self):
        evaluator = ProgramEvaluator(RV32IMC_ZICSR, max_instructions=500)
        result = evaluator.evaluate((w("jal", 0, 0),))
        assert result.outcome == OUTCOME_HANG

    def test_no_state_leak_between_evaluations(self):
        evaluator = ProgramEvaluator(RV32IMC_ZICSR)
        probe = (w("add", 5, 6, 7),)
        baseline = evaluator.evaluate(probe)
        # A run that scribbles registers and scratch memory in between
        # (x8 holds the scratch-arena base from the builder prologue)...
        evaluator.evaluate((w("addi", 5, 0, 99),
                            w("sw", 5, 0, 8),
                            w("addi", 28, 0, 55)))
        again = evaluator.evaluate(probe)
        # ...must not change what the probe observes.
        assert again == baseline

    def test_signature_includes_edges_for_loops(self):
        evaluator = ProgramEvaluator(RV32IMC_ZICSR)
        loop = (w("addi", 5, 0, 4),
                w("addi", 5, 5, -1),
                w("bne", 5, 0, -4))
        result = evaluator.evaluate(loop)
        assert any(tag == "edge" for tag, _ in result.signature)


class TestTriageReport:
    def test_dedup_by_class_with_counts(self):
        evaluator = ProgramEvaluator(RV32IMC_ZICSR)
        triage = TriageReport()
        trap = evaluator.evaluate((w("lw", 5, 0, 0),))
        assert triage.record((1,), trap, found_at=0) is True
        assert triage.record((2,), trap, found_at=5) is False
        assert len(triage) == 1
        finding = triage.ordered()[0]
        assert finding.count == 2
        assert finding.found_at == 0          # first witness wins
        assert finding.words == (1,)

    def test_to_dict_is_json_parsable(self):
        evaluator = ProgramEvaluator(RV32IMC_ZICSR)
        triage = TriageReport()
        triage.record((w("lw", 5, 0, 0),),
                      evaluator.evaluate((w("lw", 5, 0, 0),)), 0)
        spin = (w("jal", 0, 0),)
        triage.record(spin, evaluator.evaluate(spin), 3)
        blob = json.dumps(triage.to_dict())
        parsed = json.loads(blob)
        assert parsed["classes"] == 2
        assert parsed["counts"] == {"hang": 1, "trap": 1}
        assert all(f["code_hex"] for f in parsed["findings"])

    def test_table_renders(self):
        triage = TriageReport()
        assert "no findings" in triage.table()
        evaluator = ProgramEvaluator(RV32IMC_ZICSR)
        trap = (w("lw", 5, 0, 0),)
        triage.record(trap, evaluator.evaluate(trap), 1)
        assert "load_access_fault" in triage.table()
