"""Guest profiler: attribution, ranking, exports."""

import json

import pytest

from repro.asm import assemble
from repro.isa.decoder import IsaConfig
from repro.observe import Profile, SamplingProfiler
from repro.vp.machine import Machine, MachineConfig

ISA = IsaConfig.from_string("rv32imc_zicsr")

# The hot path lives in `loop` (50 iterations per outer pass); `outer`
# and `start` are cold.
WORKLOAD = """
    .text
start:
    li   t0, 0
    li   t1, 40
outer:
    li   t2, 50
loop:
    addi t0, t0, 1
    addi t2, t2, -1
    bnez t2, loop
    addi t1, t1, -1
    bnez t1, outer
    li   a0, 0
    li   a7, 93
    ecall
"""


def run_profiled(source=WORKLOAD):
    program = assemble(source, isa=ISA)
    machine = Machine(MachineConfig(isa=ISA))
    machine.load(program)
    profiler = machine.add_plugin(SamplingProfiler())
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    return profiler, program, result


class TestSampling:
    def test_exact_sampling_counts_every_block(self):
        profiler, _, result = run_profiled()
        profile = profiler.profile()
        # Every block execution counts, so the estimate matches the true
        # retired count up to the tail of the final block (the ecall
        # exits before the block's insns all retire).
        delta = profile.total_est_instructions - result.instructions
        assert 0 <= delta < 32

    def test_reset_clears_samples(self):
        profiler, _, _ = run_profiled()
        assert profiler.total_samples > 0
        profiler.reset()
        assert profiler.total_samples == 0


class TestAttribution:
    def test_hot_block_is_the_inner_loop(self):
        profiler, program, _ = run_profiled()
        profile = profiler.profile(program, isa=ISA)
        top = profile.hot_blocks(limit=1)[0]
        assert top["function"] == "loop"
        assert top["start_pc"] == program.symbols["loop"]
        assert top["fraction"] > 0.5

    def test_function_aggregation(self):
        profiler, program, _ = run_profiled()
        profile = profiler.profile(program, isa=ISA)
        rows = profile.functions()
        assert rows[0]["function"] == "loop"
        assert rows[0]["fraction"] > 0.5
        assert {row["function"] for row in rows} == \
            {"start", "outer", "loop"}
        assert sum(row["fraction"] for row in rows) == pytest.approx(1.0)

    def test_without_symbols_falls_back_to_hex(self):
        profiler, _, _ = run_profiled()
        profile = profiler.profile()  # no program -> no symbol table
        assert profile.hot_blocks(1)[0]["function"].startswith("0x")


class TestRenderings:
    def test_render_lists_functions_and_blocks(self):
        profiler, program, _ = run_profiled()
        text = profiler.profile(program, isa=ISA).render()
        assert "loop" in text
        assert "samples" in text
        assert "%" in text

    def test_annotated_disasm_shows_hot_instructions(self):
        profiler, program, _ = run_profiled()
        listing = profiler.profile(program, isa=ISA).annotated_disasm(1)
        assert "<loop>" in listing
        assert "addi" in listing
        assert "bne" in listing

    def test_annotated_disasm_without_isa(self):
        profiler, program, _ = run_profiled()
        profile = profiler.profile(program)
        assert "unavailable" in profile.annotated_disasm()


class TestExports:
    def test_collapsed_hottest_first(self):
        profiler, program, _ = run_profiled()
        lines = profiler.profile(program, isa=ISA).collapsed().splitlines()
        assert lines[0].startswith("loop;block_0x")
        weights = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert weights == sorted(weights, reverse=True)

    def test_save_collapsed_and_json(self, tmp_path):
        profiler, program, _ = run_profiled()
        profile = profiler.profile(program, isa=ISA)
        folded = tmp_path / "profile.folded"
        profile.save_collapsed(str(folded))
        assert folded.read_text().splitlines()[0].startswith("loop;")
        out = tmp_path / "profile.json"
        profile.save_json(str(out))
        data = json.loads(out.read_text())
        assert data["format"] == "repro-profile-v1"
        assert data["functions"][0]["function"] == "loop"
        assert data["total_samples"] == profile.total_samples

    def test_profile_restores_from_dict_blocks(self):
        profiler, program, _ = run_profiled()
        data = profiler.profile(program, isa=ISA).to_dict()
        rebuilt = Profile(blocks=data["blocks"])
        assert rebuilt.total_est_instructions == \
            data["total_est_instructions"]


class TestTierAttribution:
    # 40-op load/store body -> two translation blocks chained by
    # fallthrough, which the compiled backend fuses into one trace.
    TRACE_WORKLOAD = """
    .text
start:
    la   s0, scratch
    li   t0, 0
    li   t1, 400
loop:
""" + "\n".join(
        f"    lw   t2, {(k % 8) * 4}(s0)\n"
        "    add  a0, a0, t2\n"
        "    xor  t2, t2, t0\n"
        f"    sw   t2, {(k % 8) * 4}(s0)"
        for k in range(10)) + """
    addi t0, t0, 1
    blt  t0, t1, loop
    li   a0, 0
    li   a7, 93
    ecall
    .data
scratch: .word 0, 0, 0, 0, 0, 0, 0, 0
"""

    def _profile_compiled(self):
        program = assemble(self.TRACE_WORKLOAD, isa=ISA)
        machine = Machine(MachineConfig(isa=ISA, backend="compiled",
                                        jit_threshold=2,
                                        jit_trace_threshold=4))
        machine.load(program)
        profiler = machine.add_plugin(SamplingProfiler())
        result = machine.run(max_instructions=1_000_000)
        assert result.stop_reason == "exit"
        assert machine.jit_stats()["traces_compiled"] >= 1
        return profiler.profile(program, isa=ISA)

    def test_trace_members_are_labelled_trace(self):
        profile = self._profile_compiled()
        tiers = {b["start_pc"]: b["tier"] for b in profile.blocks}
        trace_blocks = [pc for pc, tier in tiers.items()
                        if tier == "trace"]
        # The fused loop has a head and at least one member, and the
        # trace tier dominates the retired-instruction estimate.
        assert len(trace_blocks) >= 2, tiers
        by_tier = {}
        for block in profile.blocks:
            by_tier[block["tier"]] = (by_tier.get(block["tier"], 0)
                                      + block["est_instructions"])
        assert by_tier["trace"] > by_tier.get("interp", 0), by_tier

    def test_render_shows_trace_tier_column(self):
        profile = self._profile_compiled()
        assert " trace" in profile.render()
