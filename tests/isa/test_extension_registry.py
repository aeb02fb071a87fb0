"""Extension-registry tests: the decodetree-style pluggability story."""

import pytest

from repro.isa import (
    Decoder,
    IsaConfig,
    available_modules,
    register_extension,
)
from repro.isa import formats as fmt
from repro.isa.rv32i import MASK_R
from repro.isa.spec import InstructionSpec


def _dummy_exec(cpu, d):
    cpu.regs.write(d.rd, 0x1234)


def make_spec(name="frob", match=0x0000400B, mask=MASK_R):
    # Major opcode 0x0B (custom-0): guaranteed free in the standard tables.
    return InstructionSpec(
        name=name, module="Xtest", match=match, mask=mask, length=4,
        decode=fmt.decode_r, execute=_dummy_exec, syntax="R",
        encode=fmt.encode_r,
    )


@pytest.fixture
def registered():
    register_extension("Xtest", [make_spec()])
    yield
    # Re-register an empty table so other tests see a clean module.
    register_extension("Xtest", [])


class TestRegistry:
    def test_registration_makes_module_available(self, registered):
        assert "Xtest" in available_modules()
        config = IsaConfig({"I", "Xtest"})
        decoder = Decoder(config)
        assert "frob" in decoder.spec_by_name

    def test_custom_instruction_decodes_and_executes(self, registered):
        from repro.asm import assemble
        from repro.vp import Machine, MachineConfig

        isa = IsaConfig({"I", "Xtest"})
        program = assemble("""
        _start:
            frob a0, zero, zero
            li a7, 93
            ecall
        """, isa=isa)
        machine = Machine(MachineConfig(isa=isa))
        machine.load(program)
        result = machine.run(max_instructions=10)
        assert result.exit_code == 0x1234

    def test_extension_invisible_without_module(self, registered):
        from repro.isa import IllegalInstructionError

        decoder = Decoder(IsaConfig({"I"}))
        with pytest.raises(IllegalInstructionError):
            decoder.decode(0x0000400B | (10 << 7))

    @pytest.mark.parametrize("first", ["before", "after"])
    def test_reregistration_starts_a_new_decode_memo(self, registered,
                                                     first):
        word = 0x0000400B | (10 << 7)
        isa = IsaConfig({"I", "Xtest"})
        decoders = {"before": Decoder(isa)}
        register_extension("Xtest", [make_spec(name="frob2")])
        decoders["after"] = Decoder(isa)
        order = ["before", "after"] if first == "before" \
            else ["after", "before"]
        names = {when: decoders[when].decode(word).name for when in order}
        assert names == {"before": "frob", "after": "frob2"}

    def test_reregistration_replaces_table(self, registered):
        register_extension("Xtest", [make_spec(name="frob2")])
        decoder = Decoder(IsaConfig({"I", "Xtest"}))
        assert "frob2" in decoder.spec_by_name
        assert "frob" not in decoder.spec_by_name

    def test_module_appears_in_config_name(self, registered):
        assert "Xtest" in IsaConfig({"I", "Xtest"}).name

    def test_from_string_finds_registered_module(self, registered):
        config = IsaConfig.from_string("rv32i_xtest")
        assert "Xtest" in config.modules

    def test_coverage_universe_includes_extension(self, registered):
        from repro.coverage import empty_report

        report = empty_report(IsaConfig({"I", "Xtest"}))
        assert "frob" in report.insn_universe
        assert report.insn_universe["frob"] == "Xtest"
