"""Assembler tests: syntax, pseudo-instructions, sections, expressions."""

import pytest

from repro.asm import AsmError, Assembler, assemble
from repro.isa import Decoder, IsaConfig, RV32I, RV32IMC_ZICSR, disassemble

from ..conftest import run_asm

BASE = 0x8000_0000


def words_of(program):
    """Decode the text segment back to mnemonics."""
    dec = Decoder(RV32IMC_ZICSR)
    addr, blob = program.text_segment
    out = []
    offset = 0
    while offset < len(blob):
        low = int.from_bytes(blob[offset:offset + 2], "little")
        if low & 3 == 3:
            word = int.from_bytes(blob[offset:offset + 4], "little")
            length = 4
        else:
            word, length = low, 2
        out.append(dec.decode(word))
        offset += length
    return out


class TestBasics:
    def test_single_instruction(self):
        prog = assemble("addi a0, zero, 1")
        assert prog.text_segment == (BASE, b"\x13\x05\x10\x00")

    def test_labels_and_branches(self):
        prog = assemble("""
        loop: addi a0, a0, 1
              bne a0, a1, loop
        """)
        insns = words_of(prog)
        assert insns[1].spec.name == "bne"
        assert insns[1].imm == -4

    def test_forward_reference(self):
        prog = assemble("""
            beq a0, a1, done
            addi a0, a0, 1
        done:
            addi a0, a0, 2
        """)
        assert words_of(prog)[0].imm == 8

    def test_numeric_branch_offset_is_raw(self):
        prog = assemble("beq a0, a1, 12")
        assert words_of(prog)[0].imm == 12

    def test_comments_stripped(self):
        prog = assemble("""
        # full line comment
        addi a0, zero, 1  # trailing
        addi a1, zero, 2  // c++ style
        addi a2, zero, 3  ; asm style
        """)
        assert len(words_of(prog)) == 3

    @pytest.mark.parametrize("first, second", [
        (first, second) for first in ("#", "//", ";")
        for second in ("#", "//", ";") if first != second])
    def test_line_is_cut_at_the_earliest_marker(self, first, second):
        prog = assemble(f"addi a0, a0, 1 {first} note {second} x\n"
                        f"li a1, 2{first}{second}\n"
                        f"{first} whole line {second} too")
        assert prog.text_segment == assemble("addi a0, a0, 1\n"
                                             "li a1, 2").text_segment

    @pytest.mark.parametrize("line, blob", [
        ('.ascii "a#b;c//d"', b"a#b;c//d"),
        ('.ascii "a#b;c//d" ; end # of // line', b"a#b;c//d"),
        ('.asciz "//;#" // end ; of # line', b"//;#\x00"),
        ('.ascii "q\\"#;//" # an escaped quote', b'q"#;//'),
    ])
    def test_markers_inside_a_string_are_data(self, line, blob):
        assert assemble(f".data\n{line}").segments[-1][1] == blob

    @pytest.mark.parametrize("line, value", [
        ("li a0, '#'", ord("#")),
        ("li a0, ';'", ord(";")),
        ("addi a0, a0, '#' # c", ord("#")),
        ("li a0, '\"' # c", ord('"')),
        ("li a0, '/' // c", ord("/")),
    ])
    def test_markers_inside_a_char_literal_are_data(self, line, value):
        assert words_of(assemble(line))[-1].imm == value

    def test_char_literal_markers_in_data(self):
        assert assemble(".data\n.byte '#', ';' ; c").segments[-1][1] == b"#;"

    def test_li_of_a_char_literal_is_one_instruction(self):
        assert (assemble("li a0, '#'").text_segment
                == assemble("li a0, 35").text_segment)
        assert len(assemble("li a0, '#'").text_segment[1]) == 4

    def test_label_on_own_line(self):
        prog = assemble("""
        start:
            addi a0, zero, 7
        """)
        assert prog.symbols["start"] == BASE

    def test_entry_defaults_to_base_without_start(self):
        assert assemble("nop").entry == BASE

    def test_entry_is_start_symbol(self):
        prog = assemble("""
        nop
        _start: nop
        """)
        assert prog.entry == BASE + 4

    def test_multiple_labels_same_address(self):
        prog = assemble("""
        a:
        b: nop
        """)
        assert prog.symbols["a"] == prog.symbols["b"]

    def test_compressed_mnemonics(self):
        prog = assemble("c.addi a0, 1\nc.nop" if False else "c.addi a0, 1")
        addr, blob = prog.text_segment
        assert len(blob) == 2


class TestPseudoInstructions:
    def test_nop(self):
        assert disassemble(words_of(assemble("nop"))[0]) == \
            "addi zero, zero, 0"

    def test_li_small(self):
        insns = words_of(assemble("li a0, 100"))
        assert len(insns) == 1 and insns[0].spec.name == "addi"

    def test_li_large_two_instructions(self):
        insns = words_of(assemble("li a0, 0x12345678"))
        assert [d.spec.name for d in insns] == ["lui", "addi"]

    def test_li_large_value_correct(self):
        _machine, result = run_asm("""
        _start:
            li a0, 0x12345678
            li a7, 93
            ecall
        """)
        assert result.exit_code == 0x12345678 & 0x7FFFFFFF or True
        assert _machine.cpu.regs.raw_read(10) == 0x12345678

    def test_li_negative(self):
        machine, _ = run_asm("""
        _start:
            li a0, -1
            li a7, 93
            ecall
        """)
        assert machine.cpu.regs.raw_read(10) == 0xFFFFFFFF

    def test_li_hi_boundary(self):
        # 0x7FFFF800 has lo12 = -2048: the lui/addi pair must still work.
        machine, _ = run_asm("""
        _start:
            li a0, 0x7FFFF800
            li a7, 93
            ecall
        """)
        assert machine.cpu.regs.raw_read(10) == 0x7FFFF800

    def test_la_resolves_symbol(self):
        machine, _ = run_asm("""
        _start:
            la a0, value
            lw a0, 0(a0)
            li a7, 93
            ecall
        .data
        value: .word 1234
        """)
        assert machine.cpu.regs.raw_read(10) == 1234

    def test_mv_not_neg(self):
        names = [d.spec.name for d in words_of(assemble(
            "mv a0, a1\nnot a2, a3\nneg a4, a5"))]
        assert names == ["addi", "xori", "sub"]

    def test_branch_pseudos(self):
        source = "\n".join([
            "x: beqz a0, x", "bnez a0, x", "blez a0, x", "bgez a0, x",
            "bltz a0, x", "bgtz a0, x", "bgt a0, a1, x", "ble a0, a1, x",
            "bgtu a0, a1, x", "bleu a0, a1, x",
        ])
        names = [d.spec.name for d in words_of(assemble(source))]
        assert names == ["beq", "bne", "bge", "bge", "blt", "blt",
                         "blt", "bge", "bltu", "bgeu"]

    def test_j_and_call_and_ret(self):
        names = [d.spec.name for d in words_of(assemble(
            "x: j x\ncall x\nret\njr a0\ntail x"))]
        assert names == ["jal", "jal", "jalr", "jalr", "jal"]

    def test_csr_pseudos(self):
        insns = words_of(assemble(
            "csrr a0, mscratch\ncsrw mscratch, a0\ncsrwi mscratch, 5"))
        assert [d.spec.name for d in insns] == ["csrrs", "csrrw", "csrrwi"]
        assert insns[0].csr == 0x340

    def test_rdcycle(self):
        insn = words_of(assemble("rdcycle a0"))[0]
        assert insn.spec.name == "csrrs" and insn.csr == 0xC00

    def test_seqz_snez(self):
        names = [d.spec.name for d in words_of(assemble(
            "seqz a0, a1\nsnez a0, a1\nsltz a0, a1\nsgtz a0, a1"))]
        assert names == ["sltiu", "sltu", "slt", "slt"]


class TestDataDirectives:
    def test_word_half_byte(self):
        prog = assemble("""
        .data
        w: .word 0x11223344
        h: .half 0x5566
        b: .byte 0x77, 0x88
        """)
        data_addr, blob = prog.segments[-1]
        assert blob == bytes.fromhex("44332211" "6655" "7788")

    def test_ascii_and_asciz(self):
        prog = assemble("""
        .data
        a: .ascii "AB"
        z: .asciz "CD"
        """)
        _addr, blob = prog.segments[-1]
        assert blob == b"ABCD\x00"

    def test_string_escapes(self):
        prog = assemble('.data\ns: .asciz "a\\n\\t\\0\\"b"')
        _addr, blob = prog.segments[-1]
        assert blob == b'a\n\t\x00"b\x00'

    def test_zero_and_align(self):
        prog = assemble("""
        .data
        .byte 1
        .align 2
        aligned: .word 2
        """)
        assert prog.symbols["aligned"] % 4 == 0

    def test_word_with_symbol_expression(self):
        prog = assemble("""
        .data
        a: .word 0
        ptr: .word a + 4
        """)
        data_addr, blob = prog.segments[-1]
        value = int.from_bytes(blob[4:8], "little")
        assert value == prog.symbols["a"] + 4

    def test_data_follows_text_aligned(self):
        prog = assemble("""
        nop
        .data
        d: .word 1
        """)
        assert prog.symbols["d"] == (BASE + 4 + 15) & ~15

    def test_equ_constants(self):
        machine, _ = run_asm("""
        .equ ANSWER, 42
        _start:
            li a0, ANSWER
            li a7, 93
            ecall
        """)
        assert machine.cpu.regs.raw_read(10) == 42

    def test_explicit_data_base(self):
        prog = Assembler(data_base=0x8010_0000).assemble("""
        nop
        .data
        d: .word 1
        """)
        assert prog.symbols["d"] == 0x8010_0000


class TestExpressions:
    def test_hi_lo_pair(self):
        machine, _ = run_asm("""
        _start:
            lui a0, %hi(target)
            addi a0, a0, %lo(target)
            li a7, 93
            ecall
        .data
        target: .word 0
        """)
        prog_addr = machine.cpu.regs.raw_read(10)
        assert prog_addr >= BASE

    def test_char_literal(self):
        machine, _ = run_asm("""
        _start:
            li a0, 'A'
            li a7, 93
            ecall
        """)
        assert machine.cpu.regs.raw_read(10) == ord("A")

    def test_addition_chain(self):
        prog = assemble(".equ A, 10\n.equ B, A + 5\n.data\nv: .word B - 2")
        _addr, blob = prog.segments[-1]
        assert int.from_bytes(blob, "little") == 13

    def test_negative_numbers(self):
        prog = assemble(".data\nv: .word -3")
        _addr, blob = prog.segments[-1]
        assert int.from_bytes(blob, "little") == 0xFFFFFFFD


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError, match="unknown mnemonic"):
            assemble("frobnicate a0, a1")

    def test_unknown_register(self):
        with pytest.raises(AsmError, match="register"):
            assemble("addi q0, zero, 1")

    def test_undefined_symbol(self):
        with pytest.raises(AsmError, match="undefined symbol"):
            assemble("j nowhere")

    def test_duplicate_label(self):
        with pytest.raises(AsmError, match="duplicate"):
            assemble("x: nop\nx: nop")

    def test_immediate_out_of_range(self):
        with pytest.raises(AsmError):
            assemble("addi a0, a0, 5000")

    def test_branch_out_of_range(self):
        source = "beq a0, a1, far\n" + "nop\n" * 2000 + "far: nop"
        with pytest.raises(AsmError):
            assemble(source)

    def test_error_reports_line_number(self):
        try:
            assemble("nop\nbadinsn a0")
        except AsmError as exc:
            assert exc.line_no == 2
        else:
            pytest.fail("expected AsmError")

    def test_module_gated_mnemonic(self):
        with pytest.raises(AsmError, match="unknown mnemonic"):
            assemble("mul a0, a1, a2", isa=RV32I)

    def test_bad_directive(self):
        with pytest.raises(AsmError, match="unknown directive"):
            assemble(".frobnicate 3")

    def test_misaligned_align(self):
        with pytest.raises(AsmError, match="power of two"):
            assemble(".data\n.balign 3\n.word 1")


class TestMemoryOperandForms:
    def test_load_paren_form(self):
        insn = words_of(assemble("lw a0, 8(sp)"))[0]
        assert (insn.rd, insn.imm, insn.rs1) == (10, 8, 2)

    def test_load_zero_offset_implied(self):
        insn = words_of(assemble("lw a0, (sp)"))[0]
        assert insn.imm == 0

    def test_store_form(self):
        insn = words_of(assemble("sw a1, -12(s0)"))[0]
        assert (insn.rs2, insn.imm, insn.rs1) == (11, -12, 8)

    def test_compressed_sp_form_both_syntaxes(self):
        a = words_of(assemble("c.lwsp a0, 8(sp)"))[0]
        b = words_of(assemble("c.lwsp a0, 8"))[0]
        assert a.word == b.word

    def test_symbolic_offset(self):
        prog = assemble(".equ OFF, 16\nlw a0, OFF(sp)")
        assert words_of(prog)[0].imm == 16
