"""Unit tests for the GPR and FPR register files."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import ABI_NAMES, FPRegisterFile, RegisterFile, gpr_name
from repro.isa.registers import parse_fpr, parse_gpr


class TestRegisterFile:
    def test_x0_reads_zero_after_write(self):
        regs = RegisterFile()
        regs.write(0, 0xDEADBEEF)
        assert regs.read(0) == 0

    def test_values_masked_to_32_bits(self):
        regs = RegisterFile()
        regs.write(5, 1 << 40 | 7)
        assert regs.read(5) == 7

    def test_negative_write_wraps(self):
        regs = RegisterFile()
        regs.write(3, -1)
        assert regs.read(3) == 0xFFFFFFFF

    def test_indexing_operators(self):
        regs = RegisterFile()
        regs[4] = 99
        assert regs[4] == 99

    def test_raw_write_bypasses_x0_hardwiring(self):
        regs = RegisterFile()
        regs.raw_write(0, 5)
        assert regs.raw_read(0) == 5
        # Architectural read still goes through the real storage here:
        # raw access models a fault on the physical register.
        assert regs.read(0) == 5

    def test_snapshot_restore_roundtrip(self):
        regs = RegisterFile()
        for i in range(32):
            regs.write(i, i * 3)
        snap = regs.snapshot()
        regs.write(5, 0)
        regs.restore(snap)
        assert regs.read(5) == 15

    def test_restore_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            RegisterFile().restore([0] * 31)

    def test_restore_re_zeroes_x0(self):
        regs = RegisterFile()
        regs.restore([7] * 32)
        assert regs.read(0) == 0

    def test_reset_clears_values_and_trace(self):
        # Register files keep no access trace (coverage derives accesses
        # from encodings), so reset has only values to clear.
        regs = RegisterFile()
        regs.write(9, 1)
        regs.reset()
        assert regs.read(9) == 0

    def test_dump_contains_abi_names(self):
        dump = RegisterFile().dump()
        for name in ("zero", "ra", "sp", "t6"):
            assert name in dump

    @given(st.integers(min_value=1, max_value=31),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_write_read_identity(self, num, value):
        regs = RegisterFile()
        regs.write(num, value)
        assert regs.read(num) == value


class TestNames:
    def test_abi_names_resolve(self):
        assert parse_gpr("sp") == 2
        assert parse_gpr("a0") == 10
        assert parse_gpr("t6") == 31

    def test_numeric_names_resolve(self):
        assert parse_gpr("x0") == 0
        assert parse_gpr("X15") == 15

    def test_fp_alias(self):
        assert parse_gpr("fp") == parse_gpr("s0") == 8

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            parse_gpr("y3")

    def test_gpr_name_inverse(self):
        for i in range(32):
            assert parse_gpr(gpr_name(i)) == i

    def test_fpr_names(self):
        assert parse_fpr("fa0") == 10
        assert parse_fpr("f31") == 31
        with pytest.raises(KeyError):
            parse_fpr("a0")

    def test_abi_table_complete(self):
        assert len(ABI_NAMES) == 32
        assert len(set(ABI_NAMES)) == 32


class TestFPRegisterFile:
    def test_f0_is_writable(self):
        fregs = FPRegisterFile()
        fregs.write(0, 0x3F800000)
        assert fregs.read(0) == 0x3F800000

    def test_snapshot_restore(self):
        fregs = FPRegisterFile()
        fregs.write(3, 42)
        snap = fregs.snapshot()
        fregs.write(3, 0)
        fregs.restore(snap)
        assert fregs.read(3) == 42
