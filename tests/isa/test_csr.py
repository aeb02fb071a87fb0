"""Unit tests for the CSR file."""

import pytest

from repro.coverage.access import access_of
from repro.isa import RV32IMC_ZICSR, Decoder
from repro.isa import csr as c
from repro.isa.encoder import encode


def make_csrs(**kwargs):
    return c.CsrFile(modules={"I", "M", "C"}, **kwargs)


class TestBasicAccess:
    def test_scratch_read_write(self):
        csrs = make_csrs()
        csrs.write(c.MSCRATCH, 0x1234)
        assert csrs.read(c.MSCRATCH) == 0x1234

    def test_values_masked_to_32_bits(self):
        csrs = make_csrs()
        csrs.write(c.MSCRATCH, 1 << 35 | 9)
        assert csrs.read(c.MSCRATCH) == 9

    def test_unimplemented_read_raises(self):
        with pytest.raises(c.IllegalCsrError):
            make_csrs().read(0x5C0)

    def test_unimplemented_write_raises(self):
        with pytest.raises(c.IllegalCsrError):
            make_csrs().write(0x5C0, 1)

    def test_read_only_write_raises(self):
        with pytest.raises(c.IllegalCsrError):
            make_csrs().write(c.MHARTID, 1)

    def test_read_only_detection_by_address_bits(self):
        assert c.CsrFile.is_read_only(0xF14)
        assert c.CsrFile.is_read_only(0xC00)
        assert not c.CsrFile.is_read_only(0x340)


class TestWarlBehaviour:
    def test_mstatus_only_writable_bits_stick(self):
        csrs = make_csrs()
        csrs.write(c.MSTATUS, 0xFFFFFFFF)
        assert csrs.read(c.MSTATUS) == c.MSTATUS_WRITABLE

    def test_misa_writes_ignored(self):
        csrs = make_csrs()
        before = csrs.read(c.MISA)
        csrs.write(c.MISA, 0)
        assert csrs.read(c.MISA) == before

    def test_mtvec_reserved_mode_clamped(self):
        csrs = make_csrs()
        csrs.write(c.MTVEC, 0x8000_0002)
        assert csrs.read(c.MTVEC) & 0x3 == 0

    def test_mtvec_vectored_mode_preserved(self):
        csrs = make_csrs()
        csrs.write(c.MTVEC, 0x8000_0001)
        assert csrs.read(c.MTVEC) & 0x3 == 1


class TestMisa:
    def test_misa_reflects_modules(self):
        csrs = make_csrs()
        misa = csrs.read(c.MISA)
        assert misa & (1 << 8)   # I
        assert misa & (1 << 12)  # M
        assert misa & (1 << 2)   # C
        assert not misa & (1 << 5)  # no F
        assert (misa >> 30) == 1  # MXL=32

    def test_misa_value_ignores_multichar_modules(self):
        assert c.misa_value({"I", "Zicsr"}) == (1 << 30) | (1 << 8)


class TestCounters:
    def test_cycle_counter_64bit_split(self):
        csrs = make_csrs()
        csrs.cycle = 0x1_2345_6789
        assert csrs.read(c.MCYCLE) == 0x2345_6789
        assert csrs.read(c.MCYCLEH) == 1
        assert csrs.read(c.CYCLE) == 0x2345_6789

    def test_instret_counter(self):
        csrs = make_csrs()
        csrs.instret = 42
        assert csrs.read(c.MINSTRET) == 42
        assert csrs.read(c.INSTRET) == 42

    def test_mcycle_write_low_preserves_high(self):
        csrs = make_csrs()
        csrs.cycle = 0x5_0000_0001
        csrs.write(c.MCYCLE, 7)
        assert csrs.cycle == 0x5_0000_0007

    def test_mcycleh_write(self):
        csrs = make_csrs()
        csrs.write(c.MCYCLEH, 2)
        assert csrs.cycle == 2 << 32

    def test_time_uses_time_source(self):
        csrs = c.CsrFile(modules={"I"}, time_source=lambda: 0xAB_0000_0001)
        assert csrs.read(c.TIME) == 1
        assert csrs.read(c.TIMEH) == 0xAB

    def test_time_defaults_to_cycle(self):
        csrs = make_csrs()
        csrs.cycle = 99
        assert csrs.read(c.TIME) == 99


class TestTraceAndSnapshot:
    def test_trace_records_accesses(self):
        # Coverage takes CSR accesses from each encoding's access sets,
        # which record what the CSR file performs: a read before it may
        # raise, a write once it passed the read-only check.
        decoder = Decoder(RV32IMC_ZICSR)

        def retired(*operands):
            return access_of(decoder.decode(encode(decoder, *operands)))[0]

        write = retired("csrrw", 0, c.MSCRATCH, 5)   # csrw mscratch, t0
        read = retired("csrrs", 5, c.MEPC, 0)        # csrr t0, mepc
        assert write.csr_writes == {c.MSCRATCH} and not write.csr_reads
        assert read.csr_reads == {c.MEPC} and not read.csr_writes
        assert retired("csrrw", 0, c.MHARTID, 5).csr_writes == frozenset()
        assert retired("csrrs", 5, 0x7C0, 0).csr_reads == {0x7C0}

    def test_snapshot_restore(self):
        csrs = make_csrs()
        csrs.write(c.MSCRATCH, 5)
        csrs.cycle = 10
        snap = csrs.snapshot()
        csrs.write(c.MSCRATCH, 0)
        csrs.cycle = 0
        csrs.restore(snap)
        assert csrs.read(c.MSCRATCH) == 5
        assert csrs.cycle == 10

    def test_minstret_write_moves_an_offset_that_snapshots_carry(self):
        csrs = make_csrs()
        csrs.instret = 10
        csrs.write(c.MINSTRET, 3)
        csrs.write(c.MINSTRETH, 1)
        assert csrs.instret == 10
        csrs.instret += 5
        assert (csrs.read(c.MINSTRET), csrs.read(c.MINSTRETH)) == (8, 1)
        copy = make_csrs()
        copy.restore(csrs.snapshot())
        assert (copy.read(c.INSTRET), copy.read(c.INSTRETH)) == (8, 1)

    def test_known_addresses_include_counters(self):
        known = make_csrs().known_addresses()
        assert c.CYCLE in known
        assert c.MSTATUS in known


class TestNames:
    def test_name_table_bijective(self):
        assert len(c.CSR_NAMES) == len(c.CSR_ADDRS)
        for addr, name in c.CSR_NAMES.items():
            assert c.CSR_ADDRS[name] == addr
