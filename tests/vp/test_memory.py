"""RAM and system bus tests."""

import multiprocessing
import os
import resource

import pytest

import repro.pool as pool_mod
from repro.vp import BusError, Machine, Ram, SystemBus
from repro.vp.memory import Device


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class TestRam:
    def test_little_endian_word(self):
        ram = Ram(64)
        ram.store(0, 4, 0x11223344)
        assert ram.load(0, 1) == 0x44
        assert ram.load(3, 1) == 0x11
        assert ram.load(0, 4) == 0x11223344

    def test_store_masks_value(self):
        ram = Ram(64)
        ram.store(0, 1, 0x1FF)
        assert ram.load(0, 1) == 0xFF

    def test_out_of_range_raises(self):
        ram = Ram(64)
        with pytest.raises(BusError):
            ram.load(64, 1)
        with pytest.raises(BusError):
            ram.store(62, 4, 0)
        with pytest.raises(BusError):
            ram.load(-1, 1)

    def test_bulk_write_read(self):
        ram = Ram(64)
        ram.write_bytes(8, b"hello")
        assert ram.read_bytes(8, 5) == b"hello"

    def test_bulk_out_of_range(self):
        ram = Ram(16)
        with pytest.raises(BusError):
            ram.write_bytes(14, b"abcd")

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Ram(0)
        with pytest.raises(ValueError):
            Ram(13)

    def test_fill(self):
        ram = Ram(8)
        ram.fill(0xAB)
        assert ram.load(5, 1) == 0xAB


class _Recorder(Device):
    def __init__(self):
        self.loads = []
        self.stores = []

    def load(self, offset, width):
        self.loads.append((offset, width))
        return 7

    def store(self, offset, width, value):
        self.stores.append((offset, width, value))


class TestSystemBus:
    def test_dispatch_by_region(self):
        bus = SystemBus()
        dev = _Recorder()
        bus.attach(0x1000, 0x100, dev)
        assert bus.load(0x1004, 4) == 7
        assert dev.loads == [(4, 4)]
        bus.store(0x10FF, 1, 9)
        assert dev.stores == [(0xFF, 1, 9)]

    def test_unmapped_raises(self):
        bus = SystemBus()
        with pytest.raises(BusError):
            bus.load(0x2000, 4)

    def test_overlap_rejected(self):
        bus = SystemBus()
        bus.attach(0x1000, 0x100, _Recorder())
        with pytest.raises(ValueError, match="overlap"):
            bus.attach(0x10FF, 0x10, _Recorder())

    def test_adjacent_regions_allowed(self):
        bus = SystemBus()
        bus.attach(0x1000, 0x100, _Recorder())
        bus.attach(0x1100, 0x100, _Recorder())

    def test_ram_helper_finds_ram(self):
        bus = SystemBus()
        bus.attach(0x0, 0x10, _Recorder())
        assert bus.ram() is None
        ram = Ram(64)
        bus.attach(0x100, 64, ram)
        assert bus.ram() is ram

    def test_regions_property_is_copy(self):
        bus = SystemBus()
        bus.attach(0x0, 0x10, _Recorder())
        bus.regions.clear()
        assert len(bus.regions) == 1


class TestDirtyPages:
    def test_fresh_ram_is_clean(self):
        assert Ram(4096).dirty_pages() == set()

    def test_store_marks_containing_page(self):
        ram = Ram(4096, page_size=256)
        ram.store(300, 4, 0xDEADBEEF)
        assert ram.dirty_pages() == {1}

    def test_straddling_store_marks_both_pages(self):
        ram = Ram(4096, page_size=256)
        ram.store(255, 2, 0xABCD)
        assert ram.dirty_pages() == {0, 1}

    def test_write_bytes_marks_range(self):
        ram = Ram(4096, page_size=256)
        ram.write_bytes(200, bytes(200))
        assert ram.dirty_pages() == {0, 1}

    def test_fill_marks_every_page(self):
        ram = Ram(1024, page_size=256)
        ram.fill(0xAA)
        assert ram.dirty_pages() == {0, 1, 2, 3}
        assert ram.load(512, 1) == 0xAA

    def test_clear_dirty(self):
        ram = Ram(4096, page_size=256)
        ram.store(0, 4, 1)
        ram.clear_dirty()
        assert ram.dirty_pages() == set()

    def test_dirty_pages_returns_copy(self):
        ram = Ram(4096, page_size=256)
        ram.store(0, 4, 1)
        ram.dirty_pages().clear()
        assert ram.dirty_pages() == {0}

    def test_page_size_shrinks_for_tiny_ram(self):
        # Ram(8) cannot hold a 256-byte page; the page size degrades to
        # keep size a whole number of pages.
        ram = Ram(8)
        assert ram.size % ram.page_size == 0
        assert ram.page_count * ram.page_size == ram.size
        ram.store(0, 4, 0x1234)
        assert 0 in ram.dirty_pages()

    def test_page_bytes_and_write_page(self):
        ram = Ram(1024, page_size=256)
        ram.store(256, 4, 0x11223344)
        blob = ram.page_bytes(1)
        assert len(blob) == 256
        assert blob[:4] == (0x11223344).to_bytes(4, "little")
        ram.clear_dirty()
        ram.write_page(1, bytes(256))
        assert ram.load(256, 4) == 0
        # write_page is a restore primitive: it must not mark dirty.
        assert ram.dirty_pages() == set()

    def test_load_does_not_mark_dirty(self):
        ram = Ram(4096, page_size=256)
        ram.load(100, 4)
        ram.read_bytes(0, 64)
        assert ram.dirty_pages() == set()


class TestWrittenPages:
    """The written set: every page that may hold a non-zero byte."""

    def test_clear_dirty_folds_into_the_written_set(self):
        ram = Ram(4096, page_size=256)
        assert ram.written_pages() == set()
        ram.store(300, 4, 1)
        assert ram.written_pages() == {1}
        ram.clear_dirty()
        ram.write_bytes(1000, b"x")
        assert ram.dirty_pages() == {3}
        assert ram.written_pages() == {1, 3}

    def test_write_page_counts_as_written_not_dirty(self):
        ram = Ram(4096, page_size=256)
        ram.write_page(5, b"\x01" * 256)
        assert ram.dirty_pages() == set()
        assert ram.written_pages() == {5}


class TestAnonymousMapping:
    """RAM is a private anonymous mapping: untouched pages cost nothing,
    and a forked worker's writes never reach its parent."""

    def test_building_a_machine_and_its_root_touches_no_ram_page(self):
        Machine().snapshot()  # imports and first-use caches
        before = minor_faults()
        machine = Machine()
        root = machine.snapshot()
        # A touched 4 MiB RAM costs 1024 faults of 4 KiB pages.
        assert minor_faults() - before < 64
        assert root.ram_pages == {}
        assert machine.ram.load(machine.ram.size - 4, 4) == 0

    def test_forked_workers_cannot_write_the_parents_ram(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform cannot fork")
        monkeypatch.setattr(pool_mod, "available_cpus", lambda: 2)
        machine = Machine()
        ram = machine.ram
        ram.store(0x100, 4, 0x12345678)
        image = bytes(ram.data)
        dirty = ram.dirty_pages()
        parent = os.getpid()

        def scribble(page):
            ram.write_bytes(page * ram.page_size, b"\xaa" * ram.page_size)
            ram.clear_dirty()
            return os.getpid(), ram.load(page * ram.page_size, 4)

        with pool_mod.Workers(scribble, jobs=2, work=2) as workers:
            assert workers.count == 2
            seen = list(workers.map([1, 7]))
        assert [value for _pid, value in seen] == [0xAAAAAAAA] * 2
        assert all(pid != parent for pid, _value in seen)
        assert bytes(ram.data) == image
        assert ram.dirty_pages() == dirty
        assert ram.written_pages() == dirty


class TestStuckBit:
    """Ram.install_stuck: the buffer holds the forced bit, every write
    path forces it again, and its page stays dirty until removal."""

    def stuck_ram(self, stuck_one=True):
        ram = Ram(1024, page_size=256)
        ram.store(300, 4, 0x11223344)
        ram.clear_dirty()
        ram.install_stuck(301, 0x08 if stuck_one else 0x02, stuck_one)
        return ram

    def test_install_forces_the_buffer_and_marks_its_page(self):
        ram = self.stuck_ram()
        assert ram.stuck == (301, 0x08, True)
        assert ram.load(300, 4) == 0x11223B44
        assert ram.read_bytes(301, 1) == b"\x3b"
        assert ram.dirty_pages() == {1}

    def test_every_write_path_forces_it_again(self):
        ram = self.stuck_ram()
        ram.store(300, 4, 0)
        assert ram.load(300, 4) == 0x0800
        ram.store(301, 1, 0)
        assert ram.load(301, 1) == 0x08
        ram.store(300, 2, 0)
        assert ram.load(300, 2) == 0x0800
        ram.write_bytes(296, bytes(16))
        assert ram.load(300, 4) == 0x0800
        ram.fill(0)
        assert ram.load(300, 4) == 0x0800

    def test_stuck_at_zero(self):
        ram = self.stuck_ram(stuck_one=False)
        assert ram.load(301, 1) == 0x33 & ~0x02
        ram.store(300, 4, 0xFFFFFFFF)
        assert ram.load(300, 4) == 0xFFFFFDFF

    def test_page_stays_dirty_and_restore_helpers_force(self):
        ram = self.stuck_ram()
        image = [ram.page_bytes(index) for index in range(ram.page_count)]
        ram.clear_dirty()
        assert ram.dirty_pages() == {1}
        ram.write_page(1, bytes(256))
        assert ram.load(301, 1) == 0x08
        for index, blob in enumerate(image):
            ram.write_page(index, blob)
        assert ram.load(300, 4) == 0x11223B44

    def test_remove_keeps_the_byte_and_its_dirty_page(self):
        ram = self.stuck_ram()
        ram.store(0, 4, 5)
        ram.remove_stuck()
        assert ram.stuck is None
        assert ram.dirty_pages() == {0, 1}
        assert ram.load(301, 1) == 0x3B  # rewritten by the next restore
        ram.store(300, 4, 0)
        assert ram.load(300, 4) == 0
        ram.clear_dirty()
        assert ram.dirty_pages() == set()
        ram.remove_stuck()  # no-op without a stuck bit

    def test_reinstall_rebinds_the_same_page_sets(self):
        ram = Ram(1024, page_size=256)
        plain = ram._dirty
        ram.install_stuck(5, 1, True)
        stuck = ram._dirty
        ram.remove_stuck()
        assert ram._dirty is plain
        ram.install_stuck(700, 0x80, False)
        assert ram._dirty is stuck
        ram.store(700, 1, 0xFF)
        assert ram.load(700, 1) == 0x7F
        assert ram.load(5, 1) == 1  # the old bit is released

    def test_bad_installs_are_rejected(self):
        ram = Ram(64)
        with pytest.raises(BusError):
            ram.install_stuck(64, 1, True)
        ram.install_stuck(0, 1, True)
        with pytest.raises(ValueError, match="already"):
            ram.install_stuck(1, 1, True)


class TestBisectDispatch:
    def test_many_regions_dispatch_correctly(self):
        bus = SystemBus()
        devices = []
        for i in range(16):
            dev = _Recorder()
            devices.append(dev)
            bus.attach(0x1000 * (i + 1), 0x100, dev)
        for i in (0, 7, 15):
            bus.store(0x1000 * (i + 1) + 4, 1, i)
            assert devices[i].stores == [(4, 1, i)]
        with pytest.raises(BusError):
            bus.load(0x1000 * 17, 1)

    def test_replace_keeps_dispatch(self):
        bus = SystemBus()
        old, new = _Recorder(), _Recorder()
        bus.attach(0x1000, 0x100, old)
        bus.attach(0x2000, 0x100, _Recorder())
        bus.replace(0x1000, new)
        bus.store(0x1010, 1, 3)
        assert new.stores == [(0x10, 1, 3)]
        assert old.stores == []
