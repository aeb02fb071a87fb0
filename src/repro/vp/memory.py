"""Physical memory and the system bus.

The bus dispatches physical addresses to devices.  Every device implements
the small :class:`Device` protocol (``load``/``store`` on offsets within its
window).  :class:`Ram` is the ordinary byte-addressable memory; MMIO
peripherals live in :mod:`repro.vp.devices`.

:class:`Ram` tracks *dirty pages* — the page-granular set of regions
written since the last :meth:`Ram.clear_dirty` — and *written pages*,
every page that may hold a non-zero byte.  The machine checkpoint engine
(:meth:`repro.vp.machine.Machine.snapshot`) uses the two to store and
restore only pages, never the whole RAM image.
"""

from __future__ import annotations

import mmap
import struct
from bisect import bisect_right
from typing import Dict, List, Optional, Set, Tuple

from .trap import BusError

_WIDTH_MASKS = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}

#: Bound little-endian (un)packers for the two multi-byte access widths.
#: Shared by :class:`Ram`, the CPU's RAM fast path, and the JIT memory
#: templates — one :class:`struct.Struct` call replaces a buffer
#: slice plus ``int.from_bytes``/``to_bytes`` on every aligned access.
UNPACK_WORD = struct.Struct("<I").unpack_from
UNPACK_HALF = struct.Struct("<H").unpack_from
PACK_WORD = struct.Struct("<I").pack_into
PACK_HALF = struct.Struct("<H").pack_into

#: Default dirty-tracking page size in bytes.  Small enough that short
#: campaign programs dirty a handful of pages, large enough that the
#: tracking set stays tiny for memory-heavy workloads.
DEFAULT_PAGE_SIZE = 256


class Device:
    """Protocol for bus targets.  Offsets are relative to the mapping base."""

    def load(self, offset: int, width: int) -> int:
        raise NotImplementedError

    def store(self, offset: int, width: int, value: int) -> None:
        raise NotImplementedError


class _StuckPages(set):
    """The dirty-page set of a :class:`Ram` holding a stuck bit.

    Every RAM write path writes the buffer first and then marks the pages
    it wrote (``Cpu.store``, the JIT store templates, :meth:`Ram.store`,
    :meth:`Ram.write_bytes`, :meth:`Ram.fill`), so marking is where the
    bit is forced again: the buffer always holds the stuck value, and
    loads, fetches and bulk reads need no check of their own.  The stuck
    byte's page never leaves the set, because there the buffer can differ
    from any snapshot image.
    """

    __slots__ = ("_data", "_offset", "_page", "_mask", "_one")

    def __init__(self, data: mmap.mmap) -> None:
        super().__init__()
        self._data = data

    def arm(self, offset: int, page: int, mask: int, stuck_one: bool,
            marked: Set[int]) -> None:
        """Hold the bit at ``offset`` from now on, starting from the page
        set ``marked``."""
        self._offset = offset
        self._page = page
        self._mask = mask
        self._one = stuck_one
        set.clear(self)
        set.update(self, marked)
        self.add(page)

    def force(self) -> None:
        if self._one:
            self._data[self._offset] |= self._mask
        else:
            self._data[self._offset] &= ~self._mask

    def add(self, page: int) -> None:
        set.add(self, page)
        if page == self._page:
            self.force()

    def update(self, pages) -> None:
        set.update(self, pages)
        self.force()

    def clear(self) -> None:
        set.clear(self)
        set.add(self, self._page)


class Ram(Device):
    """Flat little-endian RAM with dirty-page tracking for delta
    checkpoints.

    ``data`` is a private anonymous mapping (``MAP_PRIVATE``): the kernel
    hands out zero pages on first touch, so building a Ram touches no
    page and resident memory is only what is written, and a forked
    worker's writes stay copy-on-write, invisible to its parent.

    Every mutating entry point (:meth:`store`, :meth:`write_bytes`,
    :meth:`fill`) records the touched page indices in the dirty set;
    :meth:`dirty_pages` / :meth:`clear_dirty` let checkpoint code copy
    only what changed since the last snapshot or restore, and
    :meth:`clear_dirty` folds the set into :meth:`written_pages`, so the
    store paths pay nothing for it.  The restore helper
    :meth:`write_page` intentionally bypasses dirty marking — the caller
    re-establishes a known state and clears the set afterwards — but
    counts its page as written.

    :meth:`install_stuck` / :meth:`remove_stuck` hold one bit of one byte
    at 0 or 1, the permanent memory fault model, without leaving the
    CPU's RAM fast path.
    """

    def __init__(self, size: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if size <= 0 or size % 4:
            raise ValueError(f"RAM size must be a positive multiple of 4, got {size}")
        if page_size < 4 or page_size & (page_size - 1):
            raise ValueError(f"page size must be a power of two >= 4, got {page_size}")
        # Shrink the page to fit small RAMs (size is a multiple of 4, so
        # this always terminates at a valid power of two).
        while size % page_size:
            page_size >>= 1
        self.size = size
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self._dirty: Set[int] = set()
        #: Pages written before the last :meth:`clear_dirty`, plus the
        #: pages :meth:`write_page` rewrote; every other page is zero.
        self._written: Set[int] = set()
        #: ``(offset, mask, stuck_one)`` of the installed stuck bit, or
        #: ``None``.  The compiled tier keys its code on whether one is
        #: installed.
        self.stuck: Optional[Tuple[int, int, bool]] = None
        # The two page sets ``_dirty`` switches between.  Both live as
        # long as the Ram, so code that bound one (the CPU's fast-path
        # window, JIT namespaces) stays valid across install/remove.
        self._pages = self._dirty
        self._stuck_pages: Optional[_StuckPages] = None

    # -- dirty-page tracking -------------------------------------------

    @property
    def page_count(self) -> int:
        return self.size >> self._page_shift

    def dirty_pages(self) -> Set[int]:
        """Pages written since the last :meth:`clear_dirty` (a copy)."""
        return set(self._dirty)

    def clear_dirty(self) -> None:
        self._written |= self._dirty
        self._dirty.clear()

    def written_pages(self) -> Set[int]:
        """Every page that may hold a non-zero byte: the pages written
        since the Ram was built (a copy).  All other pages read as zero."""
        return self._written | self._dirty

    def page_bytes(self, index: int) -> bytes:
        """Current contents of page ``index``."""
        start = index << self._page_shift
        return self.data[start:start + self.page_size]

    def write_page(self, index: int, blob: bytes) -> None:
        """Overwrite page ``index`` *without* marking it dirty.

        Checkpoint-restore only: the caller is re-establishing a known
        state and resets the dirty set itself.
        """
        start = index << self._page_shift
        self.data[start:start + self.page_size] = blob
        self._written.add(index)
        if self.stuck is not None:
            self._dirty.force()

    # -- stuck bit -----------------------------------------------------

    def install_stuck(self, offset: int, mask: int, stuck_one: bool) -> None:
        """Force the ``mask`` bit of byte ``offset`` to 1 (``stuck_one``)
        or 0 until :meth:`remove_stuck`.

        The buffer itself holds the forced value, so every load, fetch
        and bulk read sees it, and every store covering the byte forces
        it again.  The byte's page is dirty from now on.  The CPU caches
        the dirty set with its fast-path window: call
        ``Cpu.invalidate_ram_window`` after installing or removing.
        """
        if not 0 <= offset < self.size:
            raise BusError(offset, f"stuck bit beyond RAM size {self.size:#x}")
        if self.stuck is not None:
            raise ValueError("RAM already holds a stuck bit")
        pages = self._stuck_pages
        if pages is None:
            pages = self._stuck_pages = _StuckPages(self.data)
        pages.arm(offset, offset >> self._page_shift, mask, stuck_one,
                  self._dirty)
        self._dirty = pages
        self.stuck = (offset, mask, stuck_one)

    def remove_stuck(self) -> None:
        """Release the stuck bit.  The byte keeps its forced value and its
        page stays dirty, so the next snapshot restore rewrites it."""
        if self.stuck is None:
            return
        self._pages.clear()
        self._pages.update(self._dirty)
        self._dirty = self._pages
        self.stuck = None

    # -- device protocol -----------------------------------------------

    def load(self, offset: int, width: int) -> int:
        if offset < 0 or offset + width > self.size:
            raise BusError(offset, f"RAM load beyond size {self.size:#x}")
        if width == 4:
            return UNPACK_WORD(self.data, offset)[0]
        if width == 1:
            return self.data[offset]
        return UNPACK_HALF(self.data, offset)[0]

    def store(self, offset: int, width: int, value: int) -> None:
        if offset < 0 or offset + width > self.size:
            raise BusError(offset, f"RAM store beyond size {self.size:#x}")
        if width == 4:
            PACK_WORD(self.data, offset, value & 0xFFFFFFFF)
        elif width == 1:
            self.data[offset] = value & 0xFF
        else:
            PACK_HALF(self.data, offset, value & 0xFFFF)
        shift = self._page_shift
        first = offset >> shift
        self._dirty.add(first)
        last = (offset + width - 1) >> shift
        if last != first:  # unaligned store straddling a page boundary
            self._dirty.add(last)

    def write_bytes(self, offset: int, blob: bytes) -> None:
        """Bulk image load (program loader, fault injection patches)."""
        if offset < 0 or offset + len(blob) > self.size:
            raise BusError(offset, "RAM image beyond size")
        self.data[offset:offset + len(blob)] = blob
        if blob:
            shift = self._page_shift
            self._dirty.update(range(offset >> shift,
                                     ((offset + len(blob) - 1) >> shift) + 1))

    def read_bytes(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > self.size:
            raise BusError(offset, "RAM read beyond size")
        return self.data[offset:offset + length]

    def fill(self, value: int = 0) -> None:
        # Mutate in place: the CPU's RAM fast path caches a reference to
        # ``self.data``, so the mapping's identity must be stable for the
        # lifetime of the Ram (only the bus mapping may change it).
        self.data[:] = bytes([value & 0xFF]) * self.size
        self._dirty.update(range(self.page_count))


class SystemBus:
    """Maps address windows to devices and routes aligned accesses.

    Alignment is checked by the CPU (which knows whether to raise a
    misaligned-load or misaligned-store trap); the bus only validates
    mapping and range.
    """

    def __init__(self) -> None:
        self._regions: List[Tuple[int, int, Device]] = []
        #: Sorted region base addresses, parallel to ``_regions`` — the
        #: bisect key for :meth:`device_at`.
        self._bases: List[int] = []
        #: Topology generation, bumped on every :meth:`attach` /
        #: :meth:`replace`.  The CPU compares this against the version it
        #: cached alongside its RAM fast-path window, so swapping a device
        #: in front of RAM instantly disables direct-buffer access.
        self.version = 0

    def attach(self, base: int, size: int, device: Device) -> None:
        """Map ``device`` at ``[base, base+size)``.  Overlaps are rejected."""
        end = base + size
        for other_base, other_size, other in self._regions:
            if base < other_base + other_size and other_base < end:
                raise ValueError(
                    f"mapping {base:#x}..{end:#x} overlaps existing "
                    f"{other_base:#x}..{other_base + other_size:#x}"
                )
        self._regions.append((base, size, device))
        self._regions.sort(key=lambda region: region[0])
        self._bases = [region_base for region_base, _size, _dev in self._regions]
        self.version += 1

    def replace(self, base: int, device: Device) -> Device:
        """Swap the device mapped at exactly ``base``; returns the old one
        (interposes a device in front of another without rebuilding the
        machine)."""
        for i, (region_base, size, old) in enumerate(self._regions):
            if region_base == base:
                self._regions[i] = (region_base, size, device)
                self.version += 1
                return old
        raise ValueError(f"no device mapped at {base:#x}")

    def device_at(self, addr: int) -> Tuple[int, Device]:
        """Resolve (base, device) for ``addr``; raises BusError if unmapped.

        Regions are disjoint and ``_bases`` is sorted, so the rightmost
        base <= addr is the only candidate — one bisect instead of a
        linear scan on every non-RAM-fast-path access.
        """
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            base, size, device = self._regions[i]
            if addr - base < size:
                return base, device
        raise BusError(addr)

    def load(self, addr: int, width: int) -> int:
        base, device = self.device_at(addr)
        return device.load(addr - base, width)

    def store(self, addr: int, width: int, value: int) -> None:
        base, device = self.device_at(addr)
        device.store(addr - base, width, value)

    @property
    def regions(self) -> List[Tuple[int, int, Device]]:
        return list(self._regions)

    def ram(self) -> Optional["Ram"]:
        """The first mapped RAM device, if any (convenience for loaders)."""
        for _base, _size, device in self._regions:
            if isinstance(device, Ram):
                return device
        return None
