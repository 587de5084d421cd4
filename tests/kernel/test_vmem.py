"""Tests for the virtual address space."""

import pytest

from repro.errors import MemoryFault, SyscallError
from repro.kernel.vmem import (
    PAGE_SIZE,
    AddressSpace,
    LayoutBases,
    Protection,
    page_align_up,
)


class TestPageAlign:
    def test_aligns_up(self):
        assert page_align_up(1) == PAGE_SIZE
        assert page_align_up(PAGE_SIZE) == PAGE_SIZE
        assert page_align_up(PAGE_SIZE + 1) == 2 * PAGE_SIZE

    def test_zero(self):
        assert page_align_up(0) == 0


class TestBrk:
    def test_query_returns_current(self):
        space = AddressSpace()
        assert space.brk(None) == space.brk_start

    def test_grow_and_store(self):
        space = AddressSpace()
        base = space.brk(None)
        new_end = space.brk(base + 100)
        assert new_end == base + 100
        space.store(base + 8, 42)
        assert space.load(base + 8) == 42

    def test_shrink_below_start_is_enomem(self):
        space = AddressSpace()
        with pytest.raises(SyscallError):
            space.brk(space.brk_start - 1)

    def test_heap_access_beyond_brk_faults(self):
        space = AddressSpace()
        with pytest.raises(MemoryFault):
            space.load(space.brk_start + PAGE_SIZE * 2)


class TestMmap:
    def test_regions_do_not_overlap(self):
        space = AddressSpace()
        first = space.mmap(PAGE_SIZE)
        second = space.mmap(PAGE_SIZE)
        assert second >= first + PAGE_SIZE

    def test_allocation_order_affects_addresses(self):
        """Two spaces mapping in different orders get different addresses
        for the 'same' mapping — why mmap must be cross-variant ordered."""
        space1, space2 = AddressSpace(), AddressSpace()
        a1 = space1.mmap(PAGE_SIZE)           # small first
        b1 = space1.mmap(4 * PAGE_SIZE)
        b2 = space2.mmap(4 * PAGE_SIZE)       # big first
        a2 = space2.mmap(PAGE_SIZE)
        assert a1 != a2 and b1 != b2

    def test_munmap_then_access_faults(self):
        space = AddressSpace()
        start = space.mmap(PAGE_SIZE)
        space.store(start, 7)
        space.munmap(start)
        with pytest.raises(MemoryFault):
            space.load(start)

    def test_munmap_unknown_region_raises(self):
        space = AddressSpace()
        with pytest.raises(SyscallError):
            space.munmap(0xDEAD0000)

    def test_mmap_rejects_nonpositive_size(self):
        space = AddressSpace()
        with pytest.raises(SyscallError):
            space.mmap(0)


class TestProtection:
    def test_mprotect_blocks_writes(self):
        space = AddressSpace()
        start = space.mmap(PAGE_SIZE)
        space.mprotect(start, Protection.READ)
        assert space.load(start) == 0
        with pytest.raises(MemoryFault):
            space.store(start, 1)

    def test_mprotect_unmapped_raises(self):
        space = AddressSpace()
        with pytest.raises(SyscallError):
            space.mprotect(0x1, Protection.RW)

    def test_code_region_not_writable(self):
        space = AddressSpace()
        with pytest.raises(MemoryFault):
            space.store(space.bases.code_base, 0x90)


class TestStatics:
    def test_statics_are_sequential_and_aligned(self):
        space = AddressSpace()
        first = space.alloc_static(8)
        second = space.alloc_static(8)
        assert second == first + 8
        assert first % 8 == 0

    def test_diversified_bases_move_statics(self):
        plain = AddressSpace()
        shifted = AddressSpace(LayoutBases(static_base=0x0100_0000))
        assert plain.alloc_static() != shifted.alloc_static()

    def test_same_declaration_order_same_offsets(self):
        """The k-th static has the same offset in every variant — the
        logical-variable correspondence diversity must preserve."""
        space_a = AddressSpace(LayoutBases(static_base=0x0100_0000))
        space_b = AddressSpace(LayoutBases(static_base=0x0200_0000))
        offsets_a = [space_a.alloc_static() - 0x0100_0000
                     for _ in range(5)]
        offsets_b = [space_b.alloc_static() - 0x0200_0000
                     for _ in range(5)]
        assert offsets_a == offsets_b


class TestSnapshotPeek:
    def test_snapshot_contains_writes(self):
        space = AddressSpace()
        addr = space.alloc_static()
        space.store(addr, 99)
        assert space.snapshot()[addr] == 99

    def test_peek_skips_protection(self):
        space = AddressSpace()
        start = space.mmap(PAGE_SIZE)
        space.store(start, 5)
        space.mprotect(start, Protection.NONE)
        assert space.peek(start) == 5


class TestLastRegionCache:
    """Every access first warms the last-hit region cache, then changes
    the mapping under it: the next access must see the change."""

    def test_munmap_invalidates_the_cached_region(self):
        space = AddressSpace()
        start = space.mmap(PAGE_SIZE)
        space.store(start, 7)
        assert space.load(start) == 7
        space.munmap(start)
        with pytest.raises(MemoryFault, match="unmapped address"):
            space.load(start)

    def test_mprotect_is_read_live_from_the_cached_region(self):
        space = AddressSpace()
        start = space.mmap(PAGE_SIZE)
        space.store(start, 1)
        space.mprotect(start, Protection.READ)
        assert space.load(start) == 1
        with pytest.raises(MemoryFault) as caught:
            space.store(start, 2)
        assert str(caught.value) == (
            f"protection violation at {start:#x}: page is "
            f"{Protection.READ}, need {Protection.WRITE}")

    def test_brk_shrink_is_read_live_from_the_cached_region(self):
        space = AddressSpace()
        base = space.brk(None)
        space.brk(base + 3 * PAGE_SIZE)
        far = base + 2 * PAGE_SIZE
        space.store(far, 3)
        space.brk(base + 100)
        assert space.load(base) == 0
        with pytest.raises(MemoryFault, match="unmapped address"):
            space.load(far)
        with pytest.raises(MemoryFault, match="unmapped address"):
            space.store(far, 4)

    def test_overlapping_map_raises(self):
        space = AddressSpace()
        start = space.mmap(2 * PAGE_SIZE)
        space.load(start)
        with pytest.raises(SyscallError, match="overlaps the mmap region"):
            space._map(start + PAGE_SIZE, PAGE_SIZE, Protection.RW, "mmap")

    def test_overlapping_layout_raises(self):
        bases = LayoutBases()
        bases.static_base = bases.code_base + PAGE_SIZE
        with pytest.raises(SyscallError, match="overlaps the code region"):
            AddressSpace(bases)

    def test_brk_into_a_mapping_is_enomem(self):
        bases = LayoutBases()
        bases.mmap_base = bases.heap_base + 2 * PAGE_SIZE
        space = AddressSpace(bases)
        start = space.mmap(PAGE_SIZE)
        space.store(start, 5)
        base = space.brk(None)
        space.brk(base + PAGE_SIZE)
        with pytest.raises(SyscallError, match="mapped region") as caught:
            space.brk(base + 2 * PAGE_SIZE + 1)
        assert caught.value.errno_name == "ENOMEM"
        assert space.brk(None) == base + PAGE_SIZE
        assert space.load(start) == 5
