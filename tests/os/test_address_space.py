"""Unit tests for VMAs and address spaces."""

import pytest

from repro.errors import AddressSpaceError
from repro.os.address_space import PAGE_SIZE, VMA, AddressSpace, VmaKind
from repro.os.binary import BinaryImage, Symbol


def image():
    return BinaryImage("lib.so", 0x4000, [Symbol(0x1000, 0x200, "func")])


class TestVMA:
    def test_alignment_enforced(self):
        with pytest.raises(AddressSpaceError, match="aligned"):
            VMA(0x1001, 0x2000, VmaKind.ANON)

    def test_empty_rejected(self):
        with pytest.raises(AddressSpaceError, match="empty"):
            VMA(0x2000, 0x2000, VmaKind.ANON)

    def test_file_requires_image(self):
        with pytest.raises(AddressSpaceError):
            VMA(0x1000, 0x2000, VmaKind.FILE)

    def test_anon_must_not_carry_image(self):
        with pytest.raises(AddressSpaceError):
            VMA(0x1000, 0x2000, VmaKind.ANON, image=image())

    def test_to_image_offset(self):
        v = VMA(0x10000, 0x14000, VmaKind.FILE, image=image())
        assert v.to_image_offset(0x11000) == 0x1000
        with pytest.raises(AddressSpaceError):
            v.to_image_offset(0x14000)

    def test_to_image_offset_with_segment_offset(self):
        v = VMA(0x10000, 0x13000, VmaKind.FILE, image=image(), image_offset=0x1000)
        assert v.to_image_offset(0x10000) == 0x1000

    def test_anon_label_matches_paper_format(self):
        v = VMA(0x60801000 & ~0xFFF, 0x61482000, VmaKind.ANON)
        assert v.label().startswith("anon (range:0x")


class TestAddressSpace:
    def test_map_and_resolve(self):
        space = AddressSpace()
        v = space.map(0x10000, 0x4000, VmaKind.FILE, image=image())
        assert space.resolve(0x11000) is v
        assert space.resolve(0x9000) is None
        assert space.resolve(v.end) is None

    def test_map_rounds_to_pages(self):
        space = AddressSpace()
        v = space.map(0x10010, 100, VmaKind.ANON)
        assert v.start == 0x10000
        assert v.end == 0x11000

    def test_overlap_rejected(self):
        space = AddressSpace()
        space.map(0x10000, 0x4000, VmaKind.ANON)
        with pytest.raises(AddressSpaceError, match="overlaps"):
            space.map(0x12000, 0x4000, VmaKind.ANON)
        with pytest.raises(AddressSpaceError, match="overlaps"):
            space.map(0xF000, 0x2000, VmaKind.ANON)

    def test_adjacent_maps_allowed(self):
        space = AddressSpace()
        a = space.map(0x10000, 0x1000, VmaKind.ANON)
        b = space.map(a.end, 0x1000, VmaKind.ANON)
        assert b.start == a.end

    def test_unmap(self):
        space = AddressSpace()
        v = space.map(0x10000, 0x1000, VmaKind.ANON)
        space.unmap(v)
        assert space.resolve(0x10000) is None
        with pytest.raises(AddressSpaceError):
            space.unmap(v)

    def test_resolve_unmapped(self):
        assert AddressSpace().resolve(0x1234) is None

    def test_many_mappings_sorted_lookup(self):
        space = AddressSpace()
        vmas = [
            space.map(0x10000 + i * 0x10000, 0x1000, VmaKind.ANON)
            for i in range(50)
        ]
        for v in vmas:
            assert space.resolve(v.start + 0x10) is v
        assert len(space) == 50
