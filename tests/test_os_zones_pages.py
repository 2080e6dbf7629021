"""Zones, extents, and block accounting helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.os.page import BlockAccounting, OwnerKind, PageExtent
from repro.os.zones import ZoneKind, ZoneLayout


class TestPageExtent:
    def test_derived_fields(self):
        extent = PageExtent(pfn=64, pages=8, owner_id="a")
        assert extent.end_pfn == 72
        assert extent.movable

    def test_kernel_and_pinned_unmovable(self):
        assert not PageExtent(0, 1, "k", kind=OwnerKind.KERNEL).movable
        assert not PageExtent(0, 1, "d", kind=OwnerKind.PINNED).movable

    def test_canonical_blocks(self):
        """Max-order blocks first, then one block per set bit of the
        remainder, largest first."""
        extent = PageExtent(pfn=2048, pages=2 * 1024 + 256 + 8 + 1,
                            owner_id="a")
        assert list(extent.blocks()) == [
            (2048, 10), (3072, 10), (4096, 8), (4352, 3), (4360, 0)]
        assert list(PageExtent(64, 16 + 4, "a").blocks()) == [
            (64, 4), (80, 2)]


class TestBlockAccounting:
    def test_flags(self):
        acct = BlockAccounting()
        assert acct.is_empty and not acct.has_unmovable
        acct.used_pages += 4
        acct.unmovable_pages += 4
        assert not acct.is_empty and acct.has_unmovable


class TestZoneLayout:
    def test_split_fractions(self):
        zones = ZoneLayout(total_pages=1 << 20, movable_fraction=0.75).build()
        assert [z.kind for z in zones] == [ZoneKind.NORMAL, ZoneKind.MOVABLE]
        assert zones[1].pages == pytest.approx(0.75 * (1 << 20), rel=0.01)
        assert zones[0].end_pfn == zones[1].start_pfn

    def test_zero_movable(self):
        zones = ZoneLayout(total_pages=1 << 20, movable_fraction=0.0).build()
        assert len(zones) == 1
        assert zones[0].kind is ZoneKind.NORMAL

    def test_rejects_full_movable(self):
        with pytest.raises(ConfigurationError):
            ZoneLayout(total_pages=1 << 20, movable_fraction=1.0)

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            ZoneLayout(total_pages=1000).build()

    def test_zone_contains(self):
        zones = ZoneLayout(total_pages=1 << 20, movable_fraction=0.5).build()
        normal, movable = zones
        assert normal.contains(0)
        assert not normal.contains(movable.start_pfn)
        assert movable.contains(movable.start_pfn)
