"""The sysfs facade mirrors /sys/devices/system/memory semantics."""

import pytest

from repro.errors import HotplugError, OfflineBusyError
from repro.os.page import OwnerKind
from repro.os.sysfs import SysfsMemoryInterface
from repro.units import MIB


@pytest.fixture
def sysfs(reliable_hotplug):
    return SysfsMemoryInterface(reliable_hotplug)


def top_free_block(mm):
    return max(i for i in range(mm.num_blocks) if mm.block_is_free(i))


class TestReads:
    def test_block_size_bytes_hex(self, sysfs):
        assert int(sysfs.read("block_size_bytes"), 16) == 128 * MIB

    def test_state_file(self, sysfs):
        assert sysfs.read("memory0/state") == "online"

    def test_phys_index(self, sysfs):
        assert int(sysfs.read("memory5/phys_index"), 16) == 5

    def test_removable_flag(self, sysfs, reliable_hotplug):
        mm = reliable_hotplug.mm
        extents = mm.allocate("drv", 4, kind=OwnerKind.PINNED)
        bad = extents[0].pfn // mm.block_pages
        assert sysfs.read(f"memory{bad}/removable") == "0"
        good = top_free_block(mm)
        assert sysfs.read(f"memory{good}/removable") == "1"

    def test_unknown_path(self, sysfs):
        with pytest.raises(FileNotFoundError):
            sysfs.read("memory0/bogus")
        with pytest.raises(FileNotFoundError):
            sysfs.read("memory9999/state")


class TestWrites:
    def test_offline_online_roundtrip(self, sysfs, reliable_hotplug):
        block = top_free_block(reliable_hotplug.mm)
        sysfs.write(f"memory{block}/state", "offline")
        assert sysfs.read(f"memory{block}/state") == "offline"
        sysfs.write(f"memory{block}/state", "online")
        assert sysfs.read(f"memory{block}/state") == "online"

    def test_write_propagates_errno(self, sysfs, reliable_hotplug):
        mm = reliable_hotplug.mm
        extents = mm.allocate("drv", 4, kind=OwnerKind.PINNED)
        bad = extents[0].pfn // mm.block_pages
        with pytest.raises(OfflineBusyError):
            sysfs.write(f"memory{bad}/state", "offline")

    def test_missing_block_file_not_found(self, sysfs, reliable_hotplug):
        # As ``read`` answers for the same path: no such file.
        for value in ("offline", "online"):
            with pytest.raises(FileNotFoundError):
                sysfs.write("memory999/state", value)
        assert reliable_hotplug.offline_count == 0

    def test_invalid_value_rejected(self, sysfs):
        with pytest.raises(HotplugError):
            sysfs.write("memory0/state", "hibernate")

    def test_write_to_read_only_file(self, sysfs):
        with pytest.raises(FileNotFoundError):
            sysfs.write("memory0/removable", "1")
