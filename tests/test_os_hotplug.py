"""Memory on/off-lining: success paths, EBUSY/EAGAIN, latencies (Table 3)."""

import random

import pytest

from repro.errors import (
    ConfigurationError,
    OfflineAgainError,
    OfflineBusyError,
    OnlineError,
)
from repro.os.hotplug import (
    HotplugLatencyModel,
    MemoryBlockManager,
    MemoryBlockState,
    MIGRATION_ATTEMPTS,
)
from repro.os.mm import PhysicalMemoryManager
from repro.os.page import OwnerKind
from repro.units import GIB, MIB, MICROSECOND, MILLISECOND


def managed(total=4 * GIB, fail_p=0.0, seed=0):
    mm = PhysicalMemoryManager(total_bytes=total, block_bytes=128 * MIB,
                               movable_fraction=0.75)
    return mm, MemoryBlockManager(mm, transient_failure_probability=fail_p,
                                  rng=random.Random(seed))


def top_free_block(mm):
    return max(i for i in range(mm.num_blocks) if mm.block_is_free(i))


class TestOfflineSuccess:
    def test_free_block_offlines_without_migration(self):
        mm, mgr = managed()
        block = top_free_block(mm)
        result = mgr.offline_block(block)
        assert result.success and result.migrated_pages == 0
        assert mgr.state(block) is MemoryBlockState.OFFLINE
        assert result.latency_s == pytest.approx(1.58 * MILLISECOND)

    def test_offline_shrinks_memtotal(self):
        mm, mgr = managed()
        before = mm.meminfo().total_pages
        mgr.offline_block(top_free_block(mm))
        after = mm.meminfo().total_pages
        assert before - after == mm.block_pages

    def test_offlined_block_cannot_serve_allocations(self):
        mm, mgr = managed()
        for block in sorted(range(mm.num_blocks), reverse=True):
            if mm.block_is_free(block):
                mgr.offline_block(block)
        free = mm.free_pages
        if free:
            extents = mm.allocate("a", free)
            offline = set(mgr.offline_blocks())
            for extent in extents:
                assert extent.pfn // mm.block_pages not in offline

    def test_offline_with_migration(self):
        mm, mgr = managed(fail_p=0.0)
        mm.allocate("app", mm.block_pages // 2)
        used_block = next(i for i in range(mm.num_blocks)
                          if not mm.block_is_free(i)
                          and mm.block_is_removable(i))
        result = mgr.offline_block(used_block)
        assert result.success
        assert result.migrated_pages > 0
        assert result.latency_s > 1.58 * MILLISECOND
        assert mm.owner_pages("app") == mm.block_pages // 2

    def test_double_offline_rejected(self):
        mm, mgr = managed()
        block = top_free_block(mm)
        mgr.offline_block(block)
        with pytest.raises(OnlineError):
            mgr.offline_block(block)


class TestEBUSY:
    def test_unmovable_pages_give_ebusy(self):
        mm, mgr = managed()
        extents = mm.allocate("drv", 8, kind=OwnerKind.PINNED)
        block = extents[0].pfn // mm.block_pages
        with pytest.raises(OfflineBusyError) as excinfo:
            mgr.offline_block(block)
        assert excinfo.value.latency_s == pytest.approx(6 * MICROSECOND)
        assert excinfo.value.errno_name == "EBUSY"
        assert mgr.state(block) is MemoryBlockState.ONLINE

    def test_ebusy_counted(self):
        mm, mgr = managed()
        extents = mm.allocate("drv", 8, kind=OwnerKind.PINNED)
        block = extents[0].pfn // mm.block_pages
        mgr.try_offline_block(block)
        assert mgr.stats.ebusy_failures == 1


class TestEAGAIN:
    def test_migration_failures_give_eagain(self):
        mm, mgr = managed(fail_p=1.0)
        mm.allocate("app", 64)
        block = next(i for i in range(mm.num_blocks)
                     if not mm.block_is_free(i) and mm.block_is_removable(i))
        with pytest.raises(OfflineAgainError) as excinfo:
            mgr.offline_block(block)
        assert excinfo.value.latency_s == pytest.approx(4.37 * MILLISECOND)
        assert excinfo.value.errno_name == "EAGAIN"

    def test_eagain_leaves_block_usable(self):
        mm, mgr = managed(fail_p=1.0)
        mm.allocate("app", 64)
        block = next(i for i in range(mm.num_blocks) if not mm.block_is_free(i))
        free_before = mm.free_pages
        mgr.try_offline_block(block)
        assert mgr.state(block) is MemoryBlockState.ONLINE
        assert mm.free_pages == free_before

    def test_eagain_costs_about_3x_success(self):
        # Table 3: 4.37ms vs 1.58ms — three failed migration attempts.
        latency = HotplugLatencyModel()
        assert latency.failure_eagain_s / latency.offline_success_s == (
            pytest.approx(4.37 / 1.58, rel=1e-6))
        assert MIGRATION_ATTEMPTS == 3

    def test_full_memory_migration_eagain(self):
        mm, mgr = managed(fail_p=0.0)
        mm.allocate("fill", mm.total_pages - 64)
        block = next(i for i in range(mm.num_blocks)
                     if not mm.block_is_free(i) and mm.block_is_removable(i))
        with pytest.raises(OfflineAgainError):
            mgr.offline_block(block)


class TestOnline:
    def test_online_restores_capacity(self):
        mm, mgr = managed()
        block = top_free_block(mm)
        mgr.offline_block(block)
        latency = mgr.online_block(block)
        assert latency == pytest.approx(3.44 * MILLISECOND)
        assert mgr.state(block) is MemoryBlockState.ONLINE
        assert mm.meminfo().total_pages == mm.total_pages

    def test_online_of_online_block_rejected(self):
        mm, mgr = managed()
        with pytest.raises(OnlineError):
            mgr.online_block(0)

    def test_offline_online_cycle_preserves_free_pages(self):
        mm, mgr = managed()
        before = mm.free_pages
        block = top_free_block(mm)
        mgr.offline_block(block)
        mgr.online_block(block)
        assert mm.free_pages == before


class TestIndexChecks:
    """An index outside the blocks is refused before any state changes;
    a negative one must not wrap to the last block."""

    def test_negative_offline_leaves_the_last_block_usable(self):
        mm, mgr = managed()
        last = mm.num_blocks - 1
        with pytest.raises(ConfigurationError, match="block -1 out of range"):
            mgr.offline_block(-1)
        assert mgr.state(last) is MemoryBlockState.ONLINE
        assert mm.meminfo().offlined_pages == 0
        assert mgr.offline_block(last).success
        mgr.online_block(last)
        assert mgr.state(last) is MemoryBlockState.ONLINE

    def test_offline_past_the_end_is_a_configuration_error(self):
        mm, mgr = managed()
        with pytest.raises(ConfigurationError):
            mgr.offline_block(mm.num_blocks)
        assert mgr.stats == type(mgr.stats)()

    def test_online_out_of_range_rejected(self):
        mm, mgr = managed()
        last = mm.num_blocks - 1
        mgr.offline_block(last)
        for index in (-1, mm.num_blocks):
            with pytest.raises(ConfigurationError):
                mgr.online_block(index)
        assert mgr.state(last) is MemoryBlockState.OFFLINE
        assert mgr.offline_blocks() == [last]


class TestStats:
    def test_counters_accumulate(self):
        mm, mgr = managed()
        a = top_free_block(mm)
        mgr.offline_block(a)
        mgr.online_block(a)
        mgr.offline_block(a)
        assert mgr.stats.offline_success == 2
        assert mgr.stats.online_success == 1
        assert mgr.offline_count == 1

    def test_removable_view(self):
        mm, mgr = managed()
        extents = mm.allocate("drv", 4, kind=OwnerKind.PINNED)
        bad = extents[0].pfn // mm.block_pages
        assert not mgr.removable(bad)
        assert mgr.removable(top_free_block(mm))
