"""Physical memory manager: allocation, zones, accounting, migration."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, ConfigurationError
from repro.os.buddy import MAX_ORDER
from repro.os.mm import PhysicalMemoryManager
from repro.os.page import OwnerKind, buddy_blocks
from repro.os.zones import ZoneKind, ZoneLayout
from repro.units import GIB, MIB, PAGE_SIZE
from tests.reference_buddy import ReferenceBuddyAllocator, allocated_blocks


def make_mm(total=4 * GIB, movable=0.75) -> PhysicalMemoryManager:
    return PhysicalMemoryManager(total_bytes=total, block_bytes=128 * MIB,
                                 movable_fraction=movable)


def run_blocks(runs):
    """Runs expanded to (pfn, order, kind, mergeable) buddy blocks."""
    return sorted((pfn, order, run.kind, run.mergeable)
                  for run in runs for pfn, order in run.blocks())


def expand(runs):
    """``(pfn, pages)`` runs as their (pfn, order) buddy blocks, in order."""
    return [block for pfn, pages in runs for block in buddy_blocks(pfn, pages)]


class TestConstruction:
    def test_block_and_page_counts(self, small_mm):
        assert small_mm.total_pages == 4 * GIB // PAGE_SIZE
        assert small_mm.num_blocks == 32
        assert small_mm.block_pages == 32768

    def test_rejects_misaligned_capacity(self):
        with pytest.raises(ConfigurationError):
            PhysicalMemoryManager(total_bytes=4 * GIB + MIB,
                                  block_bytes=128 * MIB)

    def test_rejects_tiny_blocks(self):
        with pytest.raises(ConfigurationError):
            PhysicalMemoryManager(total_bytes=4 * GIB, block_bytes=MIB)

    def test_zone_split(self, small_mm):
        kinds = [z.kind for z in small_mm.zones]
        assert kinds == [ZoneKind.NORMAL, ZoneKind.MOVABLE]
        movable = small_mm.zones[1]
        assert movable.pages == pytest.approx(0.75 * small_mm.total_pages, rel=0.01)


class TestAllocation:
    def test_allocate_and_count(self, small_mm):
        small_mm.allocate("a", 1000)
        assert small_mm.used_pages == 1000
        assert small_mm.owner_pages("a") == 1000

    def test_user_goes_to_movable_zone_first(self, small_mm):
        extents = small_mm.allocate("a", 100)
        movable = small_mm.zones[1]
        assert all(movable.contains(e.pfn) for e in extents)

    def test_kernel_confined_to_normal_zone(self, small_mm):
        extents = small_mm.allocate("kernel", 100, kind=OwnerKind.KERNEL)
        normal = small_mm.zones[0]
        assert all(normal.contains(e.pfn) for e in extents)

    def test_pinned_lands_in_movable_zone(self, small_mm):
        """The Section 5.2 leak: pinned pages sit in movable blocks."""
        extents = small_mm.allocate("driver", 8, kind=OwnerKind.PINNED)
        movable = small_mm.zones[1]
        assert all(movable.contains(e.pfn) for e in extents)
        assert all(not e.movable for e in extents)

    def test_user_overflows_into_normal_zone(self, small_mm):
        movable_pages = small_mm.zones[1].pages
        small_mm.allocate("big", movable_pages + 10)
        assert small_mm.owner_pages("big") == movable_pages + 10

    def test_kernel_cannot_use_movable_zone(self, small_mm):
        normal_pages = small_mm.zones[0].pages
        with pytest.raises(AllocationError):
            small_mm.allocate("kernel", normal_pages + 1,
                              kind=OwnerKind.KERNEL)

    def test_allocation_failure_rolls_back(self, small_mm):
        with pytest.raises(AllocationError):
            small_mm.allocate("huge", small_mm.total_pages + 1)
        assert small_mm.used_pages == 0

    def test_zero_pages_rejected(self, small_mm):
        with pytest.raises(AllocationError):
            small_mm.allocate("a", 0)


class TestFreeing:
    def test_free_all(self, small_mm):
        small_mm.allocate("a", 5000)
        assert small_mm.free_all("a") == 5000
        assert small_mm.used_pages == 0
        assert small_mm.owner_pages("a") == 0

    def test_partial_free_exact(self, small_mm):
        small_mm.allocate("a", 10000)
        freed = small_mm.free_pages_of("a", 3333)
        assert freed == 3333
        assert small_mm.owner_pages("a") == 6667

    def test_partial_free_prefers_high_addresses(self, small_mm):
        small_mm.allocate("a", 4096)
        before = {b[0] for b in run_blocks(small_mm.extents_of("a"))}
        small_mm.free_pages_of("a", 2048)
        after = {b[0] for b in run_blocks(small_mm.extents_of("a"))}
        assert min(before) in {e for e in after} or min(after) <= min(before)
        assert max(after) < max(before)

    def test_free_more_than_held(self, small_mm):
        small_mm.allocate("a", 100)
        assert small_mm.free_pages_of("a", 1000) == 100

    def test_free_unknown_owner_is_zero(self, small_mm):
        assert small_mm.free_all("ghost") == 0
        assert small_mm.free_pages_of("ghost", 10) == 0

    @given(st.integers(min_value=1, max_value=9999))
    @settings(max_examples=30, deadline=None)
    def test_alloc_free_roundtrip_conserves(self, n):
        mm = make_mm()
        mm.allocate("x", 10000)
        mm.free_pages_of("x", n)
        assert mm.owner_pages("x") == 10000 - n
        assert mm.used_pages == 10000 - n
        mm.free_all("x")
        assert mm.free_pages == mm.total_pages


class NaiveMM:
    """Reference model of the memory manager: one record per buddy block.

    No runs, pools, heaps or caches — just a ``pfn -> (order, owner,
    kind, mergeable)`` table on top of the per-block
    :class:`ReferenceBuddyAllocator` (not the allocator under test),
    freeing and migrating one buddy block at a time.
    """

    def __init__(self, total, movable):
        self.block_pages = 128 * MIB // PAGE_SIZE
        self.zones = ZoneLayout(total // PAGE_SIZE, movable,
                                alignment_pages=self.block_pages).build()
        for zone in self.zones:
            zone.allocator = ReferenceBuddyAllocator(zone.start_pfn,
                                                     zone.pages)
        self.records = {}
        self.isolated_blocks = set()

    def _zones_for(self, kind):
        normal = [z for z in self.zones if z.kind is ZoneKind.NORMAL]
        if kind is OwnerKind.KERNEL:
            return normal
        return [z for z in self.zones if z.kind is ZoneKind.MOVABLE] + normal

    def _allocator_of(self, pfn):
        return next(z.allocator for z in self.zones if z.contains(pfn))

    def owned(self, owner):
        """The owner's (pfn, order, kind, mergeable) blocks, sorted."""
        return sorted((pfn, order, kind, merge) for pfn, (order, who, kind,
                      merge) in self.records.items() if who == owner)

    def owners(self):
        return {who for _order, who, _kind, _merge in self.records.values()}

    def block_counts(self, index):
        used = unmovable = 0
        for pfn, (order, _who, kind, _merge) in self.records.items():
            if pfn // self.block_pages == index:
                used += 1 << order
                if kind is not OwnerKind.USER:
                    unmovable += 1 << order
        return used, unmovable

    def allocate(self, owner, n_pages, kind=OwnerKind.USER, mergeable=False):
        if n_pages <= 0:
            raise AllocationError("n_pages must be positive")
        grabbed = []
        remaining = n_pages
        for zone in self._zones_for(kind):
            take = min(remaining, zone.allocator.free_pages)
            if take:
                grabbed += [(zone.allocator, block)
                            for block in zone.allocator.alloc_pages(take)]
                remaining -= take
        if remaining:
            # Take everything there is, then give it back block by block.
            for allocator, (pfn, order) in grabbed:
                allocator.free_block(pfn, order)
            raise AllocationError(f"cannot allocate {n_pages} pages for "
                                  f"{owner!r}: {remaining} short")
        got = [block for _allocator, block in grabbed]
        for pfn, order in got:
            self.records[pfn] = (order, owner, kind, mergeable)
        return sorted(got)

    def free_pages_of(self, owner, n_pages):
        freed = 0
        for pfn, order, kind, merge in reversed(self.owned(owner)):
            if freed >= n_pages:
                break
            del self.records[pfn]
            allocator = self._allocator_of(pfn)
            if freed + (1 << order) <= n_pages:
                allocator.free_block(pfn, order)
                freed += 1 << order
                continue
            remaining = n_pages - freed
            while remaining:
                allocator.split_allocated(pfn, order)
                order -= 1
                if remaining >= 1 << order:
                    allocator.free_block(pfn + (1 << order), order)
                    remaining -= 1 << order
                else:
                    self.records[pfn] = (order, owner, kind, merge)
                    pfn += 1 << order
            self.records[pfn] = (order, owner, kind, merge)
            freed = n_pages
        return freed

    def free_all(self, owner):
        return self.free_pages_of(owner, sum(1 << b[1]
                                             for b in self.owned(owner)))

    def isolate_block(self, index):
        start = index * self.block_pages
        self.isolated_blocks.add(index)
        return self._allocator_of(start).isolate_range(start,
                                                       self.block_pages)

    def migrate_block_out(self, index, isolated):
        migrated = 0
        source = self._allocator_of(index * self.block_pages)
        for pfn in sorted(p for p in self.records
                          if p // self.block_pages == index):
            order, owner, kind, merge = self.records[pfn]
            if kind is not OwnerKind.USER:
                raise AllocationError(
                    f"block {index} has unmovable extent at {pfn}")
            for zone in self._zones_for(kind):
                try:
                    new_blocks = zone.allocator.alloc_pages(1 << order)
                    break
                except AllocationError:
                    continue
            else:
                raise AllocationError(
                    f"no destination frames to migrate block {index}")
            del self.records[pfn]
            source.remove_allocated(pfn, order)
            isolated.append((pfn, order))
            for new_pfn, new_order in new_blocks:
                self.records[new_pfn] = (new_order, owner, kind, merge)
            migrated += 1 << order
        return migrated

    def undo_isolate_block(self, index, removed):
        self._allocator_of(index * self.block_pages).undo_isolation(removed)
        self.isolated_blocks.discard(index)

    def complete_offline(self, index):
        if index not in self.isolated_blocks:
            raise AllocationError(f"block {index} was not isolated")
        if self.block_counts(index)[0]:
            raise AllocationError(f"block {index} still has used pages")
        self.isolated_blocks.remove(index)

    def complete_online(self, index):
        start = index * self.block_pages
        self._allocator_of(start).add_range(start, self.block_pages)


def assert_same_state(mm, naive):
    allocated = {}
    for zone, ref in zip(mm.zones, naive.zones):
        ours, theirs = zone.allocator, ref.allocator
        for order in range(ours.max_order + 1):
            assert ours.free_blocks(order) == theirs.free_blocks(order)
        zone_allocated = allocated_blocks(ours)
        assert zone_allocated == allocated_blocks(theirs)
        assert ours.free_pages == theirs.free_pages
        allocated.update(zone_allocated)
    assert set(mm.owners()) == naive.owners()
    for owner in naive.owners():
        runs = mm.extents_of(owner)
        assert run_blocks(runs) == naive.owned(owner)
        assert mm.owner_pages(owner) == sum(run.pages for run in runs)
    for index in range(mm.num_blocks):
        counts = naive.block_counts(index)
        acct = mm.block_accounting(index)
        assert (acct.used_pages, acct.unmovable_pages) == counts
        for run in mm.block_extents(index):
            # A canonical run stays inside its memory block, and the
            # buddy holds each of its derived blocks at that order.
            assert (run.end_pfn - 1) // mm.block_pages == index
            assert all(allocated.get(pfn) == order
                       for pfn, order in run.blocks())


def outcome(call, *args):
    """A call's return value, or its AllocationError message."""
    try:
        return call(*args)
    except AllocationError as error:
        return ("AllocationError", str(error))


class MMPair:
    """The memory manager and the oracle driven in lock-step."""

    def __init__(self, total=1 * GIB, movable=0.75):
        self.mm = PhysicalMemoryManager(total_bytes=total,
                                        block_bytes=128 * MIB,
                                        movable_fraction=movable)
        self.naive = NaiveMM(total, movable)
        self.offline = set()

    def allocate(self, owner, pages, kind, mergeable):
        held = set(run_blocks(self.mm.extents_of(owner)))
        ours = outcome(self.mm.allocate, owner, pages, kind, mergeable)
        theirs = outcome(self.naive.allocate, owner, pages, kind, mergeable)
        if isinstance(ours, list):
            # The returned runs hold the new blocks, and may also hold
            # blocks of the owner's runs they grew.
            blocks = set(run_blocks(ours))
            assert blocks <= set(run_blocks(self.mm.extents_of(owner)))
            ours = [(pfn, order) for pfn, order, _kind, _merge
                    in sorted(blocks - held)]
        assert ours == theirs

    def call(self, name, *args):
        ours = outcome(getattr(self.mm, name), *args)
        assert ours == outcome(getattr(self.naive, name), *args)
        return ours

    def offline_block(self, index, complete):
        if index in self.offline:
            return
        # The mm's isolated lists hold runs, the oracle's blocks.
        ours = self.mm.isolate_block(index)
        theirs = self.naive.isolate_block(index)
        assert expand(ours) == theirs
        migrated = outcome(self.mm.migrate_block_out, index, ours)
        assert migrated == outcome(self.naive.migrate_block_out, index,
                                   theirs)
        assert expand(ours) == theirs
        if complete or isinstance(migrated, tuple):
            if not isinstance(self.call("complete_offline", index), tuple):
                self.offline.add(index)
                return
        self.mm.undo_isolate_block(index, ours)
        self.naive.undo_isolate_block(index, theirs)

    def online_block(self, index):
        if index in self.offline:
            self.offline.remove(index)
            self.call("complete_online", index)


OWNERS = ("a", "b", "c", "d")
KINDS = (OwnerKind.USER, OwnerKind.USER, OwnerKind.PINNED, OwnerKind.KERNEL)
SIZES = st.one_of(st.integers(1, 600), st.integers(1000, 40_000),
                  st.integers(40_000, 280_000))
OPS = st.one_of(
    st.tuples(st.just("allocate"), st.sampled_from(OWNERS), SIZES,
              st.sampled_from(KINDS), st.booleans()),
    st.tuples(st.just("free_pages_of"), st.sampled_from(OWNERS), SIZES),
    st.tuples(st.just("free_all"), st.sampled_from(OWNERS)),
    st.tuples(st.just("offline_block"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("online_block"), st.integers(0, 7)),
)


class TestOracle:
    """The run-based memory manager against the per-block oracle."""

    @given(st.lists(OPS, max_size=30), st.sampled_from((0.5, 0.75)))
    @settings(max_examples=100, deadline=None)
    def test_random_sequences_match(self, ops, movable):
        pair = MMPair(movable=movable)
        for name, *args in ops:
            if name in ("allocate", "offline_block", "online_block"):
                getattr(pair, name)(*args)
            else:
                pair.call(name, *args)
            assert_same_state(pair.mm, pair.naive)

    @pytest.mark.parametrize("spare", [3, 4, 40])
    def test_run_migration_edges(self, spare):
        """A 4-block run leaves block 2 with *spare* max-order blocks free
        in ZONE_MOVABLE: one short of the run (block by block, spilling
        into ZONE_NORMAL), exactly enough (one allocation), or plenty."""
        pair = MMPair()
        pair.allocate("v", 4096, OwnerKind.USER, False)
        pair.allocate("fill", pair.mm.zones[1].allocator.free_pages
                      - (spare << MAX_ORDER), OwnerKind.USER, False)
        pair.offline_block(2, complete=True)
        assert_same_state(pair.mm, pair.naive)
        assert 2 in pair.offline

    def test_run_migrates_into_fragments_in_one_allocation(self):
        """The first zone has room for the 4-block run but only three
        free max-order blocks; the rest comes from order-9 holes, in the
        order one allocation per block would take them.  Block 2 then
        spills into ZONE_NORMAL."""
        pair = MMPair()
        pair.allocate("v", 4096, OwnerKind.USER, False)
        pair.allocate("pad", 28 << MAX_ORDER, OwnerKind.USER, False)
        for i in range(8):
            pair.allocate(f"s{i}", 512, OwnerKind.USER, False)
        pair.allocate("fill", pair.mm.zones[1].allocator.free_pages
                      - (3 << MAX_ORDER), OwnerKind.USER, False)
        for i in range(0, 8, 2):
            pair.call("free_all", f"s{i}")
        pair.offline_block(2, complete=True)
        assert_same_state(pair.mm, pair.naive)
        assert 2 in pair.offline
        assert sorted(order for _pfn, order, *_
                      in run_blocks(pair.mm.extents_of("v"))) == [
                          9, 9, 10, 10, 10]

    def test_run_partly_migrated_then_eagain(self):
        """Block by block, a run moves three blocks into ZONE_NORMAL and
        then runs out: the unmoved top stays registered in place."""
        pair = MMPair()
        pair.allocate("v", 6 * 32768, OwnerKind.USER, False)
        pair.allocate("k", 65536 - (3 << MAX_ORDER), OwnerKind.KERNEL,
                      False)
        pair.offline_block(2, complete=True)
        assert_same_state(pair.mm, pair.naive)
        assert 2 not in pair.offline
        assert [run.pages for run in pair.mm.block_extents(2)] == [
            29 << MAX_ORDER]


class TestRampOracle:
    """Ramp-shaped resizes against the per-block oracle.

    Two or three owners take turns growing and shrinking by small,
    non-power-of-two steps (mostly up for the first half, mostly down
    for the second), so allocations extend runs in place and frees
    shorten them, many times over on the same runs.  With *fragmented*,
    ZONE_MOVABLE is first filled in small pieces by two owners and one
    of them is freed, so the ramp draws many same-order blocks from the
    holes and its runs meet blocks they must not absorb.
    """

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from((2, 3)),
           st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_ramp_matches(self, seed, n_owners, fragmented):
        rng = random.Random(seed)
        pair = MMPair()
        if fragmented:
            movable = pair.mm.zones[1].allocator
            while movable.free_pages > 3000:
                pair.allocate(rng.choice(("fill", "hole")),
                              rng.randrange(3, 3000), OwnerKind.USER, False)
            pair.call("free_all", "hole")
        owners = [f"r{i}" for i in range(n_owners)]
        grown = shortened = 0
        for step in range(300):
            owner = owners[step % n_owners]
            delta = rng.randrange(3, 3000)
            if not delta & (delta - 1):
                delta += 1
            held = {run.pfn: run.pages for run in pair.mm.extents_of(owner)}
            if rng.random() < (0.7 if step < 150 else 0.3):
                pair.allocate(owner, delta, OwnerKind.USER, False)
            else:
                pair.call("free_pages_of", owner, delta)
            after = {run.pfn: run.pages for run in pair.mm.extents_of(owner)}
            grown += any(pages > held[pfn] for pfn, pages in after.items()
                         if pfn in held)
            shortened += any(pages < held[pfn] for pfn, pages in after.items()
                             if pfn in held)
            if step % 10 == 9:
                assert_same_state(pair.mm, pair.naive)
        assert grown and shortened


class TestBulkFreeAll:
    """free_all's bulk loop against the oracle's block-by-block frees."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_extent_by_extent_reference(self, seed):
        rng = random.Random(seed)
        pair = MMPair(total=4 * GIB)
        owners = {}
        for step in range(80):
            op = rng.random()
            if op < 0.5 or not owners:
                owner = f"o{step}"
                kind = rng.choice(KINDS)
                pages = rng.choice((rng.randint(1, 300),
                                    rng.randint(1000, 9000)))
                pair.allocate(owner, pages, kind, kind is OwnerKind.USER)
                owners[owner] = kind
            elif op < 0.75:
                owner = rng.choice(sorted(owners))
                pair.call("free_pages_of", owner,
                          rng.randint(1, pair.mm.owner_pages(owner)))
                if not pair.mm.owner_pages(owner):
                    del owners[owner]
            else:
                owner = rng.choice(sorted(owners))
                assert pair.call("free_all", owner) > 0
                del owners[owner]
            assert_same_state(pair.mm, pair.naive)
        for owner in sorted(owners):
            pair.mm.free_all(owner)
        assert pair.mm.free_pages == pair.mm.total_pages
        assert not pair.mm._owners and not pair.mm._extents


def wart_setup(pair):
    """Leave order-3 buddies 65536 and 65544 free but unmerged: "a"
    migrates to the 8 free pages, "fill" has nowhere to go, and
    ``undo_isolation`` re-inserts "a"'s old block without coalescing."""
    for owner, pages in (("a", 8), ("hole", 8), ("b", 1024)):
        pair.allocate(owner, pages, OwnerKind.USER, False)
    pair.allocate("fill", pair.mm.free_pages, OwnerKind.USER, False)
    pair.call("free_all", "hole")
    pair.call("free_pages_of", "fill", 8)
    pair.offline_block(2, complete=False)
    assert 2 not in pair.offline


class TestUndoIsolationWart:
    def test_short_allocate_merges_what_undo_left_split(self):
        """A request the zones cannot meet grabs all free memory and
        rolls it back, and that round trip coalesces the split buddies."""
        pair = MMPair(total=512 * MIB, movable=0.5)
        wart_setup(pair)
        allocator = pair.mm.zones[1].allocator
        assert {65536, 65544} <= allocator.free_blocks(3)
        pair.allocate("big", pair.mm.total_pages, OwnerKind.USER, False)
        assert_same_state(pair.mm, pair.naive)
        assert not {65536, 65544} & allocator.free_blocks(3)
        # Later lowest-address picks see the merged block.
        pair.allocate("c", 8, OwnerKind.USER, False)
        pair.call("free_pages_of", "fill", 16)
        pair.allocate("d", 16, OwnerKind.USER, False)
        assert_same_state(pair.mm, pair.naive)

    def test_restored_mm_still_merges_on_short_allocate(self):
        pair = MMPair(total=512 * MIB, movable=0.5)
        wart_setup(pair)
        restored = PhysicalMemoryManager(total_bytes=512 * MIB,
                                         block_bytes=128 * MIB,
                                         movable_fraction=0.5)
        restored.load_state_dict(
            pickle.loads(pickle.dumps(pair.mm.state_dict())))
        pair.mm = restored
        pair.allocate("big", restored.total_pages, OwnerKind.USER, False)
        assert_same_state(pair.mm, pair.naive)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "undo_isolation re-inserts migrated-away blocks without "
        "coalescing; fixing it moves simulated results"))
    def test_undo_after_partial_migration_keeps_free_lists_canonical(self):
        pair = MMPair(total=512 * MIB, movable=0.5)
        wart_setup(pair)
        for zone in pair.mm.zones:
            for order in range(MAX_ORDER):
                free = zone.allocator.free_blocks(order)
                split = {pfn for pfn in free if pfn ^ (1 << order) in free}
                assert not split, f"unmerged order-{order} buddies {split}"


class TestBlockAccounting:
    def test_used_pages_tracked_per_block(self, small_mm):
        small_mm.allocate("a", small_mm.block_pages)
        used_blocks = [i for i in range(small_mm.num_blocks)
                       if not small_mm.block_is_free(i)]
        total_used = sum(small_mm.block_accounting(i).used_pages
                         for i in used_blocks)
        assert total_used == small_mm.block_pages

    def test_removable_flag(self, small_mm):
        extents = small_mm.allocate("driver", 8, kind=OwnerKind.PINNED)
        block = extents[0].pfn // small_mm.block_pages
        assert not small_mm.block_is_removable(block)
        small_mm.free_all("driver")
        assert small_mm.block_is_removable(block)

    def test_user_pages_keep_block_removable(self, small_mm):
        extents = small_mm.allocate("a", 8)
        block = extents[0].pfn // small_mm.block_pages
        assert small_mm.block_is_removable(block)
        assert not small_mm.block_is_free(block)

    def test_block_range_validates(self, small_mm):
        # Every per-block helper refuses an index outside the blocks,
        # before it touches any state (a negative one must not wrap).
        for index in (-1, small_mm.num_blocks):
            for call in (small_mm.isolate_block, small_mm.complete_online,
                         small_mm.zone_kind_of_block):
                with pytest.raises(ConfigurationError):
                    call(index)
        assert small_mm.meminfo().offlined_pages == 0
        assert small_mm.free_pages == small_mm.total_pages

    def test_zone_kind_of_block(self, small_mm):
        assert small_mm.zone_kind_of_block(0) is ZoneKind.NORMAL
        assert small_mm.zone_kind_of_block(
            small_mm.num_blocks - 1) is ZoneKind.MOVABLE


class TestMigration:
    def test_migrate_block_out_moves_everything(self, small_mm):
        extents = small_mm.allocate("a", 500)
        block = extents[0].pfn // small_mm.block_pages
        isolated = small_mm.isolate_block(block)
        moved = small_mm.migrate_block_out(block, isolated)
        assert moved >= 1
        assert small_mm.block_is_free(block)
        assert small_mm.owner_pages("a") == 500  # data preserved elsewhere

    def test_migrate_refuses_unmovable(self, small_mm):
        extents = small_mm.allocate("drv", 8, kind=OwnerKind.PINNED)
        block = extents[0].pfn // small_mm.block_pages
        isolated = small_mm.isolate_block(block)
        with pytest.raises(AllocationError):
            small_mm.migrate_block_out(block, isolated)
        small_mm.undo_isolate_block(block, isolated)

    def test_migration_fails_without_destination(self):
        mm = make_mm()
        mm.allocate("fill", mm.total_pages - 100)
        # Any used block has nowhere to migrate to now.
        target = next(i for i in range(mm.num_blocks)
                      if not mm.block_is_free(i))
        isolated = mm.isolate_block(target)
        with pytest.raises(AllocationError):
            mm.migrate_block_out(target, isolated)
        mm.undo_isolate_block(target, isolated)
        assert mm.used_pages == mm.total_pages - 100


class TestMeminfo:
    def test_snapshot_consistency(self, small_mm):
        small_mm.allocate("a", 12345)
        info = small_mm.meminfo()
        assert info.total_pages == small_mm.total_pages
        assert info.used_pages == 12345
        assert info.free_pages == info.total_pages - 12345
        assert info.utilization == pytest.approx(12345 / info.total_pages)

    def test_render_mentions_fields(self, small_mm):
        text = small_mm.meminfo().render()
        for field in ("MemTotal", "MemFree", "MemUsed", "MemOffline"):
            assert field in text
