"""Buddy allocator: correctness and invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, ConfigurationError
from repro.os.buddy import MAX_ORDER, BuddyAllocator
from tests.reference_buddy import ReferenceBuddyAllocator

PAGES = 1 << 14  # 16K pages = 64MiB


def make_allocator(pages: int = PAGES) -> BuddyAllocator:
    return BuddyAllocator(start_pfn=0, total_pages=pages)


class TestBasics:
    def test_initial_free_count(self):
        buddy = make_allocator()
        assert buddy.free_pages == PAGES

    def test_initially_all_max_order(self):
        buddy = make_allocator()
        assert len(buddy.free_blocks(MAX_ORDER)) == PAGES >> MAX_ORDER
        for order in range(MAX_ORDER):
            assert not buddy.free_blocks(order)

    def test_alignment_enforced(self):
        with pytest.raises(ConfigurationError):
            BuddyAllocator(start_pfn=3, total_pages=PAGES)
        with pytest.raises(ConfigurationError):
            BuddyAllocator(start_pfn=0, total_pages=PAGES + 1)

    def test_alloc_prefers_lowest_address(self):
        buddy = make_allocator()
        assert buddy.alloc_block(0) == 0
        assert buddy.alloc_block(0) == 1

    def test_alloc_block_alignment(self):
        buddy = make_allocator()
        for order in (0, 3, 7, MAX_ORDER):
            pfn = buddy.alloc_block(order)
            assert pfn % (1 << order) == 0

    def test_alloc_out_of_range_order(self):
        buddy = make_allocator()
        with pytest.raises(AllocationError):
            buddy.alloc_block(MAX_ORDER + 1)

    def test_exhaustion(self):
        buddy = make_allocator(1 << MAX_ORDER)
        buddy.alloc_block(MAX_ORDER)
        with pytest.raises(AllocationError):
            buddy.alloc_block(0)


class TestFreeAndCoalesce:
    def test_free_restores_count(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(4)
        assert buddy.free_pages == PAGES - 16
        buddy.free_block(pfn, 4)
        assert buddy.free_pages == PAGES

    def test_buddies_coalesce_to_max_order(self):
        buddy = make_allocator()
        pfns = [buddy.alloc_block(0) for _ in range(1 << MAX_ORDER)]
        for pfn in pfns:
            buddy.free_block(pfn, 0)
        assert len(buddy.free_blocks(MAX_ORDER)) == PAGES >> MAX_ORDER
        for order in range(MAX_ORDER):
            assert not buddy.free_blocks(order)

    def test_double_free_rejected(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(2)
        buddy.free_block(pfn, 2)
        with pytest.raises(AllocationError):
            buddy.free_block(pfn, 2)

    def test_free_with_wrong_order_rejected(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(2)
        with pytest.raises(AllocationError):
            buddy.free_block(pfn, 3)


class TestAllocPages:
    def test_exact_total(self):
        buddy = make_allocator()
        blocks = buddy.alloc_pages(1000)
        assert sum(1 << order for _pfn, order in blocks) == 1000

    def test_all_or_nothing(self):
        buddy = make_allocator(1 << MAX_ORDER)
        with pytest.raises(AllocationError):
            buddy.alloc_pages((1 << MAX_ORDER) + 1)
        assert buddy.free_pages == 1 << MAX_ORDER  # rolled back

    def test_rejects_zero(self):
        with pytest.raises(AllocationError):
            make_allocator().alloc_pages(0)


class TestIsolation:
    def test_isolated_range_not_allocatable(self):
        buddy = make_allocator()
        half = PAGES // 2
        removed = buddy.isolate_range(half, half)
        assert buddy.free_pages == half
        # Everything allocated from now on is below the isolated range.
        blocks = buddy.alloc_pages(half)
        assert all(pfn < half for pfn, _order in blocks)
        assert sum(1 << o for _p, o in removed) == half

    def test_undo_isolation_restores(self):
        buddy = make_allocator()
        removed = buddy.isolate_range(0, PAGES)
        assert buddy.free_pages == 0
        buddy.undo_isolation(removed)
        assert buddy.free_pages == PAGES

    def test_isolation_skips_allocated(self):
        buddy = make_allocator()
        buddy.alloc_block(MAX_ORDER)  # pfn 0
        removed = buddy.isolate_range(0, 2 << MAX_ORDER)
        assert sum(1 << o for _p, o in removed) == 1 << MAX_ORDER

    def test_misaligned_isolation_rejected(self):
        with pytest.raises(ConfigurationError):
            make_allocator().isolate_range(1, 100)

    def test_add_range(self):
        buddy = make_allocator()
        removed = buddy.isolate_range(0, 1 << MAX_ORDER)
        assert removed
        buddy.add_range(0, 1 << MAX_ORDER)
        assert buddy.free_pages == PAGES


class TestSplitAndRemove:
    def test_split_allocated(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(3)
        buddy.split_allocated(pfn, 3)
        buddy.free_block(pfn, 2)
        buddy.free_block(pfn + 4, 2)
        assert buddy.free_pages == PAGES

    def test_split_order0_rejected(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(0)
        with pytest.raises(AllocationError):
            buddy.split_allocated(pfn, 0)

    def test_remove_allocated(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(5)
        buddy.remove_allocated(pfn, 5)
        with pytest.raises(AllocationError):
            buddy.free_block(pfn, 5)

    def test_remove_mismatched_rejected(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(5)
        with pytest.raises(AllocationError):
            buddy.remove_allocated(pfn, 4)


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=1, max_value=2000),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_conservation_under_alloc_free(self, sizes):
        """Total pages are conserved by any alloc/free sequence."""
        buddy = make_allocator()
        held = []
        for size in sizes:
            try:
                held.append(buddy.alloc_pages(size))
            except AllocationError:
                break
        allocated = sum(1 << o for blocks in held for _p, o in blocks)
        assert buddy.free_pages == PAGES - allocated
        for blocks in held:
            for pfn, order in blocks:
                buddy.free_block(pfn, order)
        assert buddy.free_pages == PAGES
        assert len(buddy.free_blocks(MAX_ORDER)) == PAGES >> MAX_ORDER

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_no_overlapping_allocations(self, data):
        """No two live extents ever overlap."""
        buddy = make_allocator(1 << 12)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        live = {}
        for _step in range(60):
            if rng.random() < 0.6 or not live:
                order = rng.randrange(0, 6)
                try:
                    pfn = buddy.alloc_block(order)
                except AllocationError:
                    continue
                live[pfn] = order
            else:
                pfn = rng.choice(list(live))
                buddy.free_block(pfn, live.pop(pfn))
            covered = set()
            for pfn, order in live.items():
                span = set(range(pfn, pfn + (1 << order)))
                assert not span & covered
                covered |= span


# --- the reference-model oracle ------------------------------------------------


class BuddyPair:
    """A :class:`BuddyAllocator` and the set-plus-list reference model,
    driven through the same calls.

    ``held`` maps each isolated range's start to ``[count, blocks]``:
    the blocks :meth:`BuddyAllocator.isolate_range` pulled out plus any
    allocations removed from the range since, which is what the memory
    manager hands to ``undo_isolation``.  ``offline`` maps the start of
    each isolated range emptied of allocations to its page count, ready
    for ``add_range``.
    """

    def __init__(self, start_pfn: int, blocks: int, max_order: int):
        total = blocks << max_order
        self.ours = BuddyAllocator(start_pfn, total, max_order)
        self.ref = ReferenceBuddyAllocator(start_pfn, total, max_order)
        self.block = 1 << max_order
        self.held = {}
        self.offline = {}

    def call(self, name, *args):
        """Call *name* on both; they must return or raise the same."""
        outcomes = []
        for allocator in (self.ours, self.ref):
            try:
                value = getattr(allocator, name)(
                    *(list(a) if isinstance(a, list) else a for a in args))
                outcomes.append(("ok", value))
            except (AllocationError, ConfigurationError) as err:
                outcomes.append((type(err).__name__, str(err)))
        assert outcomes[0] == outcomes[1], name
        self.check()
        return outcomes[0][1] if outcomes[0][0] == "ok" else None

    def check(self):
        ours, ref = self.ours, self.ref
        for order in range(ours.max_order + 1):
            assert ours.free_blocks(order) == ref.free_blocks(order), order
            # One list per order, ascending, without duplicates.
            assert ours._sorted[order] == sorted(ref.free_blocks(order))
        assert ours.free_pages == ref.free_pages
        assert ours._allocated == ref._allocated

    # --- the memory manager's uses of the allocator -----------------------------

    def allocated(self):
        return sorted(self.ref._allocated.items())

    def unclaimed_positions(self):
        """Max-order positions outside every held or offline range."""
        taken = set()
        for start, (count, _blocks) in self.held.items():
            taken.update(range(start, start + count, self.block))
        for start, count in self.offline.items():
            taken.update(range(start, start + count, self.block))
        return [pfn for pfn in range(self.ours.start_pfn, self.ours.end_pfn,
                                     self.block) if pfn not in taken]

    def isolate(self, start, count):
        removed = self.call("isolate_range", start, count)
        self.held[start] = [count, list(removed)]
        return removed

    def in_held_range(self, pfn):
        for start, (count, blocks) in self.held.items():
            if start <= pfn < start + count:
                return blocks
        return None


class TestBuddyOracle:
    """The one-list allocator against the set-plus-list reference."""

    OPS = ("alloc_block", "alloc_block", "alloc_pages", "alloc_pages",
           "alloc_pages", "free_block", "free_block", "free_block",
           "free_max_order_blocks", "isolate_range", "isolate_range",
           "remove_allocated", "remove_allocated", "undo_isolation",
           "complete_offline", "add_range", "split_allocated")

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_sequences_match_the_reference(self, data):
        max_order = data.draw(st.sampled_from([1, 3, MAX_ORDER]))
        blocks = data.draw(st.integers(1, 12))
        start = data.draw(st.integers(0, 3)) << max_order
        pair = BuddyPair(start, blocks, max_order)
        block = pair.block
        total = blocks << max_order
        for _step in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(self.OPS))
            allocated = pair.allocated()
            bogus = data.draw(st.integers(0, 9)) == 0
            if op == "alloc_block":
                pair.call(op, data.draw(st.integers(-1, max_order + 1)))
            elif op == "alloc_pages":
                pair.call(op, data.draw(st.one_of(
                    st.integers(-1, 3 * block), st.integers(0, total + 2))))
            elif op in ("free_block", "split_allocated"):
                if not allocated or bogus:
                    pfn, order = pair.ours.end_pfn, 0
                else:
                    pfn, order = data.draw(st.sampled_from(allocated))
                    if data.draw(st.integers(0, 9)) == 0:
                        order += 1
                pair.call(op, pfn, order)
            elif op == "free_max_order_blocks":
                tops = [pfn for pfn, order in allocated if order == max_order]
                pfns = (data.draw(st.lists(st.sampled_from(tops),
                                           unique=True, max_size=len(tops)))
                        if tops else [])
                if bogus:
                    pfns.append(pair.ours.end_pfn)
                pair.call(op, data.draw(st.permutations(pfns)))
            elif op == "isolate_range":
                free = pair.unclaimed_positions()
                if bogus or not free:
                    pair.call(op, pair.ours.start_pfn + 1, block)
                    continue
                first = data.draw(st.sampled_from(free))
                count = block
                while first + count in free and data.draw(st.booleans()):
                    count += block
                pair.isolate(first, count)
            elif op == "remove_allocated":
                inside = [(pfn, order) for pfn, order in allocated
                          if pair.in_held_range(pfn) is not None]
                if bogus or not inside:
                    pair.call(op, pair.ours.end_pfn, 0)
                    continue
                pfn, order = data.draw(st.sampled_from(inside))
                pair.call(op, pfn, order)
                pair.in_held_range(pfn).append((pfn, order))
            elif op == "undo_isolation" and pair.held:
                start_pfn = data.draw(st.sampled_from(sorted(pair.held)))
                pair.call(op, pair.held.pop(start_pfn)[1])
            elif op == "complete_offline" and pair.held:
                # offline_pages succeeds only on a range with nothing
                # left allocated in it.
                start_pfn = data.draw(st.sampled_from(sorted(pair.held)))
                count = pair.held[start_pfn][0]
                if not any(start_pfn <= pfn < start_pfn + count
                           for pfn, _order in allocated):
                    del pair.held[start_pfn]
                    pair.offline[start_pfn] = count
            elif op == "add_range":
                if bogus or not pair.offline:
                    pair.call(op, pair.ours.start_pfn + 1, block)
                    continue
                start_pfn = data.draw(st.sampled_from(sorted(pair.offline)))
                pair.call(op, start_pfn, pair.offline.pop(start_pfn))

    def test_fully_free_range_is_its_max_order_blocks(self):
        pair = BuddyPair(0, 8, MAX_ORDER)
        pair.call("alloc_pages", 3 << MAX_ORDER)
        removed = pair.isolate(4 << MAX_ORDER, 2 << MAX_ORDER)
        assert removed == [(4 << MAX_ORDER, MAX_ORDER),
                           (5 << MAX_ORDER, MAX_ORDER)]
        pair.call("undo_isolation", removed)

    def test_partly_free_range_returns_the_free_blocks(self):
        pair = BuddyPair(0, 4, MAX_ORDER)
        pair.call("alloc_pages", 5)  # pfn 0 at order 2, pfn 4 at order 0
        removed = pair.isolate(0, 2 << MAX_ORDER)
        assert sum(1 << order for _pfn, order in removed) == (
            (2 << MAX_ORDER) - 5)
        assert (5, 0) in removed and (1 << MAX_ORDER, MAX_ORDER) in removed
        for pfn, order in pair.allocated():
            pair.call("remove_allocated", pfn, order)
            removed.append((pfn, order))
        pair.call("undo_isolation", removed)

    def test_empty_range_returns_nothing(self):
        pair = BuddyPair(1 << MAX_ORDER, 4, MAX_ORDER)
        pair.call("alloc_pages", 2 << MAX_ORDER)
        assert pair.isolate(1 << MAX_ORDER, 2 << MAX_ORDER) == []
        for pfn, order in pair.allocated():
            pair.call("remove_allocated", pfn, order)
        pair.call("add_range", 1 << MAX_ORDER, 2 << MAX_ORDER)
        assert pair.ours.free_pages == 4 << MAX_ORDER
