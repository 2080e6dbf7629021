"""Buddy allocator: correctness and invariants."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, ConfigurationError
from repro.os.buddy import MAX_ORDER, BuddyAllocator, tail_blocks
from tests.reference_buddy import ReferenceBuddyAllocator, allocated_blocks

PAGES = 1 << 14  # 16K pages = 64MiB
BLOCK = 1 << MAX_ORDER


def make_allocator(pages: int = PAGES) -> BuddyAllocator:
    return BuddyAllocator(start_pfn=0, total_pages=pages)


def expand(runs, max_order=MAX_ORDER):
    """``(pfn, pages)`` runs as their (pfn, order) buddy blocks, in order."""
    block = 1 << max_order
    blocks = []
    for pfn, pages in runs:
        prefix = pages & -block
        blocks += [(p, max_order) for p in range(pfn, pfn + prefix, block)]
        blocks += tail_blocks(pfn + prefix, pages - prefix)
    return blocks


def free_pieces(buddy, pieces):
    """Give back what :meth:`BuddyAllocator.alloc_pages` returned."""
    for pfn, pages in pieces:
        if pages >= 1 << buddy.max_order:
            buddy.free_max_order_blocks(pfn, pages)
        else:
            buddy.free_block(pfn, pages.bit_length() - 1)


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

    @pytest.mark.parametrize("allocator", [BuddyAllocator,
                                           ReferenceBuddyAllocator])
    def test_mismatched_free_keeps_the_allocation(self, allocator):
        """A free at the wrong order raises and changes nothing, so the
        right free afterwards still succeeds."""
        buddy = allocator(0, PAGES)
        pfn = buddy.alloc_block(2)
        with pytest.raises(AllocationError, match=r"\(2\)"):
            buddy.free_block(pfn, 3)
        with pytest.raises(AllocationError):
            buddy.remove_allocated(pfn, 3)
        assert buddy.free_pages == PAGES - 4
        buddy.free_block(pfn, 2)
        assert buddy.free_pages == PAGES

    def test_mismatched_max_order_free_changes_nothing(self):
        buddy = make_allocator()
        pieces = buddy.alloc_pages(3 * BLOCK)
        assert pieces == [(0, 3 * BLOCK)]
        for pfn, pages in ((0, 4 * BLOCK), (BLOCK, 3 * BLOCK),
                           (1, BLOCK), (0, 0), (0, BLOCK + 8)):
            with pytest.raises(AllocationError):
                buddy.free_max_order_blocks(pfn, pages)
            assert allocated_blocks(buddy) == {
                0: MAX_ORDER, BLOCK: MAX_ORDER, 2 * BLOCK: MAX_ORDER}
            assert buddy.free_pages == PAGES - 3 * BLOCK
        buddy.free_max_order_blocks(BLOCK, BLOCK)
        assert buddy._allocated_runs == [0, BLOCK, 2 * BLOCK, 3 * BLOCK]
        buddy.free_max_order_blocks(0, BLOCK)
        buddy.free_block(2 * BLOCK, MAX_ORDER)
        assert buddy._free_runs == [0, PAGES]
        assert buddy._allocated_runs == []

    def test_reference_batch_with_one_bogus_pfn_changes_nothing(self):
        ref = ReferenceBuddyAllocator(0, PAGES)
        ref.alloc_pages(2 * BLOCK)
        with pytest.raises(AllocationError):
            ref.free_max_order_blocks([0, BLOCK, 2 * BLOCK])
        with pytest.raises(AllocationError):
            ref.free_max_order_blocks([0, 0])
        assert ref._allocated == {0: MAX_ORDER, BLOCK: MAX_ORDER}
        ref.free_max_order_blocks([BLOCK, 0])
        assert ref.free_pages == PAGES

    def test_double_free_into_the_interval_tier_rejected(self):
        buddy = make_allocator()
        with pytest.raises(AllocationError):
            buddy.add_range(BLOCK, BLOCK)
        removed = buddy.isolate_range(BLOCK, 2 * BLOCK)
        assert removed == [(BLOCK, 2 * BLOCK)]
        buddy.undo_isolation(removed)
        with pytest.raises(AllocationError):
            buddy.undo_isolation(removed)
        assert buddy._free_runs == [0, PAGES]
        assert buddy.free_pages == PAGES


class TestAllocPages:
    def test_exact_total(self):
        buddy = make_allocator()
        pieces = buddy.alloc_pages(1000)
        assert sum(pages for _pfn, pages in pieces) == 1000

    def test_max_order_memory_comes_first_as_runs(self):
        buddy = make_allocator()
        buddy.alloc_block(MAX_ORDER)  # pfn 0
        buddy.alloc_pages(2 * BLOCK)  # [BLOCK, 3 * BLOCK)
        buddy.free_block(0, MAX_ORDER)
        pieces = buddy.alloc_pages(4 * BLOCK + 3)
        assert pieces == [(0, BLOCK), (3 * BLOCK, 3 * BLOCK),
                          (6 * BLOCK, 2), (6 * BLOCK + 2, 1)]
        assert buddy._allocated_runs == [0, 6 * BLOCK]
        assert buddy._allocated == {6 * BLOCK: 1, 6 * BLOCK + 2: 0}

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
        assert removed == [(half, half)]
        assert buddy.free_pages == half
        # Everything allocated from now on is below the isolated range.
        pieces = buddy.alloc_pages(half)
        assert all(pfn + pages <= half for pfn, pages in pieces)

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
        assert removed == [(1 << MAX_ORDER, 1 << MAX_ORDER)]

    def test_misaligned_isolation_rejected(self):
        with pytest.raises(ConfigurationError):
            make_allocator().isolate_range(1, 100)

    def test_bad_undo_batch_changes_nothing(self):
        buddy = make_allocator(8 * BLOCK)
        removed = buddy.isolate_range(0, 2 * BLOCK)
        assert removed == [(0, 2 * BLOCK)]
        before = copy.deepcopy(buddy.state_dict())
        # The last run is free memory: nothing of the batch may go back.
        with pytest.raises(AllocationError):
            buddy.undo_isolation(removed + [(4 * BLOCK, BLOCK)])
        assert buddy.state_dict() == before
        assert buddy.free_pages == 6 * BLOCK
        assert buddy._free_runs == [2 * BLOCK, 8 * BLOCK]

    def test_undo_twice_raises_the_second_time(self):
        buddy = make_allocator(2 * BLOCK)
        buddy.alloc_pages(5)  # pfn 0 at order 2, pfn 4 at order 0
        removed = buddy.isolate_range(0, BLOCK)
        buddy.remove_allocated(0, 5)
        removed.append((0, 5))
        buddy.undo_isolation(removed)
        after = copy.deepcopy(buddy.state_dict())
        with pytest.raises(AllocationError):
            buddy.undo_isolation(removed)
        assert buddy.state_dict() == after
        assert buddy.free_pages == 2 * BLOCK

    @pytest.mark.parametrize("extra", [
        [(2 * BLOCK, BLOCK)],  # inside the batch's own run
        [(3 * BLOCK + 1, 1)],  # the allocated order-1 block
        [(3 * BLOCK + 2, 1)],  # a free order-1 block
        [(4 * BLOCK, 1)],  # allocated max-order memory
        [(6 * BLOCK, 0)],  # empty
    ])
    def test_undo_rejects_overlaps_with_held_memory(self, extra):
        buddy = make_allocator(8 * BLOCK)
        buddy.alloc_block(MAX_ORDER)  # pfn 0
        removed = buddy.isolate_range(BLOCK, 2 * BLOCK)
        assert buddy.alloc_block(1) == 3 * BLOCK  # splits that block
        assert buddy.alloc_block(MAX_ORDER) == 4 * BLOCK
        before = copy.deepcopy(buddy.state_dict())
        with pytest.raises(AllocationError):
            buddy.undo_isolation(removed + extra)
        assert buddy.state_dict() == before

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

    def test_split_max_order_cuts_the_interval(self):
        buddy = make_allocator()
        buddy.alloc_pages(3 * BLOCK)
        buddy.split_allocated(BLOCK, MAX_ORDER)
        assert buddy._allocated_runs == [0, BLOCK, 2 * BLOCK, 3 * BLOCK]
        half = MAX_ORDER - 1
        assert buddy._allocated == {BLOCK: half, BLOCK + BLOCK // 2: half}
        with pytest.raises(AllocationError):
            buddy.free_block(BLOCK, MAX_ORDER)
        buddy.free_block(BLOCK + BLOCK // 2, half)
        buddy.free_block(BLOCK, half)
        assert buddy.free_blocks(MAX_ORDER) >= {BLOCK}

    def test_split_order0_rejected(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(0)
        with pytest.raises(AllocationError):
            buddy.split_allocated(pfn, 0)

    def test_remove_allocated(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(5)
        buddy.remove_allocated(pfn, 32)
        with pytest.raises(AllocationError):
            buddy.free_block(pfn, 5)

    def test_remove_mismatched_rejected(self):
        buddy = make_allocator()
        pfn = buddy.alloc_block(5)
        with pytest.raises(AllocationError):
            buddy.remove_allocated(pfn, 16)

    def test_remove_canonical_run(self):
        """A run's max-order prefix is cut from the allocated intervals
        and its tail blocks leave the dict; a run with one block that
        does not match removes nothing."""
        buddy = make_allocator()
        buddy.alloc_pages(3 * BLOCK + 8 + 2)
        before = allocated_blocks(buddy)
        with pytest.raises(AllocationError):
            buddy.remove_allocated(BLOCK, 2 * BLOCK + 8 + 4)
        assert allocated_blocks(buddy) == before
        buddy.remove_allocated(BLOCK, 2 * BLOCK + 8)
        assert allocated_blocks(buddy) == {0: MAX_ORDER, 3 * BLOCK + 8: 1}


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
        allocated = sum(pages for pieces in held for _p, pages in pieces)
        assert buddy.free_pages == PAGES - allocated
        for pieces in held:
            free_pieces(buddy, pieces)
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


def outcome(call, *args):
    """A call's return value, or the type and message of its error."""
    try:
        return "ok", call(*args)
    except (AllocationError, ConfigurationError) as err:
        return type(err).__name__, str(err)


class BuddyPair:
    """A :class:`BuddyAllocator` and the per-block reference model,
    driven through the same calls.

    Where the interval allocator takes or returns ``(pfn, pages)`` runs,
    the reference takes or returns their blocks (:func:`expand`).
    ``held`` maps each isolated range's start to ``[count, runs]``: the
    runs :meth:`BuddyAllocator.isolate_range` pulled out plus any
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

    def expand(self, runs):
        return expand(runs, self.ours.max_order)

    def call(self, name, *args):
        """Call *name* on both; they must return or raise the same."""
        return self.call_runs(name, args, args)

    def call_runs(self, name, args, ref_args, exact=True):
        """Call *name* on ours with *args* and on the reference with
        *ref_args*, the same memory as blocks.  A returned run list is
        compared as blocks; without *exact*, only whether the call
        raised, and what, is compared."""
        ours = outcome(getattr(self.ours, name), *args)
        theirs = outcome(getattr(self.ref, name), *ref_args)
        value = ours[1]
        if ours[0] == "ok" and isinstance(value, list):
            ours = "ok", self.expand(value)
        if not exact:
            ours, theirs = ours[0], theirs[0]
        assert ours == theirs, name
        self.check()
        return value if ours[0] == "ok" else None

    def check(self):
        ours, ref = self.ours, self.ref
        for order in range(ours.max_order + 1):
            assert ours.free_blocks(order) == ref.free_blocks(order), order
        for order, lst in enumerate(ours._sorted):
            # One list per order, ascending, without duplicates.
            assert lst == sorted(ref.free_blocks(order)), order
        for runs in (ours._free_runs, ours._allocated_runs):
            # Non-empty, disjoint, merged intervals of whole blocks.
            assert len(runs) % 2 == 0
            assert all(a < b for a, b in zip(runs, runs[1:]))
            assert not any(pfn % self.block for pfn in runs)
        assert ours.free_pages == ref.free_pages
        assert allocated_blocks(ours) == ref._allocated

    # --- the memory manager's uses of the allocator -----------------------------

    def allocated(self):
        return sorted(self.ref._allocated.items())

    def unclaimed_positions(self):
        """Max-order positions outside every held or offline range."""
        taken = set()
        for start, (count, _runs) in self.held.items():
            taken.update(range(start, start + count, self.block))
        for start, count in self.offline.items():
            taken.update(range(start, start + count, self.block))
        return [pfn for pfn in range(self.ours.start_pfn, self.ours.end_pfn,
                                     self.block) if pfn not in taken]

    def isolate(self, start, count):
        removed = self.call("isolate_range", start, count)
        self.held[start] = [count, list(removed)]
        return removed

    def held_range(self, pfn):
        """The held range holding *pfn*, as ``(start, end, runs)``."""
        for start, (count, runs) in self.held.items():
            if start <= pfn < start + count:
                return start, start + count, runs
        return None

    def remove(self, pfn, pages):
        """``remove_allocated`` of the run: the reference removes its
        blocks one by one, and only if every one of them matches."""
        blocks = self.expand([(pfn, pages)])
        matches = pages > 0 and all(self.ref._allocated.get(p) == o
                                    for p, o in blocks)
        try:
            self.ours.remove_allocated(pfn, pages)
        except AllocationError:
            assert not matches
        else:
            assert matches
            for block_pfn, order in blocks:
                self.ref.remove_allocated(block_pfn, order)
            held = self.held_range(pfn)
            if held is not None:
                held[2].append((pfn, pages))
        self.check()


class TestBuddyOracle:
    """The interval allocator against the per-block reference."""

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
                tops = {pfn for pfn, order in allocated if order == max_order}
                if tops:
                    pfn = data.draw(st.sampled_from(sorted(tops)))
                    pages = block
                    while (pfn + pages in tops
                           and data.draw(st.booleans())):
                        pages += block
                    if bogus:
                        pages += block
                else:
                    pfn, pages = pair.ours.end_pfn, block
                pair.call_runs(op, (pfn, pages),
                               (list(range(pfn, pfn + pages, block)),),
                               exact=False)
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
                          if pair.held_range(pfn) is not None]
                if bogus or not inside:
                    pair.remove(pair.ours.end_pfn, 1)
                    continue
                # A canonical run from an allocated block: more
                # max-order blocks, then blocks of falling order.
                pfn, order = data.draw(st.sampled_from(inside))
                end = pair.held_range(pfn)[1]
                records = dict(allocated)
                pages = 1 << order
                while (records.get(pfn + pages, -1) == order == max_order
                       and pfn + pages < end and data.draw(st.booleans())):
                    pages += block
                while (records.get(pfn + pages, max_order) < order
                       and pfn + pages < end and data.draw(st.booleans())):
                    order = records[pfn + pages]
                    pages += 1 << order
                if data.draw(st.integers(0, 9)) == 0:
                    pages += 1
                pair.remove(pfn, pages)
            elif op == "undo_isolation" and pair.held:
                start_pfn = data.draw(st.sampled_from(sorted(pair.held)))
                runs = pair.held[start_pfn][1]
                if bogus and runs:
                    # One run twice: both refuse the batch whole.
                    runs = runs + runs[-1:]
                    pair.call_runs(op, (runs,), (pair.expand(runs),),
                                   exact=False)
                    continue
                del pair.held[start_pfn]
                pair.call_runs(op, (runs,), (pair.expand(runs),))
            elif op == "complete_offline" and pair.held:
                # offline_pages succeeds only on a range with nothing
                # left allocated in it, and nothing freed back into the
                # free lists since it was isolated.
                start_pfn = data.draw(st.sampled_from(sorted(pair.held)))
                count = pair.held[start_pfn][0]
                free = [pfn for order in range(max_order + 1)
                        for pfn in pair.ref.free_blocks(order)]
                if not any(start_pfn <= pfn < start_pfn + count
                           for pfn in free + [p for p, _o in allocated]):
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
        assert removed == [(4 << MAX_ORDER, 2 << MAX_ORDER)]
        pair.call_runs("undo_isolation", (removed,), (pair.expand(removed),))

    def test_partly_free_range_returns_the_free_blocks(self):
        pair = BuddyPair(0, 4, MAX_ORDER)
        pair.call("alloc_pages", 5)  # pfn 0 at order 2, pfn 4 at order 0
        removed = pair.isolate(0, 2 << MAX_ORDER)
        assert sum(pages for _pfn, pages in removed) == (
            (2 << MAX_ORDER) - 5)
        assert removed[0] == (5, 1)
        assert removed[-1] == (1 << MAX_ORDER, 1 << MAX_ORDER)
        pair.remove(0, 5)  # one canonical run: order 2, then order 0
        removed.append((0, 5))
        pair.call_runs("undo_isolation", (removed,), (pair.expand(removed),))

    def test_empty_range_returns_nothing(self):
        pair = BuddyPair(1 << MAX_ORDER, 4, MAX_ORDER)
        pair.call("alloc_pages", 2 << MAX_ORDER)
        assert pair.isolate(1 << MAX_ORDER, 2 << MAX_ORDER) == []
        pair.remove(1 << MAX_ORDER, 2 << MAX_ORDER)
        pair.call("add_range", 1 << MAX_ORDER, 2 << MAX_ORDER)
        assert pair.ours.free_pages == 4 << MAX_ORDER
