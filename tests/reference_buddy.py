"""The per-block, set-plus-list buddy allocator, kept as a reference model.

:class:`repro.os.buddy.BuddyAllocator` keeps its max-order memory as
intervals and passes ``(pfn, pages)`` runs across its interface.  This
copy keeps the older layout, one entry per block at every order (an
authoritative set per order beside its sorted mirror, and one
``pfn -> order`` record per allocated block) and its per-block
interface, so ``tests/test_os_buddy.py``'s oracle can drive both
through the same operations and demand the same pfns, free lists and
errors, and ``tests/test_os_mm.py``'s per-block memory manager runs on
an allocator that shares no code with the one under test.

:func:`allocated_blocks` is the per-block view of either allocator's
allocated record.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Set, Tuple

from repro.errors import AllocationError, ConfigurationError
from repro.os.buddy import MAX_ORDER


def allocated_blocks(allocator) -> Dict[int, int]:
    """``pfn -> order`` of every allocated block of *allocator*.

    The reference model's record is that already.  The interval
    allocator's is its sub-max-order dict plus its allocated max-order
    intervals, expanded to blocks; the two must not overlap.
    """
    blocks = dict(allocator._allocated)
    runs = getattr(allocator, "_allocated_runs", [])
    order = allocator.max_order
    for i in range(0, len(runs), 2):
        for pfn in range(runs[i], runs[i + 1], 1 << order):
            assert pfn not in blocks, pfn
            blocks[pfn] = order
    return blocks


class ReferenceBuddyAllocator:
    """Buddy allocator over [start_pfn, start_pfn + total_pages), with
    every free list kept twice: a set beside a sorted list."""

    def __init__(self, start_pfn: int, total_pages: int, max_order: int = MAX_ORDER):
        if max_order < 0 or max_order > MAX_ORDER:
            raise ConfigurationError(f"max_order must be in [0, {MAX_ORDER}]")
        block = 1 << max_order
        if start_pfn % block or total_pages % block:
            raise ConfigurationError(
                "zone must be aligned to the maximum buddy block")
        self.start_pfn = start_pfn
        self.total_pages = total_pages
        self.max_order = max_order
        self._free_sets: List[Set[int]] = [set() for _ in range(max_order + 1)]
        #: Ascending sorted mirror of each free set — no stale entries,
        #: ever: every mutation updates set and list together.
        self._sorted: List[List[int]] = [[] for _ in range(max_order + 1)]
        self._allocated: Dict[int, int] = {}  # pfn -> order
        pfns = range(start_pfn, start_pfn + total_pages, block)
        self._free_sets[max_order] = set(pfns)
        self._sorted[max_order] = list(pfns)
        self._free_pages = total_pages

    # --- internal free-list maintenance -------------------------------------

    def _insert(self, order: int, pfn: int) -> None:
        self._free_sets[order].add(pfn)
        lst = self._sorted[order]
        lst.insert(bisect_left(lst, pfn), pfn)
        self._free_pages += 1 << order

    def _pop_lowest(self, order: int) -> int:
        """Pop the lowest-address free block of *order*."""
        lst = self._sorted[order]
        if not lst:
            raise AllocationError(f"no free block of order {order}")
        pfn = lst.pop(0)
        self._free_sets[order].remove(pfn)
        self._free_pages -= 1 << order
        return pfn

    # --- public queries -------------------------------------------------------

    @property
    def free_pages(self) -> int:
        """Pages currently in the free lists (isolated pages excluded)."""
        return self._free_pages

    @property
    def end_pfn(self) -> int:
        return self.start_pfn + self.total_pages

    def owns(self, pfn: int) -> bool:
        return self.start_pfn <= pfn < self.end_pfn

    def free_blocks(self, order: int) -> Set[int]:
        """Snapshot of the free-list of one order (for tests/inspection)."""
        return set(self._free_sets[order])

    # --- allocation ---------------------------------------------------------

    def alloc_block(self, order: int) -> int:
        """Allocate one block of 2**order pages; returns its first pfn.

        Splits a larger block when the requested order's list is empty,
        always preferring the lowest address available.
        """
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} out of range")
        source = order
        while source <= self.max_order and not self._free_sets[source]:
            source += 1
        if source > self.max_order:
            raise AllocationError(f"out of memory for order-{order} block")
        pfn = self._pop_lowest(source)
        while source > order:
            source -= 1
            self._insert(source, pfn + (1 << source))  # keep the low half
        self._allocated[pfn] = order
        return pfn

    def alloc_pages(self, count: int) -> List[Tuple[int, int]]:
        """Allocate *count* pages as a list of (pfn, order) extents.

        Greedy: largest orders first, falling back to smaller orders as the
        free lists fragment.  All-or-nothing — on failure everything grabbed
        so far is freed again and :class:`AllocationError` is raised.
        """
        if count <= 0:
            raise AllocationError("count must be positive")
        grabbed: List[Tuple[int, int]] = []
        remaining = count
        free_sets = self._free_sets
        sorted_ = self._sorted
        allocated = self._allocated
        max_order = self.max_order
        try:
            while remaining > 0:
                # Free-list scan instead of exception-driven fallback:
                # alloc_block(order) fails exactly when every list at
                # >= order is empty, in which case the next candidate is
                # the largest non-empty order below it.
                order = min(max_order, remaining.bit_length() - 1)
                source = order
                while source <= max_order and not free_sets[source]:
                    source += 1
                if source > max_order:
                    order -= 1
                    while order >= 0 and not free_sets[order]:
                        order -= 1
                    if order < 0:
                        raise AllocationError(
                            f"out of memory: {remaining} of {count} "
                            f"pages unsatisfied")
                    source = order
                if source == order == max_order:
                    # Bulk grab: a large request consumes a run of
                    # max-order blocks.  The k lowest live pfns are the
                    # sorted list's leading slice — one copy plus one
                    # C-level delete, where the old heap walked them one
                    # lazy pop at a time.
                    live = free_sets[max_order]
                    k = min(remaining >> max_order, len(live))
                    if k >= 8:
                        lst = sorted_[max_order]
                        batch = lst[:k]
                        del lst[:k]
                        live.difference_update(batch)
                        self._free_pages -= k << max_order
                        allocated.update(dict.fromkeys(batch, max_order))
                        grabbed.extend((pfn, max_order) for pfn in batch)
                        remaining -= k << max_order
                        continue
                # Inlined _pop_lowest / _insert (this loop allocates one
                # buddy block per extent, so call overhead adds up).
                lst = sorted_[source]
                pfn = lst.pop(0)
                free_sets[source].remove(pfn)
                self._free_pages -= 1 << source
                while source > order:
                    source -= 1
                    half = pfn + (1 << source)
                    free_sets[source].add(half)
                    half_lst = sorted_[source]
                    half_lst.insert(bisect_left(half_lst, half), half)
                    self._free_pages += 1 << source
                allocated[pfn] = order
                grabbed.append((pfn, order))
                remaining -= 1 << order
        except AllocationError:
            for pfn, order in grabbed:
                self.free_block(pfn, order)
            raise
        return grabbed

    # --- freeing --------------------------------------------------------------

    def free_block(self, pfn: int, order: int) -> None:
        """Free a previously allocated block, coalescing with free buddies."""
        recorded = self._allocated.get(pfn)
        if recorded != order:
            raise AllocationError(
                f"free of pfn {pfn} order {order} does not match allocation "
                f"({recorded})")
        del self._allocated[pfn]
        free_sets = self._free_sets
        sorted_ = self._sorted
        max_order = self.max_order
        while order < max_order:
            buddy = pfn ^ (1 << order)
            live = free_sets[order]
            if buddy not in live:
                break
            live.remove(buddy)
            lst = sorted_[order]
            del lst[bisect_left(lst, buddy)]
            self._free_pages -= 1 << order
            if buddy < pfn:
                pfn = buddy
            order += 1
        self._insert(order, pfn)

    def free_max_order_blocks(self, pfns: List[int]) -> None:
        """Free many max-order blocks at once.

        Max-order blocks have no buddy to coalesce with, so freeing one
        is exactly an insert — which makes a batch equivalent to
        repeated :meth:`free_block` calls in any order.  The merged
        sorted list is rebuilt with one extend + sort (timsort exploits
        the existing runs).  Every pfn is checked before any is freed.
        """
        allocated = self._allocated
        order = self.max_order
        for pfn in pfns:
            recorded = allocated.get(pfn)
            if recorded != order:
                raise AllocationError(
                    f"free of pfn {pfn} order {order} does not match "
                    f"allocation ({recorded})")
        if len(set(pfns)) != len(pfns):
            raise AllocationError("free of a max-order block twice")
        for pfn in pfns:
            del allocated[pfn]
        self._free_sets[order].update(pfns)
        lst = self._sorted[order]
        lst.extend(pfns)
        lst.sort()
        self._free_pages += len(pfns) << order

    # --- isolation for memory off-lining ---------------------------------------

    def isolate_range(self, start_pfn: int, count: int) -> List[Tuple[int, int]]:
        """Pull every free block inside [start_pfn, start_pfn+count) out of
        the free lists, so the range cannot satisfy new allocations.

        The range must be aligned to the maximum block size (memory blocks
        always are), which guarantees free blocks never straddle it.
        Returns the removed (pfn, order) blocks, to be passed back to
        :meth:`undo_isolation` if off-lining fails.
        """
        block = 1 << self.max_order
        if start_pfn % block or count % block:
            raise ConfigurationError("isolation range must be block aligned")
        end = start_pfn + count
        # Fully-free range fast path: eager coalescing means a free
        # aligned range consists of exactly its max-order blocks, so if
        # every max-order position is live nothing else can be (any
        # other free block would overlap one).  This is the common case
        # — the daemon prefers off-lining free blocks — and both the
        # check and the removal are single slice operations.
        top_live = self._free_sets[self.max_order]
        positions = range(start_pfn, end, block)
        if top_live.issuperset(positions):
            top_live.difference_update(positions)
            lst = self._sorted[self.max_order]
            del lst[bisect_left(lst, start_pfn):bisect_left(lst, end)]
            self._free_pages -= count
            return [(pfn, self.max_order) for pfn in positions]
        removed: List[Tuple[int, int]] = []
        for order in range(self.max_order + 1):
            lst = self._sorted[order]
            if not lst:
                continue
            i = bisect_left(lst, start_pfn)
            j = bisect_left(lst, end, i)
            if i == j:
                continue
            found = lst[i:j]
            del lst[i:j]
            self._free_sets[order].difference_update(found)
            self._free_pages -= len(found) << order
            removed.extend((pfn, order) for pfn in found)
        return removed

    def undo_isolation(self, removed: List[Tuple[int, int]]) -> None:
        """Return blocks taken by :meth:`isolate_range` to the free lists.

        A block that overlaps a free block, an allocated block or another
        block of the batch raises :class:`AllocationError` before any
        block goes back.
        """
        held = [(pfn, order) for order, pfns in enumerate(self._free_sets)
                for pfn in pfns] + list(self._allocated.items())
        spans = sorted([(pfn, pfn + (1 << order), True)
                        for pfn, order in removed]
                       + [(pfn, pfn + (1 << order), False)
                          for pfn, order in held])
        for (_s, end, ours), (start, _e, theirs) in zip(spans, spans[1:]):
            if start < end and (ours or theirs):
                raise AllocationError(
                    f"undo of pfn {start} overlaps held memory")
        for pfn, order in removed:
            self._insert(order, pfn)

    def add_range(self, start_pfn: int, count: int) -> None:
        """Give a (previously off-lined) frame range back to the allocator."""
        block = 1 << self.max_order
        if start_pfn % block or count % block:
            raise ConfigurationError("range must be block aligned")
        pfns = range(start_pfn, start_pfn + count, block)
        self._free_sets[self.max_order].update(pfns)
        lst = self._sorted[self.max_order]
        lst.extend(pfns)
        lst.sort()
        self._free_pages += count

    def split_allocated(self, pfn: int, order: int) -> None:
        """Split an allocated block into its two buddy halves in place.

        Lets callers free part of an allocation exactly: split until the
        piece to free is a whole block, then :meth:`free_block` it.
        """
        recorded = self._allocated.get(pfn)
        if recorded != order:
            raise AllocationError(
                f"split of pfn {pfn} order {order} does not match allocation "
                f"({recorded})")
        if order == 0:
            raise AllocationError("cannot split an order-0 block")
        half = order - 1
        self._allocated[pfn] = half
        self._allocated[pfn + (1 << half)] = half

    def remove_allocated(self, pfn: int, order: int) -> None:
        """Drop an allocated block without returning it to the free lists.

        Used during off-lining: pages migrated out of an isolated block
        become free *but isolated* — they must not satisfy allocations.
        The caller keeps the (pfn, order) pair to either discard it on
        offline completion or hand it to :meth:`undo_isolation` on failure.
        """
        recorded = self._allocated.get(pfn)
        if recorded != order:
            raise AllocationError(
                f"remove of pfn {pfn} order {order} does not match allocation "
                f"({recorded})")
        del self._allocated[pfn]
