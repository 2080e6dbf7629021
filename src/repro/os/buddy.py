"""A binary buddy allocator over page frames.

Matches the Linux design closely enough for the hot-plug experiments:
power-of-two blocks up to ``MAX_ORDER`` (order 10 = 4MiB with 4KiB pages),
per-order free lists, buddy coalescing on free, and — crucially for memory
off-lining — the ability to *isolate* a page-frame range (pull its free
blocks out of the free lists so nothing gets allocated there while
migration empties the rest of the range).

Allocation prefers the lowest available address.  That mirrors the
practical behaviour that makes off-lining effective: used memory packs
toward low frames, leaving high blocks entirely free.

Below the maximum order, every free list is one sorted ascending list
of block pfns and every allocated block is one ``pfn -> order`` entry.
Max-order blocks never coalesce further, so that tier is held as
intervals instead: free max-order memory is one flat sorted list of
disjoint half-open intervals ``[start0, end0, start1, end1, ...]`` that
merge on insert, and allocated max-order memory is a second such list.
A multi-GiB allocation, free, isolation or on-lining is then a few
interval cuts and merges rather than one entry per 4 MiB block.

Memory crosses the allocator's boundary as *runs* ``(pfn, pages)``:
``pages >> max_order`` max-order blocks from ``pfn``, then one block per
set bit of the remainder, largest first (see :func:`tail_blocks`).
Which pfns an allocation receives depends only on the free memory's
*contents* (always the lowest address), so the intervals hand out
exactly the pfns per-block free lists would, in the same order.

Every call that must match an allocation (a free, split or remove)
checks the whole request before it changes anything: a mismatch raises
:class:`AllocationError` and leaves the allocator as it was.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AllocationError, ConfigurationError

#: Largest buddy order (Linux MAX_ORDER - 1 on x86-64): 2**10 pages = 4MiB.
MAX_ORDER = 10


def tail_blocks(pfn: int, pages: int) -> List[Tuple[int, int]]:
    """(pfn, order) of the run tail ``[pfn, pfn + pages)``, largest first.

    The tail holds one block per set bit of *pages*, which is below one
    max-order block.
    """
    blocks = []
    while pages:
        order = pages.bit_length() - 1
        blocks.append((pfn, order))
        pfn += 1 << order
        pages -= 1 << order
    return blocks


# --- flat interval lists ``[start0, end0, start1, end1, ...]`` ---------------


def _overlaps(runs: List[int], start: int, end: int) -> bool:
    """Whether ``[start, end)`` meets an interval of *runs*."""
    i = bisect_right(runs, start)
    return bool(i & 1) or (i < len(runs) and runs[i] < end)


def _covers(runs: List[int], start: int, end: int) -> bool:
    """Whether one interval of *runs* holds all of ``[start, end)``."""
    i = bisect_right(runs, start)
    return bool(i & 1) and runs[i] >= end


def _cut(runs: List[int], start: int, end: int) -> None:
    """Remove ``[start, end)`` from the interval of *runs* holding it."""
    i = bisect_right(runs, start) - 1
    if runs[i] < start:
        if end < runs[i + 1]:
            runs[i + 1:i + 1] = (start, end)
        else:
            runs[i + 1] = start
    elif end < runs[i + 1]:
        runs[i] = end
    else:
        del runs[i:i + 2]


def _merge(runs: List[int], start: int, end: int) -> bool:
    """Insert ``[start, end)`` into *runs*, merging it with the intervals
    it touches; False, with *runs* unchanged, if it is empty or overlaps
    one."""
    i = bisect_right(runs, start)
    n = len(runs)
    if i & 1 or (i < n and runs[i] < end) or start >= end:
        return False
    left = i and runs[i - 1] == start
    if i < n and runs[i] == end:
        if left:
            del runs[i - 1:i + 1]
        else:
            runs[i] = start
    elif left:
        runs[i - 1] = end
    else:
        runs[i:i] = (start, end)
    return True


def _take(runs: List[int], start: int, end: int) -> List[Tuple[int, int]]:
    """Cut ``[start, end)`` out of *runs*; returns the ``(pfn, pages)``
    pieces of it that were there, ascending."""
    i = bisect_right(runs, start) & ~1
    j = i
    n = len(runs)
    pieces = []
    while j < n and runs[j] < end:
        lo = max(runs[j], start)
        pieces.append((lo, min(runs[j + 1], end) - lo))
        j += 2
    if pieces:
        kept = []
        if runs[i] < start:
            kept += (runs[i], start)
        if runs[j - 1] > end:
            kept += (end, runs[j - 1])
        runs[i:j] = kept
    return pieces


class BuddyAllocator:
    """Buddy allocator over the frame range [start_pfn, start_pfn + total_pages).

    The range must be aligned to, and a multiple of, the maximum block
    size, which is always true for the zone layouts this library builds.
    """

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
        #: Per order below ``max_order``, the free block pfns ascending.
        self._sorted: List[List[int]] = [[] for _ in range(max_order)]
        #: Allocated blocks below ``max_order``: pfn -> order.
        self._allocated: Dict[int, int] = {}
        #: Free max-order memory as flat interval bounds.
        self._free_runs: List[int] = (
            [start_pfn, start_pfn + total_pages] if total_pages else [])
        #: Allocated max-order memory as flat interval bounds.
        self._allocated_runs: List[int] = []
        self._free_pages = total_pages

    # --- internal bookkeeping -----------------------------------------------

    def _allocated_top(self, pfn: int) -> bool:
        """Whether *pfn* starts an allocated max-order block."""
        block = 1 << self.max_order
        return not pfn % block and _covers(self._allocated_runs, pfn,
                                           pfn + block)

    def _recorded(self, pfn: int) -> Optional[int]:
        """The order *pfn* is allocated at, or None."""
        if self._allocated_top(pfn):
            return self.max_order
        return self._allocated.get(pfn)

    def _give(self, start: int, end: int) -> None:
        """Return ``[start, end)`` to the free max-order intervals."""
        if not _merge(self._free_runs, start, end):
            raise AllocationError(
                f"pfns [{start}, {end}) overlap free max-order memory")
        self._free_pages += end - start

    def _lowest_max_block(self) -> int:
        """Pop the lowest free max-order block (the caller checked there
        is one)."""
        runs = self._free_runs
        pfn = runs[0]
        block = 1 << self.max_order
        if runs[1] - pfn == block:
            del runs[:2]
        else:
            runs[0] = pfn + block
        self._free_pages -= block
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
        if order != self.max_order:
            return set(self._sorted[order])
        runs = self._free_runs
        block = 1 << order
        return {pfn for i in range(0, len(runs), 2)
                for pfn in range(runs[i], runs[i + 1], block)}

    # --- allocation ---------------------------------------------------------

    def alloc_block(self, order: int) -> int:
        """Allocate one block of 2**order pages; returns its first pfn.

        Splits a larger block when the requested order's list is empty,
        always preferring the lowest address available.
        """
        max_order = self.max_order
        if not 0 <= order <= max_order:
            raise AllocationError(f"order {order} out of range")
        sorted_ = self._sorted
        source = order
        while source < max_order and not sorted_[source]:
            source += 1
        if source < max_order:
            pfn = sorted_[source].pop(0)
            self._free_pages -= 1 << source
        elif self._free_runs:
            pfn = self._lowest_max_block()
        else:
            raise AllocationError(f"out of memory for order-{order} block")
        while source > order:
            source -= 1
            insort(sorted_[source], pfn + (1 << source))  # keep the low half
            self._free_pages += 1 << source
        if order == max_order:
            _merge(self._allocated_runs, pfn, pfn + (1 << order))
        else:
            self._allocated[pfn] = order
        return pfn

    def alloc_pages(self, count: int) -> List[Tuple[int, int]]:
        """Allocate *count* pages as a list of ``(pfn, pages)`` pieces.

        Greedy: largest orders first, falling back to smaller orders as the
        free lists fragment.  The lowest max-order memory comes first, one
        piece per free interval taken; each smaller block after it is one
        ``(pfn, 2**order)`` piece.  All-or-nothing — on failure everything
        grabbed so far is freed again and :class:`AllocationError` is
        raised.
        """
        if count <= 0:
            raise AllocationError("count must be positive")
        grabbed: List[Tuple[int, int]] = []
        remaining = count
        sorted_ = self._sorted
        free_runs = self._free_runs
        allocated = self._allocated
        max_order = self.max_order
        block = 1 << max_order
        try:
            while remaining > 0:
                order = min(max_order, remaining.bit_length() - 1)
                if order == max_order and free_runs:
                    # Bulk grab: the lowest free max-order blocks are the
                    # fronts of the leading intervals.
                    want = remaining & -block
                    i = 0
                    while want and i < len(free_runs):
                        start, end = free_runs[i], free_runs[i + 1]
                        if end - start > want:
                            end = free_runs[i] = start + want
                        else:
                            i += 2
                        _merge(self._allocated_runs, start, end)
                        grabbed.append((start, end - start))
                        want -= end - start
                        remaining -= end - start
                        self._free_pages -= end - start
                    del free_runs[:i]
                    continue
                # Free-list scan instead of exception-driven fallback:
                # alloc_block(order) fails exactly when every list at
                # >= order is empty, in which case the next candidate is
                # the largest non-empty order below it.
                source = order
                while source < max_order and not sorted_[source]:
                    source += 1
                if source == max_order and not free_runs:
                    order -= 1
                    while order >= 0 and not sorted_[order]:
                        order -= 1
                    if order < 0:
                        raise AllocationError(
                            f"out of memory: {remaining} of {count} "
                            f"pages unsatisfied")
                    source = order
                if source == max_order:
                    pfn = self._lowest_max_block()
                else:
                    pfn = sorted_[source].pop(0)
                    self._free_pages -= 1 << source
                while source > order:
                    source -= 1
                    insort(sorted_[source], pfn + (1 << source))
                    self._free_pages += 1 << source
                allocated[pfn] = order
                grabbed.append((pfn, 1 << order))
                remaining -= 1 << order
        except AllocationError:
            for pfn, pages in grabbed:
                if pages < block:
                    self.free_block(pfn, pages.bit_length() - 1)
                else:
                    self.free_max_order_blocks(pfn, pages)
            raise
        return grabbed

    # --- freeing --------------------------------------------------------------

    def free_block(self, pfn: int, order: int) -> None:
        """Free a previously allocated block, coalescing with free buddies."""
        max_order = self.max_order
        if order == max_order:
            if not self._allocated_top(pfn):
                raise AllocationError(
                    f"free of pfn {pfn} order {order} does not match "
                    f"allocation ({self._recorded(pfn)})")
            end = pfn + (1 << order)
            _cut(self._allocated_runs, pfn, end)
            self._give(pfn, end)
            return
        allocated = self._allocated
        if allocated.get(pfn) != order:
            raise AllocationError(
                f"free of pfn {pfn} order {order} does not match allocation "
                f"({self._recorded(pfn)})")
        del allocated[pfn]
        sorted_ = self._sorted
        while order < max_order:
            buddy = pfn ^ (1 << order)
            lst = sorted_[order]
            i = bisect_left(lst, buddy)
            if i == len(lst) or lst[i] != buddy:
                break
            del lst[i]
            self._free_pages -= 1 << order
            if buddy < pfn:
                pfn = buddy
            order += 1
        if order == max_order:
            self._give(pfn, pfn + (1 << order))
        else:
            insort(sorted_[order], pfn)
            self._free_pages += 1 << order

    def free_max_order_blocks(self, pfn: int, pages: int) -> None:
        """Free the allocated max-order memory ``[pfn, pfn + pages)``.

        Max-order blocks have no buddy to coalesce with, so freeing them
        is one interval cut from the allocated record and one merge into
        the free intervals — the same state as one :meth:`free_block`
        per block, in any order.
        """
        end = pfn + pages
        if (pages <= 0 or (pfn | pages) % (1 << self.max_order)
                or not _covers(self._allocated_runs, pfn, end)):
            raise AllocationError(
                f"free of pfns [{pfn}, {end}) does not match a max-order "
                f"allocation")
        _cut(self._allocated_runs, pfn, end)
        self._give(pfn, end)

    # --- isolation for memory off-lining ---------------------------------------

    def isolate_range(self, start_pfn: int, count: int) -> List[Tuple[int, int]]:
        """Pull every free block inside [start_pfn, start_pfn+count) out of
        the free lists, so the range cannot satisfy new allocations.

        The range must be aligned to the maximum block size (memory blocks
        always are), which guarantees free blocks never straddle it.
        Returns the removed ``(pfn, pages)`` pieces — the free blocks
        below max order, by order and address, then the free max-order
        intervals — to be passed back to :meth:`undo_isolation` if
        off-lining fails.
        """
        block = 1 << self.max_order
        if start_pfn % block or count % block:
            raise ConfigurationError("isolation range must be block aligned")
        end = start_pfn + count
        tops = _take(self._free_runs, start_pfn, end)
        taken = 0
        for _pfn, pages in tops:
            taken += pages
        self._free_pages -= taken
        if taken == count:
            # Fully free: eager coalescing means the range is exactly its
            # max-order memory, and no smaller free block can overlap it.
            # This is the common case — the daemon prefers off-lining
            # free blocks.
            return tops
        removed: List[Tuple[int, int]] = []
        for order, lst in enumerate(self._sorted):
            if not lst:
                continue
            i = bisect_left(lst, start_pfn)
            j = bisect_left(lst, end, i)
            if i == j:
                continue
            found = lst[i:j]
            del lst[i:j]
            self._free_pages -= len(found) << order
            removed.extend((pfn, 1 << order) for pfn in found)
        return removed + tops

    def _holds(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` meets free memory of any order or
        allocated max-order memory."""
        if (_overlaps(self._free_runs, start, end)
                or _overlaps(self._allocated_runs, start, end)):
            return True
        for order, lst in enumerate(self._sorted):
            # The first free block of this order ending after start.
            i = bisect_right(lst, start - (1 << order))
            if i < len(lst) and lst[i] < end:
                return True
        return False

    def undo_isolation(self, removed: List[Tuple[int, int]]) -> None:
        """Return isolated runs to the free lists.

        Those are the runs :meth:`isolate_range` took out and the runs
        :meth:`remove_allocated` dropped since.  A run's max-order prefix
        merges into the free intervals; its tail blocks go back as they
        are, without coalescing with free buddies.  The whole batch is
        checked first: a run that is empty or overlaps free memory,
        allocated memory or another run of the batch raises
        :class:`AllocationError` and leaves the allocator as it was.
        """
        bounds: List[int] = []
        for start, end in sorted((pfn, pfn + pages)
                                 for pfn, pages in removed):
            if (start >= end or bounds and start < bounds[-1]
                    or self._holds(start, end)):
                raise AllocationError(
                    f"undo of pfns [{start}, {end}) overlaps memory the "
                    f"allocator holds or another run of the batch")
            bounds += (start, end)
        for pfn, order in self._allocated.items():
            if _overlaps(bounds, pfn, pfn + (1 << order)):
                raise AllocationError(
                    f"undo overlaps the allocated pfn {pfn} order {order}")
        block = 1 << self.max_order
        sorted_ = self._sorted
        for pfn, pages in removed:
            prefix = pages & -block
            if prefix:
                self._give(pfn, pfn + prefix)
            for tail_pfn, order in tail_blocks(pfn + prefix, pages - prefix):
                insort(sorted_[order], tail_pfn)
                self._free_pages += 1 << order

    def add_range(self, start_pfn: int, count: int) -> None:
        """Give a (previously off-lined) frame range back to the allocator."""
        block = 1 << self.max_order
        if start_pfn % block or count % block:
            raise ConfigurationError("range must be block aligned")
        self._give(start_pfn, start_pfn + count)

    def split_allocated(self, pfn: int, order: int) -> None:
        """Split an allocated block into its two buddy halves in place.

        Lets callers free part of an allocation exactly: split until the
        piece to free is a whole block, then :meth:`free_block` it.
        """
        top = order == self.max_order
        if top:
            matched = self._allocated_top(pfn)
        else:
            matched = self._allocated.get(pfn) == order
        if not matched:
            raise AllocationError(
                f"split of pfn {pfn} order {order} does not match allocation "
                f"({self._recorded(pfn)})")
        if order == 0:
            raise AllocationError("cannot split an order-0 block")
        if top:
            _cut(self._allocated_runs, pfn, pfn + (1 << order))
        half = order - 1
        self._allocated[pfn] = half
        self._allocated[pfn + (1 << half)] = half

    def remove_allocated(self, pfn: int, pages: int) -> None:
        """Forget the allocated run ``(pfn, pages)`` without freeing it.

        Used during off-lining: pages migrated out of an isolated block
        become free *but isolated* — they must not satisfy allocations.
        The caller keeps the ``(pfn, pages)`` run to either discard it on
        offline completion or hand it to :meth:`undo_isolation` on failure.
        """
        block = 1 << self.max_order
        prefix = pages & -block
        tail = tail_blocks(pfn + prefix, pages - prefix)
        allocated = self._allocated
        if (pages <= 0
                or prefix and (pfn % block or not _covers(
                    self._allocated_runs, pfn, pfn + prefix))
                or any(allocated.get(p) != o for p, o in tail)):
            raise AllocationError(
                f"remove of pfns [{pfn}, {pfn + pages}) does not match "
                f"allocation")
        if prefix:
            _cut(self._allocated_runs, pfn, pfn + prefix)
        for tail_pfn, _order in tail:
            del allocated[tail_pfn]

    # --- checkpoint/restore -----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Live references to every mutable structure (snapshot contract:
        the caller pickles the returned tree immediately, so sharing the
        real containers is safe and preserves cross-references)."""
        return {"sorted": self._sorted,
                "allocated": self._allocated,
                "free_runs": self._free_runs,
                "allocated_runs": self._allocated_runs,
                "free_pages": self._free_pages}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._sorted = state["sorted"]
        self._allocated = state["allocated"]
        self._free_runs = state["free_runs"]
        self._allocated_runs = state["allocated_runs"]
        self._free_pages = state["free_pages"]
