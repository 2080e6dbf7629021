"""The physical memory manager: zones + extent runs + per-block accounting.

This is the substrate's equivalent of the Linux mm core that GreenDIMM's
daemon talks to: it satisfies allocations from the zone buddy allocators,
keeps the ``mem_map`` (one record per canonical run of frames, grown and
shrunk in place), maintains
per-memory-block usage counters that back the sysfs ``removable`` flag,
migrates pages out of blocks being off-lined, and renders
``/proc/meminfo``-style snapshots.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.errors import AllocationError, ConfigurationError
from repro.os.buddy import MAX_ORDER, BuddyAllocator, tail_blocks
from repro.os.page import (MAX_BLOCK_PAGES, TAIL_MASK, BlockAccounting,
                           OwnerKind, PageExtent, buddy_blocks)
from repro.os.zones import Zone, ZoneKind, ZoneLayout
from repro.units import DEFAULT_MEMORY_BLOCK_SIZE, PAGE_SIZE


@dataclass(frozen=True)
class Meminfo:
    """A ``/proc/meminfo``-style snapshot, in pages.

    ``total_pages`` counts only *on-lined* memory — exactly as the real
    file shrinks when blocks go offline — while ``offlined_pages`` reports
    what GreenDIMM has removed.
    """

    total_pages: int
    free_pages: int
    used_pages: int
    offlined_pages: int

    @property
    def total_bytes(self) -> int:
        return self.total_pages * PAGE_SIZE

    @property
    def used_bytes(self) -> int:
        return self.used_pages * PAGE_SIZE

    @property
    def utilization(self) -> float:
        """Used fraction of on-lined capacity."""
        return self.used_pages / self.total_pages if self.total_pages else 0.0

    def render(self) -> str:
        """Text rendering in the style of /proc/meminfo (kB units)."""
        def kb(pages: int) -> int:
            return pages * PAGE_SIZE // 1024
        return (f"MemTotal:       {kb(self.total_pages):>12} kB\n"
                f"MemFree:        {kb(self.free_pages):>12} kB\n"
                f"MemUsed:        {kb(self.used_pages):>12} kB\n"
                f"MemOffline:     {kb(self.offlined_pages):>12} kB\n")


def _room(pages: int) -> int:
    """The largest order of block a canonical run of *pages* can take
    right after it and stay canonical.

    That is one below the run's smallest block, or ``MAX_ORDER`` while
    the run is all max-order blocks.
    """
    tail = pages & TAIL_MASK
    return (tail & -tail).bit_length() - 2 if tail else MAX_ORDER


#: ``_room`` of a run whose smallest block has order ``o``.
_ROOM_AFTER = [_room(1 << order) for order in range(MAX_ORDER + 1)]


def _stretches(pieces: Iterable[Tuple[int, int]],
               block_pages: int) -> Iterator[Tuple[int, int, int]]:
    """``(pfn, pages, order)`` of the buddy blocks of each canonical
    ``(pfn, pages)`` piece, in :func:`buddy_blocks` order, except that
    the max-order prefix comes as one stretch per memory block it spans.
    """
    for pfn, pages in pieces:
        if pages < MAX_BLOCK_PAGES and not pages & (pages - 1):
            # One buddy block: every piece alloc_pages returns below
            # max order.
            yield pfn, pages, pages.bit_length() - 1
            continue
        top = pfn + (pages & ~TAIL_MASK)
        while pfn < top:
            size = min(top, pfn - pfn % block_pages + block_pages) - pfn
            yield pfn, size, MAX_ORDER
            pfn += size
        for pfn, order in tail_blocks(pfn, pages & TAIL_MASK):
            yield pfn, 1 << order, order


class PhysicalMemoryManager:
    """Owns the frame space: allocation, freeing, migration, accounting.

    The unit of ownership is a *run* (:class:`PageExtent`): a canonical
    ``pfn``/``pages`` span inside one memory block whose buddy blocks are
    derived arithmetically (max-order blocks, then one block per set bit
    of the remainder, largest first).  Allocation extends an owner's run
    in place when a block lands right after it and freeing shortens the
    top run in place, so a resize touches a run's counters rather than
    re-registering its pieces.  Runs are indexed three ways — by start
    pfn, by owner (an ascending list of run starts), and by memory block
    — and what crosses to the buddy allocators below is runs too:
    ``(pfn, pages)`` pieces out of ``alloc_pages`` and ``isolate_range``,
    and each run's max-order prefix or whole migrated run into
    ``free_max_order_blocks``, ``remove_allocated`` and the ``isolated``
    lists, never one tuple per 4 MiB block.

    Parameters
    ----------
    total_bytes:
        Installed physical memory.
    block_bytes:
        Memory-block size for on/off-lining accounting (Linux default
        128MiB; configurable like ``block_size_bytes`` in sysfs).
    movable_fraction:
        Fraction of the top of memory placed in ZONE_MOVABLE
        (``movablecore``).
    """

    def __init__(self, total_bytes: int,
                 block_bytes: int = DEFAULT_MEMORY_BLOCK_SIZE,
                 movable_fraction: float = 0.75):
        if total_bytes % block_bytes:
            raise ConfigurationError("capacity must be a multiple of block size")
        if block_bytes % ((1 << MAX_ORDER) * PAGE_SIZE):
            raise ConfigurationError(
                "block size must be a multiple of the max buddy block")
        self.total_pages = total_bytes // PAGE_SIZE
        self.block_pages = block_bytes // PAGE_SIZE
        self.num_blocks = self.total_pages // self.block_pages
        self.zones: List[Zone] = ZoneLayout(
            self.total_pages, movable_fraction,
            alignment_pages=self.block_pages).build()
        #: (start_pfn, end_pfn, zone) spans for the pfn -> zone lookup,
        #: avoiding per-call property/method dispatch on the free path.
        self._zone_spans: List[Tuple[int, int, Zone]] = [
            (z.start_pfn, z.end_pfn, z) for z in self.zones]
        # Zone routing (see _zones_for) is fixed by the layout; zones keep
        # their identity across load_state_dict, so build it once.
        normal = [z for z in self.zones if z.kind is ZoneKind.NORMAL]
        movable = [z for z in self.zones if z.kind is ZoneKind.MOVABLE]
        self._kernel_zones: List[Zone] = normal
        self._user_zones: List[Zone] = movable + normal
        self._allocators: List[BuddyAllocator] = [
            z.allocator for z in self.zones]
        #: The zone of each memory block: the zones tile the frames in
        #: ascending order, each a whole number of blocks.
        self._block_zones: List[Zone] = [
            zone for zone in self.zones
            for _ in range(zone.pages // self.block_pages)]
        #: Run start pfn -> run.
        self._extents: Dict[int, PageExtent] = {}
        #: Owner -> ascending run start pfns; freeing walks from the end.
        self._owners: Dict[str, List[int]] = {}
        #: Incremental per-owner resident-page totals; kept in lock-step
        #: with ``_owners`` so ``owner_pages`` is O(1) instead of an
        #: O(runs) scan on the per-epoch resize path.
        self._owner_pages: Dict[str, int] = {}
        self._blocks: List[BlockAccounting] = [
            BlockAccounting() for _ in range(self.num_blocks)]
        self._offlined_pages = 0
        self._isolated_blocks: Set[int] = set()
        #: Start pfns of zones whose free lists may hold unmerged free
        #: buddies (left by ``undo_isolation``); see :meth:`allocate`.
        self._uncoalesced: Set[int] = set()

    # --- zone routing -----------------------------------------------------

    def _zones_for(self, kind: OwnerKind) -> List[Zone]:
        """Allocation order of zones for an owner kind.

        Kernel memory is confined to ZONE_NORMAL.  User memory prefers
        ZONE_MOVABLE.  Pinned allocations also prefer ZONE_MOVABLE — that
        is precisely the leak (Section 5.2) that puts unmovable pages into
        nominally movable blocks.
        """
        if kind is OwnerKind.KERNEL:
            return self._kernel_zones
        return self._user_zones

    def _zone_of(self, pfn: int) -> Zone:
        for start, end, zone in self._zone_spans:
            if start <= pfn < end:
                return zone
        raise AllocationError(f"pfn {pfn} outside all zones")

    # --- run bookkeeping ------------------------------------------------------

    def _register(self, owner_id: str, kind: OwnerKind, mergeable: bool,
                  pieces: List[Tuple[int, int]]) -> List[PageExtent]:
        """Index ``(pfn, pages)`` pieces for *owner_id*; returns the runs
        holding them.

        Each piece is a canonical run of buddy blocks, walked in
        :func:`buddy_blocks` order with its max-order prefix cut at
        memory-block boundaries.  A block (or such a stretch of max-order
        blocks) extends a run in place when it lands right after it, in
        the same memory block, with the same kind and ``mergeable``, and
        the run stays canonical: the block is smaller than the run's
        smallest block, or both are max-order (see :func:`_room`).  The
        run is the one this call is building, or else the owner's run
        that ends at the block.  Any other block starts a new run.
        """
        block_pages = self.block_pages
        extents = self._extents
        owned = self._owners.get(owner_id)
        fresh: List[int] = []
        #: Touched run -> its page count before this call.
        before: Dict[PageExtent, int] = {}
        run = None
        # The current run spans [run.pfn, end), may grow up to ``stop``
        # (its memory block's end) and take a block of order <= ``room``.
        end = stop = room = -1
        for pfn, pages, order in _stretches(pieces, block_pages):
            if pfn == end < stop and order <= room:
                end += pages
                room = _ROOM_AFTER[order]
                continue
            if run is not None:
                run.pages = end - run.pfn
            run = None
            if owned and pfn % block_pages:
                i = bisect_left(owned, pfn)
                if i:
                    prev = extents[owned[i - 1]]
                    if (prev.pfn + prev.pages == pfn and prev.kind is kind
                            and prev.mergeable == mergeable
                            and order <= _room(prev.pages)):
                        run = prev
            if run is None:
                run = PageExtent(pfn, 0, owner_id, kind, mergeable)
                extents[pfn] = run
                fresh.append(pfn)
            before.setdefault(run, run.pages)
            end = pfn + pages
            stop = run.pfn - run.pfn % block_pages + block_pages
            room = _ROOM_AFTER[order]
        if run is not None:
            run.pages = end - run.pfn
        if owned is None:
            fresh.sort()
            self._owners[owner_id] = fresh
        else:
            for pfn in fresh:
                insort(owned, pfn)
        accts = self._blocks
        unmovable = kind is not OwnerKind.USER
        added = 0
        for run, pages in before.items():
            grown = run.pages - pages
            acct = accts[run.pfn // block_pages]
            acct.used_pages += grown
            if unmovable:
                acct.unmovable_pages += grown
            if not pages:
                acct.extents.add(run.pfn)
            added += grown
        self._owner_pages[owner_id] = (
            self._owner_pages.get(owner_id, 0) + added)
        return list(before)

    def _unregister(self, run: PageExtent) -> None:
        del self._extents[run.pfn]
        owner_id = run.owner_id
        owned = self._owners[owner_id]
        del owned[bisect_left(owned, run.pfn)]
        if owned:
            self._owner_pages[owner_id] -= run.pages
        else:
            del self._owners[owner_id]
            del self._owner_pages[owner_id]
        acct = self._blocks[run.pfn // self.block_pages]
        acct.used_pages -= run.pages
        if not run.movable:
            acct.unmovable_pages -= run.pages
        acct.extents.remove(run.pfn)

    # --- allocation / freeing -------------------------------------------------

    def allocate(self, owner_id: str, n_pages: int,
                 kind: OwnerKind = OwnerKind.USER,
                 mergeable: bool = False) -> List[PageExtent]:
        """Allocate *n_pages* for *owner_id*; returns the runs holding them.

        Those are new runs and existing runs of the owner grown in place.

        All-or-nothing across zones; raises :class:`AllocationError`
        without allocating when the online free memory of the kind's zones
        cannot satisfy the request (the check is exact: a buddy allocator
        grabs up to its free page count without failing).
        """
        if n_pages <= 0:
            raise AllocationError("n_pages must be positive")
        zones = self._zones_for(kind)
        short = n_pages - sum(zone.allocator.free_pages for zone in zones)
        if short > 0:
            self._coalesce(zones)
            raise AllocationError(
                f"cannot allocate {n_pages} pages for {owner_id!r}: "
                f"{short} short")
        pieces: List[Tuple[int, int]] = []
        remaining = n_pages
        for zone in zones:
            take = min(remaining, zone.allocator.free_pages)
            if take > 0:
                pieces += zone.allocator.alloc_pages(take)
                remaining -= take
                if not remaining:
                    break
        return self._register(owner_id, kind, mergeable, pieces)

    def _coalesce(self, zones: List[Zone]) -> None:
        """Merge the free buddies ``undo_isolation`` left split in *zones*.

        Grabbing a zone's whole free memory and freeing it block by block
        leaves its free lists in canonical (fully coalesced) form, which
        is what a short request's grab-and-roll-back always did.  Zones
        that are canonical already are skipped: the round trip would
        leave them unchanged.
        """
        for zone in zones:
            allocator = zone.allocator
            if zone.start_pfn in self._uncoalesced and allocator.free_pages:
                for pfn, pages in allocator.alloc_pages(allocator.free_pages):
                    if pages > TAIL_MASK:
                        allocator.free_max_order_blocks(pfn, pages)
                    else:
                        allocator.free_block(pfn, pages.bit_length() - 1)
            self._uncoalesced.discard(zone.start_pfn)

    def free_pages_of(self, owner_id: str, n_pages: int) -> int:
        """Free *n_pages* of *owner_id*'s memory, highest addresses first.

        Splits the final buddy block when needed so exactly *n_pages* (or
        the owner's entire holding, if smaller) are returned.  Freeing
        highest addresses first models a process unmapping its most
        recently grown regions and keeps high blocks empty — which is what
        gives the GreenDIMM daemon blocks it can off-line without
        migration.
        """
        return self._free_top(owner_id, n_pages)

    def free_all(self, owner_id: str) -> int:
        """Free every run of *owner_id*; returns pages freed.

        The same buddy state as freeing block by block in any order:
        eager coalescing leaves the free lists independent of free order.
        """
        return self._free_top(owner_id, self.owner_pages(owner_id))

    def _free_top(self, owner_id: str, n_pages: int) -> int:
        """Free the owner's highest *n_pages*: whole runs from the top,
        then the next run shortened in place.

        Max-order blocks never coalesce, so their frees commute with
        everything else: each run's max-order prefix goes back in one
        ``free_max_order_blocks`` call.
        """
        owned = self._owners.get(owner_id, ())
        freed = 0
        runs: List[PageExtent] = []
        for pfn in reversed(owned):
            if freed >= n_pages:
                break
            run = self._extents[pfn]
            if freed + run.pages > n_pages:
                self._release(runs)
                self._shorten(run, n_pages - freed)
                return n_pages
            runs.append(run)
            freed += run.pages
        self._release(runs)
        return freed

    def _release(self, runs: List[PageExtent]) -> None:
        """Unregister *runs* and give their blocks back: each run's tail
        blocks top first, then its max-order prefix in one call."""
        for run in runs:
            self._unregister(run)
            allocator = self._zone_of(run.pfn).allocator
            pfn, pages = run.pfn, run.pages
            prefix = pages & ~TAIL_MASK
            end = pfn + pages
            tail = pages & TAIL_MASK
            while tail:
                size = tail & -tail
                end -= size
                tail -= size
                allocator.free_block(end, size.bit_length() - 1)
            if prefix:
                allocator.free_max_order_blocks(pfn, prefix)

    def _shorten(self, run: PageExtent, n_pages: int) -> None:
        """Free the top *n_pages* of *run* in place.

        Caller guarantees ``0 < n_pages < run.pages``.  Tail blocks above
        the new end go back whole, then whole top max-order blocks; a
        remainder smaller than the next block down splits that block,
        keeping its low pieces.  What is kept is the canonical run of the
        remaining pages from the same pfn, so nothing is re-registered.
        """
        allocator = self._zone_of(run.pfn).allocator
        pages = run.pages
        keep = pages - n_pages
        end = run.pfn + pages
        tail = pages & TAIL_MASK
        size = tail & -tail
        while tail and pages - size >= keep:
            end -= size
            pages -= size
            tail -= size
            allocator.free_block(end, size.bit_length() - 1)
            size = tail & -tail
        if not tail:
            size = MAX_BLOCK_PAGES
            whole = (pages - keep) & ~TAIL_MASK
            if whole:
                allocator.free_max_order_blocks(end - whole, whole)
                end -= whole
                pages -= whole
        # The split loop keeps ``remaining < 2**order``; each step frees
        # the top half or keeps the low one.
        remaining = pages - keep
        pfn, order = end - size, size.bit_length() - 1
        while remaining > 0:
            allocator.split_allocated(pfn, order)
            order -= 1
            half_pages = 1 << order
            if remaining >= half_pages:
                allocator.free_block(pfn + half_pages, order)
                remaining -= half_pages
            else:
                pfn += half_pages
        run.pages = keep
        acct = self._blocks[run.pfn // self.block_pages]
        acct.used_pages -= n_pages
        if not run.movable:
            acct.unmovable_pages -= n_pages
        self._owner_pages[run.owner_id] -= n_pages

    # --- queries -----------------------------------------------------------

    @property
    def free_pages(self) -> int:
        total = 0
        for allocator in self._allocators:
            total += allocator.free_pages
        return total

    @property
    def online_pages(self) -> int:
        return self.total_pages - self._offlined_pages

    @property
    def used_pages(self) -> int:
        return self.online_pages - self.free_pages

    def owner_pages(self, owner_id: str) -> int:
        return self._owner_pages.get(owner_id, 0)

    def owners(self) -> Iterable[str]:
        return self._owners.keys()

    def extents_of(self, owner_id: str) -> List[PageExtent]:
        """The owner's runs, ascending."""
        return [self._extents[p] for p in self._owners.get(owner_id, ())]

    def meminfo(self) -> Meminfo:
        return Meminfo(total_pages=self.online_pages,
                       free_pages=self.free_pages,
                       used_pages=self.used_pages,
                       offlined_pages=self._offlined_pages)

    # --- per-block interface used by hot-plug --------------------------------

    def _block_zone(self, index: int) -> Zone:
        """The zone holding memory block *index*, range-checked."""
        if not 0 <= index < self.num_blocks:
            raise ConfigurationError(f"block {index} out of range")
        return self._block_zones[index]

    def block_accounting(self, index: int) -> BlockAccounting:
        return self._blocks[index]

    def block_is_removable(self, index: int) -> bool:
        """The sysfs ``removable`` flag: no unmovable pages in the block."""
        return not self._blocks[index].has_unmovable

    def block_is_free(self, index: int) -> bool:
        """True when no allocated pages remain in the block."""
        return self._blocks[index].is_empty

    def block_extents(self, index: int) -> List[PageExtent]:
        return [self._extents[p] for p in sorted(self._blocks[index].extents)]

    def zone_kind_of_block(self, index: int) -> ZoneKind:
        return self._block_zone(index).kind

    # --- migration (for off-lining) -------------------------------------------

    def migrate_block_out(self, index: int,
                          isolated: List[Tuple[int, int]]) -> int:
        """Move every movable run out of block *index*.

        The block's free pages must already be isolated so new allocations
        cannot land there; *isolated* is the running list of ``(pfn,
        pages)`` runs held out of the free lists, and the migrated part of
        each source run is appended to it as one run (migrated-away frames
        are free but must stay isolated).  Returns pages migrated; raises
        :class:`AllocationError` when destination memory is insufficient
        (the off-lining EAGAIN path) — the caller then undoes the whole
        isolation with the accumulated list.

        A run's blocks move one at a time, each trying the zones in
        order — its max-order prefix in one allocation when the first zone
        can hold the whole prefix, since a buddy allocator that has the
        pages hands out the same blocks, in the same order, to one call as
        to one call per block.
        """
        migrated = 0
        source = self._block_zone(index).allocator
        for run in self.block_extents(index):
            if not run.movable:
                raise AllocationError(
                    f"block {index} has unmovable extent at {run.pfn}")
            zones = self._zones_for(run.kind)
            pfn, pages = run.pfn, run.pages
            prefix = pages & ~TAIL_MASK
            first = zones[0].allocator
            if prefix and first.free_pages >= prefix:
                new_pieces = first.alloc_pages(prefix)
                moved = prefix
            else:
                new_pieces = []
                moved = 0
            for _pfn, order in buddy_blocks(pfn + moved, pages - moved):
                for zone in zones:
                    try:
                        new_pieces += zone.allocator.alloc_pages(1 << order)
                        break
                    except AllocationError:
                        continue
                else:
                    break
                moved += 1 << order
            if moved:
                self._unregister(run)
                source.remove_allocated(pfn, moved)
                isolated.append((pfn, moved))
                # An unmoved top of the run stays where it is.
                if moved < pages:
                    new_pieces.append((pfn + moved, pages - moved))
                self._register(run.owner_id, run.kind, run.mergeable,
                               new_pieces)
            if moved < pages:
                raise AllocationError(
                    f"no destination frames to migrate block {index}")
            migrated += pages
        return migrated

    # --- offline bookkeeping (driven by MemoryBlockManager) -------------------

    def isolate_block(self, index: int) -> List[Tuple[int, int]]:
        start = index * self.block_pages
        removed = self._block_zone(index).allocator.isolate_range(
            start, self.block_pages)
        self._isolated_blocks.add(index)
        return removed

    def undo_isolate_block(self, index: int,
                           removed: List[Tuple[int, int]]) -> None:
        zone = self._block_zone(index)
        zone.allocator.undo_isolation(removed)
        self._uncoalesced.add(zone.start_pfn)
        self._isolated_blocks.discard(index)

    def complete_offline(self, index: int) -> None:
        """Finalize: the block's pages leave the online total entirely."""
        isolated = self._isolated_blocks
        if index not in isolated:
            raise AllocationError(f"block {index} was not isolated")
        if self._blocks[index].used_pages:
            raise AllocationError(f"block {index} still has used pages")
        isolated.remove(index)
        self._offlined_pages += self.block_pages

    def complete_online(self, index: int) -> None:
        """Give an off-lined block's frames back to its zone's allocator."""
        self._block_zone(index).allocator.add_range(
            index * self.block_pages, self.block_pages)
        self._offlined_pages -= self.block_pages

    # --- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Live references to the whole mm state tree.

        Everything lands in one pickle (see :mod:`repro.sim.snapshot`),
        which is what preserves the cross-structure sharing the restore
        depends on: the same :class:`PageExtent` run objects are reached
        from ``_extents`` and, by start pfn, from the owner lists and
        per-block ``extents`` sets.
        """
        return {
            "zones": [zone.allocator.state_dict() for zone in self.zones],
            "extents": self._extents,
            "owners": self._owners,
            "owner_pages": self._owner_pages,
            "blocks": self._blocks,
            "offlined_pages": self._offlined_pages,
            "isolated_blocks": self._isolated_blocks,
            "uncoalesced": self._uncoalesced,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Adopt a captured state tree in place (zones keep their
        identity; only allocator internals and the index containers are
        replaced)."""
        for zone, allocator_state in zip(self.zones, state["zones"]):
            zone.allocator.load_state_dict(allocator_state)
        self._extents = state["extents"]
        self._owners = state["owners"]
        self._owner_pages = state["owner_pages"]
        self._blocks = state["blocks"]
        self._offlined_pages = state["offlined_pages"]
        self._isolated_blocks = state["isolated_blocks"]
        self._uncoalesced = state["uncoalesced"]
