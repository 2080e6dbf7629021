"""Page-extent metadata — the substrate's ``mem_map``.

Real kernels keep a ``struct page`` per frame; simulating tens of millions
of those in Python would drown the experiments, so the substrate tracks
*runs*: one metadata record per ``count`` consecutive buddy blocks of one
order with uniform ownership.  Only ``MAX_ORDER`` blocks form runs longer
than one, and a run never crosses a memory block, so a multi-GiB VM costs
a few records per 128 MiB block rather than one per 4 MiB buddy block,
and per-block accounting (used/unmovable page counts, the ``removable``
flag) stays exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OwnerKind(enum.Enum):
    """What kind of entity owns an extent — determines movability."""

    #: Userspace process / VM memory: movable via page migration.
    USER = "user"
    #: Kernel allocations (slab, page tables, DMA buffers): unmovable.
    KERNEL = "kernel"
    #: User pages pinned for I/O or device access: temporarily unmovable.
    PINNED = "pinned"


class PageExtent:
    """A run of ``count`` buddy blocks of 2**order frames, one owner.

    The blocks are consecutive and share every attribute below.
    ``count`` exceeds one only for ``MAX_ORDER`` blocks inside one memory
    block.  The buddy allocator still holds each block separately;
    :meth:`blocks` lists their first pfns.

    ``mergeable`` marks pages an application advised as KSM candidates via
    ``madvise(MADV_MERGEABLE)``.  Whether their content is currently
    deduplicated is the KSM substrate's business, not the extent's.

    Treated as immutable: relocation goes through :meth:`moved_to`.  A
    ``__slots__`` class (not a frozen dataclass) because the derived
    fields (``pages``, ``movable``) are read several times per extent by
    the accounting code.
    """

    __slots__ = ("pfn", "order", "owner_id", "kind", "mergeable",
                 "count", "pages", "end_pfn", "movable")

    def __init__(self, pfn: int, order: int, owner_id: str,
                 kind: OwnerKind = OwnerKind.USER,
                 mergeable: bool = False, count: int = 1):
        self.pfn = pfn
        self.order = order
        self.owner_id = owner_id
        self.kind = kind
        self.mergeable = mergeable
        self.count = count
        pages = count << order
        #: Frame count (count * 2**order).
        self.pages = pages
        self.end_pfn = pfn + pages
        #: Whether page migration can relocate this extent.
        self.movable = kind is OwnerKind.USER

    def blocks(self) -> range:
        """First pfns of the run's buddy blocks, ascending."""
        return range(self.pfn, self.end_pfn, 1 << self.order)

    def moved_to(self, new_pfn: int) -> "PageExtent":
        """The same extent relocated to *new_pfn* (after migration)."""
        return PageExtent(new_pfn, self.order, self.owner_id, self.kind,
                          self.mergeable, self.count)

    def __repr__(self) -> str:
        return (f"PageExtent(pfn={self.pfn}, order={self.order}, "
                f"owner_id={self.owner_id!r}, kind={self.kind}, "
                f"mergeable={self.mergeable}, count={self.count})")


@dataclass
class BlockAccounting:
    """Per-memory-block usage counters maintained by the memory manager."""

    used_pages: int = 0
    unmovable_pages: int = 0
    extents: "set[int]" = field(default_factory=set)  # run start pfns in block

    @property
    def has_unmovable(self) -> bool:
        return self.unmovable_pages > 0

    @property
    def is_empty(self) -> bool:
        return self.used_pages == 0
