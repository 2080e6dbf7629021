"""Page-extent metadata — the substrate's ``mem_map``.

Real kernels keep a ``struct page`` per frame; simulating tens of millions
of those in Python would drown the experiments, so the substrate tracks
*runs*: one metadata record per ``pages`` consecutive frames with uniform
ownership, inside one memory block.  A run is *canonical*: its buddy
blocks follow from ``pfn`` and ``pages`` alone (see
:func:`buddy_blocks`), so a run grows and shrinks in place instead of
being split into new records.  A multi-GiB VM costs a few records per
128 MiB block rather than one per 4 MiB buddy block, and per-block
accounting (used/unmovable page counts, the ``removable`` flag) stays
exact.  Runs are also what crosses the boundary to the buddy allocator,
which keeps its max-order memory as intervals (see
:mod:`repro.os.buddy`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterator, Tuple

from repro.os.buddy import MAX_ORDER, tail_blocks

#: Pages in one max-order buddy block.
MAX_BLOCK_PAGES = 1 << MAX_ORDER
#: Low bits of a run's page count that its sub-max-order tail covers.
TAIL_MASK = MAX_BLOCK_PAGES - 1


def buddy_blocks(pfn: int, pages: int) -> Iterator[Tuple[int, int]]:
    """(pfn, order) of the canonical run ``[pfn, pfn + pages)``, ascending.

    ``pages >> MAX_ORDER`` max-order blocks come first, then one block per
    set bit of the remainder, largest first.  The max-order prefix is a
    C-level ``range``, so a multi-GiB run is not walked in Python.
    """
    prefix = pages & ~TAIL_MASK
    return chain(zip(range(pfn, pfn + prefix, MAX_BLOCK_PAGES),
                     repeat(MAX_ORDER)),
                 tail_blocks(pfn + prefix, pages & TAIL_MASK))


class OwnerKind(enum.Enum):
    """What kind of entity owns an extent — determines movability."""

    #: Userspace process / VM memory: movable via page migration.
    USER = "user"
    #: Kernel allocations (slab, page tables, DMA buffers): unmovable.
    KERNEL = "kernel"
    #: User pages pinned for I/O or device access: temporarily unmovable.
    PINNED = "pinned"


class PageExtent:
    """A canonical run of ``pages`` frames from ``pfn``, one owner.

    The run lies inside one memory block and its frames share every
    attribute below.  The buddy allocator holds its max-order prefix
    inside its allocated intervals and each tail block by pfn;
    :meth:`blocks` derives all of them from ``pfn`` and ``pages``.
    The memory manager grows and shrinks ``pages`` in place, keeping the
    run canonical; ``pfn`` (the run's index key) never changes.

    ``mergeable`` marks pages an application advised as KSM candidates via
    ``madvise(MADV_MERGEABLE)``.  Whether their content is currently
    deduplicated is the KSM substrate's business, not the extent's.
    """

    __slots__ = ("pfn", "pages", "owner_id", "kind", "mergeable", "movable")

    def __init__(self, pfn: int, pages: int, owner_id: str,
                 kind: OwnerKind = OwnerKind.USER, mergeable: bool = False):
        self.pfn = pfn
        self.pages = pages
        self.owner_id = owner_id
        self.kind = kind
        self.mergeable = mergeable
        #: Whether page migration can relocate this extent.
        self.movable = kind is OwnerKind.USER

    @property
    def end_pfn(self) -> int:
        """One past the run's last frame."""
        return self.pfn + self.pages

    def blocks(self) -> Iterator[Tuple[int, int]]:
        """(pfn, order) of the run's buddy blocks, ascending."""
        return buddy_blocks(self.pfn, self.pages)

    def __repr__(self) -> str:
        return (f"PageExtent(pfn={self.pfn}, pages={self.pages}, "
                f"owner_id={self.owner_id!r}, kind={self.kind}, "
                f"mergeable={self.mergeable})")


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
