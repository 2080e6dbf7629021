"""ksmd — the scanning/merging daemon.

Walks the advised regions at a bounded rate (the paper configures 1000
pages per 50 ms pass slice, costing ~10% of one core), merging via the
stable/unstable trees and freeing the deduplicated physical pages back
to the memory manager — which is exactly what hands GreenDIMM more
off-lineable blocks (Section 5.3).  The daemon raises a completion flag
at the end of each full pass so GreenDIMM can react immediately instead
of waiting for its next monitoring period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.errors import AllocationError, ConfigurationError
from repro.ksm.content import ZERO_FINGERPRINT, RegionContent, chunk_fingerprint
from repro.ksm.madvise import MadviseRegistry
from repro.ksm.trees import StableTree, UnstableTree
from repro.os.mm import PhysicalMemoryManager


@dataclass(frozen=True)
class KSMConfig:
    """sysfs-style knobs: pages per scan slice and the slice period."""

    pages_to_scan: int = 1000
    scan_period_s: float = 0.050
    #: Per-second probability that one shared page is written (CoW break).
    cow_rate_per_s: float = 1e-5
    #: Scan throughput at which ksmd would consume a full core.
    full_core_pages_per_s: float = 200_000.0

    def __post_init__(self) -> None:
        if self.pages_to_scan <= 0 or self.scan_period_s <= 0:
            raise ConfigurationError("scan knobs must be positive")

    @property
    def pages_per_second(self) -> float:
        return self.pages_to_scan / self.scan_period_s

    @property
    def cpu_utilization(self) -> float:
        """Fraction of one core ksmd consumes (paper: ~10%)."""
        return min(1.0, self.pages_per_second / self.full_core_pages_per_s)


@dataclass
class KSMStats:
    pages_scanned: int = 0
    pages_merged: int = 0
    pages_unmerged_cow: int = 0
    passes_completed: int = 0



@dataclass
class _OwnerShare:
    """What one owner currently has merged (for exit/CoW accounting)."""

    zero_pages: int = 0
    chunk_pages: Dict[int, int] = field(default_factory=dict)  # fp -> pages

    @property
    def merged_pages(self) -> int:
        return self.zero_pages + sum(self.chunk_pages.values())


class KSMDaemon:
    """Periodic scanner over a :class:`MadviseRegistry`."""

    def __init__(self, mm: PhysicalMemoryManager,
                 registry: Optional[MadviseRegistry] = None,
                 config: Optional[KSMConfig] = None,
                 rng: Optional[random.Random] = None):
        self.mm = mm
        self.registry = registry or MadviseRegistry()
        self.config = config or KSMConfig()
        self.rng = rng or random.Random(97)
        self.stable = StableTree()
        self.unstable = UnstableTree()
        self.stats = KSMStats()
        self._shares: Dict[str, _OwnerShare] = {}
        self._merged_chunks: Dict[str, Set[int]] = {}
        self._zero_sharers = 0
        self.pass_just_completed = False

    # --- registration ----------------------------------------------------

    def register(self, region: RegionContent) -> None:
        """madvise(MADV_MERGEABLE) for *region*."""
        self.registry.madvise(region)
        self._shares.setdefault(region.owner_id, _OwnerShare())
        self._merged_chunks.setdefault(region.owner_id, set())

    def unregister(self, owner_id: str) -> None:
        """Owner exits: release its shares from the trees.

        The physical pages themselves are freed by whoever frees the
        owner's memory; here we only fix up sharer counts.
        """
        self.registry.remove_owner(owner_id)
        share = self._shares.pop(owner_id, None)
        self._merged_chunks.pop(owner_id, None)
        if share is None:
            return
        if share.zero_pages:
            self._zero_sharers -= 1
        for fingerprint in share.chunk_pages:
            page = self.stable.lookup(fingerprint)
            if page is not None:
                self.stable.drop_sharer(fingerprint)

    @property
    def total_saved_pages(self) -> int:
        return sum(s.merged_pages for s in self._shares.values())

    # --- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> dict:
        """Registry regions (with their scan cursors), both trees, share
        accounting, and the CoW RNG.  The region objects are shared with
        whatever registered them (e.g. the trace source) — the one-pickle
        snapshot keeps that sharing intact."""
        return {"registry": self.registry.state_dict(),
                "stable": self.stable.state_dict(),
                "unstable": self.unstable.state_dict(),
                "stats": self.stats,
                "shares": self._shares,
                "merged_chunks": self._merged_chunks,
                "zero_sharers": self._zero_sharers,
                "pass_just_completed": self.pass_just_completed,
                "rng": self.rng.getstate()}

    def load_state_dict(self, state: dict) -> None:
        self.registry.load_state_dict(state["registry"])
        self.stable.load_state_dict(state["stable"])
        self.unstable.load_state_dict(state["unstable"])
        self.stats = state["stats"]
        self._shares = state["shares"]
        self._merged_chunks = state["merged_chunks"]
        self._zero_sharers = state["zero_sharers"]
        self.pass_just_completed = state["pass_just_completed"]
        self.rng.setstate(state["rng"])

    # --- the scan loop -----------------------------------------------------

    def step(self, dt_s: float) -> int:
        """Advance ksmd by *dt_s* seconds; returns pages merged this step."""
        if dt_s <= 0:
            raise ConfigurationError("dt must be positive")
        self.pass_just_completed = False
        regions = self.registry.regions()
        if not regions:
            return 0
        budget = int(self.config.pages_per_second * dt_s)
        if budget <= 0:
            return 0
        merged_now = 0
        total_pages = sum(r.total_pages for r in regions)
        for region in regions:
            share = budget * region.total_pages // total_pages
            if share <= 0:
                continue
            merged_now += self._scan_region(region, share)
        self.stats.pages_scanned += budget
        if all(r.pass_complete for r in regions):
            self.stats.passes_completed += 1
            self.pass_just_completed = True
            self.unstable.reset()
            for region in regions:
                region.reset_pass()
        merged_now += 0
        self._apply_cow(dt_s)
        return merged_now

    def _scan_region(self, region: RegionContent, pages: int) -> int:
        owner = region.owner_id
        share = self._shares[owner]
        merged_chunks = self._merged_chunks[owner]
        zero_scanned, new_chunks = region.advance_scan(pages)
        merged = 0

        # Zero pages: everything beyond the first system-wide copy merges
        # (frequently-written zero pages never checksum-stabilize).
        fresh_zero = min(zero_scanned,
                         region.stable_zero_pages - share.zero_pages)
        if fresh_zero > 0:
            if self._zero_sharers == 0 and share.zero_pages == 0:
                # First zero page becomes the shared copy.
                self.stable.insert(ZERO_FINGERPRINT, sharers=1)
                self._zero_sharers = 1
                fresh_zero -= 1
            elif share.zero_pages == 0:
                self._zero_sharers += 1
            share.zero_pages += fresh_zero
            merged += fresh_zero

        # Image chunks: merge when another copy already reached the trees.
        for chunk in new_chunks:
            if chunk in merged_chunks:
                continue
            if region.chunk_is_volatile(chunk):
                continue  # checksum unstable: never enters the trees
            fingerprint = chunk_fingerprint(region.image_id, chunk)
            chunk_pages = region.pages_per_chunk
            if self.stable.lookup(fingerprint) is not None:
                self.stable.add_sharer(fingerprint)
                merged_chunks.add(chunk)
                share.chunk_pages[fingerprint] = chunk_pages
                merged += chunk_pages
                continue
            holder = self.unstable.find_or_insert(fingerprint, (owner, chunk))
            if holder is None:
                continue  # first sighting this pass; wait for a twin
            other_owner, _other_chunk = holder
            if other_owner == owner:
                continue
            # Two identical chunks met: promote, free this owner's copy.
            self.stable.insert(fingerprint, sharers=2)
            merged_chunks.add(chunk)
            share.chunk_pages[fingerprint] = chunk_pages
            merged += chunk_pages

        if merged > 0:
            freed = self.mm.free_pages_of(owner, merged)
            self.stats.pages_merged += freed
            return freed
        return 0

    def _apply_cow(self, dt_s: float) -> None:
        """Writers break sharing: re-allocate a private copy per break."""
        rate = self.config.cow_rate_per_s * dt_s
        if rate <= 0:
            return
        for owner, share in self._shares.items():
            if share.merged_pages <= 0:
                continue
            expected = share.merged_pages * rate
            breaks = int(expected)
            if self.rng.random() < expected - breaks:
                breaks += 1
            breaks = min(breaks, share.merged_pages)
            if breaks <= 0:
                continue
            taken = 0
            # Break zero-page shares first (they are the most written).
            zero_breaks = min(breaks, share.zero_pages)
            share.zero_pages -= zero_breaks
            taken += zero_breaks
            while taken < breaks and share.chunk_pages:
                fingerprint = next(iter(share.chunk_pages))
                pages = share.chunk_pages.pop(fingerprint)
                page = self.stable.lookup(fingerprint)
                if page is not None:
                    self.stable.drop_sharer(fingerprint)
                taken += min(pages, breaks - taken)
            try:
                self.mm.allocate(owner, taken)
                self.stats.pages_unmerged_cow += taken
            except AllocationError:
                # No room for the private copy right now; the unmerge is
                # skipped (the real kernel would reclaim or OOM here).
                pass
        return None
