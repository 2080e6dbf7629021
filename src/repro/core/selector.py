"""``block_selector()`` — choosing which blocks to off-line (Section 5.2)."""

from __future__ import annotations

import random
from typing import Collection, List, Optional

from repro.core.config import SelectionPolicy
from repro.os.hotplug import MemoryBlockManager, MemoryBlockState
from repro.os.zones import ZoneKind


class BlockSelector:
    """Orders off-lining candidates according to the configured policy.

    Both policies draw from the movable zone (the daemon never touches
    kernel-zone blocks).  ``REMOVABLE_FIRST`` additionally checks the
    sysfs ``removable`` flag and prefers *fully free* blocks — the
    paper's optimization that halves off-lining failures (Figure 8) and
    avoids page migration entirely on the success path.  Candidates are
    returned highest-address-first so the off-lined region clusters at
    the top of memory, completing whole sub-array groups (and their
    sense-amp pairs) as quickly as possible.
    """

    def __init__(self, hotplug: MemoryBlockManager,
                 policy: SelectionPolicy = SelectionPolicy.REMOVABLE_FIRST,
                 rng: Optional[random.Random] = None,
                 stale_view: bool = True):
        self.hotplug = hotplug
        self.policy = policy
        self.rng = rng or random.Random(13)
        # The real daemon reads sysfs, then off-lines: the flags it acted
        # on can be stale by the time offline_pages() runs, which is why
        # removable-first still fails sometimes (Figure 8).  We model the
        # race by selecting from the previous monitoring pass's snapshot.
        self.stale_view = stale_view
        self._snapshot: Optional[dict] = None
        # Zones are static and block-aligned, so the movable block range
        # is a fixed [start, end) interval computed once.
        mm = hotplug.mm
        self._movable_range = range(0, 0)
        for zone in mm.zones:
            if zone.kind is ZoneKind.MOVABLE:
                self._movable_range = range(
                    zone.start_pfn // mm.block_pages,
                    zone.end_pfn // mm.block_pages)
                break

    def _observe(self) -> dict:
        """One sysfs reading pass over the movable online blocks.

        The free/removable flags are read off the memory manager's
        per-block counters.  The pool is ascending.
        """
        states = self.hotplug.states
        online = MemoryBlockState.ONLINE
        accounting = self.hotplug.mm.block_accounting
        pool, free, removable = [], set(), set()
        for b in self._movable_range:
            if states[b] is not online:
                continue
            pool.append(b)
            acct = accounting(b)
            if not acct.used_pages:
                free.add(b)
            if not acct.unmovable_pages:
                removable.add(b)
        return {"pool": pool, "free": free, "removable": removable}

    # --- checkpoint/restore --------------------------------------------------

    def state_dict(self) -> dict:
        """The stale sysfs snapshot plus the RANDOM-policy shuffle RNG."""
        return {"rng": self.rng.getstate(), "snapshot": self._snapshot}

    def load_state_dict(self, state: dict) -> None:
        self.rng.setstate(state["rng"])
        self._snapshot = state["snapshot"]

    def candidates(self, count: int, exclude: Collection[int] = (),
                   policy: Optional[SelectionPolicy] = None) -> List[int]:
        """Up to *count* blocks to attempt off-lining, in attempt order.

        *exclude* removes blocks the daemon has embargoed — backing off
        after repeated failures or sitting out a quarantine cooldown —
        before policy ordering is applied.  *policy* overrides the
        constructor's: the daemon passes its live (retunable) config's.
        """
        if policy is None:
            policy = self.policy
        if count <= 0:
            return []
        current = self._observe()
        view = self._snapshot if (self.stale_view
                                  and self._snapshot is not None) else current
        self._snapshot = current
        excluded = set(exclude)
        states = self.hotplug.states
        online = MemoryBlockState.ONLINE
        pool = [b for b in view["pool"]
                if b not in excluded and states[b] is online]
        if not pool:
            return []
        if policy is SelectionPolicy.RANDOM:
            self.rng.shuffle(pool)
            return pool[:count]
        # removable-first: free blocks, then removable ones, both from the
        # top of memory downward (the pool is ascending); never propose
        # blocks known unmovable.
        free, removable = view["free"], view["removable"]
        top_down = pool[::-1]
        return ([b for b in top_down if b in free]
                + [b for b in top_down
                   if b not in free and b in removable])[:count]
