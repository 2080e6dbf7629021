"""Memory-block on/off-lining — the substrate for ``offline_pages()``.

Reproduces the behaviour GreenDIMM depends on (Sections 2.3 and 5.2):

* a block off-lines by isolating its free pages, migrating the used
  movable pages away, and removing the range from the online total;
* **EBUSY** — the block holds unmovable (kernel/pinned) pages, detected
  immediately (~6 us in Table 3);
* **EAGAIN** — all pages are movable but migration fails transiently;
  the kernel tries three times before giving up, which is why the paper
  measures the EAGAIN latency (~4.37 ms) at roughly 3x a successful
  off-lining (~1.58 ms);
* on-lining returns the frames to the buddy allocator (~3.44 ms).

Latencies are modelled, not measured: each operation returns the time the
real kernel would have spent, and the simulation charges it to the core
running the daemon.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.errors import (
    AllocationError,
    ConfigurationError,
    OfflineAgainError,
    OfflineBusyError,
    OnlineError,
)
from repro.obs.tracer import GLOBAL_TRACER as TRACER
from repro.os.mm import PhysicalMemoryManager
from repro.units import MICROSECOND, MILLISECOND

#: Migration attempts before the kernel returns EAGAIN (Section 5.2).
MIGRATION_ATTEMPTS = 3


class MemoryBlockState(enum.Enum):
    ONLINE = "online"
    OFFLINE = "offline"
    GOING_OFFLINE = "going-offline"


@dataclass(frozen=True)
class HotplugLatencyModel:
    """Latency constants calibrated to Table 3 (measured while running mcf).

    The measured off-lining success involved no page migration (GreenDIMM
    only picked fully-free blocks), so migration cost is a separate
    per-page term on top of the base success latency.
    """

    offline_success_s: float = 1.58 * MILLISECOND
    online_s: float = 3.44 * MILLISECOND
    failure_eagain_s: float = 4.37 * MILLISECOND
    failure_ebusy_s: float = 6.0 * MICROSECOND
    migrate_per_page_s: float = 3.0 * MICROSECOND

    def offline_latency(self, migrated_pages: int) -> float:
        return self.offline_success_s + migrated_pages * self.migrate_per_page_s


@dataclass
class HotplugStats:
    """Cumulative counters over a run, consumed by the Figure 8 / Table 3
    benchmarks."""

    offline_success: int = 0
    online_success: int = 0
    ebusy_failures: int = 0
    eagain_failures: int = 0
    migrated_pages: int = 0

    @property
    def total_failures(self) -> int:
        return self.ebusy_failures + self.eagain_failures


class OfflineResult(NamedTuple):
    """Outcome of one off-lining attempt.

    A ``NamedTuple``, like :class:`OnlineAttempt`: the daemon receives
    one per attempt, and tuple construction is the cheaper record.
    """

    block: int
    success: bool
    latency_s: float
    migrated_pages: int = 0
    errno_name: Optional[str] = None


class OnlineAttempt(NamedTuple):
    """Outcome of one on-lining attempt (the ``try_`` mirror of
    :class:`OfflineResult`)."""

    block: int
    success: bool
    latency_s: float
    errno_name: Optional[str] = None


class MemoryBlockManager:
    """Drives block state transitions against a PhysicalMemoryManager.

    ``transient_failure_probability`` models the per-attempt chance that
    page migration aborts for lack of resources; the paper's runs
    practically never completed a migrating off-line (Section 5.2), so the
    default is high.  Use 0.0 to make migration reliable whenever
    destination frames exist.
    """

    def __init__(self, mm: PhysicalMemoryManager,
                 latency: Optional[HotplugLatencyModel] = None,
                 transient_failure_probability: float = 0.85,
                 rng: Optional[random.Random] = None):
        if not 0.0 <= transient_failure_probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.mm = mm
        self.latency = latency or HotplugLatencyModel()
        self.transient_failure_probability = transient_failure_probability
        self.rng = rng or random.Random(0)
        self.states: List[MemoryBlockState] = [
            MemoryBlockState.ONLINE for _ in range(mm.num_blocks)]
        #: Incremental index of OFFLINE blocks, maintained at every state
        #: transition so the per-epoch ``offline_count`` query and the
        #: daemon's refill scans are O(offline) instead of O(num_blocks).
        self._offline_set: Set[int] = set()
        self.stats = HotplugStats()

    # --- queries ------------------------------------------------------------

    def state(self, index: int) -> MemoryBlockState:
        return self.states[index]

    def online_blocks(self) -> List[int]:
        return [i for i, s in enumerate(self.states)
                if s is MemoryBlockState.ONLINE]

    def offline_blocks(self) -> List[int]:
        return sorted(self._offline_set)

    def offline_set(self) -> Set[int]:
        """The offline blocks as an unordered set (live view, don't mutate).

        For callers that only need membership or a ``min``/``max`` —
        :meth:`offline_blocks` sorts the whole set on every call, which
        the daemon's refill loop would otherwise pay per iteration.
        """
        return self._offline_set

    @property
    def offline_count(self) -> int:
        return len(self._offline_set)

    def removable(self, index: int) -> bool:
        """The sysfs ``removable`` flag (Section 5.2): 1 when every page in
        the block is movable (or free)."""
        return self.mm.block_is_removable(index)

    # --- off-lining -------------------------------------------------------------

    def offline_block(self, index: int) -> OfflineResult:
        """``offline_pages()``: raise on failure, with latency attached.

        Raises :class:`OfflineBusyError` (unmovable pages present) or
        :class:`OfflineAgainError` (migration failed transiently).  The
        raised exception carries ``latency_s``.  An index outside the
        block range raises :class:`ConfigurationError` before any state
        changes.
        """
        states = self.states
        if not 0 <= index < len(states):
            raise ConfigurationError(f"block {index} out of range")
        if states[index] is not MemoryBlockState.ONLINE:
            raise OnlineError(f"block {index} is not online")
        mm = self.mm
        accounting = mm.block_accounting(index)
        if accounting.unmovable_pages:
            latency = self.latency.failure_ebusy_s
            self.stats.ebusy_failures += 1
            if TRACER.enabled:
                TRACER.event("hotplug.ebusy", block=index, latency_s=latency)
            raise OfflineBusyError(f"block {index} has unmovable pages",
                                   latency_s=latency)

        states[index] = MemoryBlockState.GOING_OFFLINE
        isolated = mm.isolate_block(index)
        migrated = 0
        try:
            if accounting.used_pages:
                migrated = self._migrate_with_retries(index, isolated)
            mm.complete_offline(index)
        except AllocationError:
            mm.undo_isolate_block(index, isolated)
            states[index] = MemoryBlockState.ONLINE
            latency = self.latency.failure_eagain_s
            self.stats.eagain_failures += 1
            if TRACER.enabled:
                TRACER.event("hotplug.eagain", block=index, latency_s=latency)
            raise OfflineAgainError(f"block {index}: migration failed",
                                    latency_s=latency)

        states[index] = MemoryBlockState.OFFLINE
        self._offline_set.add(index)
        latency = self.latency.offline_latency(migrated)
        self.stats.offline_success += 1
        self.stats.migrated_pages += migrated
        if TRACER.enabled:
            TRACER.event("hotplug.offline", block=index, latency_s=latency,
                         migrated_pages=migrated)
        return OfflineResult(index, True, latency, migrated)

    def _migrate_with_retries(self, index: int,
                              isolated: List[Tuple[int, int]]) -> int:
        """Try migration up to MIGRATION_ATTEMPTS times (EAGAIN on failure)."""
        for attempt in range(MIGRATION_ATTEMPTS):
            if self.rng.random() < self.transient_failure_probability:
                continue
            return self.mm.migrate_block_out(index, isolated)
        raise AllocationError(
            f"block {index}: {MIGRATION_ATTEMPTS} migration attempts failed")

    def try_offline_block(self, index: int) -> OfflineResult:
        """Non-raising wrapper: always returns an :class:`OfflineResult`."""
        try:
            return self.offline_block(index)
        except (OfflineBusyError, OfflineAgainError) as err:
            return OfflineResult(index, False, err.latency_s, 0,
                                 err.errno_name)

    # --- on-lining ---------------------------------------------------------------

    def online_block(self, index: int) -> float:
        """``online_pages()``: return the block to service.

        Returns the modelled latency.  GreenDIMM additionally waits for the
        sub-array wake-up before calling this (Section 4.2); that wait is
        accounted by the power-control layer, not here.
        """
        states = self.states
        if not 0 <= index < len(states):
            raise ConfigurationError(f"block {index} out of range")
        if states[index] is not MemoryBlockState.OFFLINE:
            raise OnlineError(f"block {index} is not offline")
        self.mm.complete_online(index)
        states[index] = MemoryBlockState.ONLINE
        self._offline_set.discard(index)
        latency = self.latency.online_s
        self.stats.online_success += 1
        if TRACER.enabled:
            TRACER.event("hotplug.online", block=index, latency_s=latency)
        return latency

    def try_online_block(self, index: int) -> OnlineAttempt:
        """Non-raising wrapper: always returns an :class:`OnlineAttempt`."""
        try:
            return OnlineAttempt(block=index, success=True,
                                 latency_s=self.online_block(index))
        except OnlineError as err:
            return OnlineAttempt(block=index, success=False,
                                 latency_s=getattr(err, "latency_s", 0.0),
                                 errno_name=err.errno_name)

    # --- checkpoint/restore ------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Mutable hot-plug state; the migration-retry RNG is captured as
        its ``getstate()`` tuple (see :mod:`repro.sim.snapshot`)."""
        return {"rng": self.rng.getstate(),
                "states": self.states,
                "offline_set": self._offline_set,
                "stats": self.stats}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.rng.setstate(state["rng"])
        self.states = state["states"]
        self._offline_set = state["offline_set"]
        self.stats = state["stats"]
