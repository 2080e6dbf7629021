"""The GreenDIMM power-management daemon (Section 4.2).

``memory_usage_monitor()`` samples meminfo every monitoring period (or
immediately after a KSM pass completes); when free memory exceeds the
``off_thr`` reserve it asks ``block_selector()`` for candidates and
off-lines them, gating newly covered sub-array groups; when free memory
drops below ``on_thr`` it wakes groups, polls the ready bit, and
on-lines blocks back.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Set

from repro.core.config import GreenDIMMConfig
from repro.core.power_control import GreenDIMMPowerControl
from repro.core.selector import BlockSelector
from repro.errors import ConfigurationError, OnlineError, WakeupTimeoutError
from repro.ksm.daemon import KSMDaemon
from repro.obs.tracer import GLOBAL_TRACER as TRACER
from repro.os.hotplug import MemoryBlockManager
from repro.os.mm import PhysicalMemoryManager
from repro.units import PAGE_SIZE


class DaemonEvent(NamedTuple):
    """One daemon action, for time-series analysis (Figure 12 style).

    A ``NamedTuple`` rather than a frozen dataclass: the daemon logs one
    per off-lining and on-lining, and tuple construction is the cheaper
    record.
    """

    time_s: float
    kind: str  # offline | online | ebusy | eagain | emergency
    #          # | online_failed | wakeup_timeout | quarantine
    block: int


@dataclass
class DaemonStats:
    """Run counters: the raw material of Table 2/3 and Figures 6-8, 12."""

    offline_events: int = 0
    online_events: int = 0
    ebusy_failures: int = 0
    eagain_failures: int = 0
    offlined_bytes_total: int = 0
    onlined_bytes_total: int = 0
    busy_s: float = 0.0
    busy_offline_s: float = 0.0
    busy_online_s: float = 0.0
    wakeup_wait_s: float = 0.0
    emergency_onlines: int = 0
    online_failures: int = 0
    wakeup_timeouts: int = 0
    quarantines: int = 0

    @property
    def total_failures(self) -> int:
        return self.ebusy_failures + self.eagain_failures


class GreenDIMMDaemon:
    """Implements ``memory_usage_monitor()`` + ``block_selector()``.

    The daemon is also the ``greendimm`` power policy: it implements
    :class:`~repro.policies.base.PowerPolicy` itself, and a system
    running the default policy steps ``system.daemon`` directly.
    """

    name = "greendimm"

    def __init__(self, mm: PhysicalMemoryManager,
                 hotplug: MemoryBlockManager,
                 power_control: GreenDIMMPowerControl,
                 config: Optional[GreenDIMMConfig] = None,
                 ksm: Optional[KSMDaemon] = None,
                 rng: Optional[random.Random] = None):
        self.mm = mm
        self.hotplug = hotplug
        self.power_control = power_control
        self.config = config or GreenDIMMConfig()
        if self.config.block_bytes != mm.block_pages * PAGE_SIZE:
            raise ConfigurationError(
                "daemon block size differs from the memory manager's")
        self.ksm = ksm
        self.selector = BlockSelector(hotplug, self.config.selection,
                                      rng or random.Random(29))
        self.stats = DaemonStats()
        self.check_band(self.config)
        #: Bounded event history; oldest entries are dropped.
        self.event_log: Deque[DaemonEvent] = collections.deque(maxlen=20_000)
        self._since_monitor_s = math.inf  # fire on the first step
        #: Consecutive off-lining failures per block (cleared on success).
        self._fail_streak: Dict[int, int] = {}
        #: Earliest time a failed block may be attempted again (backoff /
        #: quarantine embargo).
        self._retry_at: Dict[int, float] = {}

    def _record(self, event: DaemonEvent) -> None:
        """Log one decision: the bounded history plus the trace stream."""
        self.event_log.append(event)
        if TRACER.enabled:
            TRACER.event("daemon." + event.kind, t_s=event.time_s,
                         block=event.block)

    # --- thresholds ----------------------------------------------------------

    @property
    def _block_pages(self) -> int:
        return self.mm.block_pages

    @property
    def reserve_pages(self) -> int:
        """Free pages that must stay on-lined (off_thr x installed).

        Rounded to the nearest page (matching ``low_water_pages``) so
        the two thresholds cannot drift apart by a flooring artefact.
        """
        return round(self.config.off_thr_fraction * self.mm.total_pages)

    @property
    def low_water_pages(self) -> int:
        """Free-page level that triggers on-lining (on_thr x installed)."""
        return round(self.config.on_thr_fraction * self.mm.total_pages)

    def check_band(self, config: GreenDIMMConfig) -> None:
        """Refuse *config* if its two thresholds round to one page count.

        The config itself enforces ``on_thr < off_thr``; on a small
        platform both can still land on the same page, and the
        hysteresis band would vanish.
        """
        total = self.mm.total_pages
        low = round(config.on_thr_fraction * total)
        reserve = round(config.off_thr_fraction * total)
        if low >= reserve:
            raise ConfigurationError(
                f"on_thr and off_thr collapse to the same page count "
                f"({low} >= {reserve}) on this {total}-page platform; "
                f"widen the hysteresis band or use a larger capacity")

    # --- the PowerPolicy surface ------------------------------------------

    def reset_stats(self) -> None:
        self.stats = DaemonStats()

    @property
    def monitor_period_s(self) -> float:
        return self.config.monitor_period_s

    @property
    def monitor_timer(self) -> float:
        return self._since_monitor_s

    @monitor_timer.setter
    def monitor_timer(self, value: float) -> None:
        self._since_monitor_s = value

    def extra_power_w(self) -> float:
        return 0.0

    def runtime_overhead_fraction(self) -> float:
        return 0.0

    def policy_metrics(self) -> Dict[str, float]:
        return {}

    # --- public stepping ---------------------------------------------------

    def step(self, now_s: float, dt_s: float) -> None:
        """Advance the daemon by one simulation epoch."""
        self._since_monitor_s += dt_s
        ksm_kick = (self.config.react_to_ksm and self.ksm is not None
                    and self.ksm.pass_just_completed)
        if self._since_monitor_s < self.config.monitor_period_s and not ksm_kick:
            return
        self._since_monitor_s = 0.0
        self.monitor_once(now_s)

    def monitor_is_noop(self) -> bool:
        """True when a monitor pass right now would take no action.

        The exact complement of :meth:`monitor_once`'s two branches:
        free memory sits inside ``[on_thr, off_thr + one block]``, so the
        pass would neither on-line nor off-line anything (and would
        consume no selector/hot-plug randomness).
        """
        free = self.mm.free_pages
        return (self.low_water_pages <= free
                <= self.reserve_pages + self._block_pages)

    def monitor_fire_is_noop(self) -> bool:
        """True when a monitor pass right now would change nothing.

        Wider than :meth:`monitor_is_noop`: it also covers free memory
        below the low-water mark with nothing left to on-line, where
        :meth:`_online_until` walks an empty offline set and returns
        without side effects.  That is the steady state of a VM-packed
        server with every block online.
        """
        free = self.mm.free_pages
        if free < self.low_water_pages:
            return not self.hotplug.offline_set()
        return free <= self.reserve_pages + self._block_pages

    def monitor_once(self, now_s: float = 0.0) -> None:
        """One ``memory_usage_monitor()`` evaluation."""
        free = self.mm.free_pages
        if free < self.low_water_pages:
            target = (self.reserve_pages + self.low_water_pages) // 2
            self._online_until(now_s, target_free_pages=target)
        elif free > self.reserve_pages + self._block_pages:
            self._offline_surplus(now_s, free)

    # --- off-lining --------------------------------------------------------------

    def _embargoed(self, now_s: float) -> Set[int]:
        """Blocks sitting out a backoff delay or quarantine cooldown."""
        expired = [b for b, t in self._retry_at.items() if t <= now_s]
        for block in expired:
            del self._retry_at[block]
        return set(self._retry_at)

    def _note_offline_failure(self, block: int, now_s: float,
                              errno_name: Optional[str]) -> None:
        """Bounded retry with exponential backoff, then quarantine.

        EAGAIN is transient, so the block is retried after an
        exponentially growing delay; EBUSY means unmovable pages are
        present right now, so one base delay gives the pinned extent a
        chance to expire.  A block that keeps failing either way is
        quarantined for a long cooldown instead of burning an attempt
        every period forever.
        """
        streak = self._fail_streak.get(block, 0) + 1
        self._fail_streak[block] = streak
        if streak >= self.config.quarantine_failures:
            self._retry_at[block] = now_s + self.config.quarantine_cooldown_s
            self.stats.quarantines += 1
            self._record(DaemonEvent(now_s, "quarantine", block))
            return
        if errno_name == "EAGAIN":
            delay = min(self.config.retry_backoff_base_s * 2 ** (streak - 1),
                        self.config.retry_backoff_max_s)
        else:
            delay = self.config.retry_backoff_base_s
        self._retry_at[block] = now_s + delay

    def _offline_surplus(self, now_s: float, free_pages: int) -> None:
        surplus_blocks = (free_pages - self.reserve_pages) // self._block_pages
        if surplus_blocks <= 0:
            return
        # Draw up to max_attempts_per_period candidates so each failure
        # has a replacement to fall through to: the budget bounds
        # *attempts*, not candidates, and off-lining no longer falls
        # short of the surplus just because early candidates failed.
        max_attempts = self.config.max_attempts_per_period
        candidates = self.selector.candidates(
            max_attempts, exclude=self._embargoed(now_s),
            policy=self.config.selection)
        try_offline = self.hotplug.try_offline_block
        block_offlined = self.power_control.block_offlined
        stats = self.stats
        block_bytes = self.config.block_bytes
        fail_streak = self._fail_streak
        log = self.event_log.append
        done = 0
        attempts = 0
        for block in candidates:
            if done >= surplus_blocks or attempts >= max_attempts:
                break
            attempts += 1
            result = try_offline(block)
            latency = result.latency_s
            stats.busy_s += latency
            stats.busy_offline_s += latency
            if result.success:
                done += 1
                fail_streak.pop(block, None)
                stats.offline_events += 1
                stats.offlined_bytes_total += block_bytes
                block_offlined(block, now_s)
                log(DaemonEvent(now_s, "offline", block))
                if TRACER.enabled:
                    TRACER.event("daemon.offline", t_s=now_s, block=block)
            elif result.errno_name == "EBUSY":
                stats.ebusy_failures += 1
                self._record(DaemonEvent(now_s, "ebusy", block))
                self._note_offline_failure(block, now_s, result.errno_name)
            else:
                stats.eagain_failures += 1
                self._record(DaemonEvent(now_s, "eagain", block))
                self._note_offline_failure(block, now_s, result.errno_name)

    # --- on-lining ----------------------------------------------------------------

    def _online_until(self, now_s: float,
                      target_free_pages: int) -> List[int]:
        """On-line lowest-address offline blocks until *target* free pages.

        Degrades gracefully: a block whose wake-up times out or whose
        ``online_pages()`` fails is skipped and the next-lowest offline
        block is tried instead of aborting the refill (or spinning on
        the same block forever).  Every iteration either on-lines a
        block or adds one to the skip set, so the loop is bounded by the
        offline-block count.  Returns the blocks brought back.
        """
        onlined: List[int] = []
        # Track free pages incrementally: each successful online adds
        # exactly one block of frames, and nothing else in this loop
        # changes the free total.
        free_pages = self.mm.free_pages
        if free_pages >= target_free_pages:
            return onlined
        prepare_online = self.power_control.prepare_online
        block_onlined = self.power_control.block_onlined
        online_block = self.hotplug.online_block
        stats = self.stats
        block_bytes = self.config.block_bytes
        block_pages = self._block_pages
        log = self.event_log.append
        # The offline set only shrinks while this loop runs (each pass
        # removes the block it on-lines, or skips it for good), so one
        # sorted snapshot yields the same lowest-first attempt order as
        # re-computing the minimum every iteration.
        for block in sorted(self.hotplug.offline_set()):
            if free_pages >= target_free_pages:
                break
            # The wake-up poll (Section 4.3) is controller wait, not
            # daemon CPU time: it lands in wakeup_wait_s only, so
            # cpu_overhead_fraction reflects cycles actually consumed.
            try:
                wait_s = prepare_online(block, now_s)
            except WakeupTimeoutError as err:
                stats.wakeup_wait_s += err.wait_s
                stats.wakeup_timeouts += 1
                self._record(DaemonEvent(now_s, "wakeup_timeout", block))
                continue
            stats.wakeup_wait_s += wait_s
            try:
                latency = online_block(block)
            except OnlineError as err:
                stats.online_failures += 1
                stats.busy_s += err.latency_s
                stats.busy_online_s += err.latency_s
                self._record(DaemonEvent(now_s, "online_failed", block))
                continue
            block_onlined(block, now_s)
            stats.busy_s += latency
            stats.busy_online_s += latency
            stats.online_events += 1
            stats.onlined_bytes_total += block_bytes
            log(DaemonEvent(now_s, "online", block))
            if TRACER.enabled:
                TRACER.event("daemon.online", t_s=now_s, block=block)
            onlined.append(block)
            free_pages += block_pages
        return onlined

    def emergency_online(self, needed_pages: int, now_s: float = 0.0) -> int:
        """Allocation pressure beyond the monitor's reaction: on-line now.

        Returns the number of blocks on-lined.  Called by the server
        model when an allocation fails between monitoring periods.  One
        ``emergency`` event is logged per block brought back, so
        Figure-12-style event analysis counts emergency traffic at its
        true rate.
        """
        target = self.mm.free_pages + max(needed_pages, self._block_pages)
        onlined = self._online_until(now_s, target_free_pages=target)
        if onlined:
            self.stats.emergency_onlines += 1
            for block in onlined:
                self._record(DaemonEvent(now_s, "emergency", block))
        return len(onlined)

    # --- checkpoint/restore ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Everything that moves at runtime: counters, the bounded event
        history, the monitor timer, the backoff/quarantine embargoes, the
        selector's stale view + RNG, and the (retunable) config."""
        return {"config": self.config,
                "stats": self.stats,
                "event_log": self.event_log,
                "since_monitor_s": self._since_monitor_s,
                "fail_streak": self._fail_streak,
                "retry_at": self._retry_at,
                "selector": self.selector.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        self.config = state["config"]
        self.stats = state["stats"]
        self.event_log = state["event_log"]
        self._since_monitor_s = state["since_monitor_s"]
        self._fail_streak = state["fail_streak"]
        self._retry_at = state["retry_at"]
        self.selector.load_state_dict(state["selector"])

    # --- views --------------------------------------------------------------------

    @property
    def offline_block_count(self) -> int:
        return self.hotplug.offline_count

    def dpd_fraction(self) -> float:
        """Capacity fraction in deep power-down, for the power model."""
        return self.power_control.gated_capacity_fraction()

    def cpu_overhead_fraction(self, elapsed_s: float) -> float:
        """Fraction of one core the daemon consumed over *elapsed_s*."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, self.stats.busy_s / elapsed_s)
