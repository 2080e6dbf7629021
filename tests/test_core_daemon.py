"""The GreenDIMM daemon: thresholds, selection, on/off-lining."""

import collections

import pytest

from repro.core.config import GreenDIMMConfig, SelectionPolicy
from repro.core.selector import BlockSelector
from repro.core.system import GreenDIMMSystem
from repro.dram.device import DDR4_4GB_X8
from repro.dram.organization import MemoryOrganization
from repro.errors import AllocationError, ConfigurationError
from repro.faults import STICKY, FaultPlan, FaultRule, storm_plan
from repro.os.page import OwnerKind
from repro.units import GIB, MIB, PAGE_SIZE


def make_system(**kwargs) -> GreenDIMMSystem:
    org = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                             dimms_per_channel=1, ranks_per_dimm=1)
    defaults = dict(organization=org,
                    config=GreenDIMMConfig(block_bytes=64 * MIB),
                    kernel_boot_bytes=256 * MIB,
                    transient_failure_probability=0.0, seed=3)
    defaults.update(kwargs)
    return GreenDIMMSystem(**defaults)


def settle(system, start=0.0, epochs=20):
    for i in range(epochs):
        system.step(start + i)
    return start + epochs


def _grow(system, owner, total_pages, start):
    """Grow an owner gradually, letting the daemon on-line as needed."""
    now = start
    remaining = total_pages
    while remaining > 0:
        take = min(remaining, max(0, system.mm.free_pages - 2048))
        if take > 0:
            system.mm.allocate(owner, take)
            remaining -= take
        else:
            system.daemon.emergency_online(remaining, now)
        now += 1.0
        system.step(now)
    return now


class TestConfig:
    def test_hysteresis_enforced(self):
        with pytest.raises(ConfigurationError):
            GreenDIMMConfig(off_thr_fraction=0.05, on_thr_fraction=0.10)

    def test_defaults_match_paper(self):
        config = GreenDIMMConfig()
        assert config.off_thr_fraction > 0.10  # "10% + alpha"
        assert config.monitor_period_s == 1.0
        assert config.block_bytes == 128 * MIB
        assert config.selection is SelectionPolicy.REMOVABLE_FIRST

    def test_block_size_must_match_mm(self):
        from repro.core.daemon import GreenDIMMDaemon

        system = make_system()
        bad_config = GreenDIMMConfig(block_bytes=128 * MIB)
        with pytest.raises(ConfigurationError):
            GreenDIMMDaemon(system.mm, system.hotplug, system.power_control,
                            config=bad_config)

    def test_thresholds_round_to_nearest(self):
        # 4GB platform -> 1048576 pages; 0.1049995 x that = 110099.48...
        # truncation would floor to 110099, rounding gives 110099 too, but
        # 0.10500049 x that = 110100.99... where int() loses a page.
        system = make_system(config=GreenDIMMConfig(
            block_bytes=64 * MIB, off_thr_fraction=0.12,
            on_thr_fraction=0.10500049))
        total = system.mm.total_pages
        assert system.daemon.low_water_pages == round(0.10500049 * total)
        assert system.daemon.low_water_pages == 110101  # int() gives 110100
        assert system.daemon.reserve_pages == round(0.12 * total)

    def test_collapsed_thresholds_rejected(self):
        # Both fractions land on the same page count after rounding on a
        # small platform: the hysteresis band vanished, which used to
        # thrash silently between off-lining and on-lining.
        with pytest.raises(ConfigurationError):
            make_system(config=GreenDIMMConfig(
                block_bytes=64 * MIB, off_thr_fraction=0.0000020,
                on_thr_fraction=0.0000019))
        # A live retune runs the same check and keeps the old config.
        system = make_system()
        before = system.config
        with pytest.raises(ConfigurationError, match="collapse"):
            system.retune(off_thr_fraction=0.0000020,
                          on_thr_fraction=0.0000019)
        assert system.config is before
        assert system.daemon.config is before

    def test_selection_is_the_enum_or_its_value(self):
        assert GreenDIMMConfig(selection="random").selection \
            is SelectionPolicy.RANDOM
        for bad in ("no_such_policy", None, ["random"]):
            with pytest.raises(ConfigurationError, match="selection"):
                GreenDIMMConfig(selection=bad)

    def test_retune_refuses_the_block_size(self):
        system = make_system()
        before = system.config
        with pytest.raises(ConfigurationError, match="block_bytes"):
            system.retune(block_bytes=2 * before.block_bytes)
        assert system.daemon.config is before


class TestOfflineBehaviour:
    def test_idle_system_offlines_surplus(self):
        system = make_system()
        settle(system)
        daemon = system.daemon
        assert daemon.offline_block_count > 0
        free = system.mm.free_pages
        assert free >= daemon.reserve_pages
        # The reserve is respected: free memory stays close to off_thr.
        assert free < daemon.reserve_pages + 3 * system.mm.block_pages

    def test_offlined_capacity_gated(self):
        system = make_system()
        settle(system)
        assert system.daemon.dpd_fraction() > 0.5

    def test_growth_triggers_online(self):
        system = make_system()
        now = settle(system)
        before_online = system.daemon.stats.online_events
        _grow(system, "app", int(2.5 * GIB) // PAGE_SIZE, start=now)
        assert system.daemon.stats.online_events > before_online
        assert system.mm.owner_pages("app") == int(2.5 * GIB) // PAGE_SIZE

    def test_shrink_triggers_more_offline(self):
        system = make_system()
        system.mm.allocate("app", 2 * GIB // PAGE_SIZE)
        now = settle(system)
        count_before = system.daemon.offline_block_count
        system.mm.free_pages_of("app", GIB // PAGE_SIZE)
        settle(system, start=now)
        assert system.daemon.offline_block_count > count_before

    def test_monitor_period_respected(self):
        system = make_system(
            config=GreenDIMMConfig(block_bytes=64 * MIB,
                                   monitor_period_s=10.0))
        system.step(0.0, dt_s=1.0)  # first step always monitors
        events_after_first = system.daemon.stats.offline_events
        for t in range(1, 9):
            system.step(float(t), dt_s=1.0)
        assert system.daemon.stats.offline_events == events_after_first

    def test_emergency_online(self):
        system = make_system()
        settle(system)
        freed = system.daemon.emergency_online(needed_pages=32768)
        assert freed > 0
        assert system.daemon.stats.emergency_onlines == 1


class TestSelectorPolicies:
    def test_removable_first_prefers_free_blocks(self):
        system = make_system()
        system.mm.allocate("app", 1000)
        selector = BlockSelector(system.hotplug,
                                 SelectionPolicy.REMOVABLE_FIRST)
        candidates = selector.candidates(5)
        assert candidates
        assert all(system.mm.block_is_free(b) for b in candidates)
        # Highest-address-first ordering.
        assert candidates == sorted(candidates, reverse=True)

    def test_random_policy_uses_whole_movable_pool(self):
        system = make_system()
        selector = BlockSelector(system.hotplug, SelectionPolicy.RANDOM)
        pool = selector.candidates(10_000)
        from repro.os.zones import ZoneKind
        assert pool
        assert all(system.mm.zone_kind_of_block(b) is ZoneKind.MOVABLE
                   for b in pool)

    def test_zero_count(self):
        system = make_system()
        selector = BlockSelector(system.hotplug)
        assert selector.candidates(0) == []

    def test_random_policy_causes_more_failures(self):
        """Figure 8: removable-first roughly halves off-lining failures."""
        totals = {}
        for policy in (SelectionPolicy.RANDOM,
                       SelectionPolicy.REMOVABLE_FIRST):
            system = make_system(
                config=GreenDIMMConfig(block_bytes=64 * MIB,
                                       selection=policy),
                transient_failure_probability=0.9)
            # Scatter pinned pages through the movable zone.
            for i in range(24):
                system.mm.allocate(f"pin{i}", 4, kind=OwnerKind.PINNED)
            system.mm.allocate("app", GIB // PAGE_SIZE)
            settle(system, epochs=40)
            totals[policy] = system.daemon.stats.total_failures
        assert totals[SelectionPolicy.RANDOM] > totals[
            SelectionPolicy.REMOVABLE_FIRST]


class TestOverheadAccounting:
    def test_busy_time_tracked(self):
        system = make_system()
        settle(system)
        stats = system.daemon.stats
        assert stats.busy_s > 0
        assert system.daemon.cpu_overhead_fraction(20.0) < 0.05

    def test_wakeup_wait_accumulates(self):
        system = make_system()
        now = settle(system)
        _grow(system, "app", 2 * GIB // PAGE_SIZE, start=now)
        assert system.daemon.stats.wakeup_wait_s > 0

    def test_online_busy_pins_table3_latency(self):
        """Table 3 regression: on-lining costs 3.44 ms of daemon CPU per
        event — the Section 4.3 wake-up poll is controller wait, not
        daemon cycles, and must not leak into busy accounting."""
        system = make_system()
        now = settle(system)
        _grow(system, "app", 2 * GIB // PAGE_SIZE, start=now)
        stats = system.daemon.stats
        assert stats.online_events > 0
        assert stats.wakeup_wait_s > 0
        assert stats.busy_online_s == pytest.approx(
            stats.online_events * 3.44e-3, rel=1e-9)

    def test_offline_busy_pins_table3_latency(self):
        """Off-lining free blocks costs the measured 1.58 ms per event."""
        system = make_system()
        settle(system)
        stats = system.daemon.stats
        assert stats.offline_events > 0
        assert stats.ebusy_failures == 0 and stats.eagain_failures == 0
        assert stats.busy_offline_s == pytest.approx(
            stats.offline_events * 1.58e-3, rel=1e-9)

    def test_busy_is_sum_of_offline_and_online(self):
        system = make_system()
        now = settle(system)
        _grow(system, "app", 2 * GIB // PAGE_SIZE, start=now)
        stats = system.daemon.stats
        assert stats.busy_s == pytest.approx(
            stats.busy_offline_s + stats.busy_online_s, rel=1e-12)


class TestResilience:
    """Regressions for the daemon-loop fixes, pinned with injected faults."""

    @staticmethod
    def _top_candidate() -> int:
        """The block a fresh system's selector would try first."""
        probe = make_system()
        return probe.daemon.selector.candidates(1)[0]

    def test_offline_failures_fall_through_to_replacements(self):
        # The attempt budget used to be spent on a fixed candidate list
        # sized to the surplus, so each failure left one surplus block
        # on-lined.  Now failures draw replacement candidates until the
        # budget (not the candidate list) runs out.
        top = self._top_candidate()
        plan = FaultPlan(rules=(
            FaultRule(op="offline", error="EBUSY", target=top,
                      count=STICKY),))
        system = make_system(fault_plan=plan)
        daemon = system.daemon
        surplus = ((system.mm.free_pages - daemon.reserve_pages)
                   // system.mm.block_pages)
        assert 0 < surplus + 1 <= daemon.config.max_attempts_per_period
        daemon.monitor_once(0.0)
        assert daemon.stats.ebusy_failures >= 1
        assert daemon.stats.offline_events == surplus
        assert top not in system.hotplug.offline_blocks()

    def test_online_skips_failing_block(self):
        # _online_until used to pick min(offline) unconditionally: one
        # block whose online_pages() kept failing wedged the refill
        # forever.  Now the failure is skipped and the next block tried.
        probe = make_system()
        settle(probe)
        bad = min(probe.hotplug.offline_blocks())
        plan = FaultPlan(rules=(
            FaultRule(op="online", error="EINVAL", target=bad,
                      count=STICKY),))
        system = make_system(fault_plan=plan)
        now = settle(system)
        assert min(system.hotplug.offline_blocks()) == bad
        freed = system.daemon.emergency_online(
            needed_pages=3 * system.mm.block_pages, now_s=now)
        assert freed > 0
        assert system.daemon.stats.online_failures >= 1
        assert bad in system.hotplug.offline_blocks()
        kinds = [e.kind for e in system.daemon.event_log
                 if e.block == bad and e.time_s == now]
        assert kinds == ["online_failed"]

    def test_emergency_logs_one_event_per_block(self):
        # emergency_online used to log a single event with block=-1 no
        # matter how many blocks it restored, undercounting emergency
        # traffic in Figure-12-style analysis.
        system = make_system()
        now = settle(system)
        freed = system.daemon.emergency_online(
            needed_pages=4 * system.mm.block_pages, now_s=now)
        assert freed > 1
        emergencies = [e for e in system.daemon.event_log
                       if e.kind == "emergency"]
        assert len(emergencies) == freed
        assert all(e.block >= 0 for e in emergencies)
        onlined = {e.block for e in system.daemon.event_log
                   if e.kind == "online" and e.time_s == now}
        assert {e.block for e in emergencies} == onlined

    def test_wakeup_timeout_charges_wait_not_busy(self):
        # Table 3 invariant under faults: an injected ready-bit timeout
        # burns controller wait, never daemon CPU time.
        plan = FaultPlan(rules=(
            FaultRule(op="prepare_online", error="ETIMEDOUT",
                      extra_latency_s=4e-4, count=1),))
        system = make_system(fault_plan=plan)
        now = settle(system)
        system.daemon.emergency_online(
            needed_pages=4 * system.mm.block_pages, now_s=now)
        stats = system.daemon.stats
        assert stats.wakeup_timeouts == 1
        assert stats.online_events > 0
        assert stats.wakeup_wait_s >= 4e-4
        assert stats.busy_online_s == pytest.approx(
            stats.online_events * 3.44e-3, rel=1e-9)

    def test_quarantine_stops_burning_attempts(self):
        # A sticky-failing block is retried with backoff, then embargoed
        # for the cooldown instead of eating budget every period.
        top = self._top_candidate()
        plan = FaultPlan(rules=(
            FaultRule(op="offline", error="EBUSY", target=top,
                      count=STICKY),))
        system = make_system(fault_plan=plan)
        system.mm.allocate("app", 12 * system.mm.block_pages)
        for t in range(40):
            if 0 < t and t % 3 == 0 and system.mm.owner_pages("app"):
                system.mm.free_pages_of("app", system.mm.block_pages)
            system.step(float(t))
        daemon = system.daemon
        assert daemon.stats.quarantines >= 1
        attempts_on_top = [e for e in daemon.event_log
                           if e.kind == "ebusy" and e.block == top]
        assert len(attempts_on_top) == daemon.config.quarantine_failures
        assert any(e.kind == "quarantine" and e.block == top
                   for e in daemon.event_log)

    def test_no_block_offlined_and_onlined_in_same_monitor_pass(self):
        # Hysteresis invariant under a storm: one monitor_once never
        # both off-lines and on-lines (thrashing would show up as both
        # event kinds at one timestamp).
        plan = storm_plan(17, intensity=6.0, duration_s=60.0, num_blocks=64)
        system = make_system(fault_plan=plan,
                             transient_failure_probability=0.9)
        app_pages = 0
        for t in range(60):
            try:
                if t % 6 < 3:
                    system.mm.allocate("app", 2 * system.mm.block_pages)
                    app_pages += 2 * system.mm.block_pages
                elif app_pages:
                    system.mm.free_pages_of("app",
                                            2 * system.mm.block_pages)
                    app_pages -= 2 * system.mm.block_pages
            except AllocationError:
                system.daemon.emergency_online(2 * system.mm.block_pages,
                                               now_s=t + 0.5)
            system.step(float(t))
        kinds_by_time = collections.defaultdict(set)
        for event in system.daemon.event_log:
            kinds_by_time[event.time_s].add(event.kind)
        assert any("offline" in k for k in kinds_by_time.values())
        assert any("online" in k for k in kinds_by_time.values())
        for kinds in kinds_by_time.values():
            assert not ({"offline"} & kinds and {"online"} & kinds)


class TestEventLog:
    def test_events_recorded_in_time_order(self):
        system = make_system()
        settle(system, epochs=15)
        log = list(system.daemon.event_log)
        assert log, "idle settling should off-line blocks"
        times = [e.time_s for e in log]
        assert times == sorted(times)
        assert all(e.kind == "offline" for e in log)

    def test_online_and_emergency_events(self):
        system = make_system()
        now = settle(system)
        system.daemon.emergency_online(needed_pages=32768, now_s=now)
        kinds = {e.kind for e in system.daemon.event_log}
        assert "online" in kinds
        assert "emergency" in kinds

    def test_log_is_bounded(self):
        from repro.core.daemon import DaemonEvent

        system = make_system()
        for i in range(25_000):
            system.daemon.event_log.append(DaemonEvent(float(i), "offline", 0))
        assert len(system.daemon.event_log) == 20_000
