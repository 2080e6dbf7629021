"""The fault-injection layer: plans, injector, wrappers, determinism."""

import copy
import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.device import DDR4_4GB_X8
from repro.dram.organization import MemoryOrganization
from repro.errors import (
    AllocationError,
    ConfigurationError,
    OfflineBusyError,
    OnlineError,
    WakeupTimeoutError,
)
from repro.faults import (
    FAULT_OPS,
    STICKY,
    FaultInjector,
    FaultPlan,
    FaultRule,
    storm_plan,
)
from repro.faults.context import (
    active_plan,
    drain_fault_counts,
    get_active_plan,
)
from repro.policies.registry import policy_names
from repro.units import MIB


def make_system(plan=None, **kwargs) -> GreenDIMMSystem:
    org = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                             dimms_per_channel=1, ranks_per_dimm=1)
    defaults = dict(organization=org,
                    config=GreenDIMMConfig(block_bytes=64 * MIB),
                    kernel_boot_bytes=256 * MIB,
                    transient_failure_probability=0.0,
                    fault_plan=plan, seed=3)
    defaults.update(kwargs)
    return GreenDIMMSystem(**defaults)


class TestFaultRule:
    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(op="reboot", error="EBUSY")

    def test_mismatched_error_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(op="offline", error="ENOMEM")

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(op="offline", error="EBUSY", count=0)

    def test_inverted_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(op="offline", error="EBUSY", start_s=5.0, end_s=5.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(op="migration", error="STALL", extra_latency_s=-1.0)

    def test_matching_semantics(self):
        rule = FaultRule(op="offline", error="EAGAIN", target=7,
                         start_s=10.0, end_s=20.0, count=STICKY)
        assert rule.sticky
        assert rule.matches("offline", 7, 10.0)
        assert rule.matches("offline", 7, 19.999)
        assert not rule.matches("offline", 7, 20.0)  # end exclusive
        assert not rule.matches("offline", 7, 9.999)
        assert not rule.matches("offline", 8, 15.0)
        assert not rule.matches("online", 7, 15.0)

    def test_untargeted_rule_matches_any_block(self):
        rule = FaultRule(op="offline", error="EBUSY")
        assert rule.matches("offline", 0, 0.0)
        assert rule.matches("offline", 999, 0.0)
        assert rule.matches("offline", None, 0.0)

    def test_dict_roundtrip(self):
        rule = FaultRule(op="prepare_online", error="ETIMEDOUT", target=3,
                         start_s=1.0, end_s=9.0, count=2,
                         extra_latency_s=2e-4, label="x")
        assert FaultRule.from_dict(rule.to_dict()) == rule

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule.from_dict({"op": "offline", "error": "EBUSY",
                                 "blast_radius": 4})


class TestFaultPlan:
    def test_json_roundtrip_is_canonical(self):
        plan = storm_plan(11, intensity=1.5, duration_s=40.0)
        again = FaultPlan.from_json(plan.canonical())
        assert again == plan
        assert again.canonical() == plan.canonical()

    def test_compose_keeps_left_precedence(self):
        left = FaultPlan("l", rules=(FaultRule(op="offline", error="EBUSY"),))
        right = FaultPlan("r", rules=(FaultRule(op="offline", error="EAGAIN"),))
        both = left + right
        assert len(both) == 2
        assert both.rules[0].error == "EBUSY"
        injector = FaultInjector(both)
        assert injector.should_fail("offline", 0).error == "EBUSY"
        assert injector.should_fail("offline", 0).error == "EAGAIN"

    def test_file_roundtrip(self, tmp_path):
        plan = storm_plan(5, intensity=0.5, duration_s=20.0)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.from_file(path) == plan

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_file(tmp_path / "nope.json")

    def test_malformed_file_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_file(path)


class TestStormPlan:
    def test_same_seed_same_plan(self):
        assert (storm_plan(99, intensity=3.0).canonical()
                == storm_plan(99, intensity=3.0).canonical())

    def test_different_seed_different_plan(self):
        assert (storm_plan(1).canonical() != storm_plan(2).canonical())

    def test_intensity_scales_rule_count(self):
        calm = storm_plan(7, intensity=0.5, duration_s=120.0)
        wild = storm_plan(7, intensity=6.0, duration_s=120.0)
        assert len(wild) > len(calm)

    def test_rules_are_valid_and_windowed(self):
        plan = storm_plan(13, intensity=4.0, duration_s=60.0, num_blocks=32)
        assert plan.rules
        for rule in plan.rules:
            assert 0.0 <= rule.start_s < 60.0
            assert rule.end_s > rule.start_s
            if rule.target is not None:
                assert 0 <= rule.target < 32

    def test_negative_intensity_rejected(self):
        with pytest.raises(ConfigurationError):
            storm_plan(1, intensity=-1.0)


class TestInjector:
    def test_budget_exhausts(self):
        plan = FaultPlan(rules=(
            FaultRule(op="offline", error="EBUSY", count=2),))
        injector = FaultInjector(plan)
        assert injector.should_fail("offline", 0) is not None
        assert injector.should_fail("offline", 1) is not None
        assert injector.should_fail("offline", 2) is None
        assert injector.exhausted()
        assert injector.stats.as_dict() == {"offline:EBUSY": 2}

    def test_sticky_never_exhausts(self):
        plan = FaultPlan(rules=(
            FaultRule(op="offline", error="EAGAIN", target=4, count=STICKY),
            FaultRule(op="online", error="EINVAL", count=1),))
        injector = FaultInjector(plan)
        for _ in range(50):
            assert injector.should_fail("offline", 4) is not None
        assert injector.should_fail("offline", 5) is None
        # exhausted() tracks non-sticky budgets only.
        assert not injector.exhausted()
        injector.should_fail("online", 0)
        assert injector.exhausted()
        assert injector.should_fail("offline", 4) is not None  # still firing

    def test_window_respects_clock(self):
        plan = FaultPlan(rules=(
            FaultRule(op="allocate", error="ENOMEM",
                      start_s=10.0, end_s=20.0, count=STICKY),))
        injector = FaultInjector(plan)
        assert injector.should_fail("allocate") is None
        injector.advance(15.0)
        assert injector.should_fail("allocate") is not None
        injector.advance(25.0)
        assert injector.should_fail("allocate") is None

    def test_events_record_each_firing(self):
        plan = FaultPlan(rules=(
            FaultRule(op="online", error="EINVAL", label="boom"),))
        injector = FaultInjector(plan)
        injector.advance(3.0)
        injector.should_fail("online", 9)
        assert injector.events == [{"op": "online", "error": "EINVAL",
                                    "target": 9, "time_s": 3.0,
                                    "rule": "boom"}]


class NaiveInjector(FaultInjector):
    """Reference model of ``should_fail``: a linear scan of the whole
    plan through :meth:`FaultRule.matches`, first live match wins."""

    def should_fail(self, op, target=None):
        now = self.clock.now_s
        for index, rule in enumerate(self.plan.rules):
            if self._remaining[index] == 0:
                continue
            if not rule.matches(op, target, now):
                continue
            if self._remaining[index] > 0:
                self._remaining[index] -= 1
            self.stats.count(op, rule.error)
            self.events.append({"op": op, "error": rule.error,
                                "target": target, "time_s": now,
                                "rule": rule.label or index})
            return rule
        return None


#: Blocks 0-2 (or none); dense, so untargeted and targeted rules collide.
TARGETS = st.sampled_from((None, 0, 1, 2))


@st.composite
def fault_rules(draw):
    op = draw(st.sampled_from(sorted(FAULT_OPS)))
    start = draw(st.integers(0, 12))
    length = draw(st.one_of(st.integers(1, 10), st.just(math.inf)))
    return FaultRule(op=op, error=draw(st.sampled_from(FAULT_OPS[op])),
                     target=None if op == "allocate" else draw(TARGETS),
                     start_s=float(start), end_s=start + length,
                     count=draw(st.sampled_from((STICKY, 1, 2, 3))),
                     label=draw(st.sampled_from(("", "named"))))


ATTEMPTS = st.tuples(st.sampled_from(sorted(FAULT_OPS)), TARGETS,
                     st.sampled_from((0.0, 0.25, 0.5, 1.0)))


def assert_same_injection(ours, naive):
    assert ours._remaining == naive._remaining
    assert ours.stats.as_dict() == naive.stats.as_dict()
    assert ours.events == naive.events


def reload(injector, plan, kind):
    """A fresh injector of *kind* resumed from *injector*'s pickled state."""
    fresh = kind(plan)
    fresh.load_state_dict(pickle.loads(pickle.dumps(injector.state_dict())))
    return fresh


class TestIndexedInjector:
    """The (op, target)-indexed injector against the linear-scan model."""

    @given(st.lists(fault_rules(), min_size=4, max_size=16),
           st.lists(ATTEMPTS, min_size=20, max_size=60),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_streams_match(self, rules, attempts, data):
        plan = FaultPlan(rules=tuple(rules))
        ours, naive = FaultInjector(plan), NaiveInjector(plan)
        jump = data.draw(st.integers(0, len(attempts) - 1))
        restore_at = data.draw(st.integers(0, len(attempts) - 1))
        now = 0.0
        for step, (op, target, dt) in enumerate(attempts):
            # Time moves forward except for one jump back (a reused
            # injector's fresh run).
            now = data.draw(st.floats(0.0, now)) if step == jump else now + dt
            if step == restore_at:
                ours = reload(ours, plan, FaultInjector)
                naive = reload(naive, plan, NaiveInjector)
            ours.advance(now)
            naive.advance(now)
            rule = ours.should_fail(op, target)
            assert rule is naive.should_fail(op, target)
            assert_same_injection(ours, naive)
            assert ours.quiescent_until(now) == naive.quiescent_until(now)

    @pytest.mark.parametrize("untargeted_first", [True, False])
    def test_lower_plan_index_wins_across_buckets(self, untargeted_first):
        untargeted = FaultRule(op="offline", error="EBUSY", count=2,
                               label="any")
        targeted = FaultRule(op="offline", error="EAGAIN", target=5,
                             count=2, label="five")
        first, second = ((untargeted, targeted) if untargeted_first
                         else (targeted, untargeted))
        plan = FaultPlan(rules=(first, second))
        ours, naive = FaultInjector(plan), NaiveInjector(plan)
        for _ in range(5):
            assert ours.should_fail("offline", 5) is naive.should_fail(
                "offline", 5)
            assert_same_injection(ours, naive)
        # The first rule fired until spent, then the second took over.
        assert [event["rule"] for event in ours.events] == [
            first.label, first.label, second.label, second.label]
        assert ours.should_fail("offline", 5) is None


class TestWrappers:
    def test_injected_ebusy_counts_and_carries_model_latency(self):
        plan = FaultPlan(rules=(
            FaultRule(op="offline", error="EBUSY", count=1),))
        system = make_system(plan)
        result = system.hotplug.try_offline_block(system.mm.num_blocks - 1)
        assert not result.success
        assert result.errno_name == "EBUSY"
        latency_model = system.hotplug.latency
        assert result.latency_s == pytest.approx(
            latency_model.failure_ebusy_s)
        assert system.hotplug.stats.ebusy_failures == 1
        assert system.fault_injector.stats.as_dict() == {"offline:EBUSY": 1}

    def test_injected_eagain_raises_through_raising_api(self):
        plan = FaultPlan(rules=(
            FaultRule(op="offline", error="EBUSY", target=5, count=STICKY),))
        system = make_system(plan)
        with pytest.raises(OfflineBusyError):
            system.hotplug.offline_block(5)

    def test_injected_enomem_raises_allocation_error(self):
        plan = FaultPlan(rules=(
            FaultRule(op="allocate", error="ENOMEM", count=1),))
        system = make_system(plan)
        with pytest.raises(AllocationError):
            system.mm.allocate("app", 10)
        # Budget spent: the next allocation goes through.
        system.mm.allocate("app", 10)

    def test_injected_wakeup_timeout_charges_wait(self):
        plan = FaultPlan(rules=(
            FaultRule(op="prepare_online", error="ETIMEDOUT",
                      extra_latency_s=2e-4, count=1),))
        system = make_system(plan)
        system.hotplug.offline_block(system.mm.num_blocks - 1)
        system.power_control.block_offlined(system.mm.num_blocks - 1, 0.0)
        with pytest.raises(WakeupTimeoutError) as excinfo:
            system.power_control.prepare_online(system.mm.num_blocks - 1, 1.0)
        assert excinfo.value.wait_s == pytest.approx(2e-4)
        assert system.power_control.wakeup_wait_s == pytest.approx(2e-4)

    def test_injected_online_failure(self):
        plan = FaultPlan(rules=(
            FaultRule(op="online", error="EINVAL", count=1),))
        system = make_system(plan)
        block = system.mm.num_blocks - 1
        system.hotplug.offline_block(block)
        with pytest.raises(OnlineError):
            system.hotplug.online_block(block)
        # Budget spent: the retry succeeds.
        assert system.hotplug.online_block(block) > 0

    def test_migration_stall_extends_offline_latency(self):
        plan = FaultPlan(rules=(
            FaultRule(op="migration", error="STALL",
                      extra_latency_s=5e-3, count=1),))
        faulty = make_system(plan)
        clean = make_system()
        block = faulty.mm.num_blocks - 1
        stalled = faulty.hotplug.try_offline_block(block)
        plain = clean.hotplug.try_offline_block(block)
        assert stalled.success and plain.success
        assert stalled.latency_s == pytest.approx(plain.latency_s + 5e-3)

    def test_wrappers_delegate_everything_else(self):
        system = make_system(storm_plan(1, intensity=0.1))
        assert system.mm.total_pages == system.mm.inner.total_pages
        assert system.hotplug.offline_blocks() == []

    def test_wrapped_mm_copies_and_pickles(self):
        system = make_system(storm_plan(1, intensity=0.1))
        system.mm.allocate("app", 1000)
        clone = copy.copy(system.mm)
        assert clone.inner is system.mm.inner
        assert clone.free_pages == system.mm.free_pages
        restored = pickle.loads(pickle.dumps(system.mm))
        assert restored.inner is not system.mm.inner
        assert restored.owner_pages("app") == 1000
        assert (restored.free_pages, restored.online_pages) == (
            system.mm.free_pages, system.mm.online_pages)
        assert restored.injector.plan == system.mm.injector.plan


class TestContext:
    def test_context_plan_reaches_new_systems(self):
        plan = FaultPlan(rules=(
            FaultRule(op="allocate", error="ENOMEM", count=1),))
        with active_plan(plan):
            assert get_active_plan() is plan
            system = make_system()  # no explicit plan: inherits the context
            assert system.fault_plan is plan
            with pytest.raises(AllocationError):
                system.mm.allocate("app", 1)
        assert get_active_plan() is None
        counts = drain_fault_counts()
        assert counts == {"allocate:ENOMEM": 1}
        assert drain_fault_counts() == {}  # drained exactly once

    def test_explicit_plan_beats_context(self):
        explicit = FaultPlan(name="explicit")
        ambient = FaultPlan(name="ambient")
        with active_plan(ambient):
            system = make_system(explicit)
        assert system.fault_plan is explicit


class TestDeterminism:
    def _drive(self, plan):
        """An oscillating footprint: hot-plug traffic across the whole
        storm window, with injected ENOMEM handled the way the server
        model handles it (emergency on-line, then move on)."""
        system = make_system(plan, transient_failure_probability=0.9,
                             seed=21)
        app_pages = 0
        for t in range(40):
            try:
                if t % 6 < 3:
                    system.mm.allocate("app", 2 * system.mm.block_pages)
                    app_pages += 2 * system.mm.block_pages
                elif app_pages:
                    system.mm.free_pages_of("app", 2 * system.mm.block_pages)
                    app_pages -= 2 * system.mm.block_pages
            except AllocationError:
                system.daemon.emergency_online(2 * system.mm.block_pages,
                                               float(t))
            system.step(float(t))
        return (list(system.daemon.event_log),
                system.daemon.stats,
                system.fault_injector.stats.as_dict(),
                system.fault_injector.events)

    def test_same_plan_same_seed_bitwise_identical(self):
        plan = storm_plan(42, intensity=8.0, duration_s=40.0, num_blocks=64)
        first = self._drive(plan)
        second = self._drive(FaultPlan.from_json(plan.canonical()))
        assert first == second
        assert first[2], "the storm must actually inject faults"

    def test_runner_parallel_matches_inline_with_fault_plan(self):
        from repro.runner import ExperimentJob, ParallelRunner

        plan_json = storm_plan(7, intensity=2.0, duration_s=60.0,
                               num_blocks=128).canonical()
        jobs = [ExperimentJob("tab2", fast=True, fault_plan=plan_json)]
        inline = ParallelRunner(workers=1).run(jobs)
        # Forked pool workers inherit this process's memoized matrix;
        # clear it so the worker genuinely re-executes the experiment.
        from repro.experiments.blocksize_study import _cached_matrix

        _cached_matrix.cache_clear()
        pooled = ParallelRunner(workers=2).run(jobs)
        assert inline[0].ok and pooled[0].ok
        assert inline[0].result == pooled[0].result
        assert inline[0].result.render() == pooled[0].result.render()
        assert (inline[0].account.get("faults")
                == pooled[0].account.get("faults"))
        assert inline[0].account.get("faults"), \
            "fault counters must survive the pool trip"

    def test_job_without_plan_reports_no_faults(self):
        from repro.runner import ExperimentJob, ParallelRunner

        outcome = ParallelRunner(workers=1).run(
            [ExperimentJob("tab1", fast=True)])[0]
        assert outcome.ok
        assert "faults" not in outcome.account


class TestPoliciesUnderStorm:
    """Every in-kernel power policy must survive a seeded fault storm.

    The storm batters the hot-plug and allocation paths; policies that
    never off-line blocks still face the allocation-pressure spikes.
    The run must complete (no wedged online/offline loops), faults must
    actually be injected, and the policy's power view must stay sane.
    """

    @pytest.mark.parametrize("policy", policy_names())
    def test_storm_run_completes(self, policy):
        import dataclasses

        from repro.sim.server import ServerSimulator
        from repro.workloads.registry import profile_by_name

        plan = storm_plan(303, intensity=4.0, duration_s=60.0,
                          num_blocks=32)
        org = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                 dimms_per_channel=1, ranks_per_dimm=2)
        system = make_system(plan=plan, policy=policy, organization=org)
        simulator = ServerSimulator(system, seed=5)
        profile = dataclasses.replace(profile_by_name("429.mcf"),
                                      duration_s=60.0)
        result = simulator.run_workload(profile, epoch_s=1.0)

        assert result.samples, "the run must produce epoch samples"
        assert system.fault_injector is not None
        assert system.fault_injector.stats.total > 0, \
            "the storm must actually inject faults"
        assert 0.0 <= system.policy.dpd_fraction() <= 1.0
        assert result.dram_energy_j > 0.0
        assert result.baseline_dram_energy_j >= result.dram_energy_j > 0.0 \
            or system.policy.extra_power_w() > 0.0
        # The policy's stats surface stays live after the storm and no
        # emergency/online loop wedged the daemon mid-transition.
        assert math.isfinite(system.policy.stats.busy_s)
        assert isinstance(system.policy.monitor_is_noop(), bool)
