"""The quiescence fast-forward layer's bit-for-bit contract.

Every equivalence test runs the same seeded scenario twice — fast path
on and off — and demands *exact* equality of the sample stream, the
accumulated energies, and the daemon/injector statistics.  Approximate
comparisons would defeat the point: the layer's promise is that callers
cannot tell which path executed.
"""

import math

import pytest

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule, storm_plan
from repro.sim.kernel import EpochKernel
from repro.sim.server import ServerSimulator
from repro.units import GIB, MIB
from repro.workloads import profile_by_name
from repro.workloads.azure import AzureTraceGenerator
from repro.workloads.trace import FootprintTrace
from tests.kernel_scenarios import _hexify


def small_system(**kwargs):
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    defaults = dict(organization=organization,
                    config=GreenDIMMConfig(block_bytes=128 * MIB),
                    kernel_boot_bytes=512 * MIB,
                    transient_failure_probability=0.5, seed=7)
    defaults.update(kwargs)
    return GreenDIMMSystem(**defaults)


def workload_pair(churn, **system_kwargs):
    """One workload run per path; returns (slow, fast) as (result, sim)."""
    runs = []
    for fast in (False, True):
        sim = ServerSimulator(small_system(**system_kwargs), seed=5,
                              fast_forward=fast)
        result = sim.run_workload(profile_by_name("429.mcf"), epoch_s=1.0,
                                  pinned_churn=churn)
        runs.append((result, sim))
    return runs


def assert_workload_identical(slow, fast):
    result_a, sim_a = slow
    result_b, sim_b = fast
    assert result_a.samples == result_b.samples
    assert result_a.dram_energy_j == result_b.dram_energy_j
    assert result_a.baseline_dram_energy_j == result_b.baseline_dram_energy_j
    assert result_a.overhead_fraction == result_b.overhead_fraction
    assert result_a.swap_shortfall_pages == result_b.swap_shortfall_pages
    assert sim_a.system.daemon.stats == sim_b.system.daemon.stats
    assert (list(sim_a.system.daemon.event_log)
            == list(sim_b.system.daemon.event_log))


class TestWorkloadEquivalence:
    def test_without_churn_skips_most_epochs(self):
        slow, fast = workload_pair(churn=False)
        assert_workload_identical(slow, fast)
        stats = fast[1].ff_stats
        assert stats.epochs_fast_forwarded > stats.epochs_stepped
        assert stats.windows > 0
        assert slow[1].ff_stats.epochs_fast_forwarded == 0

    def test_with_churn_still_identical(self):
        # Churn runs for real inside windows (the RNG stream must not
        # desync); every perturbation closes the window on the slow path.
        slow, fast = workload_pair(churn=True)
        assert_workload_identical(slow, fast)
        assert fast[1].ff_stats.epochs_fast_forwarded > 0

    def test_tracer_enabled_mid_window_exits_cleanly(self, monkeypatch):
        # Regression: the window exit event is emitted whenever the
        # tracer is enabled at *exit*; when its count was bound only
        # under a tracer-enabled *entry*, toggling tracing on mid-run
        # (here: from inside the first window's churn hook) raised
        # NameError.
        from repro.obs.tracer import GLOBAL_TRACER

        sim = ServerSimulator(small_system(), seed=5, fast_forward=True)
        window = EpochKernel._stable_span_window
        original = sim._pinned_churn
        in_window = []

        def tracked_window(kernel, clock, n, quiescent, *args):
            in_window.append(quiescent)
            try:
                return window(kernel, clock, n, quiescent, *args)
            finally:
                in_window.pop()

        def churn_then_enable(t, epoch_s, draw=None):
            result = original(t, epoch_s, draw)
            # Toggle from inside a window's churn event epoch.
            if any(in_window) and not GLOBAL_TRACER.enabled:
                GLOBAL_TRACER.enable()
            return result

        monkeypatch.setattr(EpochKernel, "_stable_span_window",
                            tracked_window)
        sim._pinned_churn = churn_then_enable
        try:
            result = sim.run_workload(profile_by_name("429.mcf"),
                                      epoch_s=1.0, pinned_churn=True)
            assert GLOBAL_TRACER.enabled  # the toggle actually fired
            events = GLOBAL_TRACER.snapshot()["events"]
            enters = [e for e in events if e["kind"] == "ff.enter"]
            exits = [e for e in events if e["kind"] == "ff.exit"]
        finally:
            GLOBAL_TRACER.disable()
            GLOBAL_TRACER.drain()
        assert result.samples
        assert sim.ff_stats.windows > 0
        # The toggled window entered untraced, so its exit event (emitted
        # traced) proves the mid-window toggle path survived.
        assert len(exits) == len(enters) + 1

    def test_energy_convention_scales_with_overhead(self):
        (result, _sim), _ = workload_pair(churn=False)
        raw = sum(s.dram_power_w for s in result.samples) * 1.0
        assert result.dram_energy_j == pytest.approx(
            raw * (1.0 + result.overhead_fraction))


class TestVMTraceEquivalence:
    def test_trace_replay_identical(self):
        organization = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                          dimms_per_channel=2,
                                          ranks_per_dimm=1)
        trace = AzureTraceGenerator(
            capacity_bytes=organization.total_capacity_bytes - 3 * GIB,
            physical_cores=16, duration_s=4 * 3600.0, seed=7).generate()
        runs = []
        for fast in (False, True):
            system = GreenDIMMSystem(
                organization=organization,
                config=GreenDIMMConfig(block_bytes=512 * MIB),
                kernel_boot_bytes=2 * GIB,
                transient_failure_probability=0.5, seed=7)
            sim = ServerSimulator(system, seed=5, fast_forward=fast)
            result = sim.run_vm_trace(trace, epoch_s=5.0, pinned_churn=False)
            runs.append((result, sim))
        (a, _), (b, sim_b) = runs
        assert a.samples == b.samples
        assert a.dram_energy_j == b.dram_energy_j
        assert a.baseline_dram_energy_j == b.baseline_dram_energy_j
        assert a.emergency_onlines == b.emergency_onlines
        assert sim_b.ff_stats.epochs_fast_forwarded > 0

    def test_churned_trace_falls_back_to_stepping(self):
        # Default churn (0.3/s) at a 5 s epoch expects >= 1 arrival every
        # epoch: no window can form, so the fast path bows out entirely.
        organization = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                          dimms_per_channel=2,
                                          ranks_per_dimm=1)
        trace = AzureTraceGenerator(
            capacity_bytes=organization.total_capacity_bytes - 3 * GIB,
            physical_cores=16, duration_s=1800.0, seed=7).generate()
        sim = ServerSimulator(small_system(organization=organization,
                                           kernel_boot_bytes=2 * GIB),
                              seed=5, fast_forward=True)
        result = sim.run_vm_trace(trace, epoch_s=5.0)
        assert result.samples
        assert sim.ff_stats.epochs_fast_forwarded == 0
        assert sim.ff_stats.epochs_stepped == len(result.samples)


def _run_workload(fast):
    sim = ServerSimulator(small_system(), seed=5, fast_forward=fast)
    result = sim.run_workload(profile_by_name("429.mcf"), epoch_s=0.1,
                              pinned_churn=False)
    return sim, result, [result.overhead_fraction]


def _run_vm_trace(fast):
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    system = GreenDIMMSystem(organization=organization,
                             config=GreenDIMMConfig(block_bytes=512 * MIB),
                             kernel_boot_bytes=2 * GIB,
                             transient_failure_probability=0.5, seed=7)
    trace = AzureTraceGenerator(
        capacity_bytes=organization.total_capacity_bytes - 3 * GIB,
        physical_cores=16, duration_s=6 * 3600.0, seed=7).generate()
    sim = ServerSimulator(system, seed=5, fast_forward=fast)
    return sim, sim.run_vm_trace(trace, epoch_s=0.5, pinned_churn=False), []


def _run_mix(fast):
    sim = ServerSimulator(small_system(), seed=5, fast_forward=fast)
    profiles = [profile_by_name(name) for name in ("403.gcc", "429.mcf")]
    return sim, sim.run_mix(profiles, epoch_s=0.1, pinned_churn=False), []


@pytest.mark.parametrize("runner, engaged", [
    (_run_workload, None),
    (_run_vm_trace, "epochs_fast_forwarded"),
    (_run_mix, "epochs_batched"),
], ids=["workload", "vm_trace", "mix"])
def test_reference_path_identical(runner, engaged):
    """Sub-second epochs and a 6 h trace: the regimes span batching and
    fast-forwarding exist for, compared field by field at ``.hex()``."""
    outcomes = []
    for fast in (False, True):
        sim, result, extra = runner(fast)
        outcomes.append(_hexify([result.samples, result.dram_energy_j,
                                 result.baseline_dram_energy_j, *extra]))
    assert outcomes[0] == outcomes[1]
    if engaged is not None:
        assert getattr(sim.ff_stats, engaged) > 0


class TestFaultStormEquivalence:
    def test_storm_run_identical_and_fast_forwards_after(self):
        plan = storm_plan(303, intensity=4.0, duration_s=120.0,
                          num_blocks=64)
        runs = []
        for fast in (False, True):
            sim = ServerSimulator(small_system(fault_plan=plan), seed=5,
                                  fast_forward=fast)
            result = sim.run_workload(profile_by_name("429.mcf"),
                                      epoch_s=1.0, pinned_churn=False)
            runs.append((result, sim))
        (a, sim_a), (b, sim_b) = runs
        assert a.samples == b.samples
        assert a.dram_energy_j == b.dram_energy_j
        assert a.overhead_fraction == b.overhead_fraction
        assert sim_a.system.daemon.stats == sim_b.system.daemon.stats
        inj_a = sim_a.system.fault_injector
        inj_b = sim_b.system.fault_injector
        assert inj_a.stats.as_dict() == inj_b.stats.as_dict()
        assert inj_a.events == inj_b.events
        assert inj_b.stats.total > 0
        # Rule windows suppress fast-forwarding; after the storm the
        # remaining quiescent tail must still be skipped.
        assert sim_b.ff_stats.epochs_fast_forwarded > 0
        assert sim_b.ff_stats.epochs_stepped > 0


class TestQuiescentUntil:
    def plan(self):
        return FaultPlan(name="t", seed=1, rules=(
            FaultRule(op="offline", error="EBUSY", start_s=50.0, end_s=60.0),
            FaultRule(op="online", error="EINVAL", start_s=200.0,
                      end_s=210.0, count=2),
        ))

    def test_before_any_rule_bounds_at_first_start(self):
        injector = FaultInjector(self.plan())
        assert injector.quiescent_until(0.0) == 50.0

    def test_inside_live_window_is_not_quiescent(self):
        injector = FaultInjector(self.plan())
        assert injector.quiescent_until(55.0) == 55.0

    def test_between_windows_bounds_at_next_start(self):
        injector = FaultInjector(self.plan())
        assert injector.quiescent_until(100.0) == 200.0

    def test_exhausted_rules_are_ignored(self):
        injector = FaultInjector(self.plan())
        injector.advance(55.0)
        injector.should_fail("offline", target=3)  # consumes rule 1
        assert injector.quiescent_until(55.0) == 200.0

    def test_all_past_means_quiescent_forever(self):
        injector = FaultInjector(self.plan())
        assert injector.quiescent_until(500.0) == math.inf


class TestConstantUntil:
    def trace(self):
        return FootprintTrace.of([(0.0, 100), (10.0, 100), (20.0, 200),
                                  (30.0, 200), (40.0, 200), (50.0, 300)])

    def test_flat_run_reports_its_last_point(self):
        assert self.trace().constant_until(0.0) == 10.0
        assert self.trace().constant_until(31.0) == 40.0

    def test_ramp_reports_no_skip(self):
        assert self.trace().constant_until(15.0) == 15.0
        assert self.trace().constant_until(10.0) == 10.0

    def test_beyond_the_end_is_constant_forever(self):
        assert self.trace().constant_until(50.0) == math.inf
        assert self.trace().constant_until(99.0) == math.inf

    def test_bound_value_matches_query_value(self):
        trace = self.trace()
        for t in (0.0, 3.0, 25.0, 31.0, 47.0):
            bound = trace.constant_until(t)
            if bound <= t or math.isinf(bound):
                continue
            assert trace.at(bound) == trace.at(t)
            assert trace.at((t + bound) / 2) == trace.at(t)


class TestPowerCacheCounters:
    def test_hits_accumulate_on_repeated_operating_points(self):
        system = small_system()
        first = system.dram_power(bandwidth_bytes_per_s=1e9,
                                  active_residency=0.05)
        again = system.dram_power(bandwidth_bytes_per_s=1e9,
                                  active_residency=0.05)
        assert first == again
        stats = system.power_cache_stats
        assert stats.misses >= 1
        assert stats.hits >= 1
        assert stats.hits < stats.lookups

    def test_dpd_state_is_part_of_the_key(self):
        system = small_system()
        gated = system.dram_power(bandwidth_bytes_per_s=1e9)
        baseline = system.baseline_dram_power(bandwidth_bytes_per_s=1e9)
        # Nothing is gated yet, so both project to dpd_fraction 0.0 and
        # the second call must be a cache hit, not a recomputation.
        assert gated == baseline
        assert system.power_cache_stats.hits >= 1


class TestIncrementalCounters:
    def test_owner_pages_tracks_partial_frees(self):
        system = small_system()
        mm = system.mm
        mm.allocate("a", 5000)
        mm.allocate("b", 3000)
        mm.free_pages_of("a", 1200)
        mm.free_all("b")
        for owner in ("a", "b", "kernel"):
            scanned = sum(e.pages for e in mm.extents_of(owner))
            assert mm.owner_pages(owner) == scanned
        assert mm.owner_pages("a") == 3800
        assert mm.owner_pages("b") == 0

    def test_offline_accounting_matches_state_scan(self):
        sim = ServerSimulator(small_system(), seed=5, fast_forward=True)
        sim.run_workload(profile_by_name("429.mcf"), epoch_s=1.0,
                         pinned_churn=False)
        hotplug = sim.system.hotplug
        from repro.os.hotplug import MemoryBlockState
        scanned = [i for i, s in enumerate(hotplug.states)
                   if s is MemoryBlockState.OFFLINE]
        assert hotplug.offline_blocks() == scanned
        assert hotplug.offline_count == len(scanned)
        assert hotplug.offline_count > 0
