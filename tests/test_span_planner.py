"""The span planner's bit-for-bit contract.

The planner (:mod:`repro.sim.kernel`) batches *stable stepped* spans —
runs of epochs where the workload provably no-ops and no monitor fire
can act — on top of the older quiescent fast-forward.  Its promise
is the same: callers cannot tell which path executed.  Every test here
runs one seeded scenario twice, span planning on and off (``fast_forward``
False forces the reference per-epoch loop), and demands exact equality
of samples, energies, daemon statistics, and fault-injector streams.

The scenarios are chosen so spans actually form: the monitor period
stays at its 1 s default while epochs shrink to 0.2 s, and a staircase
footprint (big flat drop) keeps the monitor *armed* for long stretches —
precisely the regime quiescent fast-forward cannot touch (its windows
require ``monitor_is_noop``) but stable spans batch.
"""

import math
import random

import pytest

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
from repro.faults.plan import FaultPlan, FaultRule, storm_plan
from repro.obs import drain_account
from repro.sim.fastforward import SimClock
from repro.sim.kernel import EpochKernel, KernelRunState
from repro.sim.server import ServerSimulator
from repro.soa import (
    accumulate_energy,
    batched_times,
    monitor_timer_after,
)
from repro.sim.calendar import intersect_horizons
from repro.units import GIB, MIB
from repro.workloads.azure import AzureTrace, VMEvent, VMInstance, VMType
from repro.workloads.profiles import Suite, WorkloadProfile
from repro.workloads.trace import FootprintTrace
from tests.conservation import install_conservation_checks


def small_system(**kwargs):
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    defaults = dict(organization=organization,
                    config=GreenDIMMConfig(block_bytes=128 * MIB),
                    kernel_boot_bytes=512 * MIB,
                    transient_failure_probability=0.5, seed=7)
    defaults.update(kwargs)
    return GreenDIMMSystem(**defaults)


def staircase_profile(levels=((0.0, 4.5), (60.0, 4.5), (70.0, 1.5),
                              (300.0, 1.5)), name="staircase"):
    """A big flat drop: the monitor spends tens of periods off-lining the
    surplus one block at a time, keeping itself armed (not no-op) while
    the workload is perfectly stable — the span planner's home turf."""
    return WorkloadProfile(
        name=name, suite=Suite.SPEC2006, duration_s=levels[-1][0],
        footprint=FootprintTrace.of(
            [(t, gib * GIB) for t, gib in levels]),
        mpki=15.0)


def run_pair(profile, epoch_s, churn, plan=None, mix_with=None,
             system_kwargs=None):
    """Run the scenario with the planner on and off; returns
    ``[(result, sim), (result, sim)]`` as (slow, fast)."""
    runs = []
    for fast in (False, True):
        kwargs = dict(system_kwargs or {})
        if plan is not None:
            kwargs["fault_plan"] = plan
        sim = ServerSimulator(small_system(**kwargs), seed=5,
                              fast_forward=fast)
        if mix_with is not None:
            result = sim.run_mix([profile, mix_with], epoch_s=epoch_s,
                                 pinned_churn=churn)
        else:
            result = sim.run_workload(profile, epoch_s=epoch_s,
                                      pinned_churn=churn)
        runs.append((result, sim))
    return runs


def assert_identical(slow, fast):
    result_a, sim_a = slow
    result_b, sim_b = fast
    assert result_a.samples == result_b.samples
    assert result_a.dram_energy_j == result_b.dram_energy_j
    assert result_a.baseline_dram_energy_j == result_b.baseline_dram_energy_j
    assert sim_a.system.daemon.stats == sim_b.system.daemon.stats
    assert (list(sim_a.system.daemon.event_log)
            == list(sim_b.system.daemon.event_log))
    inj_a = sim_a.system.fault_injector
    inj_b = sim_b.system.fault_injector
    if inj_a is not None or inj_b is not None:
        assert inj_a.stats.as_dict() == inj_b.stats.as_dict()
        assert inj_a.events == inj_b.events
    # The reference path must never have batched anything.
    assert sim_a.ff_stats.epochs_batched == 0
    assert sim_a.ff_stats.epochs_fast_forwarded == 0


class TestStableSpans:
    def test_staircase_batches_and_is_identical(self):
        slow, fast = run_pair(staircase_profile(), epoch_s=0.2, churn=False)
        assert_identical(slow, fast)
        stats = fast[1].ff_stats
        assert stats.spans_stable > 0
        assert stats.epochs_batched > 0
        # Batched epochs are stepped epochs: fast-path coverage (skipped
        # plus stepped) must equal the reference path's epoch count.
        assert (stats.epochs_fast_forwarded + stats.epochs_stepped
                == slow[1].ff_stats.epochs_stepped)

    def test_span_counters_reach_process_counters(self):
        drain_account()
        pair = run_pair(staircase_profile(), epoch_s=0.2, churn=False)
        account = drain_account()
        drained = account["perf"]
        stats = pair[1][1].ff_stats
        assert stats.epochs_batched > 0
        # Both runs of the pair published; the fast one contributed all
        # batched epochs and stable spans.
        assert drained["epochs_batched"] == stats.epochs_batched
        assert drained["stable_spans"] == stats.spans_stable
        # The account is exactly the two runs' own counters, summed.
        expected = {}
        for _, sim in pair:
            ff = sim.ff_stats
            cache = sim.system.power_cache_stats
            for key, value in (("power_cache_hits", cache.hits),
                               ("power_cache_misses", cache.misses),
                               ("epochs_stepped", ff.epochs_stepped),
                               ("epochs_fast_forwarded",
                                ff.epochs_fast_forwarded),
                               ("fast_forward_windows", ff.windows),
                               ("epochs_batched", ff.epochs_batched),
                               ("stable_spans", ff.spans_stable)):
                expected[key] = expected.get(key, 0) + value
        assert drained == {k: v for k, v in expected.items() if v}
        # The buckets cover every executed epoch.  The float clock ends
        # each 0.2 s run one epoch past its nominal ``duration_s``, so
        # that is the span they sum to.
        residency = account["residency"]
        assert residency["runs"] == 2
        epochs = sum(sim.ff_stats.epochs_total for _, sim in pair)
        assert sum(residency["states"].values()) == pytest.approx(
            epochs * 0.2)
        assert residency["duration_s"] == pytest.approx(
            (epochs - 2) * 0.2)

    def test_churn_spans_preserve_rng_stream(self):
        # Pinned churn runs for real inside a span; the arrival/expiry
        # RNG draws must land on the same epochs either way.
        slow, fast = run_pair(staircase_profile(), epoch_s=0.2, churn=True)
        assert_identical(slow, fast)
        assert fast[1].ff_stats.epochs_batched > 0

    def test_mix_small_epoch_identical(self):
        # A second staircase whose flat runs overlap the first one's:
        # the mix is only stable where *every* owner is, so overlapping
        # flats are what lets spans form at all.
        partner = staircase_profile(levels=((0.0, 2.0), (60.0, 2.0),
                                            (70.0, 1.0), (300.0, 1.0)),
                                    name="staircase-b")
        slow, fast = run_pair(staircase_profile(),
                              epoch_s=0.2, churn=False,
                              mix_with=partner)
        assert_identical(slow, fast)
        assert fast[1].ff_stats.epochs_batched > 0

    def test_fault_window_opening_mid_span_truncates(self):
        # The fault-free run batches one span at t=70.2..70.8, between
        # the ramp's end and the monitor pass that offlines the surplus.
        # This rule opens at 70.5 — inside that would-be span — so the
        # planner must cut the span at the window edge and the blocked
        # offline attempts must land on identical epochs in both paths.
        plan = FaultPlan(name="mid-span", seed=11, rules=(
            FaultRule(op="offline", error="EBUSY",
                      start_s=70.5, end_s=76.0),))
        slow, fast = run_pair(staircase_profile(), epoch_s=0.2,
                              churn=False, plan=plan)
        assert_identical(slow, fast)
        assert fast[1].ff_stats.epochs_batched > 0
        assert fast[1].system.fault_injector.stats.total > 0

    def test_tracer_toggled_mid_run_emits_span_events(self, monkeypatch):
        from repro.obs.tracer import GLOBAL_TRACER

        sim = ServerSimulator(small_system(), seed=5, fast_forward=True)
        span_window = EpochKernel._stable_span_window
        original = sim._pinned_churn
        in_span = []

        def tracked_span(kernel, clock, n, quiescent, *args):
            in_span.append(not quiescent)
            try:
                return span_window(kernel, clock, n, quiescent, *args)
            finally:
                in_span.pop()

        def churn_then_enable(t, epoch_s, draw=None):
            result = original(t, epoch_s, draw)
            # Toggle from inside a span's churn event epoch.
            if t > 40.0 and any(in_span) and not GLOBAL_TRACER.enabled:
                GLOBAL_TRACER.enable()
            return result

        monkeypatch.setattr(EpochKernel, "_stable_span_window", tracked_span)
        sim._pinned_churn = churn_then_enable
        try:
            result = sim.run_workload(staircase_profile(), epoch_s=0.2,
                                      pinned_churn=True)
            assert GLOBAL_TRACER.enabled
            events = GLOBAL_TRACER.snapshot()["events"]
            enters = [e for e in events if e["kind"] == "span.enter"]
            exits = [e for e in events if e["kind"] == "span.exit"]
        finally:
            GLOBAL_TRACER.disable()
            GLOBAL_TRACER.drain()
        assert result.samples
        assert sim.ff_stats.epochs_batched > 0
        # Spans kept forming after the mid-span toggle; the span it fired
        # in exited traced without a traced entry, and every later
        # traced entry saw its exit.
        assert enters and len(exits) == len(enters) + 1


def vm_trace(vms):
    """A hand-built trace from ``(arrive_s, depart_s, bytes)`` triples."""
    events = []
    for vm_id, (arrive_s, depart_s, memory_bytes) in enumerate(vms):
        vm_type = VMType(name=f"t{vm_id}", vcpus=2, memory_bytes=memory_bytes,
                         lifetime_mu=0.0, lifetime_sigma=1.0, image_id=0)
        instance = VMInstance(vm_id=vm_id, vm_type=vm_type,
                              arrival_s=arrive_s, departure_s=depart_s)
        events.append(VMEvent(arrive_s, "arrive", instance))
        if depart_s != math.inf:
            events.append(VMEvent(depart_s, "depart", instance))
    return AzureTrace(events=events, samples=[], capacity_bytes=8 * GIB)


def saturated_trace():
    """Demand beyond the 8 GiB box from t=0 on: the first VM alone
    overflows into swap, and the later ones arrive fully swapped, so
    free memory sits below the low-water mark with every block online
    for the whole run.  Event gaps give spans on both sides of the
    48-epoch scalar/numpy crossover."""
    return vm_trace([(0.0, math.inf, 9 * GIB),
                     (100.0, 180.0, 1 * GIB),
                     (400.0, 1600.0, 2 * GIB)])


def hexed(run):
    """A run's observables with every float rendered exactly."""
    result, sim = run
    return {
        "samples": [[v.hex() if isinstance(v, float) else v for v in s]
                    for s in result.samples],
        "dram_energy": result.dram_energy_j.hex(),
        "baseline": result.baseline_dram_energy_j.hex(),
        "residency": {k: v.hex()
                      for k, v in result.residency.as_dict().items()},
        "daemon_stats": sim.system.daemon.stats,
        "events": list(sim.system.daemon.event_log),
        "ff": sim.ff_stats.as_dict(),
    }


class _StableBound:
    """A workload source that promises stability up to a fixed bound."""

    def __init__(self, bound):
        self.bound = bound

    def stable_until(self, t):
        return self.bound


def stable_plan(kernel):
    """``kernel._plan_span`` bound to a stub source: ``plan(t, epoch_s,
    bound, churn)`` is the stable-span length from *t* up to *bound*."""
    def plan(t, epoch_s, bound, churn):
        n, quiescent = kernel._plan_span(_StableBound(bound), t, epoch_s,
                                         bound, churn)
        assert not quiescent
        return n
    return plan


class TestInertMonitorFires:
    """Monitor fires that provably change nothing no longer cut spans."""

    def test_saturated_trace_batches_and_is_identical(self):
        runs = []
        for fast in (False, True):
            sim = ServerSimulator(small_system(), seed=5, fast_forward=fast)
            runs.append((sim.run_vm_trace(saturated_trace(), epoch_s=5.0,
                                          pinned_churn=False), sim))
        slow, fast = runs
        daemon = fast[1].system.daemon
        assert all(s.free_pages < daemon.low_water_pages
                   and s.offline_blocks == 0 for s in fast[0].samples)
        # Energies, samples, residency and daemon stats bit for bit; the
        # as_dict() pin is equal too because inert fires stay stepped
        # epochs, never fast-forward windows.
        assert hexed(slow) == hexed(fast)
        assert fast[1].ff_stats.windows == 0
        assert slow[1].ff_stats.epochs_batched == 0
        stats = fast[1].ff_stats
        assert stats.epochs_batched > 0.9 * stats.epochs_stepped

    def test_offline_block_keeps_the_fire_dynamic(self):
        # Below low water with exactly one block offline: the fire must
        # on-line it, so the planner ends the span before that epoch.
        runs = []
        for fast in (False, True):
            system = small_system()
            mm = system.mm
            block = next(b for b in reversed(range(mm.num_blocks))
                         if system.hotplug.try_offline_block(b).success)
            system.power_control.block_offlined(block, 0.0)
            mm.allocate("hog", mm.free_pages - 16)
            daemon = system.daemon
            assert mm.free_pages < daemon.low_water_pages
            assert not daemon.monitor_fire_is_noop()
            system.policy.monitor_timer = 0.0  # first fire lands mid-span
            sim = ServerSimulator(system, seed=5, fast_forward=fast)
            trace = vm_trace([(30.0, math.inf, 64 * MIB)])
            runs.append((sim.run_vm_trace(trace, epoch_s=0.25,
                                          pinned_churn=False), sim))
        slow, fast = runs
        assert hexed(slow) == hexed(fast)
        onlines = [e for e in fast[1].system.daemon.event_log
                   if e.kind == "online"]
        assert [e.block for e in onlines] == [block]
        assert 0.0 < onlines[0].time_s < 30.0
        # Spans formed before the fire, and after it (every block back
        # online, still below low water) the fires are inert.
        assert fast[1].system.daemon.monitor_fire_is_noop()
        assert fast[1].ff_stats.epochs_batched > 0

    def test_planner_cap_follows_the_predicate(self):
        sim = ServerSimulator(small_system(), seed=5, fast_forward=True)
        system = sim.system
        mm = system.mm
        mm.allocate("hog", mm.free_pages - 16)
        system.policy.monitor_timer = 0.0
        plan = stable_plan(sim.kernel)
        # Every block online, below low water: inert, so the span runs to
        # the bound.  A churn span runs to the bound either way: its
        # executor decides each fire when it reaches it.
        assert plan(0.0, 0.25, 10.0, churn=False) == 40
        assert plan(0.0, 0.25, 10.0, churn=True) == 40
        # Free memory inside the hysteresis band: the monitor itself
        # no-ops, so the same bound plans a quiescent window.
        mm.free_pages_of("hog", system.daemon.low_water_pages)
        assert system.daemon.monitor_is_noop()
        assert sim.kernel._plan_span(_StableBound(10.0), 0.0, 0.25, 10.0,
                                     False) == (40, True)

    def test_churn_span_closes_on_an_acting_fire(self):
        # One block offline and free memory below low water: the first
        # fire must on-line it.  The non-churn planner stops short of
        # that fire; the churn planner does not, so its executor must
        # run the fire through the real step and close the span there.
        sim = ServerSimulator(small_system(), seed=5, fast_forward=True,
                              pinned_churn_rate_per_s=0.0)
        system = sim.system
        mm = system.mm
        block = next(b for b in reversed(range(mm.num_blocks))
                     if system.hotplug.try_offline_block(b).success)
        system.power_control.block_offlined(block, 0.0)
        mm.allocate("hog", mm.free_pages - 16)
        assert not system.daemon.monitor_fire_is_noop()
        system.policy.monitor_timer = 0.0
        kernel = sim.kernel
        plan = stable_plan(kernel)
        assert plan(0.0, 0.25, 10.0, churn=False) == 3
        assert plan(0.0, 0.25, 10.0, churn=True) == 40
        state = KernelRunState(source=None, epoch_s=0.25, pinned_churn=True,
                               use_ff=True, duration_s=10.0,
                               clock=SimClock(0.25), swap_stall_before=0.0)
        kernel._stable_span_window(state, 40, False, 1e9, 0.5)
        clock, samples = state.clock, state.samples
        # Three quiet epochs, then the fire at t=0.75 on-lines the block
        # and ends the span.
        assert [s.time_s for s in samples] == [0.0, 0.25, 0.5, 0.75]
        assert clock.now_s == 1.0
        assert [(e.kind, e.time_s, e.block)
                for e in system.daemon.event_log] == [("online", 0.75,
                                                       block)]
        assert samples[-1].offline_blocks == 0
        assert samples[0].offline_blocks == 1
        stats = sim.ff_stats
        assert stats.spans_stable == 1
        assert stats.epochs_batched == stats.epochs_stepped == 4


class TestRandomizedEquivalence:
    """Randomized scenario sweep: footprint staircases, churn, fault
    storms, and sub-period epochs drawn per seed; every draw must be
    bit-for-bit identical across the two paths."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_runs_identical(self, seed, monkeypatch):
        install_conservation_checks(monkeypatch)
        rng = random.Random(0xC0FFEE + seed)
        levels = [(0.0, rng.uniform(3.0, 5.0))]
        t = 0.0
        for _ in range(rng.randint(2, 4)):
            t += rng.uniform(20.0, 60.0)
            levels.append((t, levels[-1][1]))  # flat run
            t += rng.uniform(5.0, 15.0)
            levels.append((t, rng.uniform(1.0, 5.0)))  # ramp to new level
        t += rng.uniform(40.0, 80.0)
        levels.append((t, levels[-1][1]))
        profile = staircase_profile(levels=levels, name=f"rand{seed}")
        epoch_s = rng.choice((0.2, 0.25, 0.125))
        churn = rng.random() < 0.5
        plan = (storm_plan(seed, intensity=rng.choice((0.5, 1.0)),
                           duration_s=100.0, num_blocks=60)
                if rng.random() < 0.5 else None)
        slow, fast = run_pair(profile, epoch_s=epoch_s, churn=churn,
                              plan=plan)
        assert_identical(slow, fast)


class TestBatchedHelpers:
    """The soa batching helpers against their scalar references."""

    @pytest.mark.parametrize("seed", range(8))
    def test_monitor_timer_after_matches_scalar_chain(self, seed):
        rng = random.Random(seed)
        period = rng.choice((1.0, 2.0, 0.7))
        step = rng.choice((0.2, 0.25, 1.0 / 3.0, 0.5))
        since = rng.uniform(0.0, period)
        n = rng.randint(1, 400)
        expected = since
        for _ in range(n):
            expected += step
            if expected >= period:
                expected = 0.0
        got = monitor_timer_after(since, step, period, n)
        assert got.hex() == expected.hex()

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_times_and_energy_match_scalar_chains(self, seed):
        rng = random.Random(100 + seed)
        start = rng.uniform(0.0, 500.0)
        step = rng.choice((0.2, 0.25, 0.1))
        n = rng.randint(1, 300)
        times, final = batched_times(start, step, n)
        now = start
        for k in range(n):
            assert times[k].hex() == now.hex()
            now += step
        assert final.hex() == now.hex()
        initial = rng.uniform(0.0, 1e4)
        inc = rng.uniform(0.1, 30.0)
        expected = initial
        for _ in range(n):
            expected += inc
        assert accumulate_energy(initial, inc, n).hex() == expected.hex()

    def test_intersect_horizons_veto_and_min(self):
        assert intersect_horizons(10.0) == math.inf
        assert intersect_horizons(10.0, 20.0, 15.0, 30.0) == 15.0
        assert intersect_horizons(10.0, 20.0, 10.0) == 10.0  # veto
        assert intersect_horizons(10.0, 5.0, 20.0) == 10.0   # past veto
