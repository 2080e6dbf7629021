"""Pinned-churn replay against per-epoch stepping, bit for bit.

With pinned churn on, the kernel replays runs of epochs in which churn
only draws a missing arrival number (the simulator's quiet-run scan) and
runs churn for real only at its events, handing over the draw the scan
already made.  Stable spans with churn are planned under
``stable_until`` and end after the first epoch in which churn moves free
memory or a monitor fire acts.  Every scenario here runs with the fast
path on and off (``fast_forward=False`` is the per-epoch reference) and
demands equal samples, energies, residency, daemon statistics and
fast-forward accounting, rendered with ``float.hex()``, plus an equal
churn RNG state at the end.  None of the scenarios opens a quiescent
window, so the residency and ``as_dict()`` comparisons are exact too.
"""

import math
import random

from repro.os.page import OwnerKind
from repro.sim.kernel import SWAP_IN_RESERVE_PAGES, EpochKernel
from repro.sim.server import ServerSimulator, _PinnedExtent
from repro.units import GIB, MIB
from repro.workloads.profiles import Suite, WorkloadProfile
from repro.workloads.trace import FootprintTrace
from tests.kernel_scenarios import small_system
from tests.test_span_planner import hexed, vm_trace


def flat_profile(gib, duration_s=120.0, name="flat"):
    return WorkloadProfile(
        name=name, suite=Suite.SPEC2006, duration_s=duration_s,
        footprint=FootprintTrace.of([(0.0, gib * GIB),
                                     (duration_s, gib * GIB)]),
        mpki=15.0)


def run_pair(run, setup=None, **sim_kwargs):
    """``run(sim)`` on the reference and the fast path; *setup(sim)*
    prepares each simulator first.  Returns ``[(result, sim)] * 2`` as
    (slow, fast) after asserting the two are identical, churn RNG state
    included."""
    runs = []
    for fast in (False, True):
        sim = ServerSimulator(small_system(), seed=5, fast_forward=fast,
                              **sim_kwargs)
        if setup is not None:
            setup(sim)
        runs.append((run(sim), sim))
    slow, fast = runs
    assert hexed(slow) == hexed(fast)
    assert slow[1].rng.getstate() == fast[1].rng.getstate()
    assert slow[1].ff_stats.epochs_batched == 0
    assert fast[1].ff_stats.windows == 0
    return runs


class TestChurnSpans:
    def test_swap_held_mix_at_the_reserve(self):
        # 9 GiB of demand on the 8 GiB box: both owners keep pages in
        # swap and free memory never leaves the swap-in reserve, so
        # apply() is a strict no-op and only churn acts.
        profiles = [flat_profile(5.0, name="a"), flat_profile(4.0, name="b")]
        (_, _), (fast, sim) = run_pair(
            lambda sim: sim.run_mix(profiles, epoch_s=0.1))
        assert sum(sim.swap.held_for(owner)
                   for owner in ("mix0-a", "mix1-b")) > 0
        assert all(s.free_pages <= SWAP_IN_RESERVE_PAGES
                   for s in fast.samples)
        stats = sim.ff_stats
        assert stats.epochs_batched > 0.9 * stats.epochs_stepped
        # Spans end at churn events, so there are many of them, each
        # long enough to be worth batching.
        assert stats.spans_stable > 10
        assert stats.epochs_batched > 10 * stats.spans_stable

    def test_pin_expiry_exactly_on_a_quiet_epoch(self):
        # A pin expiring at exactly t=30.0, an epoch of the 0.25 s chain:
        # the scan must stop at that epoch (expiry is `<=`), never one
        # later, and churn must free the pin there.  The pin is big
        # enough to lift free memory above the swap-in reserve, so the
        # span must end right there: the next epoch's apply() swaps in.
        pin_pages = 2 * SWAP_IN_RESERVE_PAGES

        def setup(sim):
            sim.system.mm.allocate("pin9999", pin_pages,
                                   kind=OwnerKind.PINNED)
            sim._pinned.append(_PinnedExtent(owner_seq=9999,
                                             expires_s=30.0))

        def run(sim):
            return sim.run_workload(flat_profile(9.0), epoch_s=0.25)

        (_, _), (fast, sim) = run_pair(run, setup,
                                       pinned_churn_rate_per_s=0.01)
        assert sim.system.mm.owner_pages("pin9999") == 0
        times = [s.time_s for s in fast.samples]
        at = times.index(30.0)
        before, expired, after = fast.samples[at - 1:at + 2]
        assert expired.free_pages - before.free_pages == pin_pages
        assert after.free_pages == SWAP_IN_RESERVE_PAGES
        assert sim.ff_stats.epochs_batched > 0.9 * sim.ff_stats.epochs_stepped

    def test_arrival_on_the_last_epoch_before_the_bound(self):
        # A trace event at T bounds the span; the arrival is placed on
        # the span's last epoch (T - epoch), so the scan's pre-drawn
        # number reaches churn from the very last scan of the span.
        epoch_s = 0.25
        scans = []

        def spy(sim):
            scan = sim._quiet_churn_epochs

            def recorded(now_s, dt_s, limit):
                k, draw = scan(now_s, dt_s, limit)
                scans.append((now_s, limit, k, draw))
                return k, draw

            sim._quiet_churn_epochs = recorded

        def trace(event_s):
            return vm_trace([(0.0, math.inf, 9 * GIB),
                             (event_s, math.inf, 64 * MIB)])

        probe = ServerSimulator(small_system(), seed=5, fast_forward=True)
        spy(probe)
        probe.run_vm_trace(trace(60.0), epoch_s=epoch_s)
        arrival_s = next(now_s + k * epoch_s
                         for now_s, _limit, k, draw in scans
                         if draw is not None)
        # arrival_s is a chain value, so + epoch_s is the next one.
        bound_s = arrival_s + epoch_s

        scans.clear()
        run_pair(lambda sim: sim.run_vm_trace(trace(bound_s),
                                              epoch_s=epoch_s),
                 setup=lambda sim: spy(sim) if sim.fast_forward else None)
        last = [(limit, k) for now_s, limit, k, draw in scans
                if draw is not None and now_s + k * epoch_s == arrival_s]
        assert last and last[0][1] == last[0][0] - 1

    def test_acting_fire_inside_a_churn_span(self, monkeypatch):
        # One block offline, free memory below low water: the first fire
        # must on-line the block.  The churn span is planned through that
        # fire; its executor runs the fire for real and ends there.
        blocks = []

        def setup(sim):
            system = sim.system
            mm = system.mm
            block = next(b for b in reversed(range(mm.num_blocks))
                         if system.hotplug.try_offline_block(b).success)
            system.power_control.block_offlined(block, 0.0)
            mm.allocate("hog", mm.free_pages - 16)
            assert not system.daemon.monitor_fire_is_noop()
            system.policy.monitor_timer = 0.0
            blocks.append(block)

        spans = []
        window = EpochKernel._stable_span_window

        def recorded(kernel, clock, n, quiescent, *args):
            start = clock.now_s
            result = window(kernel, clock, n, quiescent, *args)
            if not quiescent:
                spans.append((start, clock.now_s))
            return result

        # Only the fast-forwarded run of the pair reaches the executor.
        monkeypatch.setattr(EpochKernel, "_stable_span_window", recorded)

        def run(sim):
            return sim.run_vm_trace(vm_trace([(30.0, math.inf, 64 * MIB)]),
                                    epoch_s=0.25)

        (_, _), (_, sim) = run_pair(run, setup)
        onlines = [e for e in sim.system.daemon.event_log
                   if e.kind == "online"]
        assert [e.block for e in onlines] == [blocks[-1]]
        online_s = onlines[0].time_s
        assert online_s < 30.0
        # The fire's epoch was the last one of a churn span.
        assert any(start <= online_s and end == online_s + 0.25
                   for start, end in spans)

    def test_an_arrival_every_epoch_falls_back_to_stepping(self):
        # rate x epoch >= 1: every epoch expects an arrival, so the fast
        # path bows out and the scan never replays anything.
        (_, _), (_, sim) = run_pair(
            lambda sim: sim.run_workload(flat_profile(9.0, duration_s=20.0),
                                         epoch_s=0.25),
            pinned_churn_rate_per_s=4.0)
        assert sim.ff_stats.epochs_batched == 0
        state = sim.rng.getstate()
        assert sim._quiet_churn_epochs(0.0, 0.25, 100) == (0, None)
        assert sim.rng.getstate() == state


class TestQuietRunScan:
    def test_consumes_exactly_the_quiet_draws(self):
        sim = ServerSimulator(small_system(), seed=11,
                              pinned_churn_rate_per_s=0.3)
        expected = 0.3 * 0.1
        reference = random.Random()
        reference.setstate(sim.rng.getstate())
        draws = [reference.random() for _ in range(400)]
        first = next(i for i, d in enumerate(draws) if d < expected)
        state = sim.rng.getstate()
        # The arrival is the first epoch past the limit: no draw for it.
        assert sim._quiet_churn_epochs(0.0, 0.1, first) == (first, None)
        sim.rng.setstate(state)
        # Limit reaches the arrival: its draw comes back, consumed once.
        assert sim._quiet_churn_epochs(0.0, 0.1, first + 1) == (
            first, draws[first])
        follow = random.Random()
        follow.setstate(sim.rng.getstate())
        assert follow.random() == draws[first + 1]

    def test_stops_at_an_expiry_without_drawing(self):
        sim = ServerSimulator(small_system(), seed=11,
                              pinned_churn_rate_per_s=0.0)
        sim._pinned.append(_PinnedExtent(owner_seq=1, expires_s=0.5))
        state = sim.rng.getstate()
        reference = random.Random()
        reference.setstate(state)
        # Epochs at 0.0, 0.25 draw; the one at 0.5 expires the pin.
        assert sim._quiet_churn_epochs(0.0, 0.25, 100) == (2, None)
        reference.random()
        reference.random()
        assert sim.rng.getstate() == reference.getstate()
