"""Ramp spans against per-epoch stepping, on generated footprints.

While a footprint ramps, the span planner vetoes every epoch, and the
kernel runs the epochs up to the next acting monitor fire as one ramp
span (:meth:`~repro.sim.kernel.EpochKernel._ramp_epochs`): ``apply``,
pinned churn and each sample's page counts run per epoch, the power
posture, energy chains, residency and monitor timer once per span.
Callers must not be able to tell.  Each hypothesis example builds one
random piecewise-linear scenario (1-4 owners; ramps up and down, flat
runs and a profile duration that cuts or outlasts its trace; churn on
or off; the GreenDIMM daemon or PASR; sometimes an allocation fault
window) and runs it three ways:

* the per-epoch reference, ``fast_forward=False``;
* the fast path, paused at random ``until_s`` points in default or
  exact mode, with one snapshot round trip in the middle of a ramp;
* the same paused fast path with ramp spans switched off, i.e. with
  every ramp epoch stepped as before ramp spans existed.

The two fast runs must agree on every observable at ``.hex()``: the
samples, energies, residency, ``FastForwardStats``, policy and daemon
statistics, the churn RNG and the fault injector.  Against the
reference the samples, energies, statistics and streams must agree
too, and residency and ``FastForwardStats`` wherever no quiescent
window (booked in closed form) opened.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
from repro.faults.plan import FaultPlan, FaultRule
from repro.sim import kernel as kernel_mod
from repro.sim.kernel import EpochKernel, MixSource, ProfileSource
from repro.sim.server import ServerSimulator
from repro.sim.snapshot import capture, restore
from repro.units import GIB, MIB
from repro.workloads.profiles import Suite, WorkloadProfile
from repro.workloads.trace import FootprintTrace


def build(scenario, fast):
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    system = GreenDIMMSystem(organization=organization,
                             config=GreenDIMMConfig(block_bytes=128 * MIB),
                             kernel_boot_bytes=512 * MIB,
                             transient_failure_probability=0.5, seed=7,
                             policy=scenario["policy"],
                             fault_plan=scenario["plan"])
    return ServerSimulator(system, seed=5, fast_forward=fast)


def make_source(scenario, sim):
    profiles = scenario["profiles"]
    if scenario["copies"]:
        return ProfileSource(sim, profiles[0], n_copies=scenario["copies"])
    return MixSource(sim, list(profiles))


# --- scenarios -----------------------------------------------------------------

LEVEL_GIB = st.integers(1, 24).map(lambda tenths: tenths / 10)
SPAN_S = st.integers(1, 40).map(lambda quarters: quarters / 4)


@st.composite
def footprints(draw):
    """Points ``(t, GiB)``: a start level, then ramps and flat runs.

    Returns the points and the midpoints of the ramps, where a snapshot
    round trip lands in the middle of a ramp span.
    """
    t, level = 0.0, draw(LEVEL_GIB)
    points, ramp_mids = [(t, level)], []
    for _ in range(draw(st.integers(1, 5))):
        span = draw(SPAN_S)
        if draw(st.booleans()):
            new = draw(LEVEL_GIB.filter(lambda x, old=level: x != old))
            ramp_mids.append(t + span / 2)
            level = new
        t += span
        points.append((t, level))
    return points, ramp_mids


@st.composite
def scenarios(draw):
    owners = draw(st.lists(footprints(), min_size=1, max_size=4))
    profiles, ramp_mids = [], []
    for i, (points, mids) in enumerate(owners):
        end = points[-1][0]
        # Cut the trace short or let its last level outlast it.
        duration = max(1.0, round(end * draw(st.sampled_from(
            (0.5, 0.8, 1.0, 1.3))), 2))
        profiles.append(WorkloadProfile(
            name=f"owner{i}", suite=Suite.SPEC2006, duration_s=duration,
            footprint=FootprintTrace.of(
                [(p_t, int(gib * GIB)) for p_t, gib in points]),
            mpki=10.0))
        ramp_mids += [m for m in mids if m < duration]
    duration = max(p.duration_s for p in profiles)
    copies = (draw(st.sampled_from((0, 1, 2))) if len(profiles) == 1
              else 0)
    plan = None
    if draw(st.integers(0, 3)) == 0:
        start = draw(st.floats(0.0, duration))
        plan = FaultPlan(name="enomem", seed=3, rules=(FaultRule(
            op="allocate", error="ENOMEM", start_s=start,
            end_s=start + draw(SPAN_S), count=draw(st.integers(1, 4))),))
    pauses = sorted(draw(st.lists(st.floats(0.0, duration), max_size=3)))
    snapshot_at = None
    if ramp_mids and draw(st.booleans()):
        snapshot_at = draw(st.sampled_from(ramp_mids))
        pauses = sorted(pauses + [snapshot_at])
    return {
        "profiles": tuple(profiles),
        "copies": copies,
        "policy": draw(st.sampled_from(("greendimm", "pasr"))),
        "plan": plan,
        "epoch_s": draw(st.sampled_from((0.1, 0.2, 0.25))),
        "warmup_s": draw(st.sampled_from((0.0, 1.0))),
        "churn": draw(st.booleans()),
        "pauses": pauses,
        "exact": draw(st.booleans()),
        "snapshot_at": snapshot_at,
    }


# --- running and observing -------------------------------------------------------


def run(scenario, fast, paused=True):
    sim = build(scenario, fast)
    source = make_source(scenario, sim)
    state = sim.kernel.begin(source, scenario["epoch_s"],
                             warmup_s=scenario["warmup_s"],
                             pinned_churn=scenario["churn"])
    for until_s in (scenario["pauses"] if paused else ()):
        sim.kernel.advance(state, until_s=until_s, exact=scenario["exact"])
        if until_s == scenario["snapshot_at"]:
            restored = restore(capture(sim, run_state=state),
                               sim=build(scenario, fast))
            sim, state = restored.sim, restored.run_state
    sim.kernel.advance(state)
    return observe(sim, sim.kernel.finish(state))


def hexed(value):
    return value.hex() if isinstance(value, float) else value


def observe(sim, result):
    system = sim.system
    ff = sim.ff_stats
    injector = system.fault_injector
    return {
        "samples": [tuple(map(hexed, s)) for s in result.samples],
        "dram_energy": result.dram_energy_j.hex(),
        "baseline": result.baseline_dram_energy_j.hex(),
        "swap_stall": result.swap_stall_s.hex(),
        "residency": {k: v.hex()
                      for k, v in result.residency.as_dict().items()},
        "ff": ff.as_dict(),
        "batched": (ff.spans_stable, ff.epochs_batched),
        "policy_stats": system.policy.stats,
        "daemon_stats": system.daemon.stats,
        "events": list(system.daemon.event_log),
        "monitor_timer": system.policy.monitor_timer.hex(),
        "power_misses": system.power_model.cache_stats.misses,
        "churn_rng": (sim.rng.getstate(), sim._pin_seq),
        "free_pages": system.mm.free_pages,
        "faults": (None if injector is None
                   else (injector.stats.as_dict(), list(injector.events))),
    }


#: Observables a quiescent window (booked in closed form) may change.
WINDOWED = ("residency", "ff")


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_ramp_spans_match_stepping(scenario):
    spans = run(scenario, fast=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_mod, "_RAMP_SOURCES", ())
        stepped_ramps = run(scenario, fast=True)
    assert spans == stepped_ramps
    assert_matches_reference(spans, run(scenario, fast=False, paused=False))


def assert_matches_reference(fast, reference):
    # The reference batches nothing; a closed-form window books
    # residency up to rounding and counts its epochs as skipped.
    skip = {"batched"} | (set(WINDOWED) if fast["ff"]["windows"] else set())
    assert ({k: v for k, v in fast.items() if k not in skip}
            == {k: v for k, v in reference.items() if k not in skip})


# --- the pieces ------------------------------------------------------------------


class TestRampEnd:
    TRACE = FootprintTrace.of([(0.0, 1), (2.0, 5), (4.0, 1), (6.0, 1),
                               (8.0, 3), (8.0, 7), (9.0, 7)])

    def test_consecutive_ramps_are_one(self):
        assert self.TRACE.ramp_end(0.0) == 4.0
        assert self.TRACE.ramp_end(3.5) == 4.0

    def test_flat_and_beyond_return_the_query(self):
        for t in (-1.0, 4.0, 5.0, 8.0, 8.5, 9.0, 12.0):
            assert self.TRACE.ramp_end(t) == t

    def test_a_step_ends_the_ramp_before_it(self):
        assert self.TRACE.ramp_end(6.0) == 8.0

    @settings(max_examples=100, deadline=None)
    @given(footprints(), st.floats(-1.0, 120.0))
    def test_ramping_on_the_whole_span_and_not_at_its_end(self, drawn, t):
        points, _ = drawn
        trace = FootprintTrace.of(
            [(p_t, int(gib * GIB)) for p_t, gib in points])
        end = trace.ramp_end(t)
        assert not trace.ramping_at(end)
        if end > t:
            assert trace.ramping_at(t)
            for k in range(1, 8):
                assert trace.ramping_at(t + (end - t) * k / 8)


def ramp_mix():
    """Two owners ramping through most of a 40 s run."""
    profiles = tuple(
        WorkloadProfile(name=name, suite=Suite.SPEC2006, duration_s=40.0,
                        footprint=FootprintTrace.of(
                            [(t, int(gib * GIB)) for t, gib in points]),
                        mpki=10.0)
        for name, points in (
            ("up-down", ((0.0, 0.5), (15.0, 3.0), (30.0, 0.5))),
            ("late", ((0.0, 1.0), (10.0, 1.0), (38.0, 2.5)))))
    return {"profiles": profiles, "copies": 0, "policy": "greendimm",
            "plan": None, "epoch_s": 0.1, "warmup_s": 0.0, "churn": True,
            "pauses": [], "exact": False, "snapshot_at": None}


class TestRampSpansRun:
    def test_ramps_run_as_spans_and_fires_stay_exact(self, monkeypatch):
        calls = []
        original = EpochKernel._ramp_epochs

        def counted(kernel, *args):
            before = kernel.sim.ff_stats.epochs_stepped
            result = original(kernel, *args)
            calls.append(kernel.sim.ff_stats.epochs_stepped - before)
            return result

        monkeypatch.setattr(EpochKernel, "_ramp_epochs", counted)
        scenario = ramp_mix()
        spans = run(scenario, fast=True)
        # Ramps cover most of the 400 epochs, in spans of many epochs.
        assert sum(calls) > 300
        assert max(calls) > 10
        assert spans["daemon_stats"].offline_events > 0
        assert spans["daemon_stats"].online_events > 0
        assert_matches_reference(spans,
                                 run(scenario, fast=False, paused=False))

    def test_a_fault_injector_keeps_ramps_stepped(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("ramp span under a fault plan")

        monkeypatch.setattr(EpochKernel, "_ramp_epochs", refuse)
        # The rule never goes live, yet the injector alone keeps every
        # ramp epoch on the stepped path.
        scenario = dict(ramp_mix(), plan=FaultPlan(
            name="late", seed=1, rules=(FaultRule(
                op="allocate", error="ENOMEM", start_s=1e9, end_s=2e9),)))
        run(scenario, fast=True)
