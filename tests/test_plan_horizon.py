"""The kernel's plan horizon: epochs it steps without asking the planner.

After a plan vetoes, :meth:`~repro.sim.kernel.EpochKernel.advance`
steps every epoch before the plan horizon without calling ``_plan_span``
again: the horizon is the later of the source's ramp veto and the fault
plan's live period (:meth:`~repro.faults.injector.FaultInjector.live_until`),
the latter dropped once a hit lands.  Two checks:

* ``live_until`` against a brute-force scan of ``quiescent_until`` over
  the rule boundaries, on random plans whose rules random hits exhaust;
* whole runs with the horizon switched off (every epoch plans, as
  before the horizon existed) against runs with it on, over storm plans
  and plans whose rules one hit spends, every source kind, churn on and
  off, every registered policy, and ``until_s`` pauses with a snapshot
  round trip.  Every observable must
  agree at ``.hex()``, and the horizon must save planner calls.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
from repro.faults.injector import FaultInjector
from repro.faults.plan import STICKY, FaultPlan, FaultRule, storm_plan
from repro.policies.registry import policy_names
from repro.sim.kernel import EpochKernel, MixSource, ProfileSource, \
    TraceSource
from repro.sim.server import ServerSimulator
from repro.sim.snapshot import capture, restore
from repro.units import GIB, MIB
from repro.workloads.azure import AzureTrace, VMEvent, VMInstance, VMType
from repro.workloads.registry import profile_by_name

# --- live_until against quiescent_until -------------------------------------

#: Rule times on a half-second grid, so windows often touch exactly.
GRID_S = st.integers(0, 40).map(lambda halves: halves / 2)


@st.composite
def rules(draw):
    op = draw(st.sampled_from(("offline", "allocate")))
    start = draw(GRID_S)
    end = (math.inf if draw(st.integers(0, 9)) == 0
           else start + draw(st.integers(1, 16)) / 2)
    return FaultRule(
        op=op, error="EAGAIN" if op == "offline" else "ENOMEM",
        target=(draw(st.sampled_from((None, 0, 1))) if op == "offline"
                else None),
        start_s=start, end_s=end,
        count=draw(st.sampled_from((STICKY, 1, 1, 2, 3))))


#: One step of a run: a query of both bounds, or one attempt to fail.
ACTIONS = st.one_of(
    st.tuples(st.just("query"), GRID_S | st.floats(0.0, 25.0)),
    st.tuples(st.just("hit"), GRID_S,
              st.sampled_from(("offline", "allocate")),
              st.sampled_from((None, 0, 1))))


def scan_live_until(plan, remaining, t):
    """The first rule boundary at or after *t* that a fresh injector,
    with the same budgets left, finds quiescent (*t* itself if that is
    quiescent).  Liveness only changes at rule boundaries."""
    oracle = FaultInjector(plan)
    oracle._remaining = list(remaining)
    boundaries = sorted({t} | {b for rule in plan.rules
                               for b in (rule.start_s, rule.end_s)
                               if t <= b < math.inf})
    for bound in boundaries:
        if oracle.quiescent_until(bound) != bound:
            return bound
    return math.inf


@settings(max_examples=300, deadline=None)
@given(st.lists(rules(), min_size=1, max_size=8),
       st.lists(ACTIONS, min_size=1, max_size=30))
def test_live_until_matches_a_scan_of_quiescent_until(drawn, actions):
    plan = FaultPlan(name="drawn", rules=tuple(drawn))
    injector = FaultInjector(plan)
    for action in actions:
        if action[0] == "hit":
            _kind, when, op, target = action
            injector.advance(when)
            injector.should_fail(op, target)
            continue
        t = action[1]
        end = injector.live_until(t)
        assert end == scan_live_until(plan, injector._remaining, t)
        # The two bounds speak of the same period.
        assert (end > t) == (injector.quiescent_until(t) == t)


def test_live_until_chains_touching_windows_and_skips_spent_ones():
    plan = FaultPlan(rules=(
        FaultRule(op="allocate", error="ENOMEM", start_s=0.0, end_s=2.0),
        FaultRule(op="allocate", error="ENOMEM", start_s=2.0, end_s=3.0),
        FaultRule(op="offline", error="EBUSY", start_s=2.5, end_s=6.0),
        FaultRule(op="offline", error="EBUSY", start_s=7.0, end_s=9.0)))
    injector = FaultInjector(plan)
    assert injector.live_until(1.0) == 6.0
    assert injector.live_until(6.5) == 6.5
    injector.advance(3.0)
    assert injector.should_fail("offline", 4) is not None  # spends rule 2
    assert injector.live_until(1.0) == 3.0
    assert injector.live_until(3.0) == 3.0


# --- whole runs with and without the horizon --------------------------------

EPOCH_S = 1.0
#: Pause points of every run; the snapshot round trip is at the second.
PAUSES = (23.5, 61.0, 88.0)


def small_box(policy, plan):
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    return GreenDIMMSystem(organization=organization,
                           config=GreenDIMMConfig(block_bytes=128 * MIB),
                           kernel_boot_bytes=512 * MIB,
                           transient_failure_probability=0.5, seed=7,
                           policy=policy, fault_plan=plan)


def trace_box(policy, plan):
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    return GreenDIMMSystem(organization=organization,
                           config=GreenDIMMConfig(block_bytes=512 * MIB),
                           kernel_boot_bytes=2 * GIB,
                           transient_failure_probability=0.5, seed=7,
                           policy=policy, fault_plan=plan)


def shortened(name, duration_s=150.0):
    return dataclasses.replace(profile_by_name(name), duration_s=duration_s)


def make_source(kind, sim):
    if kind == "profile":
        return ProfileSource(sim, shortened("429.mcf"))
    if kind == "mix":
        return MixSource(sim, [shortened("403.gcc"), shortened("429.mcf")])
    return TraceSource(sim, AzureTrace(events=VM_EVENTS, samples=[],
                                       capacity_bytes=13 * GIB))


def _vm_events():
    """Eight VMs of 1-2 GiB that arrive over two minutes and leave over
    the next two."""
    events = []
    for vm in range(8):
        vm_type = VMType(name=f"vm{vm}", vcpus=2,
                         memory_bytes=(1 + vm % 2) * GIB, lifetime_mu=0.0,
                         lifetime_sigma=1.0, image_id=0)
        instance = VMInstance(vm_id=vm, vm_type=vm_type,
                              arrival_s=15.0 * vm,
                              departure_s=100.0 + 17.0 * vm)
        events += [VMEvent(instance.arrival_s, "arrive", instance),
                   VMEvent(instance.departure_s, "depart", instance)]
    return sorted(events, key=lambda event: event.time_s)


VM_EVENTS = _vm_events()


def one_shot_plan():
    """Long windows that one hit spends: each live period ends at its
    first hit, long before the window does."""
    return FaultPlan(name="one-shot", rules=(
        FaultRule(op="allocate", error="ENOMEM", start_s=5.0, end_s=60.0),
        FaultRule(op="offline", error="EAGAIN", start_s=60.0, end_s=110.0),
        FaultRule(op="allocate", error="ENOMEM", start_s=110.0,
                  end_s=150.0)))


def build(case):
    kind, policy, _churn, plan = case
    if kind == "trace":
        plan = (one_shot_plan() if plan == "one-shot" else
                storm_plan(11, intensity=4.0, duration_s=400.0,
                           num_blocks=32))
        system = trace_box(policy, plan)
    else:
        plan = (one_shot_plan() if plan == "one-shot" else
                storm_plan(5, intensity=4.0, duration_s=150.0,
                           num_blocks=64))
        system = small_box(policy, plan)
    return ServerSimulator(system, seed=5)


def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    return value


def run(case):
    """Run *case* paused at :data:`PAUSES`, with a snapshot round trip."""
    sim = build(case)
    state = sim.kernel.begin(make_source(case[0], sim), EPOCH_S,
                             warmup_s=4.0, pinned_churn=case[2])
    for index, until_s in enumerate(PAUSES):
        sim.kernel.advance(state, until_s=until_s)
        if index == 1:
            restored = restore(capture(sim, run_state=state),
                               sim=build(case))
            sim, state = restored.sim, restored.run_state
    sim.kernel.advance(state)
    result = sim.kernel.finish(state)
    system = sim.system
    injector = system.fault_injector
    ff = sim.ff_stats
    return {
        "samples": [hexed(list(sample)) for sample in result.samples],
        "energies": hexed([result.dram_energy_j,
                           result.baseline_dram_energy_j,
                           result.swap_stall_s]),
        "residency": hexed(result.residency.as_dict()),
        "ff": (ff.as_dict(), ff.spans_stable, ff.epochs_batched),
        "daemon_stats": hexed(dataclasses.asdict(system.daemon.stats)),
        "policy_stats": hexed(dataclasses.asdict(system.policy.stats)),
        "policy_metrics": hexed(system.policy.policy_metrics()),
        "monitor_timer": system.policy.monitor_timer.hex(),
        "events": hexed(list(injector.events)),
        "fault_stats": injector.stats.as_dict(),
        "budgets": list(injector._remaining),
        "churn_rng": (sim.rng.getstate(), sim._pin_seq),
    }


CASES = [(kind, policy, churn, plan)
         for kind in ("profile", "mix", "trace")
         for policy in policy_names()
         for churn in (False, True)
         for plan in ("storm", "one-shot")]


@pytest.mark.parametrize(
    "case", CASES,
    ids=[f"{kind}-{policy}-{'churn' if churn else 'still'}-{plan}"
         for kind, policy, churn, plan in CASES])
def test_horizon_matches_planning_every_epoch(case, monkeypatch):
    calls = []
    plan_span = EpochKernel._plan_span

    def counted(self, *args):
        calls.append(args[1])
        return plan_span(self, *args)

    monkeypatch.setattr(EpochKernel, "_plan_span", counted)
    with_horizon = run(case)
    planned = len(calls)
    calls.clear()
    with monkeypatch.context() as patch:
        # Without the horizon every plan after a veto starts afresh.
        patch.setattr(EpochKernel, "_plan_horizon",
                      lambda self, source, t: (t, t, 0))
        every_epoch = run(case)
    assert with_horizon["fault_stats"], "no fault fired"
    assert with_horizon == every_epoch
    assert planned < len(calls)
