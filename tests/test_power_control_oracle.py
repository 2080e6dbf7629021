"""The mask-based power control against the per-group reference model.

``tests/reference_power_control.py`` keeps the per-group layout the
mask code replaced.  Random event sequences drive both, through the
fault wrapper that injects wake-up timeouts, and after every event the
returned groups and waits, the register and its wake map, the mode
registers, the coverage counts and the eligible and pending groups must
agree exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.core.mapping import PowerBlockMap
from repro.core.power_control import GreenDIMMPowerControl
from repro.dram.address import AddressMapping
from repro.dram.organization import spec_server_memory
from repro.errors import WakeupTimeoutError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.wrappers import FaultyPowerControl
from repro.units import GIB, MIB
from tests.reference_power_control import ReferencePowerControl

MAPPING = AddressMapping(spec_server_memory(), interleaved=True)
#: Two groups per block (the fleet servers' shape), one, and a slice.
BLOCK_BYTES = (2 * GIB, GIB, 128 * MIB)

#: Steps between events: same instant, mid-wake-up (the exit takes
#: 18 ns), exactly the exit from time zero, just past it, and a
#: monitoring period.
STEPS = (0.0, 5e-9, 18e-9, 20e-9, 1.0)


def _mask(groups):
    return sum(1 << g for g in groups)


def assert_same(new, ref):
    assert new.register.raw_value() == ref.register.raw_value()
    assert list(new.register._wake_ready_at_ns.items()) \
        == list(ref.register._wake_ready_at_ns.items())
    assert new.register._waking == _mask(ref.register._wake_ready_at_ns)
    assert new.mode_registers.mask == ref.mode_registers.mask
    assert new.mode_registers.commands == ref.mode_registers.commands
    assert new._cover == ref._cover
    assert new._offline_blocks == ref._offline_blocks
    assert new._eligible == _mask(ref._eligible_set)
    assert new._eligible & ~new.register.raw_value() == _mask(ref._pending)
    assert new.wakeup_wait_s == ref.wakeup_wait_s


def _wrapped(control, plan):
    return FaultyPowerControl(control, FaultInjector(plan))


@st.composite
def scenarios(draw):
    block_bytes = draw(st.sampled_from(BLOCK_BYTES))
    block_map = PowerBlockMap(MAPPING, block_bytes)
    # A handful of neighbouring blocks, so groups fill, pair and break.
    first = draw(st.integers(0, block_map.num_blocks - 24))
    blocks = st.integers(first, first + 23)
    timeouts = draw(st.lists(
        st.tuples(blocks, st.integers(1, 3),
                  st.sampled_from((0.0, 2e-6))), max_size=3))
    plan = FaultPlan(rules=tuple(
        FaultRule("prepare_online", "ETIMEDOUT", target=block, count=count,
                  extra_latency_s=extra, label=f"t{i}")
        for i, (block, count, extra) in enumerate(timeouts)))
    events = draw(st.lists(
        st.tuples(st.sampled_from(("offline", "prepare", "online",
                                   "prepare+online")),
                  blocks, st.sampled_from(STEPS)),
        min_size=1, max_size=120))
    return block_map, draw(st.booleans()), plan, events


def _apply(control, kind, block, now_s):
    """One event; the results it returned, errors included."""
    if kind == "offline":
        return [control.block_offlined(block, now_s)]
    try:
        results = [control.prepare_online(block, now_s)]
    except WakeupTimeoutError as err:
        # The on-lining is abandoned; the groups stay as they were.
        return [("timeout", err.wait_s)]
    if kind == "prepare+online":
        results.append(control.block_onlined(block, now_s))
    elif kind == "online":
        # A completed on-lining whose prepare already ran, or a late
        # report for a block prepared by an earlier event.
        results = [control.block_onlined(block, now_s)]
    return results


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_mask_control_matches_per_group_oracle(scenario):
    block_map, pair_gating, plan, events = scenario
    new = GreenDIMMPowerControl(block_map, pair_gating=pair_gating)
    ref = ReferencePowerControl(block_map, pair_gating=pair_gating)
    new_api, ref_api = _wrapped(new, plan), _wrapped(ref, plan)
    now_s = 0.0
    for kind, block, step in events:
        now_s += step
        assert _apply(new_api, kind, block, now_s) \
            == _apply(ref_api, kind, block, now_s), (kind, block, now_s)
        assert_same(new, ref)


def test_reoffline_in_flight_keeps_the_group_pending():
    """An offline at the instant a wake-up started gates nothing of the
    waking group; the first event after the exit latency gates it."""
    block_map = PowerBlockMap(MAPPING, GIB)
    new = GreenDIMMPowerControl(block_map, pair_gating=False)
    ref = ReferencePowerControl(block_map, pair_gating=False)
    for control in (new, ref):
        assert control.block_offlined(5, 0.0) == [5]
        assert control.prepare_online(5, 1.0) > 0
        assert control.block_offlined(5, 1.0) == []
        assert control.block_offlined(6, 1.0) == [6]
        assert control.block_offlined(7, 1.0 + 20e-9) == [5, 7]
    assert_same(new, ref)


def test_group_is_ready_exactly_at_the_exit_latency():
    """The ready poll compares ``now >= ready``: an event at exactly the
    wake-up's ready time gates the group again."""
    block_map = PowerBlockMap(MAPPING, GIB)
    new = GreenDIMMPowerControl(block_map, pair_gating=False)
    ref = ReferencePowerControl(block_map, pair_gating=False)
    for control in (new, ref):
        assert control.block_offlined(5, 0.0) == [5]
        assert control.prepare_online(5, 0.0) > 0
        # 18e-9 s is 18.0 ns exactly: the ready time of the wake-up.
        assert control.block_offlined(6, 18e-9) == [5, 6]
    assert_same(new, ref)
