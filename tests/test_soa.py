"""Gate-coverage oracle and the run-length sample log.

The power control tracks gate eligibility incrementally, as per-group
coverage counts.  These tests replay randomized daemon / hot-plug /
fault sequences through the public APIs and compare the counts and the
eligible list against the reference address-layer rescan, and the
controller register's gated groups against the eligible list.  The
rest of the module holds :class:`repro.soa.SampleLog` to a plain list.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
from repro.errors import AllocationError, WakeupTimeoutError
from repro.faults.plan import storm_plan
from repro.os.page import OwnerKind
from repro.sim.kernel import EpochSample
from repro.sim.server import ServerSimulator, VMTraceRunResult
from repro.soa import SampleLog, accumulate_energy, batched_times
from repro.units import MIB
from repro.workloads import profile_by_name
from tests.conftest import gated_groups


def small_system(seed=7, fault_plan=None):
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    return GreenDIMMSystem(organization=organization,
                           config=GreenDIMMConfig(block_bytes=128 * MIB),
                           kernel_boot_bytes=512 * MIB,
                           transient_failure_probability=0.5, seed=seed,
                           fault_plan=fault_plan)


def assert_gate_state_matches(system):
    """Coverage counts and eligibility == the topology rescan; the
    register gates only eligible groups, and the pending groups are the
    eligible ones it does not gate."""
    pc = system.power_control
    block_map = system.block_map
    offline = pc.offline_blocks
    assert offline == set(system.hotplug.offline_blocks())
    cover = [sum(1 for b in offline if g in block_map.block_groups[b])
             for g in range(block_map.num_groups)]
    assert pc._cover == cover
    full = [g for g, count in enumerate(cover)
            if count == block_map.blocks_per_group]
    assert pc._full == sum(1 << g for g in full)
    # The incremental eligible mask must hold exactly the reference
    # rescan through the address-mapping layer.
    eligible = block_map.gateable_groups(offline,
                                         pair_constraint=pc.pair_gating)
    assert pc._eligible == sum(1 << g for g in eligible)
    gated = set(gated_groups(pc.register))
    assert gated <= set(eligible)
    # Pending (eligible, not gated) is derived, not stored: every
    # eligible group outside the register is one an offline event gates.
    pending = set(eligible) - gated
    assert {g for g in range(block_map.num_groups)
            if (pc._eligible & ~pc.register.raw_value()) >> g & 1} == pending
    register = pc.register
    assert register._waking == sum(1 << g
                                   for g in register._wake_ready_at_ns)
    assert not register._waking & register.raw_value()


class TestRandomizedSequences:
    def _churn(self, seed):
        rng = random.Random(seed)
        system = small_system(seed=seed)
        mm, hotplug = system.mm, system.hotplug
        daemon, pc = system.daemon, system.power_control
        owners = [f"vm{i}" for i in range(4)]
        now = 0.0
        for step in range(160):
            now += 1.0
            roll = rng.random()
            if roll < 0.35:
                pages = rng.randrange(64, 24_000)
                kind = OwnerKind.KERNEL if rng.random() < 0.1 \
                    else OwnerKind.USER
                try:
                    mm.allocate(rng.choice(owners), pages, kind=kind)
                except AllocationError:
                    daemon.emergency_online(pages, now)
            elif roll < 0.60:
                mm.free_pages_of(rng.choice(owners),
                                 rng.randrange(64, 24_000))
            elif roll < 0.80:
                daemon.monitor_once(now)
            elif roll < 0.90:
                candidates = hotplug.online_blocks()
                if candidates:
                    block = rng.choice(candidates)
                    result = hotplug.try_offline_block(block)
                    if result.success:
                        pc.block_offlined(block, now)
            else:
                offline = hotplug.offline_blocks()
                if offline:
                    block = rng.choice(offline)
                    try:
                        pc.prepare_online(block, now)
                    except WakeupTimeoutError:
                        continue
                    hotplug.online_block(block)
                    pc.block_onlined(block, now)
            if step % 20 == 19:
                assert_gate_state_matches(system)
        assert_gate_state_matches(system)
        return system

    def test_mirrors_match_after_randomized_churn(self):
        for seed in (3, 11, 29):
            system = self._churn(seed)
            # The sequences must actually exercise the offline machinery,
            # or the invariants above are vacuous.
            assert system.daemon.stats.offline_events \
                + system.hotplug.stats.offline_success > 0

    def test_mirrors_match_after_fault_storm_run(self):
        plan = storm_plan(303, intensity=4.0, duration_s=120.0,
                          num_blocks=64)
        sim = ServerSimulator(small_system(fault_plan=plan), seed=5,
                              fast_forward=True)
        sim.run_workload(profile_by_name("429.mcf"), epoch_s=1.0,
                         pinned_churn=True)
        assert sim.system.fault_injector.stats.total > 0
        assert_gate_state_matches(sim.system)


# --- the run-length sample log -------------------------------------------------


def _sample(t, offline=3, dpd=0.1):
    return EpochSample(time_s=t, used_pages=1000 + offline, free_pages=77,
                       offline_blocks=offline, dpd_fraction=dpd,
                       dram_power_w=4.2 + dpd)


def _replicated(t0, epoch_s, n, template):
    """One sample per epoch: the list the kernel built before the log."""
    tail = tuple(template)[1:]
    return [EpochSample(t, *tail) for t in batched_times(t0, epoch_s, n)[0]]


def _hex(samples):
    return [[v.hex() if isinstance(v, float) else v for v in s]
            for s in samples]


def _mixed_log():
    """Stepped samples around three runs (one below the scalar
    crossover), and the per-epoch list it stands for."""
    log, reference = SampleLog(), []
    t = 0.3
    for offline, n in ((2, 1), (5, 3), (1, 60), (0, 2), (4, 7)):
        if n == 1 or n == 2:
            for _ in range(n):
                sample = _sample(t, offline, 0.1 * offline)
                log.append(sample)
                reference.append(sample)
                t += 0.1
        else:
            # The template's own timestamp is stale, as in a churn span.
            template = _sample(t - 5.0, offline, 0.1 * offline)
            log.append_run(t, 0.1, n, template)
            reference += _replicated(t, 0.1, n, template)
            t = accumulate_energy(t, 0.1, n)
    return log, reference


class TestSampleLog:
    @pytest.mark.parametrize("n", [1, 47, 48, 49, 5000])
    def test_expansion_is_the_replicated_list(self, n):
        template = _sample(0.0, offline=2, dpd=1 / 3)
        log = SampleLog()
        log.append_run(1234.567, 0.1, n, template)
        expected = _replicated(1234.567, 0.1, n, template)
        assert _hex(log) == _hex(expected)
        assert _hex(log[:]) == _hex(expected)
        assert _hex([log[-1]]) == _hex(expected[-1:])
        assert len(log) == n

    @pytest.mark.parametrize("n", [1, 47, 48, 49, 5000])
    def test_clock_final_matches_the_chain(self, n):
        # The kernel advances its clock with the final-only chain; the
        # log expands timestamps with the full one.
        final = batched_times(1234.567, 0.1, n)[1]
        assert accumulate_energy(1234.567, 0.1, n).hex() == final.hex()

    def test_indexing_across_run_boundaries(self):
        log, reference = _mixed_log()
        assert len(log) == len(reference) == 73
        for index in range(-len(reference), len(reference)):
            assert _hex([log[index]]) == _hex([reference[index]]), index
        with pytest.raises(IndexError):
            log[len(reference)]
        with pytest.raises(IndexError):
            log[-len(reference) - 1]
        for key in (slice(None), slice(2, 5), slice(3, 70), slice(5, 4),
                    slice(60, 200), slice(-10, None), slice(None, None, 7),
                    slice(None, None, -3), slice(70, 2, -5), slice(9, 9)):
            assert _hex(log[key]) == _hex(reference[key]), key

    def test_len_bool_and_equality(self):
        empty = SampleLog()
        assert len(empty) == 0 and not empty
        assert empty == [] and empty[:] == [] and empty[3:8] == []
        log, reference = _mixed_log()
        assert log and log == reference and reference == log
        assert log != reference[:-1]
        assert log != reference[:-1] + [_sample(99.0)]
        # Two logs compare by their samples, not their records.
        stepped = SampleLog()
        for sample in reference:
            stepped.append(sample)
        assert stepped == log
        assert log != tuple(reference)

    def test_pickle_round_trip(self):
        log, reference = _mixed_log()
        restored = pickle.loads(pickle.dumps(log, pickle.HIGHEST_PROTOCOL))
        assert _hex(restored) == _hex(reference)
        assert _hex([restored[40]]) == _hex([reference[40]])
        restored.append_run(99.0, 0.1, 3, _sample(0.0))
        assert len(restored) == len(reference) + 3

    def test_accessors_equal_their_generator_forms(self):
        log, reference = _mixed_log()
        for name in EpochSample._fields[1:]:  # observables, not the clock
            assert _hex([list(log.values(name))]) == _hex(
                [[getattr(s, name) for s in reference]])
        assert sum(log.values("dpd_fraction")).hex() == sum(
            s.dpd_fraction for s in reference).hex()
        assert sum(log.values("dram_power_w")).hex() == sum(
            s.dram_power_w for s in reference).hex()
        assert log.int_sum("offline_blocks") == sum(
            s.offline_blocks for s in reference)
        assert log.max("offline_blocks") == max(
            s.offline_blocks for s in reference)
        assert log.min("offline_blocks") == min(
            s.offline_blocks for s in reference)
        assert SampleLog().max("offline_blocks", default=0) == 0
        assert SampleLog().int_sum("offline_blocks") == 0

    def test_result_means_sum_the_per_epoch_sequence(self):
        # Before Python 3.12's compensated sum, 0.25 plus seven adds of
        # 0.1 and 0.25 + 0.1 * 7 differ in the last bit: a mean must sum
        # what one sample per epoch would hold.
        log = SampleLog()
        log.append(_sample(0.0, offline=1, dpd=0.25))
        log.append_run(0.1, 0.1, 7, _sample(0.0, offline=4, dpd=0.1))
        reference = list(log)
        result = VMTraceRunResult(samples=log, total_blocks=64,
                                  dram_energy_j=1.0,
                                  baseline_dram_energy_j=2.0,
                                  ksm_saved_pages_final=0,
                                  emergency_onlines=0)
        assert result.mean_dpd_fraction.hex() == (
            sum(s.dpd_fraction for s in reference) / len(reference)).hex()
        assert result.mean_offline_blocks.hex() == (
            sum(s.offline_blocks for s in reference) / len(reference)).hex()
        assert (result.min_offline_blocks, result.max_offline_blocks) == (1, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 120),
                              st.integers(0, 9),
                              st.floats(0.0, 1.0, allow_nan=False)),
                    max_size=12),
           st.data())
    def test_random_sequences_match_a_plain_list(self, ops, data):
        log, reference = SampleLog(), []
        t = 0.0
        for is_run, n, offline, dpd in ops:
            if is_run:
                template = _sample(-1.0, offline, dpd)
                log.append_run(t, 0.7, n, template)
                reference += _replicated(t, 0.7, n, template)
                t = accumulate_energy(t, 0.7, n)
            else:
                sample = _sample(t, offline, dpd)
                log.append(sample)
                reference.append(sample)
                t += 0.7
        assert len(log) == len(reference)
        assert bool(log) == bool(reference)
        assert _hex(log) == _hex(reference)
        size = len(reference)
        index = data.draw(st.integers(-size - 2, size + 1))
        if -size <= index < size:
            assert _hex([log[index]]) == _hex([reference[index]])
        else:
            with pytest.raises(IndexError):
                log[index]
        bounds = st.one_of(st.none(), st.integers(-size - 2, size + 2))
        key = slice(data.draw(bounds), data.draw(bounds),
                    data.draw(st.sampled_from([None, 1, 2, 5, -1, -4])))
        assert _hex(log[key]) == _hex(reference[key])
        # repr is exact for floats and also covers the empty sum, 0.
        assert repr(sum(log.values("dpd_fraction"))) == repr(sum(
            s.dpd_fraction for s in reference))
        assert log.int_sum("used_pages") == sum(
            s.used_pages for s in reference)
        assert log.max("offline_blocks", default=-1) == max(
            (s.offline_blocks for s in reference), default=-1)
        assert log.min("offline_blocks", default=-1) == min(
            (s.offline_blocks for s in reference), default=-1)
        assert pickle.loads(pickle.dumps(log)) == reference
