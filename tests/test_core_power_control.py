"""GreenDIMMPowerControl: gating follows the offline block set."""

import pickle

import pytest

from repro.core.mapping import PowerBlockMap
from repro.core.power_control import GreenDIMMPowerControl
from repro.dram.address import AddressMapping
from repro.dram.organization import spec_server_memory
from repro.units import GIB, MIB

ORG = spec_server_memory()
MAPPING = AddressMapping(ORG, interleaved=True)


def is_gated(ctl, group):
    return bool(ctl.register.raw_value() >> group & 1)


def control(block_bytes=GIB, pair_gating=False):
    return GreenDIMMPowerControl(PowerBlockMap(MAPPING, block_bytes),
                                 pair_gating=pair_gating)


class TestGatingOnOffline:
    def test_whole_group_block_gates_immediately(self):
        ctl = control()
        gated = ctl.block_offlined(5)
        assert gated == [5]
        assert is_gated(ctl, 5)
        assert ctl.gated_capacity_fraction() == pytest.approx(1 / 64)

    def test_partial_group_waits_for_all_blocks(self):
        ctl = GreenDIMMPowerControl(PowerBlockMap(MAPPING, 128 * MIB),
                                    pair_gating=False)
        for block in range(8, 15):
            assert ctl.block_offlined(block) == []
        assert ctl.block_offlined(15) == [1]

    def test_pair_gating_needs_partner(self):
        ctl = control(pair_gating=True)
        assert ctl.block_offlined(2) == []
        assert ctl.block_offlined(3) == [2, 3]

    def test_offline_fraction_vs_gated_fraction(self):
        ctl = control(pair_gating=True)
        ctl.block_offlined(2)
        assert ctl.offline_blocks == {2}
        assert ctl.gated_capacity_fraction() == 0.0


class TestOnlinePath:
    def test_prepare_online_wakes_and_waits(self):
        ctl = control()
        ctl.block_offlined(5)
        wait = ctl.prepare_online(5, now_s=1.0)
        assert wait == pytest.approx(18e-9)
        assert not is_gated(ctl, 5)
        assert ctl.wakeup_wait_s == pytest.approx(18e-9)

    def test_prepare_online_of_ungated_block_is_free(self):
        ctl = control()
        assert ctl.prepare_online(7, now_s=0.0) == 0.0

    def test_block_onlined_updates_set(self):
        ctl = control()
        ctl.block_offlined(5)
        ctl.prepare_online(5, now_s=0.0)
        ctl.block_onlined(5, now_s=1.0)
        assert 5 not in ctl.offline_blocks

    def test_onlining_breaks_partner_gating(self):
        ctl = control(pair_gating=True)
        ctl.block_offlined(2)
        ctl.block_offlined(3)
        assert is_gated(ctl, 2) and is_gated(ctl, 3)
        ctl.prepare_online(3, now_s=1.0)
        broken = ctl.block_onlined(3, now_s=1.0)
        # Group 2 is still offline but lost its sense-amp partner.
        assert broken == [2]
        assert not is_gated(ctl, 2)

    def test_roundtrip_can_regate(self):
        ctl = control()
        ctl.block_offlined(5)
        ctl.prepare_online(5, now_s=0.0)
        ctl.block_onlined(5, now_s=1.0)
        gated = ctl.block_offlined(5, now_s=2.0)
        assert gated == [5]


class TestPairRegating:
    """``block_onlined`` un-gating partner-broken groups, and the re-gate
    path once the pairing constraint is restored."""

    def test_partner_broken_group_stays_offline_but_ungated(self):
        ctl = control(pair_gating=True)
        ctl.block_offlined(2)
        ctl.block_offlined(3)
        ctl.prepare_online(3, now_s=1.0)
        broken = ctl.block_onlined(3, now_s=1.0)
        assert broken == [2]
        # Group 2 is *fully offline* but can no longer be held gated:
        # its capacity stays out of service yet draws background power.
        assert 2 in ctl.offline_blocks
        assert ctl.gated_capacity_fraction() == 0.0

    def test_reoffline_partner_regates_both(self):
        ctl = control(pair_gating=True)
        ctl.block_offlined(2)
        ctl.block_offlined(3)
        ctl.prepare_online(3, now_s=1.0)
        assert ctl.block_onlined(3, now_s=1.0) == [2]
        # Bringing the partner back offline restores the pairing
        # constraint: both groups gate again in one event.
        assert ctl.block_offlined(3, now_s=2.0) == [2, 3]
        assert is_gated(ctl, 2) and is_gated(ctl, 3)

    def test_partial_group_breaks_partner_gating(self):
        # 128 MiB blocks: group g covers blocks 8g..8g+7.  On-lining a
        # single block out of group 3 leaves group 2 fully offline but
        # partner-broken — both must wake.
        ctl = GreenDIMMPowerControl(PowerBlockMap(MAPPING, 128 * MIB),
                                    pair_gating=True)
        for block in range(16, 32):  # all of groups 2 and 3
            ctl.block_offlined(block)
        assert is_gated(ctl, 2) and is_gated(ctl, 3)
        # prepare_online already woke group 3 (the block's own group);
        # block_onlined then reports the *partner* group as broken.
        ctl.prepare_online(24, now_s=1.0)
        broken = ctl.block_onlined(24, now_s=1.0)
        assert broken == [2]
        assert not is_gated(ctl, 2)
        assert not is_gated(ctl, 3)
        # Group 2's eight blocks are all still offline.
        assert all(b in ctl.offline_blocks for b in range(16, 24))

    def test_regate_syncs_mode_registers(self):
        ctl = control(pair_gating=True)
        ctl.block_offlined(2)
        ctl.block_offlined(3)
        after_gate = ctl.mrs_time_ns
        ctl.prepare_online(3, now_s=1.0)
        ctl.block_onlined(3, now_s=1.0)
        after_break = ctl.mrs_time_ns
        # Un-gating the broken partner is an MRS broadcast too.
        assert after_break > after_gate
        ctl.block_offlined(3, now_s=2.0)
        assert ctl.mrs_time_ns > after_break

    def test_online_of_unpaired_block_breaks_nothing(self):
        ctl = control(pair_gating=True)
        ctl.block_offlined(2)  # partner 3 never offlined -> never gated
        assert ctl.block_onlined(2, now_s=1.0) == []
        assert not ctl.offline_blocks


class TestRepeatedEvents:
    """A repeated event must not count a block's coverage twice."""

    def test_second_offline_of_a_block_moves_nothing(self):
        # 128 MiB blocks: group 1 covers blocks 8..15.
        ctl = GreenDIMMPowerControl(PowerBlockMap(MAPPING, 128 * MIB),
                                    pair_gating=False)
        for block in range(8, 15):
            ctl.block_offlined(block)
        cover, raw = list(ctl._cover), ctl.register.raw_value()
        assert ctl.block_offlined(14) == []
        assert ctl._cover == cover and ctl.register.raw_value() == raw
        # Counted twice, block 14 would have filled group 1.
        assert ctl._eligible == 0

    def test_online_of_an_online_block_moves_nothing(self):
        ctl = control(pair_gating=True)
        ctl.block_offlined(2)
        ctl.block_offlined(3)
        cover, raw = list(ctl._cover), ctl.register.raw_value()
        assert ctl.block_onlined(7, now_s=1.0) == []
        assert ctl._cover == cover and ctl.register.raw_value() == raw
        assert is_gated(ctl, 2) and is_gated(ctl, 3)


class TestPendingGroups:
    """A group left waking stays eligible; any later offline event gates
    it once it is ready, not only an event of its own block."""

    def woken_but_offline(self):
        # Block 5 is un-gated for an on-lining that never completes:
        # group 5 is still fully offline, but wakes until 1 s + 18 ns.
        ctl = control()
        assert ctl.block_offlined(5) == [5]
        ctl.prepare_online(5, now_s=1.0)
        assert ctl.block_offlined(7, now_s=1.0) == [7]
        return ctl

    def test_next_offline_of_any_block_regates(self):
        ctl = self.woken_but_offline()
        assert ctl.block_offlined(9, now_s=2.0) == [5, 9]
        assert is_gated(ctl, 5)

    def test_restore_keeps_the_pending_group(self):
        ctl = self.woken_but_offline()
        twin = control()
        twin.load_state_dict(pickle.loads(pickle.dumps(ctl.state_dict())))
        assert twin._eligible == ctl._eligible == 1 << 5 | 1 << 7
        assert twin.block_offlined(9, now_s=2.0) \
            == ctl.block_offlined(9, now_s=2.0) == [5, 9]
        assert twin.register.raw_value() == ctl.register.raw_value()
        assert twin.mrs_time_ns == ctl.mrs_time_ns


class TestBlockIndexChecks:
    def test_out_of_range_block_changes_nothing(self):
        from repro.errors import AddressError

        ctl = control(pair_gating=True)
        ctl.block_offlined(2)
        state = pickle.dumps(ctl.state_dict())
        for block in (-1, ctl.block_map.num_blocks):
            with pytest.raises(AddressError):
                ctl.block_offlined(block)
            with pytest.raises(AddressError):
                ctl.prepare_online(block)
            assert ctl.block_onlined(block) == []
        assert pickle.dumps(ctl.state_dict()) == state
