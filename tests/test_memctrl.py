"""Memory-controller components: bank FSM, low-power policy, registers."""

import pickle

import pytest

from repro.dram.organization import spec_server_memory
from repro.dram.timing import DDR4_2133
from repro.errors import ConfigurationError, PowerStateError
from repro.memctrl.bankstate import BankState
from repro.memctrl.lowpower import LowPowerConfig, RankLowPowerPolicy
from repro.memctrl.pasr import PASRBitVector
from repro.memctrl.registers import GreenDIMMControlRegister
from repro.memctrl.request import AccessType, MemoryRequest
from repro.power.states import PowerState
from tests.conftest import gated_groups

ORG = spec_server_memory()


class TestBankState:
    def test_first_access_is_a_miss(self):
        bank = BankState()
        finish = bank.access(row=5, now_ns=0.0, timing=DDR4_2133)
        assert bank.row_misses == 1 and bank.row_hits == 0
        assert finish == pytest.approx(DDR4_2133.trcd_ns + DDR4_2133.cl_ns
                                       + DDR4_2133.burst_duration_ns)

    def test_second_access_same_row_hits(self):
        bank = BankState()
        first = bank.access(5, 0.0, DDR4_2133)
        second = bank.access(5, first, DDR4_2133)
        assert bank.row_hits == 1
        assert second - first <= DDR4_2133.cl_ns + DDR4_2133.burst_duration_ns + 1

    def test_conflict_pays_precharge(self):
        bank = BankState()
        t1 = bank.access(5, 0.0, DDR4_2133)
        t2 = bank.access(9, t1, DDR4_2133)
        hit_time = DDR4_2133.cl_ns + DDR4_2133.burst_duration_ns
        assert t2 - t1 > hit_time + DDR4_2133.trp_ns - 1

    def test_precharge_closes_row(self):
        bank = BankState()
        bank.access(5, 0.0, DDR4_2133)
        bank.precharge()
        assert bank.open_row is None

    def test_row_hit_rate(self):
        bank = BankState()
        t = 0.0
        for _ in range(4):
            t = bank.access(7, t, DDR4_2133)
        assert bank.row_hit_rate == pytest.approx(0.75)


class TestLowPowerPolicy:
    def test_fresh_rank_in_standby(self):
        policy = RankLowPowerPolicy(LowPowerConfig())
        assert policy.state_at(0.0) is PowerState.PRECHARGE_STANDBY

    def test_demotion_ladder(self):
        config = LowPowerConfig(powerdown_idle_ns=100, selfrefresh_idle_ns=1000)
        policy = RankLowPowerPolicy(config)
        assert policy.state_at(50) is PowerState.PRECHARGE_STANDBY
        assert policy.state_at(500) is PowerState.POWER_DOWN
        assert policy.state_at(5000) is PowerState.SELF_REFRESH

    def test_disabled_policy_never_sleeps(self):
        policy = RankLowPowerPolicy(LowPowerConfig(enabled=False))
        assert policy.state_at(1e12) is PowerState.PRECHARGE_STANDBY
        assert policy.wake_penalty_ns(1e12) == 0.0

    def test_wake_penalty_matches_state(self):
        config = LowPowerConfig(powerdown_idle_ns=100, selfrefresh_idle_ns=1000)
        policy = RankLowPowerPolicy(config)
        assert policy.wake_penalty_ns(500) == 18.0
        assert policy.wake_penalty_ns(2000) == 768.0

    def test_residency_accounting_splits_states(self):
        config = LowPowerConfig(powerdown_idle_ns=100, selfrefresh_idle_ns=1000)
        policy = RankLowPowerPolicy(config)
        policy.account_until(2000.0)
        res = policy.residency
        assert res.time_ns[PowerState.PRECHARGE_STANDBY] == pytest.approx(100)
        assert res.time_ns[PowerState.POWER_DOWN] == pytest.approx(900)
        assert res.time_ns[PowerState.SELF_REFRESH] == pytest.approx(1000)
        assert res.total_ns == pytest.approx(2000)

    def test_activity_resets_idleness(self):
        config = LowPowerConfig(powerdown_idle_ns=100, selfrefresh_idle_ns=1000)
        policy = RankLowPowerPolicy(config)
        policy.note_activity(5000.0)
        assert policy.state_at(5050.0) is PowerState.PRECHARGE_STANDBY

    def test_busy_time_counts_as_active(self):
        policy = RankLowPowerPolicy(LowPowerConfig())
        policy.note_activity(100.0, busy_from_ns=40.0)
        policy.account_until(200.0)
        active = policy.residency.time_ns[PowerState.ACTIVE_STANDBY]
        assert active == pytest.approx(60.0)

    def test_residency_map_normalizes(self):
        policy = RankLowPowerPolicy(LowPowerConfig())
        policy.account_until(1000.0)
        total = sum(policy.residency.residency_map().values())
        assert total == pytest.approx(1.0)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            LowPowerConfig(powerdown_idle_ns=1000, selfrefresh_idle_ns=100)


class TestPASRBitVector:
    def test_paper_register_size(self):
        # 16 bits per rank, 128 bits for 4 channels x 2 ranks.
        from repro.dram.organization import MemoryOrganization
        from repro.dram.device import DDR4_4GB_X8
        org = MemoryOrganization(device=DDR4_4GB_X8, channels=4,
                                 dimms_per_channel=1, ranks_per_dimm=2)
        assert PASRBitVector(org).register_bits == 128

    def test_spec_platform_needs_256_bits(self):
        assert PASRBitVector(ORG).register_bits == 256

    def test_mask_operations(self):
        vec = PASRBitVector(ORG)
        vec.disable_refresh(3, 7)
        assert vec.refreshing_fraction() == 1.0 - 1 / vec.register_bits
        vec.disable_refresh(3, 7)  # clearing a clear bit changes nothing
        assert vec.refreshing_fraction() == 1.0 - 1 / vec.register_bits

    def test_refreshing_fraction(self):
        vec = PASRBitVector(ORG)
        assert vec.refreshing_fraction() == 1.0
        for bank in range(16):
            vec.disable_refresh(0, bank)
        assert vec.refreshing_fraction() == pytest.approx(15 / 16)

    def test_bounds_checked(self):
        vec = PASRBitVector(ORG)
        with pytest.raises(ConfigurationError):
            vec.disable_refresh(99, 0)
        with pytest.raises(ConfigurationError):
            vec.disable_refresh(0, 99)


class TestGreenDIMMRegister:
    def test_64_bits_regardless_of_topology(self):
        # The paper's headline contrast with PASR's 128+ bits.
        assert GreenDIMMControlRegister().register_bits == 64

    def test_gate_ungate_cycle(self):
        reg = GreenDIMMControlRegister()
        reg.gate_groups(1 << 5)
        assert gated_groups(reg) == [5]
        assert reg.ready_groups(1 << 5, 0.0) == 0
        ready_at = reg.ungate_groups(1 << 5, now_ns=100.0)
        assert ready_at == pytest.approx(118.0)  # 18ns wake
        assert reg.ready_groups(1 << 5, 110.0) == 0
        assert reg.ready_groups(1 << 5, 120.0) == 1 << 5

    def test_cannot_gate_mid_wakeup(self):
        reg = GreenDIMMControlRegister()
        reg.gate_groups(1 << 5)
        reg.ungate_groups(1 << 5, 0.0)
        with pytest.raises(PowerStateError, match="group 5 is mid-wake-up"):
            reg.gate_groups(1 << 4 | 1 << 5)
        assert reg.raw_value() == 0

    def test_regate_after_wake_completes(self):
        reg = GreenDIMMControlRegister()
        reg.gate_groups(1 << 5)
        reg.ungate_groups(1 << 5, 0.0)
        # The poll consumes the finished wake-up, so the gate is legal.
        assert reg.ready_groups(1 << 5, 1000.0) == 1 << 5
        assert reg._wake_ready_at_ns == {}
        reg.gate_groups(1 << 5)
        assert gated_groups(reg) == [5]

    def test_ready_groups_splits_a_mask(self):
        reg = GreenDIMMControlRegister()
        reg.gate_groups(0b1111)
        reg.ungate_groups(0b0011, 0.0)
        reg.ungate_groups(0b0100, 100.0)
        # Group 3 is gated, group 2 still wakes, 0 and 1 are ready and
        # group 4 never slept.
        assert reg.ready_groups(0b11111, 50.0) == 0b10011
        assert reg._wake_ready_at_ns == {2: 118.0}

    def test_ungate_of_ungated_rejected(self):
        reg = GreenDIMMControlRegister()
        reg.gate_groups(1 << 1)
        with pytest.raises(PowerStateError, match="group 0 is not gated"):
            reg.ungate_groups(0b11, 0.0)
        assert reg.raw_value() == 1 << 1 and reg._wake_ready_at_ns == {}

    def test_out_of_range_groups_rejected(self):
        reg = GreenDIMMControlRegister()
        for call in (lambda: reg.gate_groups(1 << 64 | 1),
                     lambda: reg.ungate_groups(1 << 70, 0.0),
                     lambda: reg.ready_groups(1 << 64, 0.0)):
            with pytest.raises(ConfigurationError, match="out of range"):
                call()
        with pytest.raises(ConfigurationError):
            reg.gate_groups(-1)
        assert reg.raw_value() == 0

    def test_gated_fraction_and_raw(self):
        reg = GreenDIMMControlRegister()
        reg.gate_groups(1 | 2 | (1 << 63))
        assert reg.gated_count == 3
        assert reg.gated_fraction() == pytest.approx(3 / 64)
        assert reg.raw_value() == (1 | 2 | (1 << 63))
        assert gated_groups(reg) == [0, 1, 63]

    def test_restore_rebuilds_the_waking_mask(self):
        reg = GreenDIMMControlRegister()
        reg.gate_groups(0b110)
        reg.ungate_groups(0b100, 0.0)
        twin = GreenDIMMControlRegister()
        twin.load_state_dict(pickle.loads(pickle.dumps(reg.state_dict())))
        with pytest.raises(PowerStateError, match="group 2 is mid-wake-up"):
            twin.gate_groups(0b100)
        assert twin.ready_groups(0b110, 18.0) == 0b100


class TestMemoryRequest:
    def test_latency_derived(self):
        req = MemoryRequest(address=0, arrival_ns=10.0)
        req.finish_ns = 60.0
        assert req.latency_ns == 50.0

    def test_write_flag(self):
        assert MemoryRequest(0, AccessType.WRITE).is_write
        assert not MemoryRequest(0).is_write
