"""Closed-form estimates of the rank-level comparison policies
(srf-only, RAMZzz, PASR): each policy class's ``estimate``."""

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.device import DDR4_4GB_X8
from repro.dram.organization import MemoryOrganization, spec_server_memory
from repro.policies.calibration import (
    ESTIMATE_KERNEL_BYTES,
    idle_bank_fraction,
    resident_ranks,
)
from repro.policies.pasr import PASR_BANK_SAVING, PASRKernelPolicy
from repro.policies.ramzzz import RAMZzzKernelPolicy
from repro.policies.srf import SelfRefreshTimeoutPolicy
from repro.power.model import DRAMPowerModel
from repro.power.states import PowerState
from repro.units import GIB, MIB
from repro.workloads import profile_by_name

ORG = spec_server_memory()
MODEL = DRAMPowerModel(ORG)
MCF = profile_by_name("429.mcf")
GCC = profile_by_name("403.gcc")


def policy_power(policy, profile, interleaved, n_copies=8):
    ranks = policy.estimate(profile, ORG, interleaved, n_copies)
    return MODEL.power(ranks).total_w, ranks


class TestResidentRanks:
    def test_interleaved_footprint_everywhere(self):
        _power, ranks = policy_power(SelfRefreshTimeoutPolicy, GCC, True,
                                     n_copies=1)
        assert len(ranks) == ORG.total_ranks
        assert all(rank.bandwidth_bytes_per_s > 0 for rank in ranks)

    def test_non_interleaved_minimal(self):
        # 1GB + 2GB kernel -> one 4GB rank.
        assert resident_ranks(GIB + ESTIMATE_KERNEL_BYTES, ORG) == 1

    def test_large_footprint_spans_ranks(self):
        assert resident_ranks(30 * GIB + ESTIMATE_KERNEL_BYTES, ORG) == 8

    def test_capped_at_total(self):
        assert resident_ranks(10_000 * GIB + ESTIMATE_KERNEL_BYTES,
                              ORG) == ORG.total_ranks


class TestSelfRefreshOnly:
    def test_interleaved_no_rank_sleeps(self):
        _power, ranks = policy_power(SelfRefreshTimeoutPolicy, MCF, True)
        for rank in ranks:
            assert PowerState.SELF_REFRESH not in rank.state_residency

    def test_non_interleaved_idle_ranks_sleep(self):
        _power, ranks = policy_power(SelfRefreshTimeoutPolicy, MCF, False)
        sleeping = sum(
            1 for rank in ranks
            if rank.state_residency.get(PowerState.SELF_REFRESH, 0) > 0.5)
        assert sleeping >= 8

    def test_power_lower_without_interleaving(self):
        with_intlv, _ = policy_power(SelfRefreshTimeoutPolicy, MCF, True)
        without, _ = policy_power(SelfRefreshTimeoutPolicy, MCF, False)
        assert without < with_intlv


class TestRAMZzz:
    def test_no_benefit_with_interleaving(self):
        ramzzz, _ = policy_power(RAMZzzKernelPolicy, MCF, True)
        srf, _ = policy_power(SelfRefreshTimeoutPolicy, MCF, True)
        assert ramzzz >= srf * 0.98  # monitoring gains nothing

    def test_beats_srf_without_interleaving(self):
        ramzzz, _ = policy_power(RAMZzzKernelPolicy, GCC, False)
        srf, _ = policy_power(SelfRefreshTimeoutPolicy, GCC, False)
        assert ramzzz < srf

    def test_carries_runtime_overhead(self):
        assert RAMZzzKernelPolicy.RUNTIME_OVERHEAD > 0.0
        assert SelfRefreshTimeoutPolicy.RUNTIME_OVERHEAD == 0.0
        org = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                 dimms_per_channel=1, ranks_per_dimm=2)
        system = GreenDIMMSystem(organization=org,
                                 config=GreenDIMMConfig(block_bytes=64 * MIB),
                                 kernel_boot_bytes=256 * MIB,
                                 policy="ramzzz", seed=3)
        assert (system.policy.runtime_overhead_fraction()
                == RAMZzzKernelPolicy.RUNTIME_OVERHEAD)


class TestPASR:
    def test_no_idle_banks_with_interleaving(self):
        _power, ranks = policy_power(PASRKernelPolicy, MCF, True)
        assert all(rank.dpd_fraction == 0.0 for rank in ranks)

    def test_refresh_savings_without_interleaving(self):
        pasr, _ = policy_power(PASRKernelPolicy, MCF, False)
        srf, _ = policy_power(SelfRefreshTimeoutPolicy, MCF, False)
        assert pasr < srf

    def test_idle_bank_fraction_shrinks_with_footprint(self):
        _p1, small = policy_power(PASRKernelPolicy, GCC, False, n_copies=1)
        _p2, big = policy_power(PASRKernelPolicy, MCF, False, n_copies=16)
        assert small[0].dpd_fraction > big[0].dpd_fraction
        for ranks, profile, n_copies in ((small, GCC, 1), (big, MCF, 16)):
            expected = PASR_BANK_SAVING * idle_bank_fraction(
                profile.peak_footprint_bytes * n_copies, ORG)
            assert all(rank.dpd_fraction == expected for rank in ranks)
