"""DRAM power model: structure and invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.organization import (
    azure_server_memory,
    spec_server_memory,
)
from repro.errors import ConfigurationError
from repro.power.idd import AccessEnergies, IDDValues
from repro.power.model import (
    DRAMPowerBreakdown,
    DRAMPowerModel,
    RankPowerProfile,
    uniform_profile,
)
from repro.power.states import PowerState
from repro.sim.fleet import fleet_server_memory

ORG = spec_server_memory()
MODEL = DRAMPowerModel(ORG)


class TestBreakdown:
    def test_total_is_sum(self):
        b = DRAMPowerBreakdown(1.0, 2.0, 3.0, 4.0, 5.0)
        assert b.total_w == 15.0
        assert b.static_w == 3.0

    def test_background_fraction(self):
        b = DRAMPowerBreakdown(6.0, 4.0, 0.0, 0.0, 10.0)
        assert b.background_fraction == pytest.approx(0.5)

    def test_add_and_scale(self):
        b = DRAMPowerBreakdown(1.0, 1.0, 1.0, 1.0, 1.0)
        assert (b + b).total_w == 10.0
        assert b.scaled(2.0).refresh_w == 2.0


class TestProfiles:
    def test_residency_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            RankPowerProfile(state_residency={PowerState.PRECHARGE_STANDBY: 0.5})

    def test_dpd_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            RankPowerProfile(dpd_fraction=1.5)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            RankPowerProfile(bandwidth_bytes_per_s=-1.0)

    def test_uniform_profile_covers_all_ranks(self):
        profiles = uniform_profile(ORG, 16e9)
        assert len(profiles) == ORG.total_ranks
        assert profiles[0].bandwidth_bytes_per_s == pytest.approx(1e9)


class TestStateOrdering:
    """Deeper states must draw strictly less background power."""

    def test_background_power_monotonic(self):
        dev = MODEL.device_model
        act = dev.background_power_w(PowerState.ACTIVE_STANDBY)
        pre = dev.background_power_w(PowerState.PRECHARGE_STANDBY)
        pd = dev.background_power_w(PowerState.POWER_DOWN)
        sr = dev.background_power_w(PowerState.SELF_REFRESH)
        dpd = dev.background_power_w(PowerState.DEEP_POWER_DOWN)
        assert act >= pre > pd > sr > dpd

    def test_powerdown_in_paper_band(self):
        # Section 2.2: power-down consumes 40-70% of the standby power.
        dev = MODEL.device_model
        ratio = (dev.background_power_w(PowerState.POWER_DOWN)
                 / dev.background_power_w(PowerState.PRECHARGE_STANDBY))
        assert 0.3 <= ratio <= 0.7

    def test_selfrefresh_near_10_percent(self):
        # Section 2.2: self-refresh goes down to ~10% of active power.
        dev = MODEL.device_model
        ratio = (dev.background_power_w(PowerState.SELF_REFRESH)
                 / dev.background_power_w(PowerState.ACTIVE_STANDBY))
        assert ratio <= 0.2

    def test_no_refresh_power_in_self_or_deep_states(self):
        dev = MODEL.device_model
        assert dev.refresh_power_w(PowerState.SELF_REFRESH) == 0.0
        assert dev.refresh_power_w(PowerState.DEEP_POWER_DOWN) == 0.0
        assert dev.refresh_power_w(PowerState.PRECHARGE_STANDBY) > 0.0


class TestStaticPowerTable:
    """The per-state table is the sum it replaces, to the last bit."""

    # The spec box, the 16 GiB tournament box, and the 8 Gb-device box
    # (which also selects the 8 Gb timing's longer refresh).
    @pytest.mark.parametrize("organization", [
        spec_server_memory, fleet_server_memory, azure_server_memory])
    def test_table_is_background_plus_refresh(self, organization):
        dev = DRAMPowerModel(organization()).device_model
        for state in PowerState:
            summed = dev.background_power_w(state) + dev.refresh_power_w(state)
            assert dev.static_power_w[state].hex() == summed.hex()


class TestDPDAccounting:
    def test_full_gating_leaves_small_residual(self):
        gated = MODEL.idle_power(dpd_fraction=1.0)
        idle = MODEL.idle_power(dpd_fraction=0.0)
        assert gated.static_w < 0.08 * idle.static_w

    def test_gating_is_roughly_proportional(self):
        idle = MODEL.idle_power(dpd_fraction=0.0).static_w
        half = MODEL.idle_power(dpd_fraction=0.5).static_w
        assert half == pytest.approx(idle * 0.525, rel=0.05)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_gating_monotonic(self, fraction):
        some = MODEL.idle_power(dpd_fraction=fraction).total_w
        none = MODEL.idle_power(dpd_fraction=0.0).total_w
        assert some <= none + 1e-9

    def test_dynamic_power_unaffected_by_gating(self):
        busy = MODEL.busy_power(10e9, dpd_fraction=0.0)
        gated = MODEL.busy_power(10e9, dpd_fraction=0.5)
        assert gated.rw_w == pytest.approx(busy.rw_w)
        assert gated.io_w == pytest.approx(busy.io_w)
        assert gated.activate_w == pytest.approx(busy.activate_w)


class TestDynamicPower:
    def test_scales_with_bandwidth(self):
        low = MODEL.busy_power(5e9)
        high = MODEL.busy_power(20e9)
        assert high.rw_w == pytest.approx(4 * low.rw_w)

    def test_row_misses_cost_activates(self):
        hits = MODEL.busy_power(10e9, row_miss_rate=0.1)
        misses = MODEL.busy_power(10e9, row_miss_rate=0.9)
        assert misses.activate_w > 5 * hits.activate_w

    def test_power_requires_profile_per_rank(self):
        with pytest.raises(ConfigurationError):
            MODEL.power([RankPowerProfile()])


class TestIDDValidation:
    def test_rejects_inverted_standby_currents(self):
        with pytest.raises(ConfigurationError):
            IDDValues(vdd=1.2, idd0=0.05, idd2n=0.01, idd2p=0.02,
                      idd3n=0.03, idd4r=0.1, idd4w=0.1, idd5b=0.2,
                      idd6=0.003)

    def test_rejects_hot_selfrefresh(self):
        with pytest.raises(ConfigurationError):
            IDDValues(vdd=1.2, idd0=0.05, idd2n=0.02, idd2p=0.01,
                      idd3n=0.03, idd4r=0.1, idd4w=0.1, idd5b=0.2,
                      idd6=0.5)

    def test_access_energy_monotone_in_miss_rate(self):
        energies = AccessEnergies(act_j=1e-9, rw_j=1e-9, io_j=1e-9)
        assert (energies.energy_per_access_j(1.0)
                > energies.energy_per_access_j(0.0))

    def test_access_energy_rejects_bad_rate(self):
        energies = AccessEnergies(act_j=1e-9, rw_j=1e-9, io_j=1e-9)
        with pytest.raises(ConfigurationError):
            energies.energy_per_access_j(1.5)
