"""System (CPU + DRAM + platform) power model."""

import pytest

from repro.errors import ConfigurationError
from repro.power.cacti import estimate_gating_cost
from repro.power.system import CPUPowerModel, SystemPowerModel
from repro.dram.device import DDR4_4GB_X8, DDR4_8GB_X8


class TestCPUPower:
    def test_idle_and_peak(self):
        cpu = CPUPowerModel()
        assert cpu.power_w(0.0) == cpu.idle_w
        assert cpu.power_w(1.0) == cpu.peak_w

    def test_linear_midpoint(self):
        cpu = CPUPowerModel(idle_w=20.0, peak_w=60.0)
        assert cpu.power_w(0.5) == pytest.approx(40.0)

    def test_rejects_bad_utilization(self):
        with pytest.raises(ConfigurationError):
            CPUPowerModel().power_w(1.2)

    def test_rejects_peak_below_idle(self):
        with pytest.raises(ConfigurationError):
            CPUPowerModel(idle_w=50.0, peak_w=30.0)


class TestSystemPower:
    def test_composition(self):
        system = SystemPowerModel()
        expected = system.cpu.power_w(0.9) + 26.0 + system.platform_rest_w
        assert system.power_w(0.9, 26.0) == pytest.approx(expected)

    def test_rejects_negative_dram(self):
        with pytest.raises(ConfigurationError):
            SystemPowerModel().power_w(0.5, -1.0)

    def test_paper_system_shares(self):
        """Figure 13 consistency: a 32% DRAM cut at 256GB moves system
        power ~9%; a 36% cut at 1TB moves it ~20%."""
        system = SystemPowerModel()
        at_256 = system.power_w(0.9, 26.0)
        saved_256 = 0.32 * 26.0 / at_256
        assert saved_256 == pytest.approx(0.09, abs=0.03)
        at_1tb = system.power_w(0.9, 91.0)
        saved_1tb = 0.36 * 91.0 / at_1tb
        assert saved_1tb == pytest.approx(0.20, abs=0.04)


class TestCactiLite:
    def test_switch_area_fraction_near_paper(self):
        # Paper: 1500 um^2 per sub-array, 0.64% of the 8Gb die.
        cost = estimate_gating_cost(DDR4_8GB_X8)
        assert cost.switch_area_fraction == pytest.approx(0.0064, rel=0.05)

    def test_total_overhead_below_1pct(self):
        cost = estimate_gating_cost(DDR4_8GB_X8)
        gating_area = cost.switch_area_um2 + cost.control_area_um2
        assert gating_area / cost.die_area_um2 < 0.01

    def test_smaller_die_same_ballpark(self):
        cost = estimate_gating_cost(DDR4_4GB_X8)
        assert 0.004 < cost.switch_area_fraction < 0.02
        assert cost.num_subarrays == 1024

    def test_per_subarray_area_matches_constant(self):
        from repro.power.cacti import SWITCH_AREA_UM2_PER_SUBARRAY
        cost = estimate_gating_cost(DDR4_8GB_X8)
        assert cost.switch_area_um2 == pytest.approx(
            cost.num_subarrays * SWITCH_AREA_UM2_PER_SUBARRAY)
