"""DRAM and system power models.

The models follow the JEDEC/Micron IDD structure: background power is set
by the rank's power state, refresh power by the tRFC/tREFI duty cycle, and
dynamic power by activation and read/write rates.  Constants are calibrated
against the paper's own measurements (Figure 2, Table 1): ~18W idle / ~26W
busy at 256GB, ~9W busy at 64GB, ~91W busy at 1TB, with the background
fraction growing from ~44% to ~78% across that range.
"""

from repro.power.states import PowerState, exit_latency_ns, is_low_power
from repro.power.idd import IDDValues, AccessEnergies, device_power_table
from repro.power.model import (
    DevicePowerModel,
    DRAMPowerModel,
    DRAMPowerBreakdown,
    RankPowerProfile,
    uniform_profile,
)
from repro.power.system import SystemPowerModel, CPUPowerModel
from repro.power.cacti import SubarrayGatingCost, estimate_gating_cost

__all__ = [
    "PowerState",
    "exit_latency_ns",
    "is_low_power",
    "IDDValues",
    "AccessEnergies",
    "device_power_table",
    "DevicePowerModel",
    "DRAMPowerModel",
    "DRAMPowerBreakdown",
    "RankPowerProfile",
    "uniform_profile",
    "SystemPowerModel",
    "CPUPowerModel",
    "SubarrayGatingCost",
    "estimate_gating_cost",
]
