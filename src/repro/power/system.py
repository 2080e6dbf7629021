"""Whole-server power model: CPU + DRAM + platform rest.

Calibrated so that the DRAM share matches the paper's system-level
results: reducing DRAM power 32% at 256GB moves system power ~9%, and
reducing it 36% at 1TB moves system power ~20% (Figure 13) — i.e. the
non-DRAM portion of a busy server is in the 70-90W range for the 16-core
Xeon platform of Section 3.2.

Also provides the paper's "simple linear model" (Section 6.3) for
extrapolating DRAM power to larger capacities from two measured points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CPUPowerModel:
    """Linear-in-utilization package power for the server CPU.

    Defaults approximate a 16-core Xeon: ~25W idle package power, ~65W at
    full load.
    """

    idle_w: float = 25.0
    peak_w: float = 65.0

    def __post_init__(self) -> None:
        if self.peak_w < self.idle_w:
            raise ConfigurationError("peak power below idle power")

    def power_w(self, utilization: float) -> float:
        """Package power at *utilization* in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("utilization must be in [0, 1]")
        return self.idle_w + (self.peak_w - self.idle_w) * utilization


@dataclass(frozen=True)
class SystemPowerModel:
    """Server power = CPU + DRAM + everything else (fans, storage, VRs)."""

    cpu: CPUPowerModel = CPUPowerModel()
    platform_rest_w: float = 20.0

    def power_w(self, cpu_utilization: float, dram_power_w: float) -> float:
        """Total wall power for the given CPU utilization and DRAM power."""
        if dram_power_w < 0:
            raise ConfigurationError("dram power must be non-negative")
        return self.cpu.power_w(cpu_utilization) + dram_power_w + self.platform_rest_w



@dataclass(frozen=True)
class LinearDRAMCapacityModel:
    """The paper's Section 6.3 linear extrapolation of DRAM power.

    Fit through two measured (capacity, power) points — the paper uses its
    64GB and 256GB measurements, yielding ~91W at 1TB.
    """

    slope_w_per_gib: float
    intercept_w: float

    @classmethod
    def fit(cls, capacity_a_gib: float, power_a_w: float,
            capacity_b_gib: float, power_b_w: float) -> "LinearDRAMCapacityModel":
        if capacity_a_gib == capacity_b_gib:
            raise ConfigurationError("need two distinct capacities to fit")
        slope = (power_b_w - power_a_w) / (capacity_b_gib - capacity_a_gib)
        intercept = power_a_w - slope * capacity_a_gib
        return cls(slope_w_per_gib=slope, intercept_w=intercept)

    def power_w(self, capacity_gib: float) -> float:
        """Extrapolated DRAM power at *capacity_gib*."""
        if capacity_gib <= 0:
            raise ConfigurationError("capacity must be positive")
        return self.intercept_w + self.slope_w_per_gib * capacity_gib
