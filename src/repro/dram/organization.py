"""Main-memory topology: channels, DIMMs, ranks, and derived totals.

Mirrors the two evaluation platforms of Section 6.1:

* ``spec_server_memory()`` — 64GB: four channels, each with two DIMM slots,
  holding eight 4Gb 2R x8 DDR4-2133 8GB DIMMs (16 ranks total).
* ``azure_server_memory()`` — 256GB: eight 8Gb 2R x4 DDR4-2133 32GB DIMMs.

The topology object is pure geometry; power and timing live in
``repro.power`` and ``repro.dram.timing``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.device import (
    DDR4_4GB_X8,
    DDR4_8GB_X4,
    DDR4_8GB_X8,
    DRAMDeviceConfig,
)
from repro.errors import ConfigurationError
from repro.units import GIB, is_power_of_two


@dataclass(frozen=True)
class MemoryOrganization:
    """Topology of the server's main memory.

    A rank always presents a 64-bit data path, so it holds ``64 / width``
    devices (ECC devices are ignored: they track the data devices' power
    states and scale power multiplicatively if desired).
    """

    device: DRAMDeviceConfig
    channels: int = 4
    dimms_per_channel: int = 2
    ranks_per_dimm: int = 2

    def __post_init__(self) -> None:
        for attr in ("channels", "dimms_per_channel", "ranks_per_dimm"):
            if not is_power_of_two(getattr(self, attr)):
                raise ConfigurationError(f"{attr} must be a power of two")

    # --- counts ---------------------------------------------------------

    @property
    def devices_per_rank(self) -> int:
        """Data devices per rank (64-bit bus / device width)."""
        return 64 // self.device.width

    @property
    def ranks_per_channel(self) -> int:
        return self.dimms_per_channel * self.ranks_per_dimm

    @property
    def total_dimms(self) -> int:
        return self.channels * self.dimms_per_channel

    @property
    def total_ranks(self) -> int:
        return self.channels * self.ranks_per_channel

    @property
    def total_banks(self) -> int:
        """Logical banks visible to the memory controllers (per-rank x ranks)."""
        return self.total_ranks * self.device.banks

    # --- capacities -----------------------------------------------------

    @property
    def rank_capacity_bytes(self) -> int:
        return self.device.capacity_bytes * self.devices_per_rank

    @property
    def dimm_capacity_bytes(self) -> int:
        return self.rank_capacity_bytes * self.ranks_per_dimm

    @property
    def total_capacity_bytes(self) -> int:
        return self.dimm_capacity_bytes * self.total_dimms

    @property
    def logical_bank_capacity_bytes(self) -> int:
        """Capacity of one logical bank: the lock-stepped physical banks."""
        return self.rank_capacity_bytes // self.device.banks

    @property
    def min_power_unit_bytes(self) -> int:
        """Capacity of the minimum power-management unit (Section 4.1).

        One sub-array group: the sub-arrays with the same sub-array index
        across every channel, rank, and bank.  Always ``1 /
        subarrays_per_bank`` of the total capacity (1.5625% for 64
        sub-arrays), independent of channel/rank counts.
        """
        return self.total_capacity_bytes // self.device.subarrays_per_bank

    @property
    def num_subarray_groups(self) -> int:
        """Number of minimum power units — always ``subarrays_per_bank``."""
        return self.device.subarrays_per_bank

    def describe(self) -> str:
        """One-line human summary, e.g. for experiment logs."""
        return (
            f"{self.total_capacity_bytes // GIB}GB: {self.channels}ch x "
            f"{self.dimms_per_channel}dimm x {self.ranks_per_dimm}rank "
            f"({self.device.name}, {self.devices_per_rank} devices/rank)"
        )


def spec_server_memory() -> MemoryOrganization:
    """The 64GB SPEC/data-center platform of Section 6.1."""
    return MemoryOrganization(device=DDR4_4GB_X8, channels=4,
                              dimms_per_channel=2, ranks_per_dimm=2)


def azure_server_memory() -> MemoryOrganization:
    """The 256GB Azure-VM-trace platform of Section 6.1."""
    return MemoryOrganization(device=DDR4_8GB_X4, channels=4,
                              dimms_per_channel=2, ranks_per_dimm=2)


def scaled_server_memory(capacity_gib: int) -> MemoryOrganization:
    """A platform scaled to *capacity_gib* for the Figure 13 capacity sweep.

    Uses 8Gb x8 devices (8GB ranks) and grows DIMM count with capacity,
    mirroring the paper's linear extrapolation from the 256GB measurement.
    """
    if capacity_gib % 64:
        raise ConfigurationError("capacity must be a multiple of 64 GiB")
    base = MemoryOrganization(device=DDR4_8GB_X8, channels=4,
                              dimms_per_channel=1, ranks_per_dimm=2)
    per_base = base.total_capacity_bytes // GIB  # 64 GiB
    factor = capacity_gib // per_base
    if not is_power_of_two(factor):
        raise ConfigurationError("capacity / 64 GiB must be a power of two")
    # Grow DIMMs per channel first (up to 4 slots), then ranks per DIMM.
    dimms, ranks = 1, 2
    while factor > 1:
        if dimms < 4:
            dimms *= 2
        else:
            ranks *= 2
        factor //= 2
    return MemoryOrganization(device=DDR4_8GB_X8, channels=4,
                              dimms_per_channel=dimms, ranks_per_dimm=ranks)
