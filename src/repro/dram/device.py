"""DRAM device geometry.

A *device* (chip) is the unit soldered on a DIMM.  The paper's running
example (Section 4.1, Figure 5) is a DDR4 x8 4Gb device: 16 banks, each
bank with 64 sub-arrays, each sub-array with 16 MATs of 512 rows x 512
columns.  The global row decoder consumes the top ``M`` row-address bits to
pick a sub-array; the local decoder consumes the rest to pick a row inside
it.  Those two decoders are exactly what makes a sub-array an addressable —
and therefore power-gateable — unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import is_power_of_two, log2_int


@dataclass(frozen=True)
class DRAMDeviceConfig:
    """Geometry of one DRAM device (chip).

    Parameters
    ----------
    density_bits:
        Total capacity of the device in bits (e.g. ``4 * 2**30`` for 4Gb).
    width:
        I/O width in bits: 4, 8, or 16 (x4 / x8 / x16 devices).
    banks:
        Number of banks per device (16 for DDR4).
    subarrays_per_bank:
        Number of sub-arrays a bank's global row decoder can select.
    mats_per_subarray:
        MATs per sub-array; a MAT is 512 rows x 512 columns of cells.
    rows_per_subarray:
        Rows selectable by the local row decoder inside one sub-array.
    """

    name: str
    density_bits: int
    width: int
    banks: int = 16
    subarrays_per_bank: int = 64
    mats_per_subarray: int = 16
    rows_per_subarray: int = 512

    def __post_init__(self) -> None:
        if self.width not in (4, 8, 16):
            raise ConfigurationError(f"unsupported device width x{self.width}")
        for attr in ("density_bits", "banks", "subarrays_per_bank",
                     "mats_per_subarray", "rows_per_subarray"):
            if not is_power_of_two(getattr(self, attr)):
                raise ConfigurationError(f"{attr} must be a power of two")
        if self.row_bits <= self.subarray_bits:
            raise ConfigurationError(
                "device has no local-row bits: too many sub-arrays per bank")

    # --- derived geometry ---------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        """Capacity of this single device in bytes."""
        return self.density_bits // 8

    @property
    def bank_bits_count(self) -> int:
        """Bits of a device address that select the bank."""
        return log2_int(self.banks)

    @property
    def rows_per_bank(self) -> int:
        """Rows in one bank (all sub-arrays)."""
        return self.subarrays_per_bank * self.rows_per_subarray

    @property
    def row_bits(self) -> int:
        """Width of the full row address (``N`` in the paper)."""
        return log2_int(self.rows_per_bank)

    @property
    def subarray_bits(self) -> int:
        """Top row-address bits consumed by the global decoder (``M``)."""
        return log2_int(self.subarrays_per_bank)

    @property
    def local_row_bits(self) -> int:
        """Row-address bits consumed by the local decoder inside a sub-array."""
        return self.row_bits - self.subarray_bits

    @property
    def row_size_bits(self) -> int:
        """Bits stored in one row of this device (the device's page size)."""
        return self.density_bits // (self.banks * self.rows_per_bank)


#: DDR4 x8 4Gb device — the paper's Figure 5 example and the device used in
#: the 8GB DIMMs of the SPEC evaluation platform (Section 6.1).
DDR4_4GB_X8 = DRAMDeviceConfig(name="DDR4-4Gb-x8", density_bits=4 * (1 << 30), width=8)

#: DDR4 x4 8Gb device — used in the 32GB DIMMs of the Azure-trace platform.
DDR4_8GB_X4 = DRAMDeviceConfig(name="DDR4-8Gb-x4", density_bits=8 * (1 << 30), width=4)

#: DDR4 x8 8Gb device — used for large-capacity scaling studies.
DDR4_8GB_X8 = DRAMDeviceConfig(name="DDR4-8Gb-x8", density_bits=8 * (1 << 30), width=8)
