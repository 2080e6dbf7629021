"""DRAM device geometry (the paper's Figure 5 example)."""

import pytest

from repro.dram.device import (
    DDR4_4GB_X8,
    DDR4_8GB_X4,
    DDR4_8GB_X8,
    DRAMDeviceConfig,
)
from repro.errors import ConfigurationError


class TestFigure5Device:
    """The DDR4 x8 4Gb device of Section 4.1 / Figure 5."""

    def test_row_bits_is_15(self):
        assert DDR4_4GB_X8.row_bits == 15

    def test_subarray_bits_is_6(self):
        assert DDR4_4GB_X8.subarray_bits == 6

    def test_local_row_bits_is_9(self):
        # 512 rows per sub-array -> 9 local bits.
        assert DDR4_4GB_X8.local_row_bits == 9
        assert DDR4_4GB_X8.rows_per_subarray == 512

    def test_64_subarrays_per_bank(self):
        assert DDR4_4GB_X8.subarrays_per_bank == 64

    def test_subarray_is_4mb(self):
        assert (DDR4_4GB_X8.row_size_bits * DDR4_4GB_X8.rows_per_subarray
                == 4 * (1 << 20))

    def test_16_banks(self):
        assert DDR4_4GB_X8.banks == 16

    def test_capacity_is_512mb(self):
        assert DDR4_4GB_X8.capacity_bytes == 512 * (1 << 20)

    def test_row_size_is_8kb(self):
        assert DDR4_4GB_X8.row_size_bits == 8192

    def test_mats_per_subarray(self):
        assert DDR4_4GB_X8.mats_per_subarray == 16


class TestOtherDevices:
    def test_8gb_x4_capacity(self):
        assert DDR4_8GB_X4.capacity_bytes == 1 << 30
        assert DDR4_8GB_X4.width == 4

    def test_8gb_x8_capacity(self):
        assert DDR4_8GB_X8.capacity_bytes == 1 << 30
        assert DDR4_8GB_X8.width == 8

    def test_rows_per_bank_consistency(self):
        for device in (DDR4_4GB_X8, DDR4_8GB_X4, DDR4_8GB_X8):
            assert (device.rows_per_bank
                    == device.subarrays_per_bank * device.rows_per_subarray)

    def test_capacity_decomposition(self):
        for device in (DDR4_4GB_X8, DDR4_8GB_X4, DDR4_8GB_X8):
            total_bits = (device.banks * device.rows_per_bank
                          * device.row_size_bits)
            assert total_bits == device.density_bits


class TestValidation:
    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            DRAMDeviceConfig(name="bad", density_bits=1 << 32, width=5)

    def test_rejects_non_power_of_two_banks(self):
        with pytest.raises(ConfigurationError):
            DRAMDeviceConfig(name="bad", density_bits=1 << 32, width=8, banks=12)

    def test_rejects_all_subarray_rows(self):
        # One-row sub-arrays: the global decoder consumes every row bit,
        # leaving nothing for the local decoder.
        with pytest.raises(ConfigurationError):
            DRAMDeviceConfig(name="bad", density_bits=1 << 32, width=8,
                             subarrays_per_bank=64, rows_per_subarray=1)

    def test_frozen(self):
        with pytest.raises(Exception):
            DDR4_4GB_X8.width = 4  # type: ignore[misc]
