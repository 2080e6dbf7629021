"""Memory topology checks against the paper's two platforms."""

import pytest

from repro.dram.device import DDR4_4GB_X8
from repro.dram.organization import (
    MemoryOrganization,
    scaled_server_memory,
)
from repro.errors import ConfigurationError
from repro.units import GIB, MIB


class TestSpecPlatform:
    """Eight 4Gb 2R x8 8GB DIMMs over four channels (Section 6.1)."""

    def test_total_capacity_is_64gb(self, spec_org):
        assert spec_org.total_capacity_bytes == 64 * GIB

    def test_16_ranks(self, spec_org):
        assert spec_org.total_ranks == 16

    def test_8_dimms(self, spec_org):
        assert spec_org.total_dimms == 8

    def test_rank_is_4gb_of_8_devices(self, spec_org):
        assert spec_org.rank_capacity_bytes == 4 * GIB
        assert spec_org.devices_per_rank == 8

    def test_logical_bank_is_256mb(self, spec_org):
        # "a rank ... provides 4GB with 16 256MB (logical) banks"
        assert spec_org.logical_bank_capacity_bytes == 256 * MIB

    def test_subarray_group_slice_is_4mb(self, spec_org):
        # "a 4Mb sub-array (i.e., 4MB across 8 DRAM devices in a rank)"
        slice_bytes = spec_org.min_power_unit_bytes // (
            spec_org.total_ranks * spec_org.device.banks)
        assert slice_bytes == 4 * MIB

    def test_min_power_unit_is_1gb(self, spec_org):
        # 4MB x 16 banks x 16 ranks = 1024MB, 1.5625% of 64GB.
        assert spec_org.min_power_unit_bytes == 1024 * MIB
        fraction = spec_org.min_power_unit_bytes / spec_org.total_capacity_bytes
        assert fraction == pytest.approx(0.015625)

    def test_always_64_groups(self, spec_org):
        assert spec_org.num_subarray_groups == 64

    def test_describe_mentions_capacity(self, spec_org):
        assert "64GB" in spec_org.describe()


class TestAzurePlatform:
    def test_total_capacity_is_256gb(self, azure_org):
        assert azure_org.total_capacity_bytes == 256 * GIB

    def test_x4_devices_mean_16_per_rank(self, azure_org):
        assert azure_org.devices_per_rank == 16

    def test_dimm_is_32gb(self, azure_org):
        assert azure_org.dimm_capacity_bytes == 32 * GIB

    def test_power_unit_fraction_unchanged(self, azure_org):
        # "the percentage does not change with smaller or larger capacity"
        fraction = (azure_org.min_power_unit_bytes
                    / azure_org.total_capacity_bytes)
        assert fraction == pytest.approx(0.015625)


class TestScaledPlatforms:
    @pytest.mark.parametrize("capacity_gib", [64, 128, 256, 512, 1024])
    def test_scaled_capacity(self, capacity_gib):
        org = scaled_server_memory(capacity_gib)
        assert org.total_capacity_bytes == capacity_gib * GIB

    def test_rejects_non_multiple(self):
        with pytest.raises(ConfigurationError):
            scaled_server_memory(100)

    def test_rejects_non_power_factor(self):
        with pytest.raises(ConfigurationError):
            scaled_server_memory(192)


class TestValidation:
    def test_rejects_non_power_of_two_channels(self):
        with pytest.raises(ConfigurationError):
            MemoryOrganization(device=DDR4_4GB_X8, channels=3)

    def test_total_counts_consistent(self, spec_org):
        assert spec_org.total_banks == (spec_org.total_ranks
                                        * spec_org.device.banks)
