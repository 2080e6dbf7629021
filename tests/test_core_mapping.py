"""PowerBlockMap: blocks <-> sub-array groups."""

import pytest

from repro.core.mapping import PowerBlockMap
from repro.dram.address import AddressMapping
from repro.dram.organization import spec_server_memory
from repro.errors import AddressError, ConfigurationError
from repro.units import GIB, MIB

ORG = spec_server_memory()
MAPPING = AddressMapping(ORG, interleaved=True)


class TestBlockEqualsGroup:
    """1GB blocks on the 64GB platform: one block per group."""

    def test_counts(self):
        block_map = PowerBlockMap(MAPPING, GIB)
        assert block_map.num_blocks == 64
        assert block_map.num_groups == 64
        assert block_map.groups_per_block == 1

    def test_identity_mapping(self):
        block_map = PowerBlockMap(MAPPING, GIB)
        for block in (0, 17, 63):
            assert block_map.block_groups[block] == (block,)
            assert block_map.block_masks[block] == 1 << block
            assert block_map.blocks_of_group(block) == (block,)


class TestSmallBlocks:
    """128MB Linux blocks: eight blocks cover one group (Section 5.1)."""

    def test_counts(self):
        block_map = PowerBlockMap(MAPPING, 128 * MIB)
        assert block_map.num_blocks == 512
        assert block_map.blocks_per_group == 8

    def test_block_to_single_group(self):
        block_map = PowerBlockMap(MAPPING, 128 * MIB)
        assert block_map.block_groups[0] == (0,)
        assert block_map.block_groups[7] == (0,)
        assert block_map.block_groups[8] == (1,)
        assert block_map.block_masks[8] == 1 << 1

    def test_group_needs_all_blocks(self):
        block_map = PowerBlockMap(MAPPING, 128 * MIB)
        assert block_map.blocks_of_group(1) == tuple(range(8, 16))
        partial = set(range(8, 15))
        assert block_map.fully_offline_groups(partial) == []
        assert block_map.fully_offline_groups(set(range(8, 16))) == [1]


class TestLargeBlocks:
    """512MB-style: here 4GB blocks map to four whole groups."""

    def test_multi_group_block(self):
        block_map = PowerBlockMap(MAPPING, 4 * GIB)
        assert block_map.groups_per_block == 4
        assert block_map.block_groups[1] == (4, 5, 6, 7)
        assert block_map.block_masks[1] == 0b1111 << 4
        assert block_map.blocks_of_group(5) == (1,)

    def test_offline_one_block_gates_four_groups(self):
        block_map = PowerBlockMap(MAPPING, 4 * GIB)
        groups = block_map.fully_offline_groups({0})
        assert groups == [0, 1, 2, 3]


class TestPairConstraint:
    def test_pairs_required(self):
        block_map = PowerBlockMap(MAPPING, GIB)
        # Groups 2 and 3 are a sense-amp pair; 5 alone is not gateable.
        gateable = block_map.gateable_groups({2, 3, 5}, pair_constraint=True)
        assert gateable == [2, 3]

    def test_pairs_disabled(self):
        block_map = PowerBlockMap(MAPPING, GIB)
        gateable = block_map.gateable_groups({2, 3, 5}, pair_constraint=False)
        assert gateable == [2, 3, 5]


class TestValidation:
    def test_requires_interleaved_mapping(self):
        flat = AddressMapping(ORG, interleaved=False)
        with pytest.raises(ConfigurationError):
            PowerBlockMap(flat, GIB)

    def test_block_size_must_relate_to_group(self):
        with pytest.raises(ConfigurationError):
            PowerBlockMap(MAPPING, 384 * MIB)

    def test_block_size_must_divide_capacity(self):
        with pytest.raises(ConfigurationError):
            PowerBlockMap(MAPPING, 3 * GIB)

    def test_bounds(self):
        block_map = PowerBlockMap(MAPPING, GIB)
        assert len(block_map.block_groups) == len(block_map.block_masks) == 64
        with pytest.raises(AddressError):
            block_map.blocks_of_group(64)

    def test_describe(self):
        text = PowerBlockMap(MAPPING, GIB).describe()
        assert "64 blocks" in text and "64 groups" in text
