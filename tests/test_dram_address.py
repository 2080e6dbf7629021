"""Address mapping: interleaving and sub-array-group decoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import AddressMapping, DecodedAddress
from repro.dram.organization import spec_server_memory
from repro.errors import AddressError
from repro.units import GIB

ORG = spec_server_memory()
MAPPING = AddressMapping(ORG, interleaved=True)
FLAT = AddressMapping(ORG, interleaved=False)


class TestLayout:
    def test_address_bits_cover_capacity(self):
        assert 1 << MAPPING.address_bits == ORG.total_capacity_bytes

    def test_interleaved_groups_contiguous(self):
        assert MAPPING.group_is_contiguous()

    def test_non_interleaved_groups_not_contiguous(self):
        assert not FLAT.group_is_contiguous()

    def test_group_count_and_size(self):
        assert MAPPING.subarray_group_count == 64
        assert MAPPING.subarray_group_bytes == GIB


class TestDecode:
    def test_address_zero(self):
        d = MAPPING.decode(0)
        assert (d.channel, d.rank, d.bank, d.subarray) == (0, 0, 0, 0)

    def test_line_offset_bits(self):
        d = MAPPING.decode(63)
        assert d.offset == 63
        assert d.channel == 0

    def test_channel_bits_just_above_line(self):
        # Consecutive lines hit consecutive channels: the interleaving.
        channels = [MAPPING.decode(line * 64).channel for line in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_top_bits_select_subarray(self):
        group_bytes = MAPPING.subarray_group_bytes
        for group in (0, 1, 33, 63):
            d = MAPPING.decode(group * group_bytes)
            assert d.subarray == group

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            MAPPING.decode(ORG.total_capacity_bytes)
        with pytest.raises(AddressError):
            MAPPING.decode(-1)

    def test_full_row_address(self):
        d = MAPPING.decode(ORG.total_capacity_bytes - 1)
        bits = ORG.device.local_row_bits
        assert d.row(bits) == (d.subarray << bits) | d.local_row


class TestEncodeDecodeBijection:
    @given(st.integers(min_value=0, max_value=ORG.total_capacity_bytes - 1))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_interleaved(self, address):
        assert MAPPING.encode(MAPPING.decode(address)) == address

    @given(st.integers(min_value=0, max_value=ORG.total_capacity_bytes - 1))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_non_interleaved(self, address):
        assert FLAT.encode(FLAT.decode(address)) == address

    @given(st.integers(min_value=0, max_value=ORG.total_capacity_bytes - 1))
    @settings(max_examples=200, deadline=None)
    def test_group_matches_top_bits(self, address):
        group = MAPPING.decode(address).subarray
        assert group == address // MAPPING.subarray_group_bytes

    def test_encode_rejects_field_overflow(self):
        bad = DecodedAddress(channel=99, rank=0, bank=0, subarray=0,
                             local_row=0, column=0, offset=0)
        with pytest.raises(AddressError):
            MAPPING.encode(bad)


class TestInterleavingDispersal:
    """A small contiguous footprint touches every rank — Section 3.3."""

    def test_64mb_footprint_touches_all_ranks(self):
        # libquantum's 64MB footprint kills rank power-down in the paper.
        seen = set()
        for line in range(0, 64 * (1 << 20), 64 * 257):  # sampled stride
            d = MAPPING.decode(line)
            seen.add((d.channel, d.rank))
        assert len(seen) == ORG.channels * ORG.ranks_per_channel

    def test_without_interleaving_footprint_stays_local(self):
        seen = set()
        for line in range(0, 64 * (1 << 20), 64 * 257):
            d = FLAT.decode(line)
            seen.add((d.channel, d.rank))
        assert len(seen) == 1


class TestGroupRanges:
    def test_group_address_range(self):
        start, end = MAPPING.group_address_range(5)
        assert start == 5 * GIB and end == 6 * GIB

    def test_group_range_rejected_for_flat(self):
        with pytest.raises(AddressError):
            FLAT.group_address_range(0)

    def test_groups_of_range_single(self):
        assert MAPPING.groups_of_range(0, GIB) == (0,)

    def test_groups_of_range_straddle(self):
        groups = MAPPING.groups_of_range(GIB - 4096, 8192)
        assert groups == (0, 1)

    def test_groups_of_range_validates(self):
        with pytest.raises(AddressError):
            MAPPING.groups_of_range(0, 0)
        with pytest.raises(AddressError):
            MAPPING.groups_of_range(ORG.total_capacity_bytes - 10, 100)

    def test_flat_mapping_range_covers_all_groups(self):
        assert len(FLAT.groups_of_range(0, GIB)) == 64
