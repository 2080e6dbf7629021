"""XOR bank hashing and high-temperature refresh."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import AddressMapping
from repro.dram.organization import spec_server_memory
from repro.dram.timing import DDR4_2133, DDR4Timing
from repro.power.model import DRAMPowerModel

ORG = spec_server_memory()
HASHED = AddressMapping(ORG, interleaved=True, xor_bank_hash=True)
PLAIN = AddressMapping(ORG, interleaved=True, xor_bank_hash=False)


def at_high_temperature(timing: DDR4Timing) -> DDR4Timing:
    """The same speed grade above 85C: JEDEC halves the refresh interval."""
    return replace(timing, trefi_ns=timing.trefi_ns / 2)


class TestXorBankHash:
    @given(st.integers(min_value=0, max_value=ORG.total_capacity_bytes - 1))
    @settings(max_examples=200, deadline=None)
    def test_still_bijective(self, address):
        assert HASHED.encode(HASHED.decode(address)) == address

    @given(st.integers(min_value=0, max_value=ORG.total_capacity_bytes - 1))
    @settings(max_examples=100, deadline=None)
    def test_subarray_groups_untouched(self, address):
        """The GreenDIMM-critical property survives the hash."""
        assert (HASHED.decode(address).subarray
                == PLAIN.decode(address).subarray)

    def test_hash_spreads_row_strides_over_banks(self):
        """A row-sized stride hits one bank unhashed, many banks hashed."""
        row_stride = 1 << (6 + 2 + 7 + 4 + 2)  # one local-row step
        plain_banks = {PLAIN.decode(i * row_stride).bank for i in range(16)}
        hashed_banks = {HASHED.decode(i * row_stride).bank for i in range(16)}
        assert len(hashed_banks) > len(plain_banks)

    def test_hash_changes_only_banks(self):
        d_plain = PLAIN.decode(123456789)
        d_hash = HASHED.decode(123456789)
        assert (d_plain.channel, d_plain.rank, d_plain.subarray,
                d_plain.local_row, d_plain.column) == (
            d_hash.channel, d_hash.rank, d_hash.subarray,
            d_hash.local_row, d_hash.column)


class TestHighTemperature:
    def test_refresh_interval_halves(self):
        hot = at_high_temperature(DDR4_2133)
        assert hot.trefi_ns == DDR4_2133.trefi_ns / 2
        assert hot.refresh_duty_cycle == pytest.approx(
            2 * DDR4_2133.refresh_duty_cycle)

    def test_refresh_power_doubles(self):
        cold = DRAMPowerModel(ORG, timing=DDR4_2133)
        hot = DRAMPowerModel(ORG, timing=at_high_temperature(DDR4_2133))
        assert hot.idle_power().refresh_w == pytest.approx(
            2 * cold.idle_power().refresh_w, rel=1e-6)
        # Background (non-refresh) power is unchanged.
        assert hot.idle_power().background_w == pytest.approx(
            cold.idle_power().background_w)

    def test_gating_saves_more_when_hot(self):
        """GreenDIMM's absolute savings grow with refresh pressure."""
        cold = DRAMPowerModel(ORG, timing=DDR4_2133)
        hot = DRAMPowerModel(ORG, timing=at_high_temperature(DDR4_2133))
        cold_saving = (cold.idle_power().total_w
                       - cold.idle_power(dpd_fraction=0.8).total_w)
        hot_saving = (hot.idle_power().total_w
                      - hot.idle_power(dpd_fraction=0.8).total_w)
        assert hot_saving > cold_saving
