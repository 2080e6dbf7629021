"""Unit helpers."""

import pytest

from repro import units
from repro.units import (
    GIB,
    KIB,
    MIB,
    PAGE_SIZE,
    is_power_of_two,
    log2_int,
)


def test_binary_prefixes_are_powers_of_1024():
    assert KIB == 1024
    assert MIB == 1024 * KIB
    assert GIB == 1024 * MIB


def test_page_size_is_4k():
    assert PAGE_SIZE == 4096


def test_default_memory_block_is_128mib():
    assert units.DEFAULT_MEMORY_BLOCK_SIZE == 128 * MIB


@pytest.mark.parametrize("n,expected", [
    (1, True), (2, True), (1024, True), (0, False), (3, False), (-4, False),
])
def test_is_power_of_two(n, expected):
    assert is_power_of_two(n) is expected


def test_log2_int():
    assert log2_int(1) == 0
    assert log2_int(65536) == 16


def test_log2_int_rejects_non_power():
    with pytest.raises(ValueError):
        log2_int(12)


def test_time_units():
    assert units.MILLISECOND == 1e-3
    assert units.MICROSECOND == 1e-6
    assert units.NANOSECOND == 1e-9
