"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import (
    MemoryOrganization,
    azure_server_memory,
    spec_server_memory,
)
from repro.dram.device import DDR4_4GB_X8
from repro.os.hotplug import MemoryBlockManager
from repro.os.mm import PhysicalMemoryManager
from repro.units import GIB, MIB


def gated_groups(register) -> list:
    """Groups whose gate bit is set in a control register, ascending."""
    raw = register.raw_value()
    return [g for g in range(register.num_groups) if raw >> g & 1]


@pytest.fixture
def spec_org() -> MemoryOrganization:
    """The paper's 64GB SPEC platform."""
    return spec_server_memory()


@pytest.fixture
def azure_org() -> MemoryOrganization:
    """The paper's 256GB Azure platform."""
    return azure_server_memory()


@pytest.fixture
def small_org() -> MemoryOrganization:
    """A 4GB single-channel topology for fast unit tests."""
    return MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                              dimms_per_channel=1, ranks_per_dimm=1)


@pytest.fixture
def small_mm() -> PhysicalMemoryManager:
    """4GB memory manager with 128MB blocks, 75% movable."""
    return PhysicalMemoryManager(total_bytes=4 * GIB,
                                 block_bytes=128 * MIB,
                                 movable_fraction=0.75)


@pytest.fixture
def reliable_hotplug(small_mm) -> MemoryBlockManager:
    """Hot-plug manager with deterministic, always-working migration."""
    return MemoryBlockManager(small_mm, transient_failure_probability=0.0,
                              rng=random.Random(0))


@pytest.fixture
def small_system() -> GreenDIMMSystem:
    """A fast 4GB GreenDIMM system (one channel, 64MB blocks)."""
    org = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                             dimms_per_channel=1, ranks_per_dimm=1)
    config = GreenDIMMConfig(block_bytes=64 * MIB)
    return GreenDIMMSystem(organization=org, config=config,
                           kernel_boot_bytes=256 * MIB,
                           transient_failure_probability=0.0, seed=3)
