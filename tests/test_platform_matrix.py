"""Core invariants across every supported platform configuration.

The same off-line -> gate -> wake -> on-line cycle must hold on the 64GB
SPEC platform, the 256GB Azure platform, and the scaled large-capacity
builds, with block sizes on both sides of the sub-array-group size.
"""

import pytest

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.address import AddressMapping
from repro.dram.organization import (
    azure_server_memory,
    scaled_server_memory,
    spec_server_memory,
)
from repro.power.model import DRAMPowerModel
from repro.units import GIB, MIB
from tests.conftest import gated_groups

PLATFORMS = {
    "spec-64g": (spec_server_memory, 128 * MIB),
    "spec-64g-1g-blocks": (spec_server_memory, GIB),
    "azure-256g": (azure_server_memory, GIB),
    "scaled-512g": (lambda: scaled_server_memory(512), 2 * GIB),
}


@pytest.fixture(params=sorted(PLATFORMS), scope="module")
def platform(request):
    factory, block_bytes = PLATFORMS[request.param]
    organization = factory()
    system = GreenDIMMSystem(
        organization=organization,
        config=GreenDIMMConfig(block_bytes=block_bytes),
        kernel_boot_bytes=2 * GIB,
        transient_failure_probability=0.0, seed=6)
    for t in range(25):
        system.step(float(t))
    return system


class TestUniversalInvariants:
    def test_groups_always_64_and_contiguous(self, platform):
        assert platform.organization.num_subarray_groups == 64
        assert platform.mapping.group_is_contiguous()

    def test_idle_server_gates_most_capacity(self, platform):
        assert platform.daemon.dpd_fraction() > 0.5

    def test_gated_groups_fully_offline(self, platform):
        offline = set(platform.hotplug.offline_blocks())
        for group in gated_groups(platform.power_control.register):
            for block in platform.block_map.blocks_of_group(group):
                assert block in offline

    def test_reserve_respected(self, platform):
        free = platform.mm.free_pages
        assert free >= platform.daemon.reserve_pages
        # The daemon can only off-line movable-zone blocks, so free
        # memory floors at max(reserve, the kernel zone's free pages).
        normal_free = platform.mm.zones[0].allocator.free_pages
        floor = max(platform.daemon.reserve_pages, normal_free)
        assert free < floor + 3 * platform.mm.block_pages

    def test_power_scales_down_with_gating(self, platform):
        gated = platform.dram_power().total_w
        ungated = platform.baseline_dram_power().total_w
        assert gated < 0.55 * ungated

    def test_mode_registers_lockstep(self, platform):
        assert platform.power_control.mode_registers.mask == (
            platform.power_control.register.raw_value())

    def test_address_mapping_bijective_at_edges(self, platform):
        mapping = AddressMapping(platform.organization)
        for address in (0, 64, platform.organization.total_capacity_bytes - 64):
            assert mapping.encode(mapping.decode(address)) == address

    def test_power_model_builds(self, platform):
        model = DRAMPowerModel(platform.organization)
        breakdown = model.idle_power()
        assert breakdown.total_w > 0
        assert 0.0 < breakdown.background_fraction <= 1.0

    def test_full_wake_cycle(self, platform):
        """On-line everything back: no gated group may remain."""
        daemon = platform.daemon
        target = platform.mm.free_pages + platform.hotplug.offline_count * (
            platform.mm.block_pages)
        daemon.emergency_online(target, now_s=100.0)
        assert platform.hotplug.offline_count == 0
        assert platform.power_control.register.gated_count == 0
        assert platform.mm.meminfo().total_pages == platform.mm.total_pages
