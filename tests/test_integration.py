"""End-to-end integration: the full GreenDIMM story on one server.

These tests walk the paper's causal chain at miniature scale:
free capacity -> off-lining -> sub-array gating -> background power drop
-> on-lining under pressure -> power back up, plus the KSM synergy.
"""

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.device import DDR4_4GB_X8
from repro.dram.organization import MemoryOrganization
from repro.ksm.content import RegionContent
from repro.sim.server import ServerSimulator
from repro.units import GIB, MIB, PAGE_SIZE
from repro.workloads import profile_by_name
from tests.conftest import gated_groups


def eight_gb_system(**kwargs):
    org = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                             dimms_per_channel=2, ranks_per_dimm=1)
    defaults = dict(organization=org,
                    config=GreenDIMMConfig(block_bytes=128 * MIB),
                    kernel_boot_bytes=512 * MIB,
                    transient_failure_probability=0.0, seed=7)
    defaults.update(kwargs)
    return GreenDIMMSystem(**defaults)


class TestFullCycle:
    def test_power_tracks_utilization_cycle(self):
        system = eight_gb_system()
        power = []

        def snap():
            power.append(system.dram_power().total_w)

        for t in range(25):
            system.step(float(t))
        snap()  # mostly idle, mostly gated

        # Load up 6GB gradually.
        now = 25.0
        remaining = 6 * GIB // PAGE_SIZE
        while remaining > 0:
            take = min(remaining, max(0, system.mm.free_pages - 2048))
            if take > 0:
                system.mm.allocate("app", take)
                remaining -= take
            else:
                system.daemon.emergency_online(remaining, now)
            system.step(now)
            now += 1.0
        for _ in range(25):
            system.step(now)
            now += 1.0
        snap()  # loaded: most groups awake

        system.mm.free_all("app")
        for _ in range(25):
            system.step(now)
            now += 1.0
        snap()  # empty again: re-gated

        assert power[1] > power[0] * 1.5
        assert power[2] < power[1] * 0.6

    def test_gated_groups_never_back_online_addresses(self):
        """Safety invariant: every gated group's physical range is fully
        off-lined, so no allocation can touch a powered-down sub-array."""
        system = eight_gb_system()
        for t in range(30):
            system.step(float(t))
        system.mm.allocate("app", max(0, system.mm.free_pages - 4096))
        offline = set(system.hotplug.offline_blocks())
        for group in gated_groups(system.power_control.register):
            for block in system.block_map.blocks_of_group(group):
                assert block in offline

    def test_offline_blocks_match_power_control_view(self):
        system = eight_gb_system()
        for t in range(30):
            system.step(float(t))
        assert set(system.hotplug.offline_blocks()) == (
            system.power_control.offline_blocks)

    def test_data_survives_daemon_activity(self):
        system = eight_gb_system()
        system.mm.allocate("app", 3 * GIB // PAGE_SIZE)
        for t in range(40):
            system.step(float(t))
        system.mm.free_pages_of("app", GIB // PAGE_SIZE)
        for t in range(40, 80):
            system.step(float(t))
        assert system.mm.owner_pages("app") == 2 * GIB // PAGE_SIZE


class TestKSMSynergy:
    def test_ksm_enables_more_offlining(self):
        """Section 5.3: merging frees capacity the daemon then off-lines."""
        counts = {}
        for enable_ksm in (False, True):
            system = eight_gb_system(enable_ksm=enable_ksm, seed=11)
            pages = 2 * GIB // PAGE_SIZE
            for vm, image in (("vm0", 1), ("vm1", 1)):
                system.mm.allocate(vm, pages, mergeable=True)
                if system.ksm is not None:
                    system.ksm.register(RegionContent(
                        owner_id=vm, total_pages=pages, image_id=image,
                        zero_fraction=0.25, image_fraction=0.4))
            for t in range(240):
                system.step(float(t))
            counts[enable_ksm] = system.daemon.offline_block_count
        assert counts[True] > counts[False]

    def test_ksm_pass_triggers_prompt_reaction(self):
        system = eight_gb_system(enable_ksm=True,
                                 config=GreenDIMMConfig(
                                     block_bytes=128 * MIB,
                                     monitor_period_s=300.0))
        pages = 2 * GIB // PAGE_SIZE
        system.mm.allocate("vm0", pages, mergeable=True)
        system.ksm.register(RegionContent(owner_id="vm0", total_pages=pages,
                                          image_id=1, zero_fraction=0.3))
        system.step(0.0)  # initial monitor pass
        baseline = system.daemon.stats.offline_events
        # Monitor period is 5 minutes, but a completed KSM pass kicks the
        # daemon anyway.
        kicked = False
        for t in range(1, 200):
            system.step(float(t))
            if system.daemon.stats.offline_events > baseline:
                kicked = True
                break
        assert kicked


class TestServerSimulatorIntegration:
    def test_tail_latency_for_services(self):
        org = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                 dimms_per_channel=2, ranks_per_dimm=2)
        system = GreenDIMMSystem(organization=org,
                                 config=GreenDIMMConfig(block_bytes=512 * MIB),
                                 kernel_boot_bytes=GIB, seed=3)
        sim = ServerSimulator(system, seed=3)
        profile = profile_by_name("web-serving")
        result = sim.run_workload(profile)
        # Paper: no notable tail degradation for the serving workloads;
        # the daemon's runtime overhead stays below 2%.
        assert result.overhead_fraction < 0.02
