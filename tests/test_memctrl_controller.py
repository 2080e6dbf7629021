"""Cycle-approximate controller: the Figure 3 mechanism.

With interleaving a tiny footprint keeps every rank awake (zero
self-refresh residency); without it, idle ranks sleep.
"""

import random

import pytest

from repro.dram.address import AddressMapping
from repro.dram.organization import spec_server_memory
from repro.errors import ConfigurationError
from repro.memctrl.controller import MemoryController
from repro.memctrl.lowpower import LowPowerConfig
from repro.workloads.trace import AccessTraceGenerator

ORG = spec_server_memory()


def run_trace(interleaved: bool, footprint=64 << 20, count=4000,
              rate=50e6, locality=0.6, seed=7):
    mapping = AddressMapping(ORG, interleaved=interleaved)
    controller = MemoryController(ORG, mapping=mapping,
                                  lowpower=LowPowerConfig(
                                      powerdown_idle_ns=500.0,
                                      selfrefresh_idle_ns=5_000.0))
    gen = AccessTraceGenerator(footprint, rate_per_s=rate, locality=locality,
                               rng=random.Random(seed))
    return controller.run(gen.generate(count))


class TestBasicOperation:
    def test_all_requests_complete(self):
        stats = run_trace(interleaved=True)
        assert stats.requests == 4000
        assert stats.reads + stats.writes == 4000
        assert stats.total_time_ns > 0
        assert stats.latencies_ns.size == 4000

    def test_latency_at_least_device_minimum(self):
        from repro.dram.timing import DDR4_2133
        stats = run_trace(interleaved=True)
        assert stats.latencies_ns.min() >= (
            DDR4_2133.cl_ns + DDR4_2133.burst_duration_ns - 1e-9)

    def test_percentiles_ordered(self):
        stats = run_trace(interleaved=True)
        assert (stats.mean_latency_ns
                <= stats.percentile_latency_ns(95) + 1e-9)
        assert (stats.percentile_latency_ns(95)
                <= stats.percentile_latency_ns(99) + 1e-9)

    def test_bandwidth_positive(self):
        stats = run_trace(interleaved=True)
        assert stats.bandwidth_bytes_per_s > 0

    def test_locality_raises_row_hits(self):
        low = run_trace(interleaved=True, locality=0.05)
        high = run_trace(interleaved=True, locality=0.95)
        assert high.row_hit_rate > low.row_hit_rate

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryController(ORG, window=0)


class TestFigure3Mechanism:
    def test_interleaving_kills_selfrefresh(self):
        """64MB footprint (libquantum): no rank ever self-refreshes."""
        stats = run_trace(interleaved=True)
        assert stats.selfrefresh_fraction() < 0.02

    def test_no_interleaving_restores_selfrefresh(self):
        stats = run_trace(interleaved=False)
        assert stats.selfrefresh_fraction() > 0.4

    def test_interleaved_traffic_touches_every_rank(self):
        stats = run_trace(interleaved=True)
        assert all(b > 0 for b in stats.rank_bytes)

    def test_non_interleaved_traffic_stays_local(self):
        stats = run_trace(interleaved=False)
        touched = sum(1 for b in stats.rank_bytes if b > 0)
        assert touched <= 2

    def test_wakeups_occur_without_interleaving(self):
        stats = run_trace(interleaved=False, rate=5e6)
        assert stats.wakeups > 0

    def test_rank_profiles_feed_power_model(self):
        from repro.power.model import DRAMPowerModel
        stats = run_trace(interleaved=False)
        profiles = stats.rank_profiles()
        assert len(profiles) == ORG.total_ranks
        power = DRAMPowerModel(ORG).power(profiles)
        idle = DRAMPowerModel(ORG).idle_power()
        # Sleeping ranks push power below the all-standby idle level.
        assert power.static_w < idle.static_w
