"""Fleet-scale runs: trace sharding, per-server isolation, aggregation."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.fleet import (
    FleetSource,
    fleet_server_memory,
    run_fleet,
    run_fleet_server,
)


@pytest.fixture(scope="module")
def source():
    # 2 hours keeps the replays cheap while still carrying VM events.
    return FleetSource(num_servers=3, duration_s=2 * 3600.0, seed=7)


@pytest.fixture(scope="module")
def fleet_result(source):
    return run_fleet(source)


class TestFleetSource:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            FleetSource(num_servers=0)

    def test_shards_partition_the_trace(self, source):
        shards = [source.shard(i) for i in range(source.num_servers)]
        assert sum(len(s.events) for s in shards) == len(source.trace.events)
        for index, shard in enumerate(shards):
            assert all(e.instance.vm_id % source.num_servers == index
                       for e in shard.events)

    def test_jobs_are_deterministic(self, source):
        again = FleetSource(num_servers=3, duration_s=2 * 3600.0, seed=7)
        assert source.jobs() == again.jobs()

    def test_seeds_differ_across_servers(self, source):
        jobs = source.jobs()
        seeds = {j.system_seed for j in jobs} | {j.simulator_seed
                                                 for j in jobs}
        assert len(seeds) == 2 * len(jobs)


class TestFleetRun:
    def test_one_result_per_server(self, source, fleet_result):
        assert sorted(s.index for s in fleet_result.servers) == [0, 1, 2]

    def test_servers_match_standalone_runs(self, source, fleet_result):
        """The fleet is exactly its servers run alone: same seeds, same
        shard, same numbers — fleet membership must not perturb anyone."""
        by_index = {s.index: s for s in fleet_result.servers}
        for job in source.jobs():
            standalone = run_fleet_server(job)
            assert standalone == by_index[job.index]

    def test_worker_count_does_not_change_results(self, source,
                                                  fleet_result):
        parallel = run_fleet(source, workers=2)
        assert parallel.servers == fleet_result.servers

    def test_aggregates_are_consistent(self, fleet_result):
        servers = fleet_result.servers
        assert fleet_result.fleet_dram_energy_j == pytest.approx(
            sum(s.dram_energy_j for s in servers))
        assert 0.0 < fleet_result.fleet_dram_energy_saving < 1.0
        assert (fleet_result.worst_server_saving
                <= fleet_result.fleet_dram_energy_saving
                <= fleet_result.best_server_saving)
        peaks = [s.max_offline_blocks for s in servers]
        assert fleet_result.p95_max_offline_blocks in peaks
        blocks = fleet_result.total_blocks_per_server
        assert all(0 <= p <= blocks for p in peaks)

    def test_fast_forward_engaged(self, fleet_result):
        # The sharded replays are mostly quiescent: the fast path must
        # carry the bulk of the epochs or fleet runs do not scale.
        assert all(s.fast_forward_fraction > 0.5
                   for s in fleet_result.servers)

    def test_energy_saving_property_guards_zero_baseline(self):
        from repro.sim.fleet import FleetServerResult

        empty = FleetServerResult(
            index=0, dram_energy_j=0.0, baseline_dram_energy_j=0.0,
            mean_offline_blocks=0.0, max_offline_blocks=0,
            mean_dpd_fraction=0.0, emergency_onlines=0, epochs=0,
            fast_forward_fraction=0.0, vm_events=0)
        assert empty.dram_energy_saving == 0.0


class TestShardSamples:
    def test_shard_samples_partition_the_fleet_samples(self, source):
        """At every sample time the shards' utilization must add back
        up to the fleet trace's — the samples are a decomposition, not
        a re-simulation."""
        shards = [source.shard(i) for i in range(source.num_servers)]
        for shard in shards:
            assert len(shard.samples) == len(source.trace.samples)
        for index, fleet_sample in enumerate(source.trace.samples):
            assert sum(s.samples[index].used_bytes
                       for s in shards) == fleet_sample.used_bytes
            assert sum(s.samples[index].vcpus_used
                       for s in shards) == fleet_sample.vcpus_used
            assert all(s.samples[index].time_s == fleet_sample.time_s
                       for s in shards)

    def test_shard_mean_utilization_reaches_results(self, fleet_result):
        for server in fleet_result.servers:
            assert 0.0 <= server.mean_utilization <= 1.0
        assert any(s.mean_utilization > 0.0 for s in fleet_result.servers)

    def test_fleet_result_carries_fleet_samples(self, source, fleet_result):
        assert fleet_result.fleet_samples == list(source.trace.samples)


class TestFleetMetricsEvents:
    def test_run_fleet_emits_server_and_fleet_events(self, source):
        from repro.runner import MetricsBus

        metrics = MetricsBus()
        result = run_fleet(source, metrics=metrics)
        servers = [e for e in metrics.events if e["event"] == "fleet_server"]
        assert sorted(e["index"] for e in servers) == [0, 1, 2]
        for event in servers:
            assert 0.0 <= event["dram_energy_saving"] <= 1.0
        (end,) = [e for e in metrics.events if e["event"] == "fleet_end"]
        assert end["servers"] == source.num_servers
        assert end["fleet_dram_energy_saving"] == pytest.approx(
            result.fleet_dram_energy_saving)


class TestFleetExperiment:
    def test_registered_and_runs_fast(self):
        from repro.experiments.registry import run_experiment, runners

        assert "fleet" in runners()
        result = run_experiment("fleet", fast=True)
        assert 0.0 < result.measured["fleet_dram_energy_saving"] < 1.0
        blocks = (fleet_server_memory().total_capacity_bytes
                  // FleetSource(num_servers=1,
                                 duration_s=3600.0).block_bytes)
        assert 0 <= result.measured["p95_max_offline_blocks"] <= blocks
