"""Fleet-scale simulation: many servers replaying one sharded VM trace.

GreenDIMM's motivation is fleet-wide (Figure 1 argues from datacenter
memory under-utilization), but until the run loops were unified behind
:mod:`repro.sim.kernel` every study drove exactly one
:class:`~repro.sim.server.ServerSimulator`.  This module opens the
many-server scenario:

* :class:`FleetSource` generates one datacenter-scale Azure-like trace
  (capacity = servers x per-server capacity) and shards its VMs across
  the fleet by ``vm_id % num_servers`` — the round-robin placement a
  simple scheduler would produce, so shards stay statistically alike
  while individual servers still see different arrival patterns;
* :func:`run_fleet_server` replays one shard on one independent
  GreenDIMM-managed server (its own seed-derived RNG streams, so
  per-server results are identical whether the server runs alone, in a
  fleet, inline, or in a pool worker);
* :func:`run_fleet` fans the shards over the parallel runner
  (:func:`repro.runner.fan_out`) and aggregates fleet energy savings
  plus tail behavior across servers.

Everything here is deterministic given the spec: shard membership, the
per-server seeds, and the replay itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
from repro.errors import ConfigurationError
from repro.policies.registry import DEFAULT_POLICY
from repro.sim.server import ServerSimulator
from repro.units import GIB, MIB
from repro.workloads.azure import (
    AzureTrace,
    AzureTraceGenerator,
    UtilizationSample,
    VMEvent,
)


def fleet_server_memory() -> MemoryOrganization:
    """The 16 GiB consolidation box each fleet server models."""
    return MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                              dimms_per_channel=2, ranks_per_dimm=1)


@dataclass(frozen=True)
class FleetServerJob:
    """One server's share of the fleet replay (picklable for workers)."""

    index: int
    trace: AzureTrace
    epoch_s: float
    system_seed: int
    simulator_seed: int
    pinned_churn: bool
    block_bytes: int
    kernel_boot_bytes: int
    transient_failure_probability: float
    policy: str = DEFAULT_POLICY

    def describe(self) -> str:
        return f"fleet-server-{self.index}"


@dataclass(frozen=True)
class FleetServerResult:
    """Per-server aggregates shipped back from (possibly) a pool worker.

    Samples stay in the worker: a fleet replay produces hundreds of
    thousands of epochs, and the fleet-level questions (energy savings,
    tail behavior) only need these summaries.
    """

    index: int
    dram_energy_j: float
    baseline_dram_energy_j: float
    mean_offline_blocks: float
    max_offline_blocks: int
    mean_dpd_fraction: float
    emergency_onlines: int
    epochs: int
    fast_forward_fraction: float
    vm_events: int
    #: Mean memory utilization of this server's shard (its scheduled
    #: demand, from the per-shard utilization samples).
    mean_utilization: float = 0.0

    @property
    def dram_energy_saving(self) -> float:
        if self.baseline_dram_energy_j <= 0:
            return 0.0
        return 1.0 - self.dram_energy_j / self.baseline_dram_energy_j


@dataclass
class FleetRunResult:
    """The whole fleet's outcome, aggregated across servers."""

    servers: List[FleetServerResult]
    total_blocks_per_server: int
    #: The datacenter trace's utilization series (Figure 1's curve),
    #: carried through so fleet reports can plot demand alongside the
    #: per-server outcomes.
    fleet_samples: List[UtilizationSample] = field(default_factory=list)

    @property
    def fleet_dram_energy_j(self) -> float:
        return sum(s.dram_energy_j for s in self.servers)

    @property
    def fleet_baseline_dram_energy_j(self) -> float:
        return sum(s.baseline_dram_energy_j for s in self.servers)

    @property
    def fleet_dram_energy_saving(self) -> float:
        baseline = self.fleet_baseline_dram_energy_j
        if baseline <= 0:
            return 0.0
        return 1.0 - self.fleet_dram_energy_j / baseline

    @property
    def worst_server_saving(self) -> float:
        """The tail: the server that benefited least."""
        return min((s.dram_energy_saving for s in self.servers),
                   default=0.0)

    @property
    def best_server_saving(self) -> float:
        return max((s.dram_energy_saving for s in self.servers),
                   default=0.0)

    @property
    def p95_max_offline_blocks(self) -> int:
        """95th percentile of per-server peak off-lined blocks."""
        peaks = sorted(s.max_offline_blocks for s in self.servers)
        if not peaks:
            return 0
        return peaks[min(len(peaks) - 1, int(0.95 * (len(peaks) - 1)))]

    @property
    def total_emergency_onlines(self) -> int:
        return sum(s.emergency_onlines for s in self.servers)


@dataclass
class FleetSource:
    """Shards one datacenter-scale VM trace into per-server replay jobs.

    The datacenter trace is generated against the *fleet's* combined
    capacity and vCPU pool, then VMs are dealt to servers round-robin by
    ``vm_id``.  Every job carries its full configuration, so the same
    spec always expands to the same fleet regardless of where (or in
    how many processes) it runs.
    """

    num_servers: int
    duration_s: float = 24 * 3600.0
    seed: int = 7
    epoch_s: float = 5.0
    pinned_churn: bool = False
    physical_cores_per_server: int = 16
    block_bytes: int = 512 * MIB
    kernel_boot_bytes: int = 2 * GIB
    transient_failure_probability: float = 0.5
    policy: str = DEFAULT_POLICY
    trace: AzureTrace = field(init=False)

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ConfigurationError("need at least one fleet server")
        organization = fleet_server_memory()
        usable = organization.total_capacity_bytes - 3 * GIB
        self.trace = AzureTraceGenerator(
            capacity_bytes=usable * self.num_servers,
            physical_cores=(self.physical_cores_per_server
                            * self.num_servers),
            duration_s=self.duration_s, seed=self.seed).generate()

    def shard(self, index: int) -> AzureTrace:
        """Server *index*'s slice of the datacenter trace.

        The shard carries its own utilization series, not an empty one:
        per-shard samples are recomputed exactly by replaying the
        shard's events at the fleet's sample times (departures land
        before arrivals at a boundary, matching the generator), so the
        shards' ``used_bytes`` partition the fleet's at every sample
        and per-server reports can plot utilization like Figure 1.
        """
        events = [e for e in self.trace.events
                  if e.instance.vm_id % self.num_servers == index]
        per_server = self.trace.capacity_bytes // self.num_servers
        return AzureTrace(events=events,
                          samples=self._shard_samples(events),
                          capacity_bytes=per_server)

    def _shard_samples(self, events: List[VMEvent]) -> List[UtilizationSample]:
        """The utilization series these *events* induce, sampled at the
        fleet trace's boundaries."""
        samples: List[UtilizationSample] = []
        cursor = 0
        used = 0
        vcpus = 0
        for fleet_sample in self.trace.samples:
            now = fleet_sample.time_s
            while cursor < len(events) and events[cursor].time_s <= now:
                vm_type = events[cursor].instance.vm_type
                if events[cursor].kind == "arrive":
                    used += vm_type.memory_bytes
                    vcpus += vm_type.vcpus
                else:
                    used -= vm_type.memory_bytes
                    vcpus -= vm_type.vcpus
                cursor += 1
            samples.append(UtilizationSample(
                time_s=now, used_bytes=used, vcpus_used=vcpus))
        return samples

    def jobs(self) -> List[FleetServerJob]:
        """One replay job per server, seeds derived from the fleet seed."""
        return [FleetServerJob(
            index=index,
            trace=self.shard(index),
            epoch_s=self.epoch_s,
            system_seed=self.seed + 1000 * (index + 1),
            simulator_seed=self.seed + 1000 * (index + 1) + 1,
            pinned_churn=self.pinned_churn,
            block_bytes=self.block_bytes,
            kernel_boot_bytes=self.kernel_boot_bytes,
            transient_failure_probability=self.transient_failure_probability,
            policy=self.policy,
        ) for index in range(self.num_servers)]


def run_fleet_server(job: FleetServerJob) -> FleetServerResult:
    """Replay one shard on one server (module-level: pool-picklable)."""
    system = GreenDIMMSystem(
        organization=fleet_server_memory(),
        config=GreenDIMMConfig(block_bytes=job.block_bytes),
        kernel_boot_bytes=job.kernel_boot_bytes,
        transient_failure_probability=job.transient_failure_probability,
        policy=job.policy,
        seed=job.system_seed)
    simulator = ServerSimulator(system, seed=job.simulator_seed)
    result = simulator.run_vm_trace(job.trace, epoch_s=job.epoch_s,
                                    pinned_churn=job.pinned_churn)
    return FleetServerResult(
        index=job.index,
        dram_energy_j=result.dram_energy_j,
        baseline_dram_energy_j=result.baseline_dram_energy_j,
        mean_offline_blocks=result.mean_offline_blocks,
        max_offline_blocks=result.max_offline_blocks,
        mean_dpd_fraction=result.mean_dpd_fraction,
        emergency_onlines=result.emergency_onlines,
        epochs=len(result.samples),
        fast_forward_fraction=simulator.ff_stats.fast_forward_fraction,
        vm_events=len(job.trace.events),
        mean_utilization=job.trace.mean_utilization)


def run_fleet(source: FleetSource, workers: int = 1,
              metrics: Optional[object] = None) -> FleetRunResult:
    """Run every server of *source* through the parallel runner.

    ``workers > 1`` fans the shards over a process pool via
    :func:`repro.runner.fan_out`; results are identical either way
    because each server is seeded independently.
    """
    from repro.runner import fan_out

    results = fan_out(run_fleet_server, source.jobs(), workers=workers,
                      metrics=metrics, label=lambda job: job.describe())
    organization = fleet_server_memory()
    blocks = organization.total_capacity_bytes // source.block_bytes
    fleet = FleetRunResult(servers=list(results),
                           total_blocks_per_server=blocks,
                           fleet_samples=list(source.trace.samples))
    if metrics is not None:
        for server in fleet.servers:
            metrics.emit(
                "fleet_server", index=server.index,
                vm_events=server.vm_events,
                dram_energy_saving=server.dram_energy_saving,
                mean_offline_blocks=server.mean_offline_blocks,
                max_offline_blocks=server.max_offline_blocks,
                mean_dpd_fraction=server.mean_dpd_fraction,
                emergency_onlines=server.emergency_onlines,
                mean_utilization=server.mean_utilization)
        metrics.emit(
            "fleet_end", servers=len(fleet.servers),
            fleet_dram_energy_saving=fleet.fleet_dram_energy_saving,
            worst_server_saving=fleet.worst_server_saving,
            p95_max_offline_blocks=fleet.p95_max_offline_blocks,
            total_emergency_onlines=fleet.total_emergency_onlines)
    return fleet


# --- resident-fleet construction and elastic resharding ----------------------


def fleet_server_spec(index: int, seed: int = 7,
                      policy: str = DEFAULT_POLICY,
                      enable_ksm: bool = False,
                      block_bytes: int = 512 * MIB,
                      kernel_boot_bytes: int = 2 * GIB,
                      transient_failure_probability: float = 0.5):
    """The snapshot spec for fleet server *index*.

    Seeds follow :meth:`FleetSource.jobs` exactly (``seed + 1000 *
    (index + 1)`` for the system, ``+ 1`` for the simulator), so a
    resident service server is the same stochastic object as a batch
    fleet-replay server — and, being a
    :class:`~repro.sim.snapshot.ServerSpec`, it can be checkpointed,
    shipped, and rebuilt anywhere.
    """
    from repro.sim.snapshot import ServerSpec

    return ServerSpec(
        policy=policy,
        seed=seed + 1000 * (index + 1),
        sim_seed=seed + 1000 * (index + 1) + 1,
        organization="fleet",
        enable_ksm=enable_ksm,
        transient_failure_probability=transient_failure_probability,
        kernel_boot_bytes=kernel_boot_bytes,
        config={"block_bytes": block_bytes})


def shard_assignment(num_servers: int,
                     num_workers: int) -> Dict[int, int]:
    """Server index -> worker index, round-robin.

    The deterministic placement both the resident service's initial
    layout and checkpoint-based elastic resharding use: to go from *n*
    to *m* workers, every server is checkpointed, the assignment is
    recomputed for *m*, and each snapshot is restored on its new worker
    — placement is a pure function of the shape, never of history.
    """
    if num_servers < 1 or num_workers < 1:
        raise ConfigurationError("need at least one server and one worker")
    return {index: index % num_workers for index in range(num_servers)}
