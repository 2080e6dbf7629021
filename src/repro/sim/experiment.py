"""Policy-comparison experiments (Figures 9 and 10).

For one workload profile this evaluates the 2x4 matrix the paper plots:
{with, without} memory interleaving x {self-refresh only, RAMZzz, PASR,
GreenDIMM}, producing DRAM and system energies normalized the same way
the paper normalizes ("w/o intlv srf_only" = 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.system import GreenDIMMSystem
from repro.dram.organization import MemoryOrganization, spec_server_memory
from repro.policies.calibration import ESTIMATE_KERNEL_BYTES, resident_ranks
from repro.policies.registry import analytical_policy_names, policy_class
from repro.power.model import DRAMPowerModel, RankPowerProfile
from repro.power.system import SystemPowerModel
from repro.sim.perfmodel import (
    PerformanceModel,
    interleaved_point,
    non_interleaved_point,
)
from repro.sim.server import ServerSimulator
from repro.workloads.profiles import WorkloadProfile

#: The Figure 9/10 matrix's policy axis, in evaluation order.  Derived
#: from the shared registry (:mod:`repro.policies.registry`) so the
#: figure suite and ``repro tournament`` can never disagree on names;
#: no policy object is instantiated to produce this tuple.
POLICIES = analytical_policy_names() + ("greendimm",)


@dataclass(frozen=True)
class PolicyResult:
    """One cell of the Figure 9/10 matrix."""

    policy: str
    interleaved: bool
    runtime_s: float
    dram_power_w: float
    dram_energy_j: float
    system_energy_j: float
    overhead_fraction: float = 0.0

    @property
    def key(self) -> Tuple[str, bool]:
        return (self.policy, self.interleaved)


def _runtimes(profile: WorkloadProfile, organization: MemoryOrganization,
              perf: PerformanceModel, n_copies: int) -> Dict[bool, float]:
    """Base runtime with and without interleaving (before policy factors).

    Latency-critical services run for a fixed wall time at a fixed load;
    a slower memory system degrades their tail latency, not their
    duration, so their energy comparison is purely a power comparison.
    """
    if profile.latency_critical:
        return {True: profile.duration_s, False: profile.duration_s}
    on = interleaved_point(organization)
    resident = resident_ranks(
        profile.peak_footprint_bytes * n_copies + ESTIMATE_KERNEL_BYTES,
        organization)
    off = non_interleaved_point(organization, resident_ranks=resident)
    ratio = perf.cpi(profile, off, n_copies) / perf.cpi(profile, on, n_copies)
    return {True: profile.duration_s, False: profile.duration_s * ratio}


def _greendimm_mean_dpd(profile: WorkloadProfile,
                        organization: MemoryOrganization,
                        n_copies: int, seed: int) -> Tuple[float, float, float]:
    """Run the real daemon once; returns (mean dpd fraction, offline
    events, online events)."""
    system = GreenDIMMSystem(organization=organization, seed=seed)
    simulator = ServerSimulator(system, seed=seed)
    result = simulator.run_workload(profile, n_copies=n_copies)
    mean_dpd = (sum(result.samples.values("dpd_fraction"))
                / max(1, len(result.samples)))
    return mean_dpd, result.offline_events, result.online_events


def evaluate_policies(profile: WorkloadProfile,
                      organization: Optional[MemoryOrganization] = None,
                      n_copies: int = 1,
                      perf: Optional[PerformanceModel] = None,
                      system_power: Optional[SystemPowerModel] = None,
                      seed: int = 11,
                      ) -> Dict[Tuple[str, bool], PolicyResult]:
    """Evaluate all four policies, with and without interleaving."""
    organization = organization or spec_server_memory()
    perf = perf or PerformanceModel()
    system_power = system_power or SystemPowerModel()
    power_model = DRAMPowerModel(organization)
    runtimes = _runtimes(profile, organization, perf, n_copies)
    cpu_util = profile.cpu_utilization
    results: Dict[Tuple[str, bool], PolicyResult] = {}

    policies = {name: policy_class(name)
                for name in analytical_policy_names()}
    for interleaved in (True, False):
        for name, policy in policies.items():
            dram_w = power_model.power(policy.estimate(
                profile, organization, interleaved, n_copies)).total_w
            runtime = runtimes[interleaved] * (1.0 + policy.RUNTIME_OVERHEAD)
            system_w = system_power.power_w(cpu_util, dram_w)
            results[(name, interleaved)] = PolicyResult(
                policy=name, interleaved=interleaved, runtime_s=runtime,
                dram_power_w=dram_w, dram_energy_j=dram_w * runtime,
                system_energy_j=system_w * runtime)

    mean_dpd, off_events, on_events = _greendimm_mean_dpd(
        profile, organization, n_copies, seed)
    overhead = perf.greendimm_overhead_fraction(
        profile, off_events, on_events, profile.duration_s)
    srf = policies["srf_only"]
    for interleaved in (True, False):
        # GreenDIMM inherits the operating point's traffic shape and adds
        # sub-array deep power-down for the off-lined capacity.
        profiles = []
        for rank_profile in srf.estimate(profile, organization, interleaved,
                                         n_copies):
            profiles.append(RankPowerProfile(
                state_residency=dict(rank_profile.state_residency),
                bandwidth_bytes_per_s=rank_profile.bandwidth_bytes_per_s,
                row_miss_rate=rank_profile.row_miss_rate,
                dpd_fraction=min(1.0, mean_dpd)))
        dram_w = power_model.power(profiles).total_w
        runtime_overhead = 0.0 if profile.latency_critical else overhead
        runtime = runtimes[interleaved] * (1.0 + runtime_overhead)
        system_w = system_power.power_w(cpu_util, dram_w)
        results[("greendimm", interleaved)] = PolicyResult(
            policy="greendimm", interleaved=interleaved, runtime_s=runtime,
            dram_power_w=dram_w, dram_energy_j=dram_w * runtime,
            system_energy_j=system_w * runtime,
            overhead_fraction=overhead)
    return results


def normalized(results: Dict[Tuple[str, bool], PolicyResult],
               metric: str = "dram_energy_j") -> Dict[Tuple[str, bool], float]:
    """Normalize a metric to the paper's reference: w/o intlv srf_only."""
    reference = getattr(results[("srf_only", False)], metric)
    return {key: getattr(r, metric) / reference for key, r in results.items()}
