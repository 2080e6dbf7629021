"""Policy tournament: every registered power policy x the scenario matrix.

The Figure 9/10 experiments compare policies analytically (the
closed-form operating points of each rank-level policy class's
``estimate``); the golden kernel suite
pins the GreenDIMM daemon alone.  This experiment closes the gap: it
runs every *in-kernel* policy from :mod:`repro.policies.registry`
through the full scenario matrix — a steady workload, pinned-page
churn, a seeded fault storm, an Azure VM-trace replay, and a
co-located mix — on one 16 GiB consolidation box, and reports
residency, energy, and tail behavior per (policy, scenario) cell.

Cells are independent and picklable, so the matrix fans out over
:func:`repro.runner.fan_out` (``repro tournament --workers N``); the
serial path is the bitwise reference, as everywhere in this repo.

The headline cross-check: restricted to the policies that also have a
closed-form estimate, the in-kernel steady-state energy ranking must
agree with the analytical Figure 9/10 power ranking — the live
reimplementations and the paper-facing estimates must tell one story.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.policies.registry import (
    analytical_policy_names,
    policy_class,
    policy_names,
)
from repro.policies.schema import PolicyRow, mean_saving_by_policy, render_rows
from repro.units import MIB

TOURNAMENT_SEED = 1107

#: Scenario id -> one-line description, in canonical matrix order.
SCENARIOS: Tuple[Tuple[str, str], ...] = (
    ("steady", "429.mcf alone, no pinned churn"),
    ("churn", "450.soplex with pinned-page churn"),
    ("storm", "429.mcf under a seeded fault storm"),
    ("azure", "Azure VM-trace replay (consolidation box)"),
    ("mix", "co-located 429.mcf + 471.omnetpp + 433.milc"),
)


@dataclass(frozen=True)
class TournamentJob:
    """One (policy, scenario) cell, picklable for the fan-out pool."""

    policy: str
    scenario: str
    fast: bool

    def describe(self) -> str:
        return f"{self.policy}/{self.scenario}"


def _tournament_memory():
    """The 16 GiB consolidation box every cell runs on.

    Small enough that footprints leave whole ranks idle (the rank-level
    policies need something to gate), large enough for the Azure trace.
    """
    from repro.sim.fleet import fleet_server_memory

    return fleet_server_memory()


def _build(policy: str, fast: bool, fault_plan=None):
    from repro.core.config import GreenDIMMConfig
    from repro.core.system import GreenDIMMSystem
    from repro.sim.server import ServerSimulator

    system = GreenDIMMSystem(
        organization=_tournament_memory(),
        config=GreenDIMMConfig(block_bytes=512 * MIB),
        policy=policy,
        fault_plan=fault_plan,
        seed=TOURNAMENT_SEED)
    return system, ServerSimulator(system, seed=TOURNAMENT_SEED)


def _profile(name: str, fast: bool):
    from repro.workloads.registry import profile_by_name

    profile = profile_by_name(name)
    if fast:
        profile = dataclasses.replace(profile, duration_s=180.0)
    return profile


def _row(job: TournamentJob, system, runtime_s: float, dram_energy_j: float,
         baseline_j: float, overhead: float, residency,
         extras: Dict[str, float]) -> PolicyRow:
    """Fold one finished cell into the shared row schema."""
    policy = system.policy
    stats = policy.stats
    merged = dict(extras)
    for state, share in residency.fractions().items():
        merged[f"residency_{state}"] = share
    for key, value in policy.policy_metrics().items():
        merged[f"policy_{key}"] = value
    merged["offline_events"] = stats.offline_events
    merged["online_events"] = stats.online_events
    merged["emergency_onlines"] = stats.emergency_onlines
    if system.fault_injector is not None:
        merged["injected_faults"] = system.fault_injector.stats.total
    saving = (1.0 - dram_energy_j / baseline_j) if baseline_j > 0 else 0.0
    return PolicyRow(
        policy=job.policy,
        scenario=job.scenario,
        runtime_s=runtime_s,
        dram_power_w=dram_energy_j / runtime_s if runtime_s > 0 else 0.0,
        dram_energy_j=dram_energy_j,
        baseline_dram_energy_j=baseline_j,
        dram_energy_saving=saving,
        overhead_fraction=overhead,
        extras=merged)


def _workload_extras(result) -> Dict[str, float]:
    samples = result.samples
    mean_dpd = (sum(samples.values("dpd_fraction")) / len(samples)
                if samples else 0.0)
    max_offline = samples.max("offline_blocks", default=0)
    return {"mean_dpd_fraction": mean_dpd,
            "max_offline_blocks": max_offline}


def _run_workload_cell(job: TournamentJob, profile_name: str,
                       pinned_churn: bool, fault_plan=None,
                       n_copies: int = 1) -> PolicyRow:
    system, simulator = _build(job.policy, job.fast, fault_plan=fault_plan)
    profile = _profile(profile_name, job.fast)
    result = simulator.run_workload(
        profile, n_copies=n_copies,
        epoch_s=2.0 if job.fast else 1.0,
        pinned_churn=pinned_churn)
    return _row(job, system, result.runtime_s, result.dram_energy_j,
                result.baseline_dram_energy_j, result.overhead_fraction,
                result.residency, _workload_extras(result))


def _run_azure_cell(job: TournamentJob) -> PolicyRow:
    # The Azure generator models datacenter-scale arrivals; a single
    # 16 GiB box is below its granularity.  Generate a 4-server fleet
    # trace and replay shard 0, exactly as the fleet experiment does.
    from repro.sim.fleet import FleetSource

    system, simulator = _build(job.policy, job.fast)
    epoch_s = 5.0
    duration_s = (2.0 if job.fast else 8.0) * 3600.0
    source = FleetSource(num_servers=4, duration_s=duration_s,
                         seed=TOURNAMENT_SEED, epoch_s=epoch_s,
                         policy=job.policy)
    result = simulator.run_vm_trace(source.shard(0), epoch_s=epoch_s)
    extras = _workload_extras(result)
    extras["max_offline_blocks"] = result.max_offline_blocks
    runtime_s = (result.samples[-1].time_s + epoch_s
                 if result.samples else 0.0)
    return _row(job, system, runtime_s, result.dram_energy_j,
                result.baseline_dram_energy_j, 0.0,
                result.residency, extras)


def _run_mix_cell(job: TournamentJob) -> PolicyRow:
    system, simulator = _build(job.policy, job.fast)
    profiles = [_profile(name, job.fast)
                for name in ("429.mcf", "471.omnetpp", "433.milc")]
    result = simulator.run_mix(profiles, epoch_s=2.0 if job.fast else 1.0)
    return _row(job, system,
                result.elapsed_s * (1.0 + result.worst_overhead),
                result.dram_energy_j, result.baseline_dram_energy_j,
                result.worst_overhead, result.residency,
                _workload_extras(result))


def run_cell(job: TournamentJob) -> PolicyRow:
    """Run one tournament cell (module-level: pool-picklable)."""
    if job.scenario == "steady":
        return _run_workload_cell(job, "429.mcf", pinned_churn=False)
    if job.scenario == "churn":
        return _run_workload_cell(job, "450.soplex", pinned_churn=True)
    if job.scenario == "storm":
        from repro.faults import storm_plan

        plan = storm_plan(303, intensity=4.0, duration_s=120.0,
                          num_blocks=64)
        return _run_workload_cell(job, "429.mcf", pinned_churn=True,
                                  fault_plan=plan)
    if job.scenario == "azure":
        return _run_azure_cell(job)
    if job.scenario == "mix":
        return _run_mix_cell(job)
    from repro.errors import ConfigurationError

    known = ", ".join(name for name, _ in SCENARIOS)
    raise ConfigurationError(
        f"unknown tournament scenario {job.scenario!r} (known: {known})")


def analytical_powers() -> Dict[str, float]:
    """Closed-form DRAM power of each analytical policy, in watts.

    Evaluated at the tournament's own operating point (the steady
    profile, non-interleaved, on the 16 GiB box).
    """
    from repro.power.model import DRAMPowerModel
    from repro.workloads.registry import profile_by_name

    organization = _tournament_memory()
    power_model = DRAMPowerModel(organization)
    profile = profile_by_name("429.mcf")
    return {name: power_model.power(policy_class(name).estimate(
                profile, organization, False, 1)).total_w
            for name in analytical_policy_names()}


def analytical_ranking() -> List[str]:
    """Figure 9/10's static view: analytical policies by DRAM power,
    best first."""
    powers = analytical_powers()
    return sorted(powers, key=lambda name: powers[name])


def kernel_ranking(rows: Sequence[PolicyRow],
                   scenario: str = "steady") -> List[str]:
    """In-kernel ranking on one scenario, restricted to the analytical
    policies, best (highest DRAM energy saving) first."""
    savings = {row.policy: row.dram_energy_saving for row in rows
               if row.scenario == scenario
               and row.policy in analytical_policy_names()}
    return sorted(savings, key=lambda name: -savings[name])


def run(fast: bool = False,
        policies: Optional[Sequence[str]] = None,
        scenarios: Optional[Sequence[str]] = None,
        workers: int = 1,
        metrics=None) -> ExperimentResult:
    """Run the (policy x scenario) matrix and cross-check the rankings."""
    from repro.errors import ConfigurationError
    from repro.runner import fan_out

    chosen_policies = tuple(policies) if policies else policy_names()
    unknown = [p for p in chosen_policies if p not in policy_names()]
    if unknown:
        raise ConfigurationError(
            f"unknown policy {unknown[0]!r}; "
            f"known: {', '.join(policy_names())}")
    scenario_ids = tuple(name for name, _ in SCENARIOS)
    chosen_scenarios = tuple(scenarios) if scenarios else scenario_ids
    unknown = [s for s in chosen_scenarios if s not in scenario_ids]
    if unknown:
        raise ConfigurationError(
            f"unknown scenario {unknown[0]!r}; "
            f"known: {', '.join(scenario_ids)}")

    jobs = [TournamentJob(policy=policy, scenario=scenario, fast=fast)
            for scenario in chosen_scenarios for policy in chosen_policies]
    rows: List[PolicyRow] = fan_out(run_cell, jobs, workers=workers,
                                    metrics=metrics,
                                    label=lambda job: job.describe())
    if metrics is not None:
        for row in rows:
            metrics.emit("tournament_row", **row.as_dict())

    table = render_rows(
        "Policy tournament — every in-kernel policy across the scenario "
        "matrix (16 GiB consolidation box)", rows)
    means = mean_saving_by_policy(rows)
    best_policy = max(means, key=lambda name: means[name]) if means else ""

    measured: Dict[str, object] = {
        "cells": len(rows),
        "best_policy": best_policy,
    }
    for policy, saving in means.items():
        measured[f"mean_saving_{policy}"] = saving
    analytical = analytical_ranking()
    notes = ("per-cell rows carry residency/energy/tail extras into the "
             "metrics stream (see 'repro tournament --report')")
    if "steady" in chosen_scenarios and all(
            name in chosen_policies for name in analytical):
        in_kernel = kernel_ranking(rows)
        measured["ranking_consistent"] = in_kernel == analytical
        notes += ("; in-kernel steady ranking "
                  f"[{', '.join(in_kernel)}] vs analytical "
                  f"[{', '.join(analytical)}]")
    return ExperimentResult(
        experiment="tournament",
        description="policy tournament across the full scenario matrix "
                    "(extension beyond the paper)",
        tables=[table],
        measured=measured,
        paper={"ranking_consistent": True},
        notes=notes)
