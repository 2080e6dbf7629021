"""Whole-catalog sweep: GreenDIMM across every synthetic profile.

A breadth regression beyond the paper's selected set: every SPEC
profile (plus the data-center ones in full mode) that fits the 8 GB
study box must show non-negative DRAM savings and overhead inside the
paper's <3.5% band.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.experiments.blocksize_study import study_organization
from repro.experiments.common import ExperimentResult
from repro.sim.server import ServerSimulator
from repro.units import GIB, MIB
from repro.workloads.datacenter import DATACENTER_PROFILES
from repro.workloads.spec import SPEC_PROFILES


def run(fast: bool = False) -> ExperimentResult:
    profiles = dict(SPEC_PROFILES)
    if not fast:
        profiles.update(DATACENTER_PROFILES)
    table = Table("Catalog sweep — GreenDIMM on every profile (8GB server)",
                  ["application", "suite", "offline ev", "online ev",
                   "energy saved", "overhead"])
    savings = {}
    overheads = {}
    for index, (name, profile) in enumerate(sorted(profiles.items())):
        if profile.peak_footprint_bytes > 6 * GIB:
            continue
        system = GreenDIMMSystem(
            organization=study_organization(),
            config=GreenDIMMConfig(block_bytes=128 * MIB),
            kernel_boot_bytes=512 * MIB,
            transient_failure_probability=0.6, seed=300 + index)
        simulator = ServerSimulator(system, seed=300 + index)
        result = simulator.run_workload(profile, epoch_s=2.0 if fast else 1.0)
        savings[name] = result.dram_energy_saving
        overheads[name] = result.overhead_fraction
        table.add_row(name, profile.suite.value, result.offline_events,
                      result.online_events, f"{savings[name]:.1%}",
                      f"{overheads[name]:.2%}")
    return ExperimentResult(
        experiment="suite-sweep",
        description="breadth regression over the whole workload catalog",
        tables=[table],
        measured={
            "profiles_run": len(savings),
            "min_saving": min(savings.values()),
            "worst_overhead": max(overheads.values()),
        })
