"""Colocation study: GreenDIMM under a consolidated multi-workload mix.

Beyond the paper's single-workload runs: several applications share one
64GB server, their footprint dynamics overlap, and the daemon manages
the union.  Savings must persist and per-app interference must stay
inside the paper's <3.5% band.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.experiments.common import ExperimentResult
from repro.sim.server import ServerSimulator
from repro.units import MIB
from repro.workloads import profile_by_name

MIXES = {
    "cpu-bound": ("403.gcc", "453.povray", "500.perlbench"),
    "memory-bound": ("429.mcf", "470.lbm", "462.libquantum"),
    "mixed": ("403.gcc", "429.mcf", "453.povray", "470.lbm"),
}


def run(fast: bool = False) -> ExperimentResult:
    table = Table("Colocation — GreenDIMM under multi-workload mixes (64GB)",
                  ["mix", "apps", "offline ev", "energy saved",
                   "worst overhead"])
    measured = {}
    for index, (label, names) in enumerate(MIXES.items()):
        system = GreenDIMMSystem(
            config=GreenDIMMConfig(block_bytes=128 * MIB),
            transient_failure_probability=0.6, seed=400 + index)
        simulator = ServerSimulator(system, seed=400 + index)
        profiles = [profile_by_name(n) for n in names]
        result = simulator.run_mix(profiles, epoch_s=2.0 if fast else 1.0)
        table.add_row(label, len(names), result.offline_events,
                      f"{result.dram_energy_saving:.1%}",
                      f"{result.worst_overhead:.2%}")
        measured[f"{label}_saving"] = result.dram_energy_saving
        measured[f"{label}_worst_overhead"] = result.worst_overhead
    return ExperimentResult(
        experiment="colocation",
        description="consolidated multi-workload operation (extension)",
        tables=[table],
        measured=measured)
