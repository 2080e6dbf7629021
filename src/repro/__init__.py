"""GreenDIMM reproduction: OS-assisted DRAM power management.

A full-system, trace-driven reproduction of *GreenDIMM: OS-assisted DRAM
Power Management for DRAM with a Sub-array Granularity Power-Down State*
(Lee et al., MICRO 2021): DRAM organization and power models, a memory
controller with rank low-power states, an OS physical-memory substrate
with buddy allocation and memory hot-plug, KSM, the GreenDIMM daemon and
sub-array deep power-down, the rank-level policies it is compared
against (self-refresh, RAMZzz, PASR), and
the figure suite regenerating every table and figure of the paper's
evaluation.

Quick start::

    from repro import GreenDIMMSystem, ServerSimulator, profile_by_name

    system = GreenDIMMSystem()
    result = ServerSimulator(system).run_workload(profile_by_name("429.mcf"))
    print(result.dram_energy_saving, result.overhead_fraction)
"""

from repro.core.config import GreenDIMMConfig, SelectionPolicy
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import (
    MemoryOrganization,
    azure_server_memory,
    spec_server_memory,
)
from repro.power.model import DRAMPowerModel
from repro.power.system import SystemPowerModel
from repro.sim.experiment import evaluate_policies, normalized
from repro.sim.server import ServerSimulator
from repro.workloads.registry import all_profiles, profile_by_name

__version__ = "1.0.0"

__all__ = [
    "GreenDIMMConfig",
    "SelectionPolicy",
    "GreenDIMMSystem",
    "MemoryOrganization",
    "spec_server_memory",
    "azure_server_memory",
    "DRAMPowerModel",
    "SystemPowerModel",
    "ServerSimulator",
    "evaluate_policies",
    "normalized",
    "all_profiles",
    "profile_by_name",
    "__version__",
]
