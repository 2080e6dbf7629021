"""Self-validation: quick checks that the models still match the paper.

``python -m repro validate`` runs these after an install or a local
change: each check is cheap (< a second), compares one calibrated model
output against the paper's measured anchor, and reports pass/fail with
the two numbers side by side.  The full audit is ``repro figures
check`` plus the claims in ``tests/test_experiments.py``; this is the
smoke-test version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.analysis.report import Table
from repro.dram.device import DDR4_8GB_X8
from repro.dram.organization import azure_server_memory, spec_server_memory
from repro.memctrl.lowpower import LowPowerConfig
from repro.memctrl.staircase import (
    detect_entry_threshold,
    run_pasr_sweep,
    run_staircase,
    validate_pasr_sweep,
    validate_staircase,
)
from repro.power.cacti import estimate_gating_cost
from repro.power.model import DRAMPowerModel
from repro.power.states import PowerState, exit_latency_ns
from repro.os.hotplug import HotplugLatencyModel
from repro.sim.perfmodel import PerformanceModel
from repro.workloads.registry import profile_by_name

#: Busy-load bandwidth anchor (16 copies of mcf).
_BUSY_BW = 14e9


@dataclass(frozen=True)
class CheckResult:
    name: str
    paper_value: float
    measured_value: float
    tolerance: float  # relative

    @property
    def passed(self) -> bool:
        if self.paper_value == 0:
            return abs(self.measured_value) <= self.tolerance
        return (abs(self.measured_value - self.paper_value)
                <= self.tolerance * abs(self.paper_value))


def _checks() -> List[Tuple[str, float, Callable[[], float], float]]:
    """(name, paper value, measurement thunk, relative tolerance)."""
    azure = DRAMPowerModel(azure_server_memory())
    spec = DRAMPowerModel(spec_server_memory())
    perf = PerformanceModel()
    latency = HotplugLatencyModel()
    return [
        ("idle DRAM power @256GB (W)", 18.0,
         lambda: azure.idle_power().total_w, 0.12),
        ("busy DRAM power @256GB (W)", 26.0,
         lambda: azure.busy_power(_BUSY_BW, active_residency=0.6).total_w,
         0.12),
        ("busy DRAM power @64GB (W)", 9.0,
         lambda: spec.busy_power(_BUSY_BW, active_residency=0.6).total_w,
         0.15),
        ("power-down exit (ns)", 18.0,
         lambda: exit_latency_ns(PowerState.POWER_DOWN), 0.0),
        ("self-refresh exit (ns)", 768.0,
         lambda: exit_latency_ns(PowerState.SELF_REFRESH), 0.0),
        ("deep power-down exit (ns)", 18.0,
         lambda: exit_latency_ns(PowerState.DEEP_POWER_DOWN), 0.0),
        ("off-lining latency (ms)", 1.58,
         lambda: latency.offline_success_s * 1e3, 0.01),
        ("on-lining latency (ms)", 3.44,
         lambda: latency.online_s * 1e3, 0.01),
        ("EAGAIN latency (ms)", 4.37,
         lambda: latency.failure_eagain_s * 1e3, 0.01),
        ("gating switch area fraction", 0.0064,
         lambda: estimate_gating_cost(DDR4_8GB_X8).switch_area_fraction,
         0.05),
        ("lbm interleaving speedup (x)", 3.8,
         lambda: perf.speedup_from_interleaving(
             profile_by_name("470.lbm"), spec_server_memory(), n_copies=16),
         0.35),
        ("min power unit fraction", 0.015625,
         lambda: (spec_server_memory().min_power_unit_bytes
                  / spec_server_memory().total_capacity_bytes), 0.0),
        # gem5 staircase (Jagtap et al.): the idle-period sweep must
        # demote at the configured thresholds — detected by bisection on
        # the state machine itself — and trace a monotone staircase.
        ("staircase power-down entry (ns)",
         LowPowerConfig().powerdown_idle_ns,
         lambda: detect_entry_threshold(PowerState.POWER_DOWN), 1e-9),
        ("staircase self-refresh entry (ns)",
         LowPowerConfig().selfrefresh_idle_ns,
         lambda: detect_entry_threshold(PowerState.SELF_REFRESH), 1e-9),
        ("staircase contract violations", 0.0,
         lambda: float(len(validate_staircase(run_staircase()).violations)),
         0.0),
        ("PASR gating sweep violations", 0.0,
         lambda: float(len(validate_pasr_sweep(run_pasr_sweep()))), 0.0),
    ]


def run_validation() -> List[CheckResult]:
    """Execute every check; returns the structured results."""
    results = []
    for name, paper_value, thunk, tolerance in _checks():
        results.append(CheckResult(name=name, paper_value=paper_value,
                                   measured_value=float(thunk()),
                                   tolerance=tolerance))
    return results


def render_validation(results: List[CheckResult]) -> str:
    table = Table("Model validation against paper anchors",
                  ["check", "paper", "measured", "tolerance", "status"])
    for result in results:
        table.add_row(result.name, f"{result.paper_value:g}",
                      f"{result.measured_value:.4g}",
                      f"±{result.tolerance:.0%}" if result.tolerance else "exact",
                      "ok" if result.passed else "FAIL")
    return table.render()
