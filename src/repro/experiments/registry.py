"""One place that knows every experiment's name and runner.

The CLI, the ``repro figures`` suite, and the EXPERIMENTS.md generator
all resolve experiments through this table, so adding a module here
makes it available everywhere at once.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult


def runners() -> Dict[str, Callable[..., ExperimentResult]]:
    """Name -> ``run(fast=...)`` callable for every experiment."""
    from repro.experiments import (
        colocation,
        daemon_overhead,
        fig01_utilization,
        fig02_idle_busy,
        fig03_interleaving,
        fault_storm,
        fleet,
        fig08_failures,
        fig12_offlined_blocks,
        fig13_capacity_scaling,
        gem5_staircase,
        suite_sweep,
        tab01_power_vs_util,
        tab03_latency,
        tail_latency,
        tournament,
    )
    from repro.experiments.ablations import (
        run_monitor_period,
        run_movablecore,
        run_off_thr,
        run_pair_gating,
    )
    from repro.experiments.fig06_07_tab02_blocksize import (
        run_fig06,
        run_fig07,
        run_tab02,
    )
    from repro.experiments.fig09_10_11_policies import (
        run_fig09,
        run_fig10,
        run_fig11,
    )

    return {
        "fig1": fig01_utilization.run,
        "tab1": tab01_power_vs_util.run,
        "fig2": fig02_idle_busy.run,
        "fig3": fig03_interleaving.run,
        "fig6": run_fig06,
        "fig7": run_fig07,
        "tab2": run_tab02,
        "tab3": tab03_latency.run,
        "fig8": fig08_failures.run,
        "fig9": run_fig09,
        "fig10": run_fig10,
        "fig11": run_fig11,
        "fig12": fig12_offlined_blocks.run,
        "fig13": fig13_capacity_scaling.run,
        "daemon-overhead": daemon_overhead.run,
        "tail-latency": tail_latency.run,
        "fault-storm": fault_storm.run,
        "fleet": fleet.run,
        "gem5-staircase": gem5_staircase.run,
        "tournament": tournament.run,
        "ablation-off-thr": run_off_thr,
        "ablation-monitor-period": run_monitor_period,
        "ablation-movablecore": run_movablecore,
        "ablation-pair-gating": run_pair_gating,
        "colocation": colocation.run,
        "suite-sweep": suite_sweep.run,
    }


def run_experiment(name: str, fast: bool = False) -> ExperimentResult:
    """Run one experiment by name."""
    table = runners()
    if name not in table:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(table))}")
    return table[name](fast=fast)
