"""Ablations of the design choices the paper fixes.

* ``ablation-off-thr``: the >=10% free-memory reserve (Section 4.2).
* ``ablation-monitor-period``: the 1 s monitor (Section 4.2).
* ``ablation-movablecore``: the boot-time ``movablecore`` split
  (Section 5.2).
* ``ablation-pair-gating``: gating a sub-array group only with its
  sense-amp partner (Section 6.1).

All but the movablecore sweep run one SPEC profile on the 8 GB study
box of Figures 6-8 (:func:`_study_run`).
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.report import Table
from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import spec_server_memory
from repro.experiments.blocksize_study import study_organization
from repro.experiments.common import ExperimentResult
from repro.sim.server import ServerSimulator, WorkloadRunResult
from repro.units import GIB, MIB
from repro.workloads import profile_by_name


def _study_run(profile: str, seed: int, epoch_s: float = 1.0,
               **config) -> Tuple[ServerSimulator, WorkloadRunResult, float]:
    """Run *profile* on the 8 GB study box under ``GreenDIMMConfig(**config)``.

    The box has 128 MiB blocks, a 512 MiB boot image and a 50% transient
    off-lining failure rate.  Returns the simulator, its result, and the
    run's mean gated (deep power-down) capacity fraction.
    """
    system = GreenDIMMSystem(
        organization=study_organization(),
        config=GreenDIMMConfig(block_bytes=128 * MIB, **config),
        kernel_boot_bytes=512 * MIB,
        transient_failure_probability=0.5, seed=seed)
    sim = ServerSimulator(system, seed=seed)
    result = sim.run_workload(profile_by_name(profile), epoch_s=epoch_s)
    gated = sum(result.samples.values("dpd_fraction")) / len(result.samples)
    return sim, result, gated


def run_off_thr(fast: bool = False) -> ExperimentResult:
    """Sweep the reserve: gated capacity against swap thrashing."""
    table = Table("Ablation — off_thr reserve sweep (470.lbm, 8GB server)",
                  ["off_thr", "mean gated fraction", "swapped pages",
                   "swap stall", "overhead"])
    measured = {}
    for off_thr in (0.03, 0.06, 0.09, 0.12, 0.18, 0.25):
        sim, result, gated = _study_run(
            "470.lbm", seed=19, off_thr_fraction=off_thr,
            on_thr_fraction=off_thr * 0.8)
        swap = sim.swap.stats
        table.add_row(f"{off_thr:.0%}", f"{gated:.1%}",
                      swap.total_io_pages, f"{swap.stall_s:.2f}s",
                      f"{result.overhead_fraction:.2%}")
        measured[off_thr] = (gated, swap.total_io_pages)
    return ExperimentResult(
        experiment="ablation-off-thr",
        description="reserve size vs gated capacity and swap thrashing "
                    "(the paper's 10% rule)",
        tables=[table],
        measured={"gated_at_3pct": measured[0.03][0],
                  "gated_at_25pct": measured[0.25][0],
                  "swap_at_3pct": measured[0.03][1],
                  "swap_at_12pct": measured[0.12][1]})


def run_monitor_period(fast: bool = False) -> ExperimentResult:
    """Sweep the monitor period: hot-plug churn against gated capacity."""
    table = Table("Ablation — monitoring period vs hot-plug events "
                  "(403.gcc, 8GB server)",
                  ["period", "mean gated fraction", "offline events",
                   "online events"])
    gated = {}
    offline_events = {}
    for period in (1.0, 5.0, 30.0, 120.0):
        _, result, gated[period] = _study_run(
            "403.gcc", seed=23, monitor_period_s=period)
        offline_events[period] = result.offline_events
        table.add_row(f"{period:.0f}s", f"{gated[period]:.1%}",
                      result.offline_events, result.online_events)
    return ExperimentResult(
        experiment="ablation-monitor-period",
        description="faster monitoring only adds hot-plug work: the 1 s "
                    "monitor re-plugs blocks as the footprint moves, the "
                    "120 s one never off-lines after boot, and both gate "
                    "about the same capacity",
        tables=[table],
        measured={"gated_1s": gated[1.0],
                  "gated_120s": gated[120.0],
                  "offline_events_1s": offline_events[1.0],
                  "offline_events_120s": offline_events[120.0]})


def run_pair_gating(fast: bool = False) -> ExperimentResult:
    """Gated capacity with and without the shared-sense-amp pairing."""
    _, _, paired = _study_run("403.gcc", seed=13, epoch_s=2.0,
                              pair_gating=True)
    _, _, free = _study_run("403.gcc", seed=13, epoch_s=2.0,
                            pair_gating=False)
    table = Table("Ablation — pair-gating constraint",
                  ["configuration", "mean gated capacity fraction"])
    table.add_row("pair gating (paper)", f"{paired:.1%}")
    table.add_row("independent groups", f"{free:.1%}")
    return ExperimentResult(
        experiment="ablation-pair-gating",
        description="gated capacity lost to the shared-sense-amp pairing",
        tables=[table],
        measured={"paired": paired, "independent": free,
                  "cost_fraction": (free - paired) / free if free else 0.0})


def run_movablecore(fast: bool = False) -> ExperimentResult:
    """Gated capacity on an idle 64 GB server against the movable fraction.

    Only ZONE_MOVABLE blocks can be off-lined, so free memory stranded in
    ZONE_NORMAL keeps refreshing forever.
    """
    table = Table("Ablation — movablecore sizing (idle 64GB server)",
                  ["movable fraction", "offline blocks", "gated capacity",
                   "stranded free (GiB)"])
    gated = {}
    for fraction in (0.25, 0.50, 0.75, 0.90):
        system = GreenDIMMSystem(organization=spec_server_memory(),
                                 config=GreenDIMMConfig(block_bytes=GIB),
                                 movable_fraction=fraction,
                                 kernel_boot_bytes=2 * GIB,
                                 transient_failure_probability=0.0, seed=7)
        for t in range(20):
            system.step(float(t))
        stranded = system.mm.zones[0].allocator.free_pages * 4096 / GIB
        gated[fraction] = system.daemon.dpd_fraction()
        table.add_row(f"{fraction:.0%}",
                      f"{system.daemon.offline_block_count}/"
                      f"{system.mm.num_blocks}",
                      f"{gated[fraction]:.1%}", f"{stranded:.1f}")
    return ExperimentResult(
        experiment="ablation-movablecore",
        description="movable-zone sizing caps GreenDIMM's reach",
        tables=[table],
        measured={"gated_at_25pct": gated[0.25],
                  "gated_at_90pct": gated[0.90]})
