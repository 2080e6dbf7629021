"""gem5 power-down staircase: independent validation of the memctrl
low-power state machines.

Not a GreenDIMM figure — the idle/power-down staircase of the gem5
power-down integration paper (Jagtap et al., arXiv 1803.07613), run as a
reproduction experiment so the figure regression suite pins it like any
figure.  The sweep drives ``repro.memctrl``'s rank low-power policy,
PASR mask, and mode-register file through idle-period, bank-gating, and
gate-mask staircases; the headline numbers are the detected demotion
thresholds, the published exit latencies, and the violation counts of
the staircase/monotonicity contracts (all of which must be zero).
The mode-register lock-step pin drives a real
:class:`~repro.core.power_control.GreenDIMMPowerControl` through
offline, on-line and partner-broken un-gate events and recounts the MRS
commands each register change needs (:func:`check_mrs_lockstep`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Tuple

from repro.analysis.report import Table
from repro.core.mapping import PowerBlockMap
from repro.core.power_control import GreenDIMMPowerControl
from repro.dram.address import AddressMapping
from repro.dram.organization import spec_server_memory
from repro.experiments.common import ExperimentResult
from repro.memctrl.lowpower import LowPowerConfig
from repro.memctrl.moderegister import MRS_PAYLOAD_BITS, TMRD_NS
from repro.memctrl.staircase import (
    DEFAULT_IDLE_SWEEP_NS,
    detect_entry_threshold,
    run_mrs_sweep,
    run_pasr_sweep,
    run_staircase,
    validate_pasr_sweep,
    validate_staircase,
)
from repro.power.states import PowerState, exit_latency_ns
from repro.units import MIB

#: Extra idle points the full (non-fast) run adds between the sweep's
#: decades, for a denser curve around each threshold.
_FULL_EXTRA_NS = (200.0, 500.0, 2_000.0, 5_000.0, 20_000.0, 50_000.0,
                  200_000.0, 500_000.0, 2_000_000.0)


def _changed_slices(old: int, new: int, mask_bits: int) -> int:
    """16-bit MR slices that differ between two masks, counted afresh."""
    return sum(1 for index in range(mask_bits // MRS_PAYLOAD_BITS)
               if (old ^ new) >> (index * MRS_PAYLOAD_BITS)
               & ((1 << MRS_PAYLOAD_BITS) - 1))


def check_mrs_lockstep() -> List[str]:
    """Drive real power control through a gating script; returns violations.

    On the 64GB platform with 128 MiB blocks a group is eight blocks.
    The script off-lines groups 2, 3, 40 and 41 block by block (pair
    gating).  It then prepares and completes the on-lining of one block
    of group 3, which breaks its partner group 2, and re-offlines that
    block.  After every event the mode-register mask must equal the
    control register, the MRS command count must equal the ranks times
    the changed slices summed over the register values seen so far, and
    the MRS time must be those slices times tMRD.  A gating event that
    skips the MRS broadcast fails all three.
    """
    organization = spec_server_memory()
    control = GreenDIMMPowerControl(
        PowerBlockMap(AddressMapping(organization), 128 * MIB),
        pair_gating=True)
    registers = control.mode_registers
    script: List[Tuple[str, Callable[[], object]]] = [
        (f"offline {block}", partial(control.block_offlined, block))
        for block in (*range(16, 32), *range(320, 336))]
    script += [
        ("prepare_online 31", partial(control.prepare_online, 31, 1.0)),
        ("online 31", partial(control.block_onlined, 31, 1.0)),
        ("re-offline 31", partial(control.block_offlined, 31, 2.0)),
    ]
    problems: List[str] = []
    observed = 0
    expected_commands = 0
    expected_ns = 0.0
    for name, event in script:
        outcome = event()
        if name == "online 31" and outcome != [2]:
            problems.append(f"online 31 un-gated {outcome}, not partner 2")
        raw = control.register.raw_value()
        slices = _changed_slices(observed, raw, registers.mask_bits)
        expected_commands += organization.total_ranks * slices
        expected_ns += slices * TMRD_NS
        observed = raw
        if registers.mask != raw:
            problems.append(f"after {name}: MR mask {registers.mask:#x} != "
                            f"register {raw:#x}")
        if registers.commands != expected_commands:
            problems.append(f"after {name}: {registers.commands} MRS "
                            f"commands, expected {expected_commands}")
        if control.mrs_time_ns != expected_ns:
            problems.append(f"after {name}: MRS time {control.mrs_time_ns:g}"
                            f" ns, expected {expected_ns:g} ns")
    return problems


def run(fast: bool = False) -> ExperimentResult:
    config = LowPowerConfig()
    sweep = DEFAULT_IDLE_SWEEP_NS
    if not fast:
        sweep = tuple(sorted(set(sweep) | set(_FULL_EXTRA_NS)))
    points = run_staircase(config=config, idle_sweep_ns=sweep)
    staircase = validate_staircase(points, config=config)

    table = Table("gem5 idle/power-down staircase (one rank, 64GB platform)",
                  ["idle gap", "state at wake", "exit latency",
                   "idle energy", "mean idle power"])
    for point in points:
        table.add_row(f"{point.idle_ns / 1000.0:g} us",
                      point.state.value,
                      f"{point.wake_penalty_ns:g} ns",
                      f"{point.idle_energy_nj:.1f} nJ",
                      f"{point.idle_power_w:.3f} W")

    pasr_steps = run_pasr_sweep()
    pasr_problems = validate_pasr_sweep(pasr_steps)
    mrs = run_mrs_sweep()
    lockstep_problems = check_mrs_lockstep()
    mech = Table("gating command-path staircases",
                 ["mechanism", "steps", "headline", "violations"])
    mech.add_row("PASR bank masks", len(pasr_steps) - 1,
                 f"refreshing fraction {pasr_steps[0][1]:.0%} -> "
                 f"{pasr_steps[-1][1]:.0%}", len(pasr_problems))
    mech.add_row("mode-register gate mask", "4 slices",
                 f"full update {mrs['full_update_ns']:g} ns, "
                 f"idempotent {mrs['idempotent_update_ns']:g} ns",
                 len(lockstep_problems))

    # Idle-power plateaus: one representative point well inside each
    # state regime (past the entry transient, before the next threshold).
    by_idle = {point.idle_ns: point for point in points}
    standby_w = by_idle[700.0].idle_power_w
    powerdown_w = by_idle[10_000.0].idle_power_w
    selfrefresh_w = by_idle[1_000_000.0].idle_power_w
    return ExperimentResult(
        experiment="gem5-staircase",
        description="gem5 power-down staircase validation "
                    "(Jagtap et al., arXiv 1803.07613)",
        tables=[table, mech],
        measured={
            "powerdown_entry_ns": detect_entry_threshold(
                PowerState.POWER_DOWN, config=config),
            "selfrefresh_entry_ns": detect_entry_threshold(
                PowerState.SELF_REFRESH, config=config),
            "powerdown_exit_ns": exit_latency_ns(PowerState.POWER_DOWN),
            "selfrefresh_exit_ns": exit_latency_ns(PowerState.SELF_REFRESH),
            "staircase_violations": len(staircase.violations),
            "pasr_violations": len(pasr_problems),
            "mrs_full_update_ns": mrs["full_update_ns"],
            "mrs_idempotent_update_ns": mrs["idempotent_update_ns"],
            "mrs_lockstep_consistent": not lockstep_problems,
            "idle_power_standby_w": standby_w,
            "idle_power_powerdown_w": powerdown_w,
            "idle_power_selfrefresh_w": selfrefresh_w,
            "powerdown_power_reduction": 1.0 - powerdown_w / standby_w,
            "selfrefresh_power_reduction": 1.0 - selfrefresh_w / standby_w,
        },
        paper={
            # Anchors from the DDR4 datasheet values both papers share.
            "powerdown_entry_ns": config.powerdown_idle_ns,
            "selfrefresh_entry_ns": config.selfrefresh_idle_ns,
            "powerdown_exit_ns": 18.0,
            "selfrefresh_exit_ns": 768.0,
            "staircase_violations": 0,
            "pasr_violations": 0,
            "mrs_full_update_ns": 30.0,
        },
        notes="idle-energy curve is monotone with non-increasing marginal "
              "power (the staircase contract); thresholds are detected by "
              "bisection on the state machine, not read from its config")
