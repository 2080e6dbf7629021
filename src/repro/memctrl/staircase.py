"""gem5-style idle/power-down staircase microbenchmarks.

The gem5 power-down integration paper (Jagtap et al., arXiv 1803.07613)
validates DRAM low-power state machines with an idle-period sweep: a
short access burst followed by an idle gap of growing length.  As the
gap crosses each demotion threshold the rank steps down the ladder —
precharge standby, then precharge power-down, then self-refresh — and
the idle-energy-vs-idle-time curve bends at exactly those thresholds,
its slope dropping to the deeper state's background power.  That
staircase shape is an *independent* reference for the
:mod:`repro.memctrl` state machines: it pins entry thresholds, exit
latencies, and residency accounting against published behaviour instead
of only GreenDIMM's own measurements.

Three sweeps live here:

* :func:`run_staircase` — drives :class:`~repro.memctrl.lowpower.
  RankLowPowerPolicy` through the idle sweep and prices each point with
  the :class:`~repro.power.model.DRAMPowerModel` background/refresh
  terms.
* :func:`run_pasr_sweep` — walks :class:`~repro.memctrl.pasr.
  PASRBitVector` through progressive bank gating (refresh fraction must
  fall monotonically, one bank's worth per step).
* :func:`run_mrs_sweep` — programs growing gate masks through
  :class:`~repro.memctrl.moderegister.ModeRegisterFile`, checking MRS
  command latency accounting.

``validate.py`` exposes the headline assertions as paper-anchor checks,
and the ``gem5-staircase`` experiment feeds the whole sweep into the
figure regression suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dram.organization import MemoryOrganization, spec_server_memory
from repro.errors import ConfigurationError
from repro.memctrl.lowpower import LowPowerConfig, RankLowPowerPolicy
from repro.memctrl.moderegister import (
    MRS_PAYLOAD_BITS,
    TMRD_NS,
    ModeRegisterFile,
)
from repro.memctrl.pasr import PASRBitVector
from repro.power.model import DRAMPowerModel
from repro.power.states import PowerState, exit_latency_ns

#: Length of the access burst that precedes every idle gap, ns.
BURST_NS = 100.0

#: Idle-gap sweep, ns: dense around the default demotion thresholds
#: (1 us to power-down, 64 us to self-refresh) and stretching well past
#: them so each regime contributes several points.
DEFAULT_IDLE_SWEEP_NS: Tuple[float, ...] = (
    100.0, 300.0, 700.0, 999.0, 1_000.0, 1_500.0, 3_000.0, 10_000.0,
    30_000.0, 63_999.0, 64_000.0, 100_000.0, 300_000.0, 1_000_000.0,
)


@dataclass(frozen=True)
class StaircasePoint:
    """One idle gap's worth of the sweep."""

    idle_ns: float
    #: State the rank is in at the end of the gap (before wake-up).
    state: PowerState
    #: Exit latency the wake-up access pays, ns.
    wake_penalty_ns: float
    #: Residency buckets over the whole window (burst + idle), ns.
    residency_ns: Dict[PowerState, float]
    #: Background+refresh energy spent over the idle gap, nJ.
    idle_energy_nj: float

    @property
    def idle_power_w(self) -> float:
        """Mean background+refresh power over the idle gap."""
        return (self.idle_energy_nj / self.idle_ns) if self.idle_ns else 0.0


def run_staircase(organization: Optional[MemoryOrganization] = None,
                  config: Optional[LowPowerConfig] = None,
                  idle_sweep_ns: Tuple[float, ...] = DEFAULT_IDLE_SWEEP_NS,
                  ) -> List[StaircasePoint]:
    """Drive a fresh rank policy through every idle gap of the sweep."""
    organization = organization or spec_server_memory()
    config = config or LowPowerConfig()
    model = DRAMPowerModel(organization)
    # One rank's background + refresh power in each state, watts.
    devices = organization.devices_per_rank
    state_power = {state: devices * power_w for state, power_w
                   in model.device_model.static_power_w.items()}
    points: List[StaircasePoint] = []
    for idle_ns in idle_sweep_ns:
        if idle_ns <= 0:
            raise ConfigurationError("idle gaps must be positive")
        policy = RankLowPowerPolicy(config)
        policy.note_activity(BURST_NS, busy_from_ns=0.0)
        end_ns = BURST_NS + idle_ns
        state = policy.state_at(end_ns)
        penalty = policy.wake_penalty_ns(end_ns)
        policy.account_until(end_ns)
        residency = dict(policy.residency.time_ns)
        idle_energy_nj = sum(
            duration * state_power[bucket_state]
            for bucket_state, duration in residency.items()
            if bucket_state is not PowerState.ACTIVE_STANDBY)
        points.append(StaircasePoint(
            idle_ns=idle_ns, state=state, wake_penalty_ns=penalty,
            residency_ns=residency, idle_energy_nj=idle_energy_nj))
    return points


def detect_entry_threshold(target: PowerState,
                           config: Optional[LowPowerConfig] = None,
                           hi_ns: float = 10_000_000.0) -> float:
    """Smallest idle gap (ns) at which the policy reaches *target*.

    Bisects the policy's own ``state_at`` ladder, so the detected
    threshold is a measurement of the state machine, not a read-back of
    its configuration — the point of an independent validation.
    """
    config = config or LowPowerConfig()
    policy = RankLowPowerPolicy(config)

    def reached(idle_ns: float) -> bool:
        state = policy.state_at(policy.last_activity_ns + idle_ns)
        if target is PowerState.POWER_DOWN:
            return state in (PowerState.POWER_DOWN, PowerState.SELF_REFRESH)
        return state is target
    lo, hi = 0.0, hi_ns
    if not reached(hi):
        raise ConfigurationError(
            f"{target.value} never entered within {hi_ns:g} ns")
    for _ in range(80):  # float64 bisection converges long before this
        mid = (lo + hi) / 2.0
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class StaircaseValidation:
    """Aggregate verdicts over one staircase sweep."""

    points: List[StaircasePoint]
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_staircase(points: List[StaircasePoint],
                       config: Optional[LowPowerConfig] = None) -> StaircaseValidation:
    """Check the staircase contract over a sweep's points.

    * states step down the ladder exactly at the configured thresholds;
    * every wake-up pays its state's published exit latency;
    * residency buckets close over the whole window (burst + idle);
    * idle energy grows monotonically with idle time while the marginal
      power (the curve's slope) never increases — the staircase shape.
    """
    config = config or LowPowerConfig()
    validation = StaircaseValidation(points=points)
    problems = validation.violations
    for point in points:
        expected = PowerState.PRECHARGE_STANDBY
        if config.enabled and point.idle_ns >= config.selfrefresh_idle_ns:
            expected = PowerState.SELF_REFRESH
        elif config.enabled and point.idle_ns >= config.powerdown_idle_ns:
            expected = PowerState.POWER_DOWN
        if point.state is not expected:
            problems.append(
                f"idle {point.idle_ns:g} ns: in {point.state.value}, "
                f"expected {expected.value}")
        if point.wake_penalty_ns != exit_latency_ns(point.state):
            problems.append(
                f"idle {point.idle_ns:g} ns: wake penalty "
                f"{point.wake_penalty_ns:g} ns != "
                f"{exit_latency_ns(point.state):g} ns ({point.state.value})")
        accounted = sum(point.residency_ns.values())
        window = BURST_NS + point.idle_ns
        if abs(accounted - window) > 1e-6 * window:
            problems.append(
                f"idle {point.idle_ns:g} ns: residency sums to "
                f"{accounted:g} ns over a {window:g} ns window")
    ordered = sorted(points, key=lambda p: p.idle_ns)
    last_slope = float("inf")
    for before, after in zip(ordered, ordered[1:]):
        if after.idle_energy_nj < before.idle_energy_nj - 1e-9:
            problems.append(
                f"idle energy fell between {before.idle_ns:g} and "
                f"{after.idle_ns:g} ns")
        slope = ((after.idle_energy_nj - before.idle_energy_nj)
                 / (after.idle_ns - before.idle_ns))
        if slope > last_slope * (1.0 + 1e-9):
            problems.append(
                f"marginal idle power rose between {before.idle_ns:g} and "
                f"{after.idle_ns:g} ns ({slope:g} > {last_slope:g} W) — "
                f"not a staircase")
        last_slope = slope
    return validation


# --- PASR and mode-register sweeps --------------------------------------------

def run_pasr_sweep(organization: Optional[MemoryOrganization] = None
                   ) -> List[Tuple[int, float]]:
    """Disable refresh bank by bank; returns (banks gated, fraction) steps.

    The refreshing fraction must fall by exactly one bank's share per
    step — the PASR mask has no hidden coupling between banks.
    """
    organization = organization or spec_server_memory()
    pasr = PASRBitVector(organization)
    steps = [(0, pasr.refreshing_fraction())]
    gated = 0
    for rank in range(organization.total_ranks):
        for bank in range(pasr.banks_per_rank):
            pasr.disable_refresh(rank, bank)
            gated += 1
            steps.append((gated, pasr.refreshing_fraction()))
    return steps


def validate_pasr_sweep(steps: List[Tuple[int, float]],
                        organization: Optional[MemoryOrganization] = None) -> List[str]:
    organization = organization or spec_server_memory()
    problems: List[str] = []
    total = organization.total_ranks * organization.device.banks
    for (gated_a, frac_a), (gated_b, frac_b) in zip(steps, steps[1:]):
        expected = 1.0 - gated_b / total
        if abs(frac_b - expected) > 1e-12:
            problems.append(f"after gating {gated_b} banks the refreshing "
                            f"fraction is {frac_b:g}, expected {expected:g}")
        if frac_b > frac_a:
            problems.append(f"refreshing fraction rose at step {gated_b}")
    if steps and steps[-1][1] != 0.0:
        problems.append("full gating left banks refreshing")
    return problems


def run_mrs_sweep(organization: Optional[MemoryOrganization] = None,
                  mask_bits: int = 64) -> Dict[str, float]:
    """Program growing gate masks; returns MRS accounting headlines.

    Growing the mask one 16-bit slice at a time must cost exactly one
    tMRD per step, re-programming an identical mask must be free, and
    a full update costs every slice.
    """
    organization = organization or spec_server_memory()
    mrf = ModeRegisterFile(organization.total_ranks, mask_bits=mask_bits)
    slices = mask_bits // MRS_PAYLOAD_BITS
    per_slice_ns = [
        mrf.broadcast_gate_mask((1 << ((index + 1) * MRS_PAYLOAD_BITS)) - 1)
        for index in range(slices)]
    idempotent_ns = mrf.broadcast_gate_mask((1 << mask_bits) - 1)
    mrf_full = ModeRegisterFile(organization.total_ranks,
                                mask_bits=mask_bits)
    full_update_ns = mrf_full.broadcast_gate_mask((1 << mask_bits) - 1)
    return {
        "slice_update_ns": max(per_slice_ns) if per_slice_ns else 0.0,
        "slice_updates_uniform": float(len(set(per_slice_ns)) <= 1),
        "idempotent_update_ns": idempotent_ns,
        "full_update_ns": full_update_ns,
        "expected_full_update_ns": slices * TMRD_NS,
        "commands": float(mrf.commands),
    }
