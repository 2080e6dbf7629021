"""Per-power-state residency accounting for epoch-kernel runs.

The gem5 DRAM power-down work (Jagtap et al.) makes the case that
power-state reproductions live or die by per-state residency statistics:
an energy number alone cannot tell *why* a run saved what it saved.
This module gives every kernel-driven run that breakdown.

The accounting is **capacity-weighted**: at each epoch the installed
DRAM splits into the fraction GreenDIMM holds in sub-array deep
power-down (``dpd_fraction``) and the live remainder, which the epoch's
operating point divides between active standby (rows open, serving
traffic) and precharge standby.  Each state's bucket accumulates
``epoch_s * fraction`` seconds, so a run's buckets always sum to its
measured duration — the invariant the tests pin with fast-forward on
and off.  Rank-granularity power-down and self-refresh buckets exist
for the baseline policies (commodity CKE timeouts); the GreenDIMM
kernel itself never enters them, which the report makes visible.

The process-global :data:`GLOBAL_ACCOUNT` (a :class:`RunAccount`) also
carries the fast-forward and power-memo counters of the same runs: the
kernel books every finished run into it, and the runner drains it —
with the fault counts and the trace — at the process that ran the job
(:func:`drain_account`), so the totals survive the trip back from pool
workers and land in the ``job_end`` JSONL metrics events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from repro.errors import SimulationError
from repro.faults.context import drain_fault_counts
from repro.faults.injector import FaultStats
from repro.obs.tracer import drain_trace
from repro.soa import accumulate_energy

if TYPE_CHECKING:
    from repro.power.model import PowerCacheStats
    from repro.sim.fastforward import FastForwardStats


@dataclass
class ResidencyStats:
    """Capacity-weighted seconds spent in each DRAM power state."""

    active_standby_s: float = 0.0
    precharge_standby_s: float = 0.0
    power_down_s: float = 0.0
    self_refresh_s: float = 0.0
    deep_power_down_s: float = 0.0

    def add_span(self, span_s: float, active_residency: float,
                 dpd_fraction: float) -> None:
        """Attribute *span_s* seconds at one operating point.

        *dpd_fraction* of the capacity sits in sub-array deep
        power-down; the live remainder splits by *active_residency*
        between active and precharge standby.  The three shares sum to
        *span_s* (up to float rounding), preserving the
        buckets-sum-to-duration invariant.

        Both fractions are clamped into [0, 1]: the vectorized epoch
        paths can hand over values a few ulps outside the interval, and
        an unclamped overshoot would book *negative* seconds into a
        bucket — silently corrupting :meth:`fractions`.  A negative
        *span_s* has no such benign reading and is rejected.
        """
        if span_s < 0.0:
            raise SimulationError(
                f"cannot attribute a negative residency span ({span_s!r} s)")
        active_residency = min(1.0, max(0.0, active_residency))
        dpd_fraction = min(1.0, max(0.0, dpd_fraction))
        gated_s = span_s * dpd_fraction
        live_s = span_s - gated_s
        active_s = live_s * active_residency
        self.deep_power_down_s += gated_s
        self.active_standby_s += active_s
        self.precharge_standby_s += live_s - active_s

    def add_epochs(self, epoch_s: float, active_residency: float,
                   dpd_fraction: float, n: int) -> None:
        """*n* consecutive :meth:`add_span` calls of *epoch_s* each.

        Bit-for-bit equal to the per-epoch loop, unlike one
        ``add_span(n * epoch_s, ...)``: each bucket receives its
        per-epoch share *n* times with sequential adds
        (:func:`repro.soa.accumulate_energy`).
        """
        if epoch_s < 0.0:
            raise SimulationError(
                f"cannot attribute a negative residency span ({epoch_s!r} s)")
        if n <= 0:
            return
        active_residency = min(1.0, max(0.0, active_residency))
        dpd_fraction = min(1.0, max(0.0, dpd_fraction))
        gated_s = epoch_s * dpd_fraction
        live_s = epoch_s - gated_s
        active_s = live_s * active_residency
        precharge_s = live_s - active_s
        self.deep_power_down_s = accumulate_energy(
            self.deep_power_down_s, gated_s, n)
        self.active_standby_s = accumulate_energy(
            self.active_standby_s, active_s, n)
        self.precharge_standby_s = accumulate_energy(
            self.precharge_standby_s, precharge_s, n)

    def merge(self, other: "ResidencyStats") -> None:
        self.active_standby_s += other.active_standby_s
        self.precharge_standby_s += other.precharge_standby_s
        self.power_down_s += other.power_down_s
        self.self_refresh_s += other.self_refresh_s
        self.deep_power_down_s += other.deep_power_down_s

    @property
    def total_s(self) -> float:
        """Accounted time; equals the run duration for kernel runs."""
        return (self.active_standby_s + self.precharge_standby_s
                + self.power_down_s + self.self_refresh_s
                + self.deep_power_down_s)

    def as_dict(self) -> Dict[str, float]:
        """State -> seconds, matching :class:`repro.power.states.PowerState`
        values; zero buckets are kept so consumers see the full schema."""
        return {
            "active_standby": self.active_standby_s,
            "precharge_standby": self.precharge_standby_s,
            "power_down": self.power_down_s,
            "self_refresh": self.self_refresh_s,
            "deep_power_down": self.deep_power_down_s,
        }

    def fractions(self) -> Dict[str, float]:
        """Normalized residency fractions (empty when nothing accounted)."""
        total = self.total_s
        if total <= 0:
            return {}
        return {state: seconds / total
                for state, seconds in self.as_dict().items()}


#: The :class:`RunAccount` counters drained as a job's ``perf`` part.
_PERF_COUNTERS = ("power_cache_hits", "power_cache_misses", "epochs_stepped",
                  "epochs_fast_forwarded", "fast_forward_windows",
                  "epochs_batched", "stable_spans")


@dataclass
class RunAccount:
    """What one process's kernel runs accumulated since the last drain.

    Residency, energies, and the runs' fast-forward and power-memo
    counters.
    """

    residency: ResidencyStats = field(default_factory=ResidencyStats)
    dram_energy_j: float = 0.0
    baseline_dram_energy_j: float = 0.0
    duration_s: float = 0.0
    runs: int = 0
    power_cache_hits: int = 0
    power_cache_misses: int = 0
    epochs_stepped: int = 0
    epochs_fast_forwarded: int = 0
    fast_forward_windows: int = 0
    #: Stepped epochs the span planner executed in bulk (a subset of
    #: ``epochs_stepped``) and the stable spans that batched them.
    epochs_batched: int = 0
    stable_spans: int = 0
    #: Injected-fault counts folded in from other processes
    #: (:func:`absorb_account`); this process's own counts stay with its
    #: injectors until the drain.
    faults: FaultStats = field(default_factory=FaultStats)

    def record_run(self, residency: ResidencyStats, dram_energy_j: float,
                   baseline_dram_energy_j: float, duration_s: float,
                   ff_stats: "FastForwardStats",
                   cache_stats: "PowerCacheStats") -> None:
        """Fold one finished kernel run into the account."""
        self.residency.merge(residency)
        self.dram_energy_j += dram_energy_j
        self.baseline_dram_energy_j += baseline_dram_energy_j
        self.duration_s += duration_s
        self.runs += 1
        self.power_cache_hits += cache_stats.hits
        self.power_cache_misses += cache_stats.misses
        self.epochs_stepped += ff_stats.epochs_stepped
        self.epochs_fast_forwarded += ff_stats.epochs_fast_forwarded
        self.fast_forward_windows += ff_stats.windows
        self.epochs_batched += ff_stats.epochs_batched
        self.stable_spans += ff_stats.spans_stable

    def perf_dict(self) -> Dict[str, int]:
        """Non-zero perf counters only, so quiet jobs emit nothing."""
        return {name: getattr(self, name) for name in _PERF_COUNTERS
                if getattr(self, name)}

    def residency_dict(self) -> Dict[str, object]:
        """JSONL-friendly summary; ``{}`` when no run was recorded."""
        if not self.runs:
            return {}
        return {
            "states": self.residency.as_dict(),
            "dram_energy_j": self.dram_energy_j,
            "baseline_dram_energy_j": self.baseline_dram_energy_j,
            "duration_s": self.duration_s,
            "runs": self.runs,
        }


#: The process-wide account the kernel books finished runs into.
GLOBAL_ACCOUNT = RunAccount()


def drain_account() -> Dict[str, Dict]:
    """Snapshot and clear every process account (one job's worth).

    Returns ``{"faults", "perf", "residency", "trace"}`` with the empty
    parts left out, ready to spread into a ``job_end`` event.
    """
    global GLOBAL_ACCOUNT
    account, GLOBAL_ACCOUNT = GLOBAL_ACCOUNT, RunAccount()
    account.faults.merge(FaultStats(drain_fault_counts()))
    parts = {"faults": account.faults.as_dict(),
             "perf": account.perf_dict(),
             "residency": account.residency_dict(),
             "trace": drain_trace()}
    return {key: part for key, part in parts.items() if part}


def absorb_account(drained: Dict[str, Dict]) -> None:
    """Fold another process's drained account into this one's.

    *drained* is what :func:`drain_account` returned there; the next
    drain here reports it.  The fault counts, perf counters and
    residency come back; the trace does not.
    """
    account = GLOBAL_ACCOUNT
    for name, value in drained.get("perf", {}).items():
        setattr(account, name, getattr(account, name) + value)
    residency = drained.get("residency")
    if residency:
        account.residency.merge(ResidencyStats(**{
            f"{state}_s": seconds
            for state, seconds in residency["states"].items()}))
        account.dram_energy_j += residency["dram_energy_j"]
        account.baseline_dram_energy_j += residency["baseline_dram_energy_j"]
        account.duration_s += residency["duration_s"]
        account.runs += residency["runs"]
    account.faults.merge(FaultStats(dict(drained.get("faults", {}))))
