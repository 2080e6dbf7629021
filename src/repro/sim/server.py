"""Epoch-granularity server simulation.

Drives a :class:`repro.core.GreenDIMMSystem` with either a single
workload profile (SPEC / data-center runs), an Azure-like VM trace, or
a co-located mix, advancing the OS, KSM, and GreenDIMM daemon once per
epoch and integrating DRAM/system energy as it goes.

The run loops themselves live in :mod:`repro.sim.kernel`: each
``run_*`` method here builds the matching
:class:`~repro.sim.kernel.WorkloadSource` and hands it to one
:class:`~repro.sim.kernel.EpochKernel`, which owns the clock, warmup,
quiescence fast-forward gating (see :mod:`repro.sim.fastforward`),
sampling, and stats lifecycle.  Fast-forwarded runs are bit-for-bit
identical to per-epoch stepping (pass ``fast_forward=False`` to force
the reference path).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import AllocationError
from repro.obs.residency import ResidencyStats
from repro.os.page import OwnerKind
from repro.os.swap import SwapSpace
from repro.power.idd import DPD_RESIDUAL_FRACTION, SPARE_ROW_FRACTION
from repro.power.system import SystemPowerModel
from repro.sim.fastforward import FastForwardStats
from repro.sim.kernel import (
    SWAP_IN_RESERVE_PAGES,
    EpochKernel,
    EpochSample,
    MixSource,
    ProfileSource,
    TraceSource,
    fast_forward_default,
)
from repro.sim.perfmodel import PerformanceModel
from repro.soa import SampleLog
from repro.workloads.azure import AzureTrace
from repro.workloads.profiles import WorkloadProfile

if TYPE_CHECKING:
    from repro.core.system import GreenDIMMSystem

__all__ = [
    "EpochSample",
    "MixRunResult",
    "ServerSimulator",
    "VMTraceRunResult",
    "WorkloadRunResult",
]


@dataclass
class WorkloadRunResult:
    """Outcome of one profile run under GreenDIMM."""

    profile_name: str
    elapsed_s: float
    samples: SampleLog
    offline_events: int
    online_events: int
    ebusy_failures: int
    eagain_failures: int
    offlined_bytes_total: int
    dram_energy_j: float
    baseline_dram_energy_j: float
    overhead_fraction: float
    swap_shortfall_pages: int
    #: Capacity-weighted time per DRAM power state over the measured span.
    residency: ResidencyStats = field(default_factory=ResidencyStats)

    @property
    def runtime_s(self) -> float:
        """Wall time including GreenDIMM's interference."""
        return self.elapsed_s * (1.0 + self.overhead_fraction)

    @property
    def mean_offline_blocks(self) -> float:
        if not self.samples:
            return 0.0
        return self.samples.int_sum("offline_blocks") / len(self.samples)

    @property
    def dram_energy_saving(self) -> float:
        if self.baseline_dram_energy_j <= 0:
            return 0.0
        return 1.0 - self.dram_energy_j / self.baseline_dram_energy_j


@dataclass
class VMTraceRunResult:
    """Outcome of an Azure-trace replay (Figures 1, 12, 13)."""

    samples: SampleLog
    total_blocks: int
    dram_energy_j: float
    baseline_dram_energy_j: float
    ksm_saved_pages_final: int
    emergency_onlines: int
    #: Capacity-weighted time per DRAM power state over the measured span.
    residency: ResidencyStats = field(default_factory=ResidencyStats)

    @property
    def mean_offline_blocks(self) -> float:
        if not self.samples:
            return 0.0
        return self.samples.int_sum("offline_blocks") / len(self.samples)

    @property
    def max_offline_blocks(self) -> int:
        return self.samples.max("offline_blocks", default=0)

    @property
    def min_offline_blocks(self) -> int:
        return self.samples.min("offline_blocks", default=0)

    @property
    def mean_dpd_fraction(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples.values("dpd_fraction")) / len(self.samples)

    @property
    def background_power_reduction(self) -> float:
        """Mean background-power reduction vs an ungated baseline.

        Gated capacity sheds its background power except the power-gate
        leakage residual and the never-gated spare rows; both factors
        come from the calibrated power model so a recalibration there
        cannot silently diverge from this summary statistic.
        """
        return (self.mean_dpd_fraction
                * (1.0 - DPD_RESIDUAL_FRACTION)
                * (1.0 - SPARE_ROW_FRACTION))

    @property
    def dram_energy_saving(self) -> float:
        if self.baseline_dram_energy_j <= 0:
            return 0.0
        return 1.0 - self.dram_energy_j / self.baseline_dram_energy_j


@dataclass
class MixRunResult:
    """Outcome of a co-located multi-workload run."""

    profile_names: List[str]
    elapsed_s: float
    samples: SampleLog
    offline_events: int
    online_events: int
    dram_energy_j: float
    baseline_dram_energy_j: float
    overhead_by_profile: "dict[str, float]"
    swap_stall_s: float
    #: Capacity-weighted time per DRAM power state over the measured span.
    residency: ResidencyStats = field(default_factory=ResidencyStats)

    @property
    def dram_energy_saving(self) -> float:
        if self.baseline_dram_energy_j <= 0:
            return 0.0
        return 1.0 - self.dram_energy_j / self.baseline_dram_energy_j

    @property
    def worst_overhead(self) -> float:
        return max(self.overhead_by_profile.values(), default=0.0)


@dataclass
class _PinnedExtent:
    owner_seq: int
    expires_s: float


class ServerSimulator:
    """Runs workloads/traces against one GreenDIMM-managed server.

    ``fast_forward=None`` (the default) adopts the process-wide setting
    (see :func:`repro.sim.kernel.fast_forward_default`), which is how
    ``repro run --no-fast-forward`` reaches simulators built inside
    experiment modules; pass an explicit bool to pin the path.
    """

    def __init__(self, system: "GreenDIMMSystem",
                 perf: Optional[PerformanceModel] = None,
                 system_power: Optional[SystemPowerModel] = None,
                 swap: Optional[SwapSpace] = None,
                 pinned_churn_rate_per_s: float = 0.3,
                 pinned_lifetime_s: float = 45.0,
                 seed: int = 5,
                 fast_forward: Optional[bool] = None):
        self.system = system
        self.perf = perf or PerformanceModel()
        self.system_power = system_power or SystemPowerModel()
        self.swap = swap or SwapSpace()
        self.pinned_churn_rate_per_s = pinned_churn_rate_per_s
        self.pinned_lifetime_s = pinned_lifetime_s
        self.rng = random.Random(seed)
        self._pinned: List[_PinnedExtent] = []
        self._pin_seq = 0
        #: Skip quiescent epochs analytically (results are bit-for-bit
        #: identical either way; ``False`` forces per-epoch stepping).
        self.fast_forward = (fast_forward_default() if fast_forward is None
                             else fast_forward)
        #: Fast-forward accounting of the most recent ``run_*`` call.
        self.ff_stats = FastForwardStats()

    @property
    def kernel(self) -> EpochKernel:
        """The unified run-loop driver every ``run_*`` method goes through.

        The kernel keeps no state of its own, so each access builds one:
        a stored kernel would point back here and put the simulator in a
        reference cycle, freed only by a full garbage-collection pass.
        """
        return EpochKernel(self)

    # --- shared plumbing ------------------------------------------------------

    def _resize_owner(self, owner: str, target_pages: int, now_s: float,
                      mergeable: bool = False, emergency: bool = False) -> int:
        """Grow/shrink *owner* to *target_pages* resident pages.

        Growth beyond what the free reserve can absorb spills to swap —
        the kernel cannot wait for GreenDIMM's next monitoring pass, which
        is exactly why reserves below ~10% thrash (Section 4.2).  With
        *emergency* set (hypervisor-coordinated VM placement) the daemon
        is asked to on-line blocks synchronously instead.  Shrinking
        drops swap slots first (those pages are dead copies) and frees
        resident memory for the rest.  Returns pages pushed to swap.
        """
        mm = self.system.mm
        total = mm.owner_pages(owner) + self.swap.held_for(owner)
        if target_pages > total:
            # The footprint is resident + swapped; only the delta beyond
            # both is new memory.  Swapped pages fault back in when room
            # exists.
            self._try_swap_in(owner)
            need = target_pages - total
            attempts = 2 if emergency else 1
            for _attempt in range(attempts):
                try:
                    mm.allocate(owner, need, mergeable=mergeable)
                    return 0
                except AllocationError:
                    if not emergency:
                        break
                    if not self.system.policy.emergency_online(need, now_s):
                        break
            available = max(0, mm.free_pages - 16)
            if available > 0:
                take = min(need, available)
                try:
                    mm.allocate(owner, take, mergeable=mergeable)
                    need -= take
                except AllocationError:
                    # A second failure (e.g. an injected pressure spike
                    # right after the first) leaves the whole remainder
                    # for swap rather than killing the run.
                    pass
            if need > 0:
                self.swap.swap_out(owner, need)
            return need
        if target_pages < total:
            surplus = total - target_pages
            dropped = self.swap.drop(owner, surplus)
            remaining = surplus - dropped
            if remaining > 0:
                mm.free_pages_of(owner, remaining)
        else:
            self._try_swap_in(owner)
        return 0

    def resize_owner(self, owner: str, target_pages: int, now_s: float,
                     mergeable: bool = False, emergency: bool = False) -> int:
        """Public entry for external drivers (e.g. the fault-storm
        experiment): grow/shrink *owner* through the same spill/emergency
        machinery the built-in runs use.  Returns pages pushed to swap.
        """
        self.system.advance_time(now_s)
        return self._resize_owner(owner, target_pages, now_s,
                                  mergeable=mergeable, emergency=emergency)

    def _try_swap_in(self, owner: str) -> None:
        """Fault this owner's swapped pages back in while room exists.

        Recovery is bounded by free memory: the daemon's monitor, not
        this fault path, is what brings off-lined blocks back.
        """
        held = self.swap.held_for(owner)
        if not held:
            return
        mm = self.system.mm
        take = min(held, max(0, mm.free_pages - SWAP_IN_RESERVE_PAGES))
        if take <= 0:
            return
        try:
            mm.allocate(owner, take)
        except AllocationError:
            return
        self.swap.swap_in(owner, take)

    def _pinned_churn(self, now_s: float, dt_s: float,
                      draw: Optional[float] = None) -> None:
        """Short-lived pinned allocations that leak unmovable pages into
        movable blocks — the EBUSY source of Section 5.2.

        *draw* is this epoch's arrival draw when
        :meth:`_quiet_churn_epochs` already took it from :attr:`rng`.
        Such a draw must be passed exactly once, to the epoch it was
        drawn for; drawing again (or dropping it) desyncs the stream.
        """
        for pin in list(self._pinned):
            if pin.expires_s <= now_s:
                self.system.mm.free_all(f"pin{pin.owner_seq}")
                self._pinned.remove(pin)
        expected = self.pinned_churn_rate_per_s * dt_s
        count = int(expected)
        if draw is None:
            draw = self.rng.random()
        if draw < expected - count:
            count += 1
        for _ in range(count):
            self._pin_seq += 1
            pages = self.rng.choice((4, 8, 16, 32))
            # Most transient kernel allocations stay in ZONE_NORMAL; a
            # minority are user pages pinned in place, which is the leak
            # that contaminates movable blocks (Section 5.2).
            kind = (OwnerKind.PINNED if self.rng.random() < 0.25
                    else OwnerKind.KERNEL)
            try:
                self.system.mm.allocate(
                    f"pin{self._pin_seq}", pages, kind=kind)
            except AllocationError:
                continue
            self._pinned.append(_PinnedExtent(
                owner_seq=self._pin_seq,
                expires_s=now_s + self.rng.expovariate(1.0 / self.pinned_lifetime_s)))

    def _quiet_churn_epochs(self, now_s: float, dt_s: float,
                            limit: int) -> Tuple[int, Optional[float]]:
        """Scan ahead for the next epoch in which churn can act.

        Walks the ``now += dt`` epoch chain from *now_s* for at most
        *limit* epochs and returns ``(k, draw)``: in each of the first
        *k* epochs :meth:`_pinned_churn` would do nothing but draw one
        arrival number that misses (no pin expires, no arrival).  Those
        *k* draws are consumed here.  When epoch *k* is cut short by an
        arrival, *draw* is the number already taken for it and the
        caller must hand it to ``_pinned_churn``; otherwise (an expiry,
        or *limit* reached) *draw* is ``None``.  Returns ``(0, None)``
        when every epoch expects at least one arrival.
        """
        expected = self.pinned_churn_rate_per_s * dt_s
        if int(expected):
            return 0, None
        first_expiry = min((pin.expires_s for pin in self._pinned),
                           default=math.inf)
        random = self.rng.random
        k = 0
        while k < limit and first_expiry > now_s:
            draw = random()
            if draw < expected:
                return k, draw
            k += 1
            now_s += dt_s
        return k, None

    def reset_stats(self) -> None:
        """Zero the per-run counters (kernel-owned; see
        :meth:`repro.sim.kernel.EpochKernel.reset_stats`)."""
        self.kernel.reset_stats()

    # --- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> dict:
        """The full server-side state tree: the system's, plus swap, the
        pinned-churn RNG/extents, and the fast-forward accounting."""
        return {"system": self.system.state_dict(),
                "swap": self.swap.state_dict(),
                "rng": self.rng.getstate(),
                "pinned": self._pinned,
                "pin_seq": self._pin_seq,
                "fast_forward": self.fast_forward,
                "ff_stats": self.ff_stats}

    def load_state_dict(self, state: dict) -> None:
        self.system.load_state_dict(state["system"])
        self.swap.load_state_dict(state["swap"])
        self.rng.setstate(state["rng"])
        self._pinned = state["pinned"]
        self._pin_seq = state["pin_seq"]
        self.fast_forward = state["fast_forward"]
        self.ff_stats = state["ff_stats"]

    # --- single-profile runs (SPEC / data-center) -----------------------------

    def run_workload(self, profile: WorkloadProfile, n_copies: int = 1,
                     warmup_s: float = 30.0, epoch_s: float = 1.0,
                     pinned_churn: bool = True) -> WorkloadRunResult:
        """Run *n_copies* of *profile* to completion under GreenDIMM."""
        source = ProfileSource(self, profile, n_copies)
        run = self.kernel.run(source, epoch_s=epoch_s, warmup_s=warmup_s,
                              pinned_churn=pinned_churn)

        policy = self.system.policy
        stats = policy.stats
        overhead = self.perf.greendimm_overhead_fraction(
            profile, stats.offline_events, stats.online_events,
            profile.duration_s)
        overhead += run.swap_stall_s / profile.duration_s
        # Policy-declared runtime dilation (monitoring/migration
        # interference): added only when nonzero so the daemon's float
        # stream is untouched.
        policy_overhead = policy.runtime_overhead_fraction()
        if policy_overhead:
            overhead += policy_overhead
        return WorkloadRunResult(
            profile_name=profile.name,
            elapsed_s=profile.duration_s,
            samples=run.samples,
            offline_events=stats.offline_events,
            online_events=stats.online_events,
            ebusy_failures=stats.ebusy_failures,
            eagain_failures=stats.eagain_failures,
            offlined_bytes_total=stats.offlined_bytes_total,
            dram_energy_j=run.dram_energy_j * (1.0 + overhead),
            baseline_dram_energy_j=(run.baseline_dram_energy_j
                                    * (1.0 + overhead)),
            overhead_fraction=overhead,
            swap_shortfall_pages=source.shortfall_pages,
            residency=run.residency)

    # --- VM-trace runs (Figures 1, 12, 13) --------------------------------------

    def run_vm_trace(self, trace: AzureTrace, epoch_s: float = 5.0,
                     mean_vm_bandwidth_bytes_per_s: float = 0.4e9,
                     pinned_churn: bool = True) -> VMTraceRunResult:
        """Replay an Azure-like trace against the system."""
        source = TraceSource(
            self, trace,
            mean_vm_bandwidth_bytes_per_s=mean_vm_bandwidth_bytes_per_s)
        run = self.kernel.run(source, epoch_s=epoch_s,
                              pinned_churn=pinned_churn)

        ksm = self.system.ksm
        return VMTraceRunResult(
            samples=run.samples,
            total_blocks=self.system.mm.num_blocks,
            dram_energy_j=run.dram_energy_j,
            baseline_dram_energy_j=run.baseline_dram_energy_j,
            ksm_saved_pages_final=(ksm.total_saved_pages if ksm else 0),
            emergency_onlines=self.system.policy.stats.emergency_onlines,
            residency=run.residency)

    # --- co-located runs --------------------------------------------------------

    def run_mix(self, profiles: List[WorkloadProfile],
                warmup_s: float = 30.0, epoch_s: float = 1.0,
                pinned_churn: bool = True) -> "MixRunResult":
        """Run several workloads concurrently on one server.

        Models the paper's consolidated setting: every profile's footprint
        coexists in the same physical memory, their bandwidths add, and the
        daemon serves the union of their dynamics.  Per-profile overhead is
        estimated from the shared event rate weighted by each workload's
        memory sensitivity (they all suffer the same lock/TLB interference).
        """
        source = MixSource(self, profiles)
        duration = source.duration_s
        run = self.kernel.run(source, epoch_s=epoch_s, warmup_s=warmup_s,
                              pinned_churn=pinned_churn)

        policy = self.system.policy
        stats = policy.stats
        policy_overhead = policy.runtime_overhead_fraction()
        overheads = {}
        for profile in profiles:
            overhead = self.perf.greendimm_overhead_fraction(
                profile, stats.offline_events, stats.online_events, duration)
            overhead += run.swap_stall_s / duration
            if policy_overhead:
                overhead += policy_overhead
            overheads[profile.name] = overhead
        # Same energy convention as run_workload: runtime dilation from
        # GreenDIMM interference scales consumed energy.  A co-located run
        # is elongated by its slowest tenant, so the worst overhead applies.
        worst = max(overheads.values(), default=0.0)
        return MixRunResult(
            profile_names=[p.name for p in profiles],
            elapsed_s=duration,
            samples=run.samples,
            offline_events=stats.offline_events,
            online_events=stats.online_events,
            dram_energy_j=run.dram_energy_j * (1.0 + worst),
            baseline_dram_energy_j=(run.baseline_dram_energy_j
                                    * (1.0 + worst)),
            overhead_by_profile=overheads,
            swap_stall_s=run.swap_stall_s,
            residency=run.residency)
