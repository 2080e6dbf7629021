"""The event-driven simulation kernel behind every ``run_*`` loop.

Before this module existed, :class:`~repro.sim.server.ServerSimulator`
carried three hand-rolled epoch drivers (``run_workload``,
``run_vm_trace``, ``run_mix``) that each owned their own clock, warmup,
fast-forward gating, sampling, and energy accounting.  They diverged
once (the mix energy-convention bug) and each had to re-implement
quiescence gating separately.  The kernel extracts the loop once:

* :class:`WorkloadSource` is what a run *is* — the operating point at
  ``t``, the discrete events to apply at ``t``, and a
  ``stable_until(t)`` bound before which applying them changes nothing;
* :class:`EpochKernel` is how a run *executes* — it owns the
  :class:`~repro.sim.fastforward.SimClock`, the warmup spin-up, the
  quiescence fast-forward gating, per-epoch sampling, energy/overhead
  accounting, and the stats reset/publish lifecycle.

Bit-for-bit equivalence with the pre-kernel loops is the contract
(pinned by ``tests/golden/kernel_golden.json``): the kernel performs the
identical sequence of float operations, RNG draws, and stat increments,
so samples, energies, and daemon statistics are exactly what the
hand-rolled loops produced — with fast-forward on *or* off.

With fast-forward on, the loop runs an epoch in one of three ways.  The
power posture (the policy's gated fraction, offline blocks and extra
power) changes only at an acting monitor pass or an emergency
on-lining, so everything in between can share one sample template:

* **replayed** — a quiescent window or a stable span without churn:
  nothing but the clock and the monitor timer moves, so the epochs are
  booked in one batch (:meth:`EpochKernel._replay_epochs`);
* **in a span** (:meth:`EpochKernel._span_epochs`) — a window or
  stable span under churn, or a ramp span (a footprint ramps): churn
  runs only at its events, a ramp span's ``apply`` every epoch, and the
  span is booked in one batch when it ends.  A churn span ends once
  churn moves free memory, and every span at an acting monitor fire;
* **stepped** (:meth:`EpochKernel._close_epoch`) — the real
  ``system.step``, for everything else, for the epoch that ends a
  span, and for every epoch with fast-forward off (the reference
  path).

After a plan vetoes, the kernel steps every epoch before the **plan
horizon** without planning again: the later of the source's ramp veto
and the fault plan's live period, each an end before which every plan
would veto (:meth:`EpochKernel._plan_horizon`).

The module also hosts the process-wide fast-forward default that lets
``repro run --no-fast-forward`` reach simulators built deep inside
experiment modules (mirroring the fault-plan context in
:mod:`repro.faults.context`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.ksm.content import RegionContent
from repro.obs import residency as residency_mod
from repro.obs.residency import ResidencyStats
from repro.obs.tracer import GLOBAL_TRACER as TRACER
from repro.os.hotplug import HotplugStats
from repro.power.model import PowerCacheStats
from repro.sim.calendar import EventCalendar, intersect_horizons
from repro.sim.fastforward import FastForwardStats, SimClock
from repro.soa import (
    SampleLog,
    accumulate_energy,
    epochs_before,
    monitor_timer_after,
)
from repro.units import PAGE_SIZE, PEAK_DRAM_BANDWIDTH_BYTES_PER_S
from repro.workloads.azure import AzureTrace
from repro.workloads.profiles import WorkloadProfile

if TYPE_CHECKING:
    from repro.sim.server import ServerSimulator

#: Free pages the swap-in fault path refuses to dip below (mirrors the
#: kernel keeping a reclaim reserve).  Owned here rather than in
#: ``repro.sim.server`` so the sources' ``stable_until`` reasoning and
#: ``ServerSimulator._try_swap_in`` share one definition.
SWAP_IN_RESERVE_PAGES = 2048


# --- process-wide fast-forward default --------------------------------------

_fast_forward_default = True


def fast_forward_default() -> bool:
    """The ambient fast-forward setting for simulators that don't pick."""
    return _fast_forward_default


def set_fast_forward_default(enabled: bool) -> None:
    """Set the process-wide default (``repro run --no-fast-forward``)."""
    global _fast_forward_default
    _fast_forward_default = enabled


@contextmanager
def fast_forward_scope(enabled: bool) -> Iterator[None]:
    """Scope the ambient default to a ``with`` block, restoring after."""
    previous = _fast_forward_default
    set_fast_forward_default(enabled)
    try:
        yield
    finally:
        set_fast_forward_default(previous)


# --- observables -------------------------------------------------------------


class EpochSample(NamedTuple):
    """One epoch's observables.

    A ``NamedTuple`` rather than a frozen dataclass: the kernel builds
    one per simulated epoch (hundreds of thousands per trace replay), and
    tuple construction is several times cheaper than a dataclass
    ``__init__`` while keeping the same field access and equality.
    """

    time_s: float
    used_pages: int
    free_pages: int
    offline_blocks: int
    dpd_fraction: float
    dram_power_w: float


@dataclass
class KernelRunState:
    """A paused kernel execution: everything the loop carries between
    epochs, and nothing else.

    Pure data by construction — no ``ServerSimulator``/system/policy
    references — so a state (together with the simulator it belongs to)
    is exactly what a checkpoint must capture.  The one indirect
    reference is :attr:`source`, and the concrete sources drop their
    ``sim`` back-reference when pickled (:class:`_SimBound`); the
    snapshot layer re-binds it on restore.

    Produced by :meth:`EpochKernel.begin`, advanced in place by
    :meth:`EpochKernel.advance`, consumed by :meth:`EpochKernel.finish`.
    Every executor books its epochs straight into it, so the samples,
    the clock and both energies always describe the same epochs.
    """

    source: "WorkloadSource"
    epoch_s: float
    pinned_churn: bool
    use_ff: bool
    duration_s: float
    clock: SimClock
    swap_stall_before: float
    samples: SampleLog = field(default_factory=SampleLog)
    dram_energy: float = 0.0
    baseline_energy: float = 0.0
    residency: ResidencyStats = field(default_factory=ResidencyStats)
    finished: bool = False

    @property
    def now_s(self) -> float:
        """The paused clock: the next epoch to execute starts here."""
        return self.clock.now_s

    @property
    def done(self) -> bool:
        """Has the measured span reached ``duration_s``?"""
        return self.clock.now_s >= self.duration_s


@dataclass
class KernelRun:
    """What one kernel execution accumulated, before result shaping.

    The ``run_*`` wrappers in :mod:`repro.sim.server` turn this into
    their public result types (applying, e.g., the overhead energy
    convention); the raw sums here are exactly what the loop integrated.
    """

    samples: SampleLog
    dram_energy_j: float
    baseline_dram_energy_j: float
    swap_stall_s: float
    duration_s: float
    #: Capacity-weighted per-power-state residency for the measured
    #: span; its buckets sum to ``duration_s`` (up to float rounding).
    residency: ResidencyStats = field(default_factory=ResidencyStats)


# --- the source protocol -----------------------------------------------------


class WorkloadSource(Protocol):
    """What the kernel needs to know about a workload.

    ``duration_s`` bounds the run.  Each epoch the kernel calls
    :meth:`apply` (discrete events, footprint resizes) before stepping
    the system, then :meth:`operating_point` for the epoch's bandwidth
    and row-miss rate.

    :meth:`stable_until` is the span planner's one workload-side bound:
    a time before which — assuming physical memory state does not
    change in ``[t, bound)`` — every :meth:`apply` call is a strict
    no-op (no allocation, free, swap, or RNG draw) and
    :meth:`operating_point` is constant; *t* itself vetoes batching this
    epoch.  It promises nothing about the system side: the kernel adds
    the KSM, fault and monitor vetoes, and :meth:`EpochKernel._span_epochs`
    ends a churn span once churn moves memory.

    The profile-backed sources (:class:`ProfileSource`,
    :class:`MixSource`) also report a horizon for that veto,
    ``ramp_until(t)``: while a footprint ramps, ``stable_until(u)``
    returns *u* for every *u* in ``[t, ramp_until(t))``, clamped at
    ``duration_s`` (*t* itself when nothing ramps).  It is one end of
    the kernel's plan horizon, and the kernel runs the epochs before it
    as ramp spans when nothing else moves the power posture.  Their
    ``apply`` never calls the policy, and their operating point is
    constant.
    """

    duration_s: float

    def prepare(self) -> None:
        """Establish initial footprints before warmup begins."""

    def apply(self, t: float) -> None:
        """Apply this epoch's workload-side events at time *t*."""

    def operating_point(self, t: float) -> Tuple[float, float]:
        """``(bandwidth_bytes_per_s, row_miss_rate)`` at time *t*."""

    def stable_until(self, t: float) -> float:
        """Bound before which :meth:`apply` is provably a strict no-op
        and the operating point constant (*t* itself: not provable now),
        given unchanged physical memory state."""


# --- concrete sources --------------------------------------------------------


class _SimBound:
    """Snapshot support for a source: the simulator back-reference would
    drag the whole system into the pickle, so it is dropped here and the
    snapshot layer re-binds it on restore."""

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state["sim"] = None
        return state


@dataclass
class ProfileSource(_SimBound):
    """``n_copies`` of one profile with a time-varying footprint."""

    sim: "ServerSimulator"
    profile: WorkloadProfile
    n_copies: int = 1
    owner: str = "app"
    shortfall_pages: int = field(default=0, init=False)
    #: One-entry memo of ``footprint.at``: stable_until and apply both
    #: ask for the target at the same epoch time (``at`` is pure in t).
    _target_cache: Tuple[float, int] = field(default=(math.nan, 0),
                                             init=False, repr=False)

    def __post_init__(self) -> None:
        self.duration_s = self.profile.duration_s
        self._bandwidth = (self.profile.bandwidth_demand_bytes_per_s
                           * self.n_copies)
        self._row_miss = 1.0 - self.profile.row_hit_rate
        # All flat-run boundaries are known up front; consuming them from
        # a calendar replaces the per-epoch footprint rescan with an
        # amortized O(log n) pop while returning the identical floats
        # (next run end strictly after t == constant_until(t) whenever
        # the steadiness/ramp vetoes below don't fire).
        self._flat_calendar = EventCalendar(
            self.profile.footprint.flat_run_ends())

    def _target_pages(self, t: float) -> int:
        cached_t, cached = self._target_cache
        if t == cached_t:
            return cached
        target = self.profile.footprint.at(t) * self.n_copies // PAGE_SIZE
        self._target_cache = (t, target)
        return target

    def prepare(self) -> None:
        initial = self._target_pages(0.0)
        if initial:
            self.sim._resize_owner(self.owner, initial, 0.0)

    def apply(self, t: float) -> None:
        self.shortfall_pages += self.sim._resize_owner(
            self.owner, self._target_pages(t), t)

    def operating_point(self, t: float) -> Tuple[float, float]:
        return self._bandwidth, self._row_miss

    def stable_until(self, t: float) -> float:
        # apply() resolves to _resize_owner(owner, target, t); that is a
        # strict no-op on the `target == resident + held` branch provided
        # _try_swap_in also no-ops, i.e. nothing is held or free memory
        # sits at/below the swap-in reserve.  Free pages cannot change
        # inside a stable span (a churn span ends after the epoch in
        # which churn moves them), so the condition holds for the whole
        # flat run, not just at t.
        sim = self.sim
        mm = sim.system.mm
        held = sim.swap.held_for(self.owner)
        if self._target_pages(t) != mm.owner_pages(self.owner) + held:
            return t
        if held and mm.free_pages > SWAP_IN_RESERVE_PAGES:
            return t
        if self.profile.footprint.ramping_at(t):
            return t
        return self._flat_calendar.next_after(t)

    def ramp_until(self, t: float) -> float:
        """End of :meth:`stable_until`'s ramp veto from *t*."""
        # stable_until vetoes (returns u) at every u the footprint ramps.
        return min(self.profile.footprint.ramp_end(t), self.duration_s)


@dataclass
class TraceSource(_SimBound):
    """An Azure-like VM arrival/departure trace replay.

    VMs only move at trace events, so the stability bound is simply the
    next event's timestamp.  The run extends 300 s past the last event
    so the daemon's tail behavior is observable.
    """

    sim: "ServerSimulator"
    trace: AzureTrace
    mean_vm_bandwidth_bytes_per_s: float = 0.4e9

    def __post_init__(self) -> None:
        self.events = sorted(self.trace.events, key=lambda e: e.time_s)
        self.cursor = 0
        self.running = 0
        self.duration_s = max((e.time_s for e in self.events),
                              default=0.0) + 300.0

    def prepare(self) -> None:
        pass

    def apply(self, t: float) -> None:
        sim = self.sim
        ksm = sim.system.ksm
        while self.cursor < len(self.events) \
                and self.events[self.cursor].time_s <= t:
            event = self.events[self.cursor]
            self.cursor += 1
            vm = event.instance
            if event.kind == "arrive":
                pages = vm.vm_type.memory_bytes // PAGE_SIZE
                sim._resize_owner(vm.owner_id, pages, t, mergeable=True,
                                  emergency=True)
                self.running += 1
                if ksm is not None:
                    ksm.register(RegionContent(
                        owner_id=vm.owner_id, total_pages=pages,
                        image_id=vm.vm_type.image_id))
            else:
                if ksm is not None:
                    ksm.unregister(vm.owner_id)
                sim.system.mm.free_all(vm.owner_id)
                sim.swap.release(vm.owner_id)
                self.running = max(0, self.running - 1)

    def operating_point(self, t: float) -> Tuple[float, float]:
        return self.running * self.mean_vm_bandwidth_bytes_per_s, 0.5

    def stable_until(self, t: float) -> float:
        # Between events apply() is a pure cursor peek — a strict no-op
        # no matter what memory does — and the running-VM count (hence
        # the operating point) only moves at events.  The sorted event
        # list plus the cursor already *is* an event calendar: the next
        # timestamp is an O(1) peek.
        if self.cursor < len(self.events):
            next_event_s = self.events[self.cursor].time_s
            return t if next_event_s <= t else next_event_s
        return math.inf


@dataclass
class MixSource(_SimBound):
    """Several profiles co-located in one physical memory."""

    sim: "ServerSimulator"
    profiles: List[WorkloadProfile]

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ConfigurationError("need at least one profile")
        self.duration_s = max(p.duration_s for p in self.profiles)
        self.owners: Dict[str, WorkloadProfile] = {
            f"mix{i}-{p.name}": p for i, p in enumerate(self.profiles)}
        self._bandwidth = sum(p.bandwidth_demand_bytes_per_s
                              for p in self.profiles)
        self._row_miss = (sum((1.0 - p.row_hit_rate)
                              * p.bandwidth_demand_bytes_per_s
                              for p in self.profiles)
                          / max(self._bandwidth, 1.0))
        # One merged calendar of every owner's flat-run ends, pre-filtered
        # to runs ending before that owner's duration (a flat run reaching
        # duration_s keeps the clamped value constant beyond it, so it
        # never bounds the span).  min over owners of "next run end
        # after t" equals "next event after t" in the merged heap, so the
        # calendar pop returns the same float the per-owner scan did.
        self._flat_calendar = EventCalendar(
            end for p in self.profiles
            for end in p.footprint.flat_run_ends(p.duration_s))
        #: One-entry memo of every owner's target at t (aligned with the
        #: ``owners`` iteration order): stable_until and apply both read
        #: the same epoch time and ``at`` is pure in t.
        self._target_cache: Tuple[float, List[int]] = (math.nan, [])

    def _targets(self, t: float) -> List[int]:
        cached_t, targets = self._target_cache
        if t != cached_t:
            targets = [
                profile.footprint.at(min(t, profile.duration_s)) // PAGE_SIZE
                for profile in self.owners.values()]
            self._target_cache = (t, targets)
        return targets

    def prepare(self) -> None:
        for owner, profile in self.owners.items():
            initial = profile.footprint.at(0.0) // PAGE_SIZE
            if initial:
                self.sim._resize_owner(owner, initial, 0.0)

    def apply(self, t: float) -> None:
        # An owner at its target with nothing in swap would take
        # _resize_owner's no-op branch (its swap-in finds nothing held).
        sim = self.sim
        owner_pages = sim.system.mm.owner_pages
        held_for = sim.swap.held_for
        for owner, target in zip(self.owners, self._targets(t)):
            if target != owner_pages(owner) or held_for(owner):
                sim._resize_owner(owner, target, t)

    def operating_point(self, t: float) -> Tuple[float, float]:
        return self._bandwidth, self._row_miss

    def stable_until(self, t: float) -> float:
        # Per-owner mirror of ProfileSource.stable_until: each resize is
        # a strict no-op when the target matches resident + held and the
        # swap-in fault path cannot fire (nothing held, or free at/below
        # the reserve — free is read once, it cannot change mid-check,
        # nor inside the span: a churn span ends once churn moves it).
        # Every veto returns exactly t, so check order cannot change the
        # value; the surviving bound comes from the merged calendar.
        sim = self.sim
        mm = sim.system.mm
        free = mm.free_pages
        targets = self._targets(t)
        for (owner, profile), target in zip(self.owners.items(), targets):
            held = sim.swap.held_for(owner)
            if target != mm.owner_pages(owner) + held:
                return t
            if held and free > SWAP_IN_RESERVE_PAGES:
                return t
            if t >= profile.duration_s:
                continue  # clamped at its final footprint forever
            if profile.footprint.ramping_at(t):
                return t
        return self._flat_calendar.next_after(t)

    def ramp_until(self, t: float) -> float:
        """End of :meth:`stable_until`'s ramp veto from *t*."""
        # stable_until vetoes at every u < duration_s where one owner
        # ramps, whatever the others do, so the longest ramp bounds it.
        bound = t
        for profile in self.profiles:
            if t < profile.duration_s:
                bound = max(bound, min(profile.footprint.ramp_end(t),
                                       profile.duration_s))
        return bound


#: Sources whose ``apply`` never calls the policy (no emergency on-lining)
#: and whose ``ramp_until`` bounds the planner's ramp veto.
_RAMP_SOURCES = (ProfileSource, MixSource)


# --- the driver --------------------------------------------------------------


class EpochKernel:
    """Drives one :class:`WorkloadSource` against one simulator.

    Owns everything the three hand-rolled loops used to duplicate: the
    epoch clock, the warmup spin-up, quiescence fast-forward gating,
    per-epoch sampling, energy integration, and the stats lifecycle
    (reset before the measured span, booked into the process
    :class:`~repro.obs.residency.RunAccount` after).
    """

    def __init__(self, sim: "ServerSimulator"):
        self.sim = sim
        self.system = sim.system

    # --- stats lifecycle --------------------------------------------------

    def reset_stats(self) -> None:
        """Zero every per-run counter the measured span accumulates.

        One reset path for all run shapes (``run_vm_trace`` used to
        reset ``ff_stats`` inline and leak daemon/hot-plug counters
        across back-to-back runs): policy stats, hot-plug stats,
        fast-forward accounting, and the power-model cache counters all
        start clean.  The power memo itself survives — only its
        hit/miss counters reset, so energies are unaffected.
        """
        self.system.policy.reset_stats()
        # Write through any fault wrapper: assigning on the wrapper would
        # shadow the core manager's counters (organic and injected
        # failures both record on the core), leaving the visible stats
        # frozen at zero for the whole faulted run.
        hotplug = self.system.hotplug
        getattr(hotplug, "inner", hotplug).stats = HotplugStats()
        self.sim.ff_stats = FastForwardStats()
        self.system.power_model.cache_stats = PowerCacheStats()

    # --- sampling ---------------------------------------------------------

    def _sample(self, now_s: float, bandwidth: float,
                row_miss_rate: float) -> EpochSample:
        system = self.system
        mm = system.mm
        # Direct reads instead of mm.meminfo(): the snapshot object's
        # used_pages/free_pages derive from the same zone sums, but
        # meminfo() evaluates the free-page sum twice and builds a
        # frozen dataclass per epoch.
        free_pages = mm.free_pages
        used_pages = mm.online_pages - free_pages
        # One dpd_fraction() read feeds both the power model's cache key
        # (what system.dram_power would pass) and the sample field.
        policy = system.policy
        dpd = policy.dpd_fraction()
        power = system.power_model.busy_power_cached(
            bandwidth,
            active_residency=min(1.0, bandwidth
                                 / PEAK_DRAM_BANDWIDTH_BYTES_PER_S),
            row_miss_rate=row_miss_rate,
            dpd_fraction=dpd)
        power_w = power.total_w
        # Costs outside the dpd projection (migration traffic): added
        # only when nonzero, so policies without them — the GreenDIMM
        # daemon included — leave the float stream untouched.
        extra_w = policy.extra_power_w()
        if extra_w:
            power_w += extra_w
        return EpochSample(time_s=now_s,
                           used_pages=used_pages,
                           free_pages=free_pages,
                           offline_blocks=policy.offline_block_count,
                           dpd_fraction=dpd,
                           dram_power_w=power_w)

    def _baseline_power_w(self, bandwidth: float,
                          row_miss_rate: float) -> float:
        """Ungated-baseline power at the epoch's operating point."""
        return self.system.baseline_dram_power(
            bandwidth_bytes_per_s=bandwidth,
            active_residency=min(1.0, bandwidth
                                 / PEAK_DRAM_BANDWIDTH_BYTES_PER_S),
            row_miss_rate=row_miss_rate).total_w

    # --- span planning and replay ---------------------------------------

    def _fast_forward_usable(self, churn: bool, epoch_s: float) -> bool:
        """Can this run profit from the fast path at all?

        With pinned churn expecting >= 1 arrival every epoch (``int``
        part of rate x epoch), every epoch perturbs memory, so no window
        could span more than one epoch — skip the detection overhead
        entirely.
        """
        if not self.sim.fast_forward:
            return False
        if churn and self.sim.pinned_churn_rate_per_s * epoch_s >= 1.0:
            return False
        return True

    def _plan_span(self, source: WorkloadSource, t: float, epoch_s: float,
                   cap: float, churn: bool) -> Tuple[int, bool]:
        """How many epochs from *t* run as one batch, and of which kind.

        Returns ``(n, quiescent)``; ``n == 0`` means "step this epoch".
        The workload bounds every span with ``source.stable_until(t)``:
        ``apply`` no-ops and the operating point holds before it while
        memory holds still.  KSM activity or a live fault rule vetoes
        both kinds, the fault injector's own horizon intersects the
        bound, and *cap* truncates it.

        A **quiescent** window reaches past the next epoch while the
        monitor would no-op, so nothing at all can happen inside it (a
        churn window still ends after the first epoch in which churn
        moves memory).  Failing that, a **stable** span keeps the monitor
        armed and needs at least two epochs.  A non-churn span stops
        strictly before the epoch whose ``step`` would fire the monitor;
        the cap replays the daemon's exact ``since += epoch_s`` float
        chain, so the firing epoch lands on the dynamic path at the
        identical simulated time.  The cap is lifted when
        ``monitor_fire_is_noop`` proves the fire inert (asked lazily once
        the chain reaches the period): free memory cannot move inside a
        non-churn span, so every fire up to the bound is inert too.  A
        churn span is never capped here: churn can move free memory
        mid-span, so the span loop decides each fire when it reaches it
        (:meth:`_span_epochs`).
        """
        bound = source.stable_until(t)
        if bound <= t:
            return 0, False
        system = self.system
        ksm = system.ksm
        if ksm is not None and (ksm.pass_just_completed
                                or ksm.registry.regions()):
            return 0, False
        injector = system.fault_injector
        if injector is not None:
            bound = intersect_horizons(t, bound, injector.quiescent_until(t))
            if bound <= t:
                return 0, False
        policy = system.policy
        if bound > t + epoch_s and policy.monitor_is_noop():
            return epochs_before(t, epoch_s, min(bound, cap)), True
        bound = min(bound, cap)
        if churn:
            n = epochs_before(t, epoch_s, bound)
        else:
            period = policy.monitor_period_s
            since = policy.monitor_timer
            n = 0
            now = t
            while now < bound:
                since += epoch_s
                if since >= period:
                    if policy.monitor_fire_is_noop():
                        n += epochs_before(now, epoch_s, bound)
                    break  # an acting fire stays on the dynamic path
                n += 1
                now += epoch_s
        return (n if n >= 2 else 0), False

    def _stable_span_window(self, state: KernelRunState, n: int,
                            quiescent: bool, bandwidth: float,
                            row_miss_rate: float) -> None:
        """Execute up to *n* planned epochs of one kind as one batch.

        The planner proved that across these epochs ``apply`` is a
        strict no-op, the operating point is constant, KSM is idle, and
        no fault rule is live — so an epoch reduces to the monitor-timer
        tick (:func:`~repro.soa.monitor_timer_after`, the bit-exact mirror
        of ``step`` when the pass does nothing), the sample, and the
        energy sums.  Without churn the whole span is one
        :meth:`_replay_epochs` batch.  With churn the promise only lasts
        while memory holds still, so the span runs through
        :meth:`_span_epochs` with no ``apply`` and ends early after the
        first epoch in which churn moves free memory or a monitor fire
        acts.

        A *quiescent* window counts its epochs as fast-forwarded (but the
        closing real step as stepped), treats every fire as inert, and
        books residency as one closed-form span.  A stable span counts
        its epochs as stepped *and* batched and books residency per
        epoch.
        """
        system = self.system
        stats = self.sim.ff_stats
        clock = state.clock
        churn = state.pinned_churn
        if quiescent:
            stats.windows += 1
        else:
            stats.spans_stable += 1
        baseline_w = self._baseline_power_w(bandwidth, row_miss_rate)
        if TRACER.enabled:
            TRACER.event("ff.enter" if quiescent else "span.enter",
                         t_s=clock.now_s, epochs=n, churn=churn)
        closed = 0
        if churn:
            fires_inert = quiescent or system.policy.monitor_fire_is_noop()
            n, closed = self._span_epochs(state, n, bandwidth, row_miss_rate,
                                          baseline_w, None, None, fires_inert)
        else:
            system.advance_time(clock.now_s)
            template = self._sample(clock.now_s, bandwidth, row_miss_rate)
            self._replay_epochs(
                state, n, template, baseline_w,
                min(1.0, bandwidth / PEAK_DRAM_BANDWIDTH_BYTES_PER_S),
                per_epoch=not quiescent)
        if quiescent:
            n -= closed
            stats.epochs_fast_forwarded += n
        else:
            stats.epochs_stepped += n - closed
            stats.epochs_batched += n
        if TRACER.enabled:
            TRACER.event("ff.exit" if quiescent else "span.exit",
                         t_s=clock.now_s, epochs=n)

    def _replay_epochs(self, state: KernelRunState, n: int,
                       template: EpochSample, baseline_w: float,
                       active_res: float, per_epoch: bool = True,
                       live: Optional[List[EpochSample]] = None) -> None:
        """Book *n* epochs in which the power posture holds at
        *template*'s.

        Each epoch's sample is *template* at its timestamp, so the whole
        run collapses to one :class:`~repro.soa.SampleLog` run record —
        unless the caller read the page counts live, in which case
        *live* holds the run's samples.  Energy is the template's, so
        the batched ``repro.soa`` chains (scalar below their crossover)
        advance the clock, both energy sums on *state*, and the carried
        monitor timer bit-identically to stepping.  Residency is booked
        per epoch (bit-exact) or, with ``per_epoch=False``, as one
        closed-form span — the quiescent window's convention, equal up
        to float rounding.
        """
        policy = self.system.policy
        clock = state.clock
        epoch_s = clock.epoch_s
        if live is None:
            state.samples.append_run(clock.now_s, epoch_s, n, template)
        else:
            state.samples.extend(live)
        # The clock's final value: the same n sequential additions the
        # log's timestamps expand through.
        clock.now_s = accumulate_energy(clock.now_s, epoch_s, n)
        state.dram_energy = accumulate_energy(
            state.dram_energy, template.dram_power_w * epoch_s, n)
        state.baseline_energy = accumulate_energy(
            state.baseline_energy, baseline_w * epoch_s, n)
        policy.monitor_timer = monitor_timer_after(
            policy.monitor_timer, epoch_s, policy.monitor_period_s, n)
        if per_epoch:
            state.residency.add_epochs(epoch_s, active_res,
                                       template.dpd_fraction, n)
        else:
            state.residency.add_span(n * epoch_s, active_res,
                                     template.dpd_fraction)

    def _span_epochs(self, state: KernelRunState, n: int, bandwidth: float,
                     row_miss_rate: float, baseline_w: float,
                     template: Optional[EpochSample],
                     apply: Optional[Callable[[float], None]],
                     fires_inert: bool) -> Tuple[int, int]:
        """Execute up to *n* epochs in which only ``apply``, pinned churn
        and the monitor can act, from one churn event to the next.

        The caller proved the operating point constant and that nothing
        else moves the power posture, so every epoch booked here shares
        the posture of one *template* (sampled at the first such epoch
        when ``None``).  They are booked in one :meth:`_replay_epochs`
        call when the span ends, or just before the epoch that ends it;
        a span that raises books nothing, so *state* keeps its samples,
        clock and energies in step.  What the caller proved about the
        rest:

        * *apply* is the source's ``apply`` in a ramp span: it runs every
          epoch, and each sample reads its page counts live.  ``None``
          means the planner proved ``apply`` a no-op while memory holds
          still, so an epoch in which churn moves free memory ends the
          span and the caller re-plans.
        * *fires_inert* says every monitor fire is inert while memory
          holds still.  Otherwise each quiet-run scan stops short of the
          next fire, which is decided after its epoch's ``apply`` and
          churn by ``monitor_fire_is_noop``: an inert fire resets the
          timer and the span goes on; an acting one ends the span.

        The simulator's quiet-run scan
        (:meth:`~repro.sim.server.ServerSimulator._quiet_churn_epochs`)
        finds how many leading epochs churn merely draws a missing
        arrival number; those run without churn.  The next epoch runs
        churn for real, handing over the draw the scan already made.  An
        epoch that ends the span is completed by :meth:`_close_epoch`.

        Returns ``(executed, closed)``; *closed* is 1 when the last
        executed epoch was such a real step.
        """
        sim = self.sim
        system = self.system
        mm = system.mm
        policy = system.policy
        clock = state.clock
        epoch_s = clock.epoch_s
        period = policy.monitor_period_s
        churn = state.pinned_churn
        active_res = min(1.0, bandwidth / PEAK_DRAM_BANDWIDTH_BYTES_PER_S)
        live = None
        if apply is not None:
            live = []
            online = mm.online_pages

        def live_sample(u: float) -> EpochSample:
            free = mm.free_pages
            return EpochSample(u, online - free, free,
                               template.offline_blocks,
                               template.dpd_fraction, template.dram_power_w)

        # Epochs before the next fire, counted down: the timer itself is
        # booked only when the span ends.  The count follows the timer's
        # own chain, so it is exact.
        to_fire = (math.inf if fires_inert else epochs_before(
            policy.monitor_timer + epoch_s, epoch_s, period))
        t = clock.now_s
        done = pending = 0
        while done < n:
            run = min(n - done, to_fire)
            quiet, draw = (sim._quiet_churn_epochs(t, epoch_s, run)
                           if churn else (run, None))
            if apply is None:
                t = accumulate_energy(t, epoch_s, quiet)
            else:
                for _ in range(quiet):
                    apply(t)
                    live.append(live_sample(t))
                    t += epoch_s
            if quiet and template is None:
                template = self._sample(t, bandwidth, row_miss_rate)
            done += quiet
            pending += quiet
            to_fire -= quiet
            if done == n:
                break
            # The epoch after the quiet run runs churn for real.
            system.advance_time(t)
            if apply is not None:
                apply(t)
            free_before = mm.free_pages
            if churn:
                sim._pinned_churn(t, epoch_s, draw)
            done += 1
            fire = to_fire == 0
            if ((apply is None and mm.free_pages != free_before)
                    or (fire and not policy.monitor_fire_is_noop())):
                if pending:
                    self._replay_epochs(state, pending, template, baseline_w,
                                        active_res, live=live)
                self._close_epoch(state, bandwidth, row_miss_rate, baseline_w)
                return done, 1
            if live is not None:
                live.append(live_sample(t))
            if template is None:
                template = self._sample(t, bandwidth, row_miss_rate)
            pending += 1
            t += epoch_s
            to_fire = (epochs_before(epoch_s, epoch_s, period) if fire
                       else to_fire - 1)
        self._replay_epochs(state, pending, template, baseline_w, active_res,
                            live=live)
        return done, 0

    def _ramp_epochs(self, state: KernelRunState, end_s: float) -> None:
        """Step the epochs before *end_s* as one **ramp span**.

        The caller proved the footprint ramps (so the planner vetoes every
        epoch before *end_s*), and that nothing but the policy's monitor
        can change the power posture: no KSM, no fault injector, and a
        source whose ``apply`` never calls the policy.  The span runs
        through :meth:`_span_epochs` with the source's ``apply``, taking
        the posture template (:meth:`_sample`) and the baseline power
        once; every epoch counts as stepped.
        """
        clock = state.clock
        t = clock.now_s
        bandwidth, row_miss_rate = state.source.operating_point(t)
        template = self._sample(t, bandwidth, row_miss_rate)
        baseline_w = self._baseline_power_w(bandwidth, row_miss_rate)
        if TRACER.enabled:
            TRACER.event("ramp.enter", t_s=t, end_s=end_s)
        n, closed = self._span_epochs(
            state, epochs_before(t, clock.epoch_s, end_s), bandwidth,
            row_miss_rate, baseline_w, template, state.source.apply, False)
        self.sim.ff_stats.epochs_stepped += n - closed
        if TRACER.enabled:
            TRACER.event("ramp.exit", t_s=clock.now_s, epochs=n,
                         acting_fire=bool(closed))

    def _close_epoch(self, state: KernelRunState, bandwidth: float,
                     row_miss_rate: float,
                     baseline_w: Optional[float] = None) -> None:
        """Book one real epoch at the paused clock: ``system.step``, a
        fresh sample, both energies, residency and the tick.

        The power calls keep the stepped order — step, sample, baseline —
        because the power cache evicts in insertion order, so call order
        decides its counters.  A span passes the *baseline_w* it already
        evaluated.
        """
        clock = state.clock
        t = clock.now_s
        epoch_s = clock.epoch_s
        self.system.step(t, epoch_s)
        sample = self._sample(t, bandwidth, row_miss_rate)
        state.samples.append(sample)
        state.dram_energy += sample.dram_power_w * epoch_s
        if baseline_w is None:
            baseline_w = self._baseline_power_w(bandwidth, row_miss_rate)
        state.baseline_energy += baseline_w * epoch_s
        state.residency.add_span(
            epoch_s, min(1.0, bandwidth / PEAK_DRAM_BANDWIDTH_BYTES_PER_S),
            sample.dpd_fraction)
        self.sim.ff_stats.epochs_stepped += 1
        clock.tick()

    def _plan_horizon(self, source: WorkloadSource,
                      t: float) -> Tuple[float, float, int]:
        """How long the plan that just vetoed at *t* keeps vetoing.

        Returns ``(ramp_end, live_end, events)``: every plan before the
        later of the two ends returns ``(0, False)``.  ``ramp_end`` is
        the source's ramp veto (*t* when nothing ramps, or the source
        reports no ramps); ``live_end`` the fault plan's live period
        (:meth:`~repro.faults.injector.FaultInjector.live_until`, *t*
        with no plan).  A hit can exhaust a rule and end that period
        early, so ``live_end`` holds only while the injector's event log
        keeps length *events*.  Skipped plans change no answer: the
        source's and the injector's calendars are amortized, and each
        rebuilds itself if a query goes backwards.
        """
        ramp_end = (source.ramp_until(t)
                    if isinstance(source, _RAMP_SOURCES) else t)
        injector = self.system.fault_injector
        if injector is None:
            return ramp_end, t, 0
        return ramp_end, injector.live_until(t), len(injector.events)

    # --- the unified run loop ---------------------------------------------

    def begin(self, source: WorkloadSource, epoch_s: float,
              warmup_s: float = 0.0,
              pinned_churn: bool = True) -> KernelRunState:
        """Prepare *source*, spin up warmup, and open a measured span.

        Performs exactly the pre-loop work :meth:`run` used to do —
        ``prepare``, warmup stepping, the stats reset — and returns the
        paused :class:`KernelRunState` positioned at t=0.
        """
        if epoch_s <= 0:
            raise ConfigurationError("epoch must be positive")
        system = self.system
        source.prepare()
        t = -warmup_s
        while t < 0:
            system.step(t, epoch_s)
            t += epoch_s
        self.reset_stats()
        duration = source.duration_s
        use_ff = self._fast_forward_usable(pinned_churn, epoch_s)
        if TRACER.enabled:
            TRACER.event("kernel.run_start", t_s=0.0,
                         source=type(source).__name__,
                         duration_s=duration, epoch_s=epoch_s,
                         warmup_s=warmup_s, fast_forward=use_ff)
        return KernelRunState(
            source=source, epoch_s=epoch_s, pinned_churn=pinned_churn,
            use_ff=use_ff, duration_s=duration, clock=SimClock(epoch_s),
            swap_stall_before=self.sim.swap.stats.stall_s)

    def advance(self, state: KernelRunState, until_s: float = math.inf,
                exact: bool = False) -> bool:
        """Execute epochs of *state* until ``duration_s`` or *until_s*.

        The default mode checks *until_s* only between loop iterations:
        a fast-forward window or stable span that starts before the
        bound still runs to its natural horizon, so the float-operation
        stream — including the closed-form residency spans and the
        window/span counters — is *identical* to an uninterrupted run
        no matter where the run is paused.  This is the snapshot
        contract: pause points are natural window boundaries.

        ``exact=True`` additionally caps windows and spans at *until_s*
        (overshooting by at most one epoch), which is what a resident
        service needs to tick an infinite-horizon source in bounded
        slices.  Exact runs are still deterministic for a fixed tick
        schedule, but their stream need not match a differently-paced
        run bit-for-bit (windows close early, splitting residency
        spans).

        Ramp spans are cut at *until_s* in both modes.  That keeps the
        default mode bit-identical too: a ramp span books its epochs
        through :meth:`~repro.obs.residency.ResidencyStats.add_epochs`
        and :func:`~repro.soa.accumulate_energy`, which add in sequence,
        so two spans book what one would have.

        Every accumulator lives on *state*, so an epoch that raises
        leaves the samples, the clock and both energies of the epochs
        before it booked together.

        Returns ``True`` once the measured span is complete.
        """
        sim = self.sim
        system = self.system
        source = state.source
        epoch_s = state.epoch_s
        pinned_churn = state.pinned_churn
        use_ff = state.use_ff
        duration = state.duration_s
        clock = state.clock
        cap = min(duration, until_s) if exact else duration
        # Ramp spans need a source whose apply never reaches the policy
        # and nothing else that moves the power posture between fires.
        injector = system.fault_injector
        ramps = (use_ff and isinstance(source, _RAMP_SOURCES)
                 and system.ksm is None and injector is None)
        # The plan horizon: every plan before it would veto, so those
        # epochs skip the planner (:meth:`_plan_horizon`).
        ramp_end = live_end = -math.inf
        live_events = 0
        while clock.now_s < duration and clock.now_s < until_s:
            t = clock.now_s
            if use_ff:
                if t < ramp_end:
                    if ramps:
                        self._ramp_epochs(state, min(ramp_end, until_s))
                        continue
                elif t < live_end and len(injector.events) == live_events:
                    pass  # in a live fault period no hit has cut
                else:
                    # A churn span ends after the first epoch in which
                    # churn moves memory, so this loop re-plans (and
                    # re-checks the swap-in precondition) there.
                    n, quiescent = self._plan_span(source, t, epoch_s, cap,
                                                   pinned_churn)
                    if n:
                        bandwidth, row_miss = source.operating_point(t)
                        self._stable_span_window(state, n, quiescent,
                                                 bandwidth, row_miss)
                        continue
                    ramp_end, live_end, live_events = \
                        self._plan_horizon(source, t)
                    if ramps and t < ramp_end:
                        continue
            system.advance_time(t)
            source.apply(t)
            if pinned_churn:
                sim._pinned_churn(t, epoch_s)
            bandwidth, row_miss = source.operating_point(t)
            self._close_epoch(state, bandwidth, row_miss)
        return clock.now_s >= duration

    def finish(self, state: KernelRunState) -> KernelRun:
        """Close the measured span: book the run, shape the result."""
        residency_mod.GLOBAL_ACCOUNT.record_run(
            state.residency, state.dram_energy, state.baseline_energy,
            state.duration_s, self.sim.ff_stats,
            self.system.power_model.cache_stats)
        if TRACER.enabled:
            TRACER.event("kernel.run_end", t_s=state.duration_s,
                         samples=len(state.samples),
                         dram_energy_j=state.dram_energy,
                         baseline_dram_energy_j=state.baseline_energy)
        state.finished = True
        return KernelRun(samples=state.samples,
                         dram_energy_j=state.dram_energy,
                         baseline_dram_energy_j=state.baseline_energy,
                         swap_stall_s=(self.sim.swap.stats.stall_s
                                       - state.swap_stall_before),
                         duration_s=state.duration_s,
                         residency=state.residency)

    def run(self, source: WorkloadSource, epoch_s: float,
            warmup_s: float = 0.0, pinned_churn: bool = True) -> KernelRun:
        """Drive *source* from warmup to ``source.duration_s``.

        The measured span starts at t=0 with freshly reset statistics;
        warmup epochs (t < 0) step the full stack so the daemon settles,
        exactly as the pre-kernel loops did.  ``begin`` + unbounded
        ``advance`` + ``finish`` performs the identical operation
        sequence the monolithic loop did, so the golden contract holds.
        """
        state = self.begin(source, epoch_s, warmup_s=warmup_s,
                           pinned_churn=pinned_churn)
        self.advance(state)
        return self.finish(state)
