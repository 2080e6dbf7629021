"""Shared base for the rank-level policies (srf_only, RAMZzz, PASR).

Each policy class answers in two ways from one set of constants.

In the kernel, it faces the live system: at every monitor fire it reads
actual memory usage from the memory manager (which moves with ramps,
pinned churn, KSM merging, and injected faults) and projects its
rank-level posture onto the kernel's ``dpd_fraction`` through the
calibrated conversion in :mod:`repro.policies.calibration`.  Between
fires nothing changes — the posture is a pure function of the usage
observed at the last fire — so the periodic-timer contract of
:class:`~repro.policies.base.PeriodicPolicy` holds and fast-forward /
stable-span batching stay valid: ``monitor_is_noop`` is exactly "a
recomputation right now would return the current posture".

In closed form, the :meth:`RankLevelPolicy.estimate` classmethod gives
the per-rank operating point of a workload's *declared* peak footprint,
which Figures 3, 9 and 10 price through
:class:`~repro.power.model.DRAMPowerModel`: resident ranks are busy,
the other ranks sit in the class's ``IDLE_MIX`` plus precharge standby,
and every rank may shed an all-rank bank dpd.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping

from repro.policies.base import PeriodicPolicy
from repro.policies.calibration import (
    ESTIMATE_KERNEL_BYTES,
    ranks_holding,
    resident_ranks,
)
from repro.power.model import RankPowerProfile
from repro.power.states import PowerState
from repro.units import PAGE_SIZE

if TYPE_CHECKING:
    from repro.core.system import GreenDIMMSystem
    from repro.dram.organization import MemoryOrganization
    from repro.workloads.profiles import WorkloadProfile

#: Bandwidth one rank sustains at full utilization.
RANK_PEAK_BANDWIDTH = 4e9


def _busy_residency(utilization: float) -> Dict[PowerState, float]:
    """Residency of a rank actively serving requests."""
    return {PowerState.ACTIVE_STANDBY: utilization,
            PowerState.PRECHARGE_STANDBY: 1.0 - utilization}


def _idle_residency(idle_mix: Mapping[PowerState, float]
                    ) -> Dict[PowerState, float]:
    """Residency of a rank that holds no (hot) data: *idle_mix* plus
    precharge standby for the rest, standby first."""
    rest = 1.0
    for fraction in idle_mix.values():
        rest -= fraction
    residency = {PowerState.PRECHARGE_STANDBY: max(0.0, rest)}
    residency.update((state, fraction)
                     for state, fraction in idle_mix.items() if fraction)
    return residency


class RankLevelPolicy(PeriodicPolicy):
    """Recompute an effective dpd from live usage at each monitor fire.

    The posture is a pure function of a few integers of the usage (the
    resident ranks, the used banks, the hot ranks), so each subclass
    names them in ``_posture_key`` and :meth:`_dpd` computes the dpd
    once per key: the usage moves at nearly every fire, its key rarely.
    A subclass must define its own key (there is no default) covering
    everything its ``_compute_dpd`` reads; mutable state beyond the
    usage that the computation reads must drop the memo when it moves.
    The memo is not in ``_STATE_ATTRS``: a restored policy recomputes
    identical floats.
    """

    _STATE_ATTRS = PeriodicPolicy._STATE_ATTRS + ("_effective_dpd",)

    #: Time an idle rank spends in each low-power state (the remainder
    #: is precharge standby).
    IDLE_MIX: Mapping[PowerState, float] = {}
    #: Runtime dilation from monitoring/migration interference.
    RUNTIME_OVERHEAD = 0.0
    #: Extra traffic as a fraction of demand bandwidth.
    MIGRATION_TRAFFIC_FRACTION = 0.0
    #: Utilization ceiling of a busy rank.
    UTILIZATION_CAP = 0.9

    def __init__(self, system: "GreenDIMMSystem"):
        super().__init__(system)
        self._effective_dpd = 0.0
        organization = system.organization
        #: Organization constants the posture keys read.
        self._rank_bytes = organization.rank_capacity_bytes
        self._total_ranks = organization.total_ranks
        #: dpd by posture key (not state: see the class docstring).
        self._postures: Dict[Hashable, float] = {}

    # --- closed form ------------------------------------------------------

    @classmethod
    def estimate(cls, profile: "WorkloadProfile",
                 organization: "MemoryOrganization",
                 interleaved: bool,
                 n_copies: int = 1) -> List[RankPowerProfile]:
        """Per-rank operating point of *n_copies* of *profile*.

        With interleaving every rank holds a slice of every footprint —
        that is the whole problem (Section 3.3) — so every rank is busy
        and every bank is touched.
        """
        footprint = profile.peak_footprint_bytes * n_copies
        if interleaved:
            resident = organization.total_ranks
            dpd = 0.0
        else:
            resident = cls._estimate_resident(footprint, organization)
            dpd = cls._estimate_bank_dpd(footprint, organization)
        traffic = profile.bandwidth_demand_bytes_per_s * n_copies
        if cls.MIGRATION_TRAFFIC_FRACTION:
            traffic = traffic + traffic * cls.MIGRATION_TRAFFIC_FRACTION
        per_rank_bw = traffic / max(1, resident)
        utilization = min(cls.UTILIZATION_CAP,
                          per_rank_bw / RANK_PEAK_BANDWIDTH)
        profiles = []
        for rank in range(organization.total_ranks):
            if rank < resident:
                profiles.append(RankPowerProfile(
                    state_residency=_busy_residency(utilization),
                    bandwidth_bytes_per_s=per_rank_bw,
                    row_miss_rate=1.0 - profile.row_hit_rate,
                    dpd_fraction=dpd))
            else:
                profiles.append(RankPowerProfile(
                    state_residency=_idle_residency(cls.IDLE_MIX),
                    dpd_fraction=dpd))
        return profiles

    @classmethod
    def _estimate_resident(cls, footprint: int,
                           organization: "MemoryOrganization") -> int:
        """Busy ranks of a non-interleaved placement of *footprint*."""
        return resident_ranks(footprint + ESTIMATE_KERNEL_BYTES, organization)

    @classmethod
    def _estimate_bank_dpd(cls, footprint: int,
                           organization: "MemoryOrganization") -> float:
        """dpd every rank of a non-interleaved placement sheds on top
        of its state mix."""
        return 0.0

    # --- in kernel --------------------------------------------------------

    def _used_bytes(self) -> int:
        mm = self.system.mm
        return (mm.online_pages - mm.free_pages) * PAGE_SIZE

    def _resident_ranks(self, used_bytes: int) -> int:
        """:func:`resident_ranks` of *used_bytes* on this organization."""
        return ranks_holding(used_bytes, self._rank_bytes, self._total_ranks)

    def _compute_dpd(self, used_bytes: int) -> float:
        raise NotImplementedError

    def _posture_key(self, used_bytes: int) -> Hashable:
        """The integers :meth:`_compute_dpd` reads of *used_bytes*."""
        raise NotImplementedError

    def _dpd(self, used_bytes: int) -> float:
        """:meth:`_compute_dpd` through the posture memo."""
        key = self._posture_key(used_bytes)
        try:
            return self._postures[key]
        except KeyError:
            dpd = self._postures[key] = self._compute_dpd(used_bytes)
            return dpd

    def monitor_once(self, now_s: float) -> None:
        self._effective_dpd = self._dpd(self._used_bytes())

    def monitor_is_noop(self) -> bool:
        return self._dpd(self._used_bytes()) == self._effective_dpd

    def dpd_fraction(self) -> float:
        return self._effective_dpd

    def runtime_overhead_fraction(self) -> float:
        return self.RUNTIME_OVERHEAD

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._postures.clear()
