"""DRAM power model: background + refresh + dynamic, with sub-array DPD.

The model is evaluated per rank over an interval described by a
:class:`RankPowerProfile` (state residencies, achieved bandwidth, and the
fraction of the rank's sub-arrays held in GreenDIMM's deep power-down
state) and aggregated over the topology.

The key GreenDIMM term: a sub-array in deep power-down stops being
refreshed and has its peripheral/IO circuits power-gated, so it sheds its
proportional share of background *and* refresh power, down to a small
gate-leakage residual (``DPD_RESIDUAL_FRACTION``).  Spare repair rows
(~2%) are never gated (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.dram.organization import MemoryOrganization
from repro.dram.timing import DDR4Timing, DDR4_2133, DDR4_2133_8GB
from repro.errors import ConfigurationError
from repro.power.idd import (
    DPD_RESIDUAL_FRACTION,
    SPARE_ROW_FRACTION,
    AccessEnergies,
    IDDValues,
    _energies_for,
    _idd_for,
)
from repro.power.states import PowerState

#: Per-access I/O termination energy added for each *other* rank sharing
#: the channel (on-die termination on non-target ranks).
ODT_ENERGY_PER_EXTRA_RANK_J = 1.2e-9

_ACCESS_BYTES = 64


@dataclass(frozen=True)
class RankPowerProfile:
    """How one rank spent an interval.

    ``state_residency`` maps rank power states to time fractions and must
    sum to 1.  ``dpd_fraction`` is the fraction of the rank's sub-arrays
    sitting in GreenDIMM deep power-down throughout the interval; it
    applies regardless of the rank state because the gated sub-arrays stay
    gated while the rest of the rank serves traffic.
    """

    state_residency: Dict[PowerState, float] = field(
        default_factory=lambda: {PowerState.PRECHARGE_STANDBY: 1.0})
    bandwidth_bytes_per_s: float = 0.0
    write_fraction: float = 0.33
    row_miss_rate: float = 0.5
    dpd_fraction: float = 0.0

    def __post_init__(self) -> None:
        total = sum(self.state_residency.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(f"state residencies sum to {total}, not 1")
        if any(v < -1e-12 for v in self.state_residency.values()):
            raise ConfigurationError("negative residency")
        if not 0.0 <= self.dpd_fraction <= 1.0:
            raise ConfigurationError("dpd_fraction must be in [0, 1]")
        if self.bandwidth_bytes_per_s < 0:
            raise ConfigurationError("bandwidth must be non-negative")


def uniform_profile(organization: MemoryOrganization,
                    total_bandwidth_bytes_per_s: float = 0.0,
                    state_residency: Optional[Dict[PowerState, float]] = None,
                    row_miss_rate: float = 0.5,
                    dpd_fraction: float = 0.0) -> "list[RankPowerProfile]":
    """Spread *total_bandwidth* evenly over all ranks (interleaved traffic)."""
    per_rank = total_bandwidth_bytes_per_s / organization.total_ranks
    if state_residency is None:
        state_residency = {PowerState.PRECHARGE_STANDBY: 1.0}
    profile = RankPowerProfile(state_residency=dict(state_residency),
                               bandwidth_bytes_per_s=per_rank,
                               row_miss_rate=row_miss_rate,
                               dpd_fraction=dpd_fraction)
    return [profile] * organization.total_ranks


@dataclass(frozen=True)
class DRAMPowerBreakdown:
    """Average power over an interval, by component, in watts."""

    background_w: float
    refresh_w: float
    activate_w: float
    rw_w: float
    io_w: float

    @property
    def total_w(self) -> float:
        return (self.background_w + self.refresh_w + self.activate_w
                + self.rw_w + self.io_w)

    @property
    def static_w(self) -> float:
        """Background + refresh: the power GreenDIMM attacks."""
        return self.background_w + self.refresh_w

    @property
    def background_fraction(self) -> float:
        """Fraction of total power that is background+refresh."""
        total = self.total_w
        return self.static_w / total if total else 0.0

    def __add__(self, other: "DRAMPowerBreakdown") -> "DRAMPowerBreakdown":
        return DRAMPowerBreakdown(
            background_w=self.background_w + other.background_w,
            refresh_w=self.refresh_w + other.refresh_w,
            activate_w=self.activate_w + other.activate_w,
            rw_w=self.rw_w + other.rw_w,
            io_w=self.io_w + other.io_w,
        )

    def scaled(self, factor: float) -> "DRAMPowerBreakdown":
        return DRAMPowerBreakdown(
            background_w=self.background_w * factor,
            refresh_w=self.refresh_w * factor,
            activate_w=self.activate_w * factor,
            rw_w=self.rw_w * factor,
            io_w=self.io_w * factor,
        )


ZERO_BREAKDOWN = DRAMPowerBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)

#: Bound on the busy-power memo; reached only by sweeps over thousands
#: of distinct operating points, at which point the dict is cleared.
_BUSY_CACHE_MAX = 4096


@dataclass
class PowerCacheStats:
    """Hit/miss counters of one model's busy-power memo."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class DevicePowerModel:
    """Power of a single DRAM device given its IDD table."""

    def __init__(self, idd: IDDValues, timing: DDR4Timing):
        self.idd = idd
        self.timing = timing
        #: Background + refresh power of one device parked in each state.
        #: Both inputs are frozen, so the table never goes stale; it is
        #: derived state and stays out of any checkpoint.
        self.static_power_w: Dict[PowerState, float] = {
            state: self.background_power_w(state) + self.refresh_power_w(state)
            for state in PowerState}

    def background_power_w(self, state: PowerState) -> float:
        """Standby power in *state*, excluding refresh."""
        current = {
            PowerState.ACTIVE_STANDBY: self.idd.idd3n,
            PowerState.PRECHARGE_STANDBY: self.idd.idd2n,
            PowerState.POWER_DOWN: self.idd.idd2p,
            PowerState.SELF_REFRESH: self.idd.idd6,
            # Chip-global residual only; per-sub-array DPD accounting is
            # handled by the rank model's dpd_fraction.
            PowerState.DEEP_POWER_DOWN: self.idd.idd6 * DPD_RESIDUAL_FRACTION,
        }[state]
        return self.idd.vdd * current

    def refresh_power_w(self, state: PowerState) -> float:
        """Average auto-refresh power (0 in self/deep states: IDD6 covers
        self-refresh internally; deep power-down does not refresh)."""
        if state in (PowerState.SELF_REFRESH, PowerState.DEEP_POWER_DOWN):
            return 0.0
        burst = max(self.idd.idd5b - self.idd.idd2n, 0.0)
        return self.idd.vdd * burst * self.timing.refresh_duty_cycle


class DRAMPowerModel:
    """Power of the whole main memory for a set of rank profiles."""

    def __init__(self, organization: MemoryOrganization,
                 timing: Optional[DDR4Timing] = None,
                 idd: Optional[IDDValues] = None,
                 energies: Optional[AccessEnergies] = None):
        self.organization = organization
        if timing is None:
            density_gb = organization.device.density_bits / (1 << 30)
            timing = DDR4_2133 if density_gb <= 4 else DDR4_2133_8GB
        self.timing = timing
        self.idd = idd or _idd_for(organization.device)
        self.energies = energies or _energies_for(organization.device)
        self.device_model = DevicePowerModel(self.idd, timing)
        self._busy_cache: Dict[Tuple[float, float, float, float],
                               DRAMPowerBreakdown] = {}
        self.cache_stats = PowerCacheStats()

    # --- checkpoint/restore -----------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The busy-power memo and its hit/miss counters.  The memo's
        contents are pure in their keys, but the eviction-at-capacity
        behaviour makes the *population* part of the deterministic
        trajectory, so it is carried across a restore."""
        return {"busy_cache": self._busy_cache,
                "cache_stats": self.cache_stats}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._busy_cache = state["busy_cache"]
        self.cache_stats = state["cache_stats"]

    # --- rank-level -------------------------------------------------------

    def _dpd_scale(self, dpd_fraction: float) -> float:
        """Multiplier on background/refresh given the gated fraction."""
        effective = dpd_fraction * (1.0 - SPARE_ROW_FRACTION)
        return 1.0 - effective * (1.0 - DPD_RESIDUAL_FRACTION)

    def rank_power(self, profile: RankPowerProfile) -> DRAMPowerBreakdown:
        """Average power of one rank over the profiled interval."""
        devices = self.organization.devices_per_rank
        background = 0.0
        refresh = 0.0
        for state, residency in profile.state_residency.items():
            background += residency * self.device_model.background_power_w(state)
            refresh += residency * self.device_model.refresh_power_w(state)
        scale = self._dpd_scale(profile.dpd_fraction)
        background *= devices * scale
        refresh *= devices * scale

        accesses_per_s = profile.bandwidth_bytes_per_s / _ACCESS_BYTES
        activate = accesses_per_s * profile.row_miss_rate * self.energies.act_j
        rw = accesses_per_s * self.energies.rw_j
        io_per_access = (self.energies.io_j + ODT_ENERGY_PER_EXTRA_RANK_J
                         * (self.organization.ranks_per_channel - 1))
        io = accesses_per_s * io_per_access
        return DRAMPowerBreakdown(background_w=background, refresh_w=refresh,
                                  activate_w=activate, rw_w=rw, io_w=io)

    # --- system-level -------------------------------------------------------

    def power(self, profiles: Iterable[RankPowerProfile]) -> DRAMPowerBreakdown:
        """Aggregate power over per-rank profiles (must cover every rank)."""
        profiles = list(profiles)
        if len(profiles) != self.organization.total_ranks:
            raise ConfigurationError(
                f"expected {self.organization.total_ranks} rank profiles, "
                f"got {len(profiles)}")
        total = ZERO_BREAKDOWN
        for profile in profiles:
            total = total + self.rank_power(profile)
        return total

    def power_batched(self,
                      profiles: Iterable[RankPowerProfile]
                      ) -> DRAMPowerBreakdown:
        """Vectorized :meth:`power`: one rank evaluation per *distinct*
        profile object, folded in one pass.

        Bit-for-bit equal to the reference loop: distinct profiles are
        deduplicated by identity (:func:`uniform_profile` returns one
        shared instance per rank, so the usual epoch evaluates exactly
        one ``rank_power``), and the reduction uses
        ``np.add.accumulate``, whose strictly-sequential per-column fold
        reproduces the scalar ``total = total + rank_power(p)`` chain's
        float association exactly (``np.sum``'s pairwise reduction would
        not).
        """
        profiles = list(profiles)
        if len(profiles) != self.organization.total_ranks:
            raise ConfigurationError(
                f"expected {self.organization.total_ranks} rank profiles, "
                f"got {len(profiles)}")
        rows: Dict[int, Tuple[float, ...]] = {}
        components = np.empty((len(profiles), 5), dtype=np.float64)
        for index, profile in enumerate(profiles):
            row = rows.get(id(profile))
            if row is None:
                breakdown = self.rank_power(profile)
                row = (breakdown.background_w, breakdown.refresh_w,
                       breakdown.activate_w, breakdown.rw_w,
                       breakdown.io_w)
                rows[id(profile)] = row
            components[index] = row
        totals = np.add.accumulate(components, axis=0)[-1]
        return DRAMPowerBreakdown(
            background_w=float(totals[0]), refresh_w=float(totals[1]),
            activate_w=float(totals[2]), rw_w=float(totals[3]),
            io_w=float(totals[4]))

    def idle_power(self, dpd_fraction: float = 0.0) -> DRAMPowerBreakdown:
        """All ranks in precharge standby (the paper's 'idle' operating point)."""
        return self.power_batched(uniform_profile(self.organization,
                                                  dpd_fraction=dpd_fraction))

    def busy_power(self, total_bandwidth_bytes_per_s: float,
                   active_residency: float = 1.0,
                   row_miss_rate: float = 0.5,
                   dpd_fraction: float = 0.0) -> DRAMPowerBreakdown:
        """All ranks serving interleaved traffic at the given bandwidth."""
        residency = {
            PowerState.ACTIVE_STANDBY: active_residency,
            PowerState.PRECHARGE_STANDBY: 1.0 - active_residency,
        }
        return self.power_batched(uniform_profile(
            self.organization, total_bandwidth_bytes_per_s,
            state_residency=residency, row_miss_rate=row_miss_rate,
            dpd_fraction=dpd_fraction))

    def busy_power_cached(self, total_bandwidth_bytes_per_s: float,
                          active_residency: float = 1.0,
                          row_miss_rate: float = 0.5,
                          dpd_fraction: float = 0.0) -> DRAMPowerBreakdown:
        """Memoized :meth:`busy_power`.

        The evaluation is pure in its four float arguments (the daemon's
        gated fraction is the only system state, passed explicitly as
        ``dpd_fraction``) and :class:`DRAMPowerBreakdown` is frozen, so
        cached instances are safe to share.  The epoch simulator asks for
        the same operating point thousands of times per run; hits and
        misses land in :attr:`cache_stats`, which the epoch kernel books
        into the process :class:`~repro.obs.residency.RunAccount` when a
        run finishes.
        """
        key = (total_bandwidth_bytes_per_s, active_residency,
               row_miss_rate, dpd_fraction)
        cached = self._busy_cache.get(key)
        if cached is not None:
            self.cache_stats.hits += 1
            return cached
        result = self.busy_power(total_bandwidth_bytes_per_s,
                                 active_residency=active_residency,
                                 row_miss_rate=row_miss_rate,
                                 dpd_fraction=dpd_fraction)
        if len(self._busy_cache) >= _BUSY_CACHE_MAX:
            self._busy_cache.clear()
        self._busy_cache[key] = result
        self.cache_stats.misses += 1
        return result
