"""Rank-aware page migration (Lu et al., arXiv 1409.5567).

Concentrates hot pages onto the fewest ranks that can hold them and
parks the emptied ranks deep — but unlike the closed-form RAMZzz
estimate, the migrations themselves are accounted for: every
re-concentration at a monitor fire moves real bytes, and the policy
charges their access energy as extra DRAM power over the following
monitor period plus a stall that shows up in the run's busy time.

Page-granularity packing beats RAMZzz's rank-group granularity on two
axes: a smaller hot working set pins fewer ranks
(``HOT_FRACTION`` < RAMZzz's) and the cold ranks sit deeper
(``IDLE_MIX``).  The price is the migration traffic, which this policy
is the only one to pay explicitly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict

from repro.policies.calibration import rank_mix_dpd
from repro.policies.ranklevel import RankLevelPolicy
from repro.power.states import PowerState

if TYPE_CHECKING:
    from repro.core.system import GreenDIMMSystem

#: Fraction of live usage hot enough to stay on the awake ranks
#: (page-granularity stats pack tighter than RAMZzz's rank groups).
HOT_FRACTION = 0.20

#: Residency of a concentrated-out rank (deep proactive demotion).
IDLE_MIX = {PowerState.SELF_REFRESH: 0.85, PowerState.POWER_DOWN: 0.10}

#: Sustained bandwidth of the migration copy loop.
MIGRATION_BANDWIDTH_BYTES_PER_S = 8e9

#: Row-miss rate of the streaming migration copies (sequential sweeps).
_MIGRATION_ROW_MISS = 0.5


class RankAwareMigrationPolicy(RankLevelPolicy):
    """Hot-page concentration with explicit migration-cost accounting."""

    name = "rank-migration"

    #: Runtime dilation from the access-stats monitoring machinery.
    RUNTIME_OVERHEAD = 0.01

    _STATE_ATTRS = RankLevelPolicy._STATE_ATTRS + (
        "_current_resident", "_extra_power_w", "_migrations",
        "_migrated_bytes", "_migration_energy_j", "_migration_stall_s")

    def __init__(self, system: "GreenDIMMSystem"):
        super().__init__(system)
        self._current_resident = 0  # 0 = nothing packed yet
        self._extra_power_w = 0.0
        self._migrations = 0
        self._migrated_bytes = 0
        self._migration_energy_j = 0.0
        self._migration_stall_s = 0.0

    # --- posture ----------------------------------------------------------

    def _desired_resident(self, used_bytes: int) -> int:
        """Ranks the hot share of *used_bytes* pins."""
        hot = math.ceil(used_bytes * HOT_FRACTION / self._rank_bytes)
        return max(1, min(self._resident_ranks(used_bytes), hot))

    def _posture_key(self, used_bytes: int) -> int:
        return self._desired_resident(used_bytes)

    def _compute_dpd(self, used_bytes: int) -> float:
        idle = 1.0 - (self._desired_resident(used_bytes)
                      / self.system.organization.total_ranks)
        return rank_mix_dpd(self.system.power_model, idle, IDLE_MIX)

    # --- monitor ----------------------------------------------------------

    def monitor_once(self, now_s: float) -> None:
        used = self._used_bytes()
        desired = self._desired_resident(used)
        self._extra_power_w = 0.0
        if desired != self._current_resident:
            self._migrate(used, desired)
            self._current_resident = desired
        self._effective_dpd = self._dpd(used)

    def _migrate(self, used_bytes: int, desired: int) -> None:
        """Charge one re-concentration: cold data crosses the boundary."""
        organization = self.system.organization
        cold_bytes = int(used_bytes * (1.0 - HOT_FRACTION))
        if self._current_resident:
            shift = abs(desired - self._current_resident)
            moved = min(cold_bytes,
                        shift * organization.rank_capacity_bytes)
        else:
            moved = cold_bytes  # initial packing moves the cold majority
        if moved <= 0:
            return
        energies = self.system.power_model.energies
        # Each 64B line is read from the source rank and written to the
        # destination rank.
        energy = (moved / 64.0) * 2.0 * energies.energy_per_access_j(
            _MIGRATION_ROW_MISS)
        stall = moved / MIGRATION_BANDWIDTH_BYTES_PER_S
        self._migrations += 1
        self._migrated_bytes += moved
        self._migration_energy_j += energy
        self._migration_stall_s += stall
        self.stats.busy_s += stall
        # Amortize the burst over the period until the next fire; the
        # sampler adds it to DRAM power while it is nonzero.
        self._extra_power_w = energy / self.monitor_period_s

    def monitor_is_noop(self) -> bool:
        # A fire would clear the amortized migration power and may start
        # a new migration: only a settled placement with no charge
        # pending is a no-op.
        if self._extra_power_w != 0.0:
            return False
        return self._desired_resident(self._used_bytes()) \
            == self._current_resident

    # --- costs ------------------------------------------------------------

    def extra_power_w(self) -> float:
        return self._extra_power_w

    def policy_metrics(self) -> Dict[str, float]:
        return {"migrations": float(self._migrations),
                "migrated_bytes": float(self._migrated_bytes),
                "migration_energy_j": self._migration_energy_j,
                "migration_stall_s": self._migration_stall_s}
