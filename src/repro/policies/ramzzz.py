"""RAMZzz (Wu et al., SC'12): rank-aware migration + demotion.

RAMZzz groups pages of similar locality, migrates cold pages toward cold
ranks to *manufacture* idle ranks, and proactively demotes those ranks:
only ``HOT_FRACTION`` of the footprint pins ranks awake, and the
emptied ranks reach ``DEMOTED_EFFICIENCY`` self-refresh capture.  Two
costs come with it: continuous access monitoring (``RUNTIME_OVERHEAD``)
and the migration traffic itself.  Crucially (Section 7), it does not
consider memory interleaving — with interleaving enabled its rank-level
mechanism has nothing to work with, exactly like the plain timeout
policy.

In the kernel the same packing applies to live usage at every monitor
fire; :meth:`~repro.policies.ranklevel.RankLevelPolicy.estimate`
applies it to a workload's declared peak footprint.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.policies.calibration import rank_mix_dpd, resident_ranks
from repro.policies.ranklevel import RankLevelPolicy
from repro.power.states import PowerState

if TYPE_CHECKING:
    from repro.dram.organization import MemoryOrganization

#: Fraction of the footprint that is hot enough to pin ranks awake
#: (RAMZzz's page stats pack the cold majority into sleepable ranks).
HOT_FRACTION = 0.25

#: Idle-rank self-refresh capture with proactive demotion (better than a
#: timeout because RAMZzz predicts idleness from its page stats).
DEMOTED_EFFICIENCY = 0.80


def _hot_ranks(plain: int, footprint: int, rank_bytes: int) -> int:
    """Ranks the hot share of *footprint* pins, at most *plain*."""
    hot = math.ceil(footprint * HOT_FRACTION / rank_bytes)
    return max(1, min(plain, hot))


class RAMZzzKernelPolicy(RankLevelPolicy):
    """Cold-page packing plus predictive demotion of the emptied ranks."""

    name = "ramzzz"

    IDLE_MIX = {PowerState.SELF_REFRESH: DEMOTED_EFFICIENCY,
                PowerState.POWER_DOWN: 0.15}
    #: Runtime overhead of monitoring + migrations the paper attributes
    #: to it.
    RUNTIME_OVERHEAD = 0.02
    MIGRATION_TRAFFIC_FRACTION = 0.05
    UTILIZATION_CAP = 0.95

    @classmethod
    def _estimate_resident(cls, footprint: int,
                           organization: "MemoryOrganization") -> int:
        plain = super()._estimate_resident(footprint, organization)
        return _hot_ranks(plain, footprint, organization.rank_capacity_bytes)

    def _posture_key(self, used_bytes: int) -> int:
        # The hot ranks.
        return _hot_ranks(self._resident_ranks(used_bytes), used_bytes,
                          self._rank_bytes)

    def _compute_dpd(self, used_bytes: int) -> float:
        organization = self.system.organization
        resident = _hot_ranks(resident_ranks(used_bytes, organization),
                              used_bytes, organization.rank_capacity_bytes)
        idle = 1.0 - resident / organization.total_ranks
        return rank_mix_dpd(self.system.power_model, idle, self.IDLE_MIX)
