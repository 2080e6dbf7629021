"""Self-refresh-only: the commodity timeout policy (the paper's baseline).

The memory controller demotes a rank to self-refresh after a long idle
window.  With interleaving every rank sees a slice of every access
stream, idle windows never reach the threshold, and no rank ever enters
self-refresh (Figure 3b, "w/ interleaving").  Without interleaving the
ranks not hosting the footprint sleep most of the time (~54% of cycles
on average in the paper's measurement).

In the kernel, ranks the current usage does not touch spend
``SELF_REFRESH_EFFICIENCY`` of their time in self-refresh and
``IDLE_POWERDOWN_FRACTION`` in power-down — the same capture fractions
:meth:`~repro.policies.ranklevel.RankLevelPolicy.estimate` uses,
converted to an effective dpd through the platform's IDD table.
"""

from __future__ import annotations

from repro.policies.calibration import idle_rank_fraction, rank_mix_dpd
from repro.policies.ranklevel import RankLevelPolicy
from repro.power.states import PowerState

#: Fraction of an idle rank's time the timeout policy actually captures
#: in self-refresh — anchored to the paper's Figure 3b measurement of
#: ~54% of cycles; kernel noise and timeout ramps eat the rest, part of
#: which the shorter power-down timeout still catches.
SELF_REFRESH_EFFICIENCY = 0.55
IDLE_POWERDOWN_FRACTION = 0.30


class SelfRefreshTimeoutPolicy(RankLevelPolicy):
    """Rank-granularity timeout demotion, nothing else."""

    name = "srf_only"

    #: Time an idle rank spends in each low-power state once the
    #: timeout ladder settles (self-refresh after the long threshold,
    #: power-down after the short one).
    IDLE_MIX = {PowerState.SELF_REFRESH: SELF_REFRESH_EFFICIENCY,
                PowerState.POWER_DOWN: IDLE_POWERDOWN_FRACTION}

    def _posture_key(self, used_bytes: int) -> int:
        return self._resident_ranks(used_bytes)

    def _compute_dpd(self, used_bytes: int) -> float:
        idle = idle_rank_fraction(used_bytes, self.system.organization)
        return rank_mix_dpd(self.system.power_model, idle, self.IDLE_MIX)
