"""Adaptive per-rank demotion depth (Lu et al., arXiv 1409.5567).

Each rank that falls idle is demoted to the deepest low-power state
whose break-even time its *observed* idle behaviour justifies: the
policy keeps a per-rank EWMA of realized idle-interval lengths (updated
whenever a rank is re-occupied) and picks the state ladder rung whose
entry/exit cost that history amortizes.  Ranks with a record of long
idle spells sink to deep power-down; ranks that bounce in and out stay
in shallow power-down so re-activation is cheap.

All state updates happen at monitor fires when the resident-rank count
actually changes, so the posture is a pure function of the observed
transition history and the periodic-timer fast-forward contract holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.policies.calibration import resident_ranks, state_mix_dpd
from repro.policies.ranklevel import RankLevelPolicy
from repro.power.states import PowerState

if TYPE_CHECKING:
    from repro.core.system import GreenDIMMSystem

#: The demotion ladder: deepest state whose break-even the rank's
#: observed mean idle interval exceeds.  Break-evens are entry/exit
#: amortization times, dominated by deep power-down's wake-up ramp.
DEMOTION_LADDER = ((PowerState.DEEP_POWER_DOWN, 30.0),
                   (PowerState.SELF_REFRESH, 0.5),
                   (PowerState.POWER_DOWN, 0.05))

#: Fraction of a demoted rank's idle time actually spent in the chosen
#: state (prediction is not clairvoyance; entries/exits eat the rest).
CAPTURE = 0.92

#: EWMA weight of each newly observed idle interval.
EWMA_WEIGHT = 0.25


class AdaptiveDemotionPolicy(RankLevelPolicy):
    """Per-rank demotion depth from observed idle distributions."""

    name = "adaptive-demotion"

    _STATE_ATTRS = RankLevelPolicy._STATE_ATTRS + (
        "_resident", "_idle_since", "_mean_idle_s", "_demotions",
        "_reactivations")

    def __init__(self, system: "GreenDIMMSystem"):
        super().__init__(system)
        #: Resident-rank count at the last fire; 0 = not initialized.
        self._resident = 0
        #: Fire time at which each currently idle rank fell idle.
        self._idle_since: Dict[int, float] = {}
        #: Per-rank EWMA of realized idle-interval lengths, seeded with
        #: one monitor period (the shortest observable interval).
        self._mean_idle_s: Dict[int, float] = {}
        self._demotions = 0
        self._reactivations = 0

    # --- ladder -----------------------------------------------------------

    def _rank_state(self, rank: int) -> PowerState:
        mean = self._mean_idle_s.get(rank, self.monitor_period_s)
        for state, breakeven_s in DEMOTION_LADDER:
            if mean >= breakeven_s:
                return state
        return PowerState.POWER_DOWN

    def _posture_dpd(self, resident: int) -> float:
        total = self.system.organization.total_ranks
        power_model = self.system.power_model
        saved = 0.0
        for rank in range(resident, total):
            saved += state_mix_dpd(power_model,
                                   {self._rank_state(rank): CAPTURE})
        return saved / total

    def _posture_key(self, used_bytes: int) -> Tuple[int, float]:
        # The ladder also reads the idle history: monitor_once drops the
        # memo whenever it moves.
        return self._resident_ranks(used_bytes), self.monitor_period_s

    def _compute_dpd(self, used_bytes: int) -> float:
        return self._posture_dpd(
            resident_ranks(used_bytes, self.system.organization))

    # --- monitor ----------------------------------------------------------

    def monitor_once(self, now_s: float) -> None:
        used = self._used_bytes()
        resident = self._resident_ranks(used)
        previous = self._resident or self._total_ranks
        if resident < previous:
            for rank in range(resident, previous):
                self._idle_since[rank] = now_s
                self._demotions += 1
        elif resident > previous:
            for rank in range(previous, resident):
                fell_idle = self._idle_since.pop(rank, None)
                if fell_idle is not None:
                    interval = now_s - fell_idle
                    mean = self._mean_idle_s.get(rank,
                                                 self.monitor_period_s)
                    self._mean_idle_s[rank] = (
                        (1.0 - EWMA_WEIGHT) * mean
                        + EWMA_WEIGHT * interval)
                    self._postures.clear()
                self._reactivations += 1
        self._resident = resident
        self._effective_dpd = self._dpd(used)

    def monitor_is_noop(self) -> bool:
        # The posture is a pure function of the resident count and the
        # per-rank interval history; the history only moves when the
        # resident count does, so an unchanged count means a no-op fire.
        return (self._resident != 0
                and self._resident_ranks(self._used_bytes())
                == self._resident)

    def policy_metrics(self) -> Dict[str, float]:
        return {"demotions": float(self._demotions),
                "reactivations": float(self._reactivations)}
