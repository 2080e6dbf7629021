"""PASR: bank-granularity partial-array self-refresh (mobile DRAM).

PASR lets idle banks stop refreshing while the rank self-refreshes, and
unused banks enter a deep power-down-like state.  Like every rank/bank
scheme it assumes an idle bank *exists*; with interleaving the paper's
Ramulator experiment finds none (Section 3.3), so PASR only helps with
interleaving disabled, and even then only for the refresh component of
banks the footprint does not touch.

Idle ranks self-refresh at the timeout capture rate, and on *every*
rank the untouched banks shed ``PASR_BANK_SAVING`` of their background
share, expressed as a whole-channel dpd term through the same dpd scale
the power model applies.  In the kernel both terms move with live usage
at every monitor fire.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

from repro.policies.calibration import (
    idle_bank_fraction,
    idle_rank_fraction,
    rank_mix_dpd,
)
from repro.policies.ranklevel import RankLevelPolicy
from repro.policies.srf import SELF_REFRESH_EFFICIENCY
from repro.power.states import PowerState

if TYPE_CHECKING:
    from repro.core.system import GreenDIMMSystem
    from repro.dram.organization import MemoryOrganization

#: Background-power share PASR's deep state removes for a fully idle
#: bank (refresh plus part of the bank periphery; chip-global circuits
#: and the shared I/O stay powered because the rank remains addressable).
PASR_BANK_SAVING = 0.55


class PASRKernelPolicy(RankLevelPolicy):
    """Refresh masking for idle banks, on top of the timeout policy."""

    name = "pasr"

    IDLE_MIX = {PowerState.SELF_REFRESH: SELF_REFRESH_EFFICIENCY}

    def __init__(self, system: "GreenDIMMSystem"):
        super().__init__(system)
        self._bank_bytes = system.organization.logical_bank_capacity_bytes

    @classmethod
    def _estimate_bank_dpd(cls, footprint: int,
                           organization: "MemoryOrganization") -> float:
        return idle_bank_fraction(footprint, organization) * PASR_BANK_SAVING

    def _posture_key(self, used_bytes: int) -> Tuple[int, int]:
        # The resident ranks and the used logical banks.
        return (self._resident_ranks(used_bytes),
                math.ceil(used_bytes / self._bank_bytes))

    def _compute_dpd(self, used_bytes: int) -> float:
        organization = self.system.organization
        idle_ranks = idle_rank_fraction(used_bytes, organization)
        bank_dpd = (idle_bank_fraction(used_bytes, organization)
                    * PASR_BANK_SAVING)
        return rank_mix_dpd(self.system.power_model, idle_ranks,
                            self.IDLE_MIX, all_rank_dpd=bank_dpd)
