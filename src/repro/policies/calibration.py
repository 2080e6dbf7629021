"""Calibrated state-to-dpd conversion for rank-level in-kernel policies.

The epoch kernel projects a policy's whole power posture onto one
``dpd_fraction`` float (the capacity-fraction whose background + refresh
power is gone, with the residual/spare-row losses of
:meth:`repro.power.model.DRAMPowerModel._dpd_scale` applied).  Rank-level
schemes think in *states* — a rank parked in self-refresh or power-down —
so this module converts a per-rank state mix into the equivalent dpd
fraction using the platform's own IDD table:

    saved(state)   = 1 - static(state) / static(PRECHARGE_STANDBY)
    equiv_dpd      = saved / ((1 - spare)(1 - residual))

where ``static`` is background + refresh power of one device.  Because
the conversion and the closed-form
:meth:`~repro.policies.ranklevel.RankLevelPolicy.estimate` both derive
from the same :class:`~repro.power.model.DevicePowerModel`, the
in-kernel policy ranking tracks the Figure 9/10 analytical ranking by
construction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

from repro.power.idd import DPD_RESIDUAL_FRACTION, SPARE_ROW_FRACTION
from repro.power.states import PowerState
from repro.units import GIB

if TYPE_CHECKING:
    from repro.dram.organization import MemoryOrganization
    from repro.power.model import DRAMPowerModel

#: Kernel allocation a closed-form estimate places next to a workload's
#: footprint (live usage already includes it).
ESTIMATE_KERNEL_BYTES = 2 * GIB


def static_power_w(power_model: "DRAMPowerModel",
                   state: PowerState) -> float:
    """Background + refresh power of one device parked in *state*."""
    return power_model.device_model.static_power_w[state]


def state_mix_dpd(power_model: "DRAMPowerModel",
                  residency: Mapping[PowerState, float]) -> float:
    """Equivalent dpd of a rank spending *residency* across states.

    Residencies may sum to less than 1; the remainder is precharge
    standby (zero saving).  Clamped to [0, 1]: a state mix can save at
    most everything the dpd scale can express.
    """
    standby = static_power_w(power_model, PowerState.PRECHARGE_STANDBY)
    saved = 0.0
    for state, fraction in residency.items():
        saved += fraction * (1.0 - static_power_w(power_model, state)
                             / standby)
    loss = (1.0 - SPARE_ROW_FRACTION) * (1.0 - DPD_RESIDUAL_FRACTION)
    return min(1.0, max(0.0, saved / loss))


def rank_mix_dpd(power_model: "DRAMPowerModel",
                 idle_fraction: float,
                 idle_residency: Mapping[PowerState, float],
                 all_rank_dpd: float = 0.0) -> float:
    """Equivalent dpd of a whole channel: idle ranks in a state mix.

    ``idle_fraction`` of ranks spend *idle_residency* across low-power
    states (remainder precharge standby); every rank additionally sheds
    ``all_rank_dpd`` of its background + refresh power (PASR-style bank
    masking, applied through the same dpd scale the power model uses).
    Returns the single dpd value whose static saving equals the mix's.
    """
    standby = static_power_w(power_model, PowerState.PRECHARGE_STANDBY)
    idle_static = 0.0
    covered = 0.0
    for state, fraction in idle_residency.items():
        idle_static += fraction * static_power_w(power_model, state)
        covered += fraction
    idle_static += max(0.0, 1.0 - covered) * standby
    loss = (1.0 - SPARE_ROW_FRACTION) * (1.0 - DPD_RESIDUAL_FRACTION)
    scale = 1.0 - all_rank_dpd * loss
    remaining = scale * ((1.0 - idle_fraction)
                         + idle_fraction * idle_static / standby)
    return min(1.0, max(0.0, (1.0 - remaining) / loss))


def resident_ranks(used_bytes: int,
                   organization: "MemoryOrganization") -> int:
    """Ranks a non-interleaved placement needs for *used_bytes*.

    Live memory-manager usage already includes the kernel boot
    allocation; a closed-form estimate adds it to the footprint first.
    """
    return ranks_holding(used_bytes, organization.rank_capacity_bytes,
                         organization.total_ranks)


def ranks_holding(used_bytes: int, rank_bytes: int, total_ranks: int) -> int:
    """:func:`resident_ranks` from the organization's two constants."""
    return max(1, min(total_ranks, math.ceil(used_bytes / rank_bytes)))


def idle_rank_fraction(used_bytes: int,
                       organization: "MemoryOrganization") -> float:
    """Fraction of ranks holding no data under non-interleaved placement."""
    resident = resident_ranks(used_bytes, organization)
    return 1.0 - resident / organization.total_ranks


def idle_bank_fraction(used_bytes: int,
                       organization: "MemoryOrganization") -> float:
    """Fraction of logical banks the footprint leaves untouched."""
    banks_used = math.ceil(
        used_bytes / organization.logical_bank_capacity_bytes)
    return 1.0 - min(1.0, banks_used / organization.total_banks)
