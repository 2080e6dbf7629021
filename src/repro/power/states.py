"""DRAM power states and legal transitions.

The rank-granularity states (Section 2.2) are what commodity DDR4 offers:

* ``ACTIVE_STANDBY`` / ``PRECHARGE_STANDBY`` — fully on, rows open/closed.
* ``POWER_DOWN`` — CKE low, clock disabled, I/O off; ~18ns exit (tXP).
* ``SELF_REFRESH`` — DLL also off, DRAM refreshes itself; ~768ns exit (tXS).

GreenDIMM adds ``DEEP_POWER_DOWN`` *at the sub-array granularity*
(Section 4.3): refresh is stopped and the peripheral/IO circuits of the
gated sub-arrays are power-gated.  Because the DLL stays on (only part of
the device is gated), the exit latency is bounded by the power-down exit.
In GreenDIMM the exit latency is additionally *off the critical path*: the
OS only on-lines a block after polling that the sub-arrays have woken up,
so no demand request ever pays it.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet


class PowerState(enum.Enum):
    """Power state of a rank — or, for DEEP_POWER_DOWN, of a sub-array."""

    ACTIVE_STANDBY = "active_standby"
    PRECHARGE_STANDBY = "precharge_standby"
    POWER_DOWN = "power_down"
    SELF_REFRESH = "self_refresh"
    DEEP_POWER_DOWN = "deep_power_down"


#: Exit latency to first command, nanoseconds (Section 2.2 / 4.3).
_EXIT_LATENCY_NS: Dict[PowerState, float] = {
    PowerState.ACTIVE_STANDBY: 0.0,
    PowerState.PRECHARGE_STANDBY: 0.0,
    PowerState.POWER_DOWN: 18.0,
    PowerState.SELF_REFRESH: 768.0,
    # Bounded by the power-down exit because the DLL is never turned off.
    PowerState.DEEP_POWER_DOWN: 18.0,
}

#: States in which a rank cannot serve requests without waking up.
_LOW_POWER: FrozenSet[PowerState] = frozenset(
    {PowerState.POWER_DOWN, PowerState.SELF_REFRESH, PowerState.DEEP_POWER_DOWN}
)

#: Legal state transitions for a rank-level state machine.  Low-power
#: states are entered from precharge standby and exit back to it.
ALLOWED_TRANSITIONS: Dict[PowerState, FrozenSet[PowerState]] = {
    PowerState.ACTIVE_STANDBY: frozenset(
        {PowerState.PRECHARGE_STANDBY, PowerState.ACTIVE_STANDBY}
    ),
    PowerState.PRECHARGE_STANDBY: frozenset(
        {
            PowerState.ACTIVE_STANDBY,
            PowerState.PRECHARGE_STANDBY,
            PowerState.POWER_DOWN,
            PowerState.SELF_REFRESH,
            PowerState.DEEP_POWER_DOWN,
        }
    ),
    PowerState.POWER_DOWN: frozenset(
        {PowerState.PRECHARGE_STANDBY, PowerState.POWER_DOWN}
    ),
    PowerState.SELF_REFRESH: frozenset(
        {PowerState.PRECHARGE_STANDBY, PowerState.SELF_REFRESH}
    ),
    PowerState.DEEP_POWER_DOWN: frozenset(
        {PowerState.PRECHARGE_STANDBY, PowerState.DEEP_POWER_DOWN}
    ),
}


def exit_latency_ns(state: PowerState) -> float:
    """Wake-up latency from *state* to the first servable command."""
    return _EXIT_LATENCY_NS[state]


def is_low_power(state: PowerState) -> bool:
    """True when a rank in *state* must wake before serving a request."""
    return state in _LOW_POWER
