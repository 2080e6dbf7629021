"""GreenDIMM's controller-side control register (Section 4.3).

One bit per sub-array *group*: because a group spans every channel, rank,
and bank with the same sub-array index, 64 groups need only 64 bits —
regardless of how many channels or ranks the system has (contrast
:class:`repro.memctrl.pasr.PASRBitVector`).  Setting a bit gates the
group: refresh stops and the sub-arrays' peripheral/IO circuits power
down.  Clearing a bit starts the wake-up; the OS polls the per-group
ready bit (bounded by the 18 ns power-down exit) before on-lining the
backing memory block.

The controller updates the register a whole mask at a time, so every
operation here takes a group mask (bit i = group i) and checks it once.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError, PowerStateError
from repro.power.states import PowerState, exit_latency_ns

#: Gate-to-ready latency of a woken group, nanoseconds.
_WAKE_NS = exit_latency_ns(PowerState.DEEP_POWER_DOWN)


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a non-zero *mask*."""
    return (mask & -mask).bit_length() - 1


class GreenDIMMControlRegister:
    """The gate/ready bit pair for each sub-array group.

    ``_wake_ready_at_ns`` maps each group still waking (or woken but not
    yet polled) to its ready time; ``_waking`` is the same key set as a
    mask, so a whole-mask check costs one ``&``.
    """

    def __init__(self, num_groups: int = 64):
        if num_groups <= 0:
            raise ConfigurationError("need at least one group")
        self.num_groups = num_groups
        self._gated = 0  # bit i set -> group i in deep power-down
        self._wake_ready_at_ns: Dict[int, float] = {}
        self._waking = 0

    @property
    def register_bits(self) -> int:
        """Bits of gating state (the paper's 64, vs PASR's per-rank x16)."""
        return self.num_groups

    def _range_error(self, mask: int) -> ConfigurationError:
        """The error for a *mask* with a bit outside the groups (a
        negative mask has infinitely many)."""
        if mask < 0:
            return ConfigurationError("group mask must not be negative")
        group = _lowest(mask >> self.num_groups) + self.num_groups
        return ConfigurationError(f"group {group} out of range")

    # --- gating --------------------------------------------------------------

    def gate_groups(self, mask: int) -> None:
        """Put the groups of *mask* into deep power-down.

        Refresh stops and the periphery is gated.  Only legal for groups
        whose backing blocks the OS has off-lined — the register cannot
        check that, but the power-control layer does.  A group still
        waking (polled not ready) cannot be gated.
        """
        if mask >> self.num_groups:
            raise self._range_error(mask)
        waking = mask & self._waking
        if waking:
            raise PowerStateError(f"group {_lowest(waking)} is mid-wake-up")
        self._gated |= mask

    def ungate_groups(self, mask: int, now_ns: float) -> float:
        """Begin waking the groups of *mask*; returns their ready time."""
        if mask >> self.num_groups:
            raise self._range_error(mask)
        stray = mask & ~self._gated
        if stray:
            raise PowerStateError(f"group {_lowest(stray)} is not gated")
        self._gated ^= mask
        self._waking |= mask
        ready = now_ns + _WAKE_NS
        wake = self._wake_ready_at_ns
        while mask:
            low = mask & -mask
            wake[low.bit_length() - 1] = ready
            mask ^= low
        return ready

    # --- status ----------------------------------------------------------------

    def ready_groups(self, mask: int, now_ns: float) -> int:
        """The groups of *mask* whose ready bit is set at *now_ns*.

        The ready bit the OS polls before calling ``online_pages()``: a
        gated group is not ready, a woken one is once its exit latency
        has passed.  Polling a finished wake-up consumes its entry.
        """
        if mask >> self.num_groups:
            raise self._range_error(mask)
        ready = mask & ~self._gated
        waking = ready & self._waking
        if waking:
            wake = self._wake_ready_at_ns
            while waking:
                low = waking & -waking
                group = low.bit_length() - 1
                if now_ns >= wake[group]:
                    del wake[group]
                    self._waking ^= low
                else:
                    ready ^= low
                waking ^= low
        return ready

    @property
    def gated_count(self) -> int:
        return bin(self._gated).count("1")

    def gated_fraction(self) -> float:
        return self.gated_count / self.num_groups

    def raw_value(self) -> int:
        """The 64-bit register value (for sysfs-style inspection)."""
        return self._gated

    # --- checkpoint/restore -----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {"gated": self._gated,
                "wake_ready_at_ns": self._wake_ready_at_ns}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._gated = state["gated"]
        self._wake_ready_at_ns = state["wake_ready_at_ns"]
        self._waking = sum(1 << g for g in self._wake_ready_at_ns)
