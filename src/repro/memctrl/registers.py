"""GreenDIMM's controller-side control register (Section 4.3).

One bit per sub-array *group*: because a group spans every channel, rank,
and bank with the same sub-array index, 64 groups need only 64 bits —
regardless of how many channels or ranks the system has (contrast
:class:`repro.memctrl.pasr.PASRBitVector`).  Setting a bit gates the
group: refresh stops and the sub-arrays' peripheral/IO circuits power
down.  Clearing a bit starts the wake-up; the OS polls the per-group
ready bit (bounded by the 18 ns power-down exit) before on-lining the
backing memory block.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError, PowerStateError
from repro.power.states import PowerState, exit_latency_ns


class GreenDIMMControlRegister:
    """The gate/ready bit pair for each sub-array group."""

    def __init__(self, num_groups: int = 64):
        if num_groups <= 0:
            raise ConfigurationError("need at least one group")
        self.num_groups = num_groups
        self._gated = 0  # bit i set -> group i in deep power-down
        self._wake_ready_at_ns: Dict[int, float] = {}

    @property
    def register_bits(self) -> int:
        """Bits of gating state (the paper's 64, vs PASR's per-rank x16)."""
        return self.num_groups

    def _check(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise ConfigurationError(f"group {group} out of range")

    # --- gating --------------------------------------------------------------

    def gate(self, group: int) -> None:
        """Put *group* into deep power-down (refresh off, periphery gated).

        Only legal for groups whose backing block the OS has off-lined —
        the register cannot check that, but the power-control layer does.
        """
        self._check(group)
        if group in self._wake_ready_at_ns:
            raise PowerStateError(f"group {group} is mid-wake-up")
        self._gated |= 1 << group

    def ungate(self, group: int, now_ns: float) -> float:
        """Begin waking *group*; returns the time at which it is ready."""
        self._check(group)
        if not self.is_gated(group):
            raise PowerStateError(f"group {group} is not gated")
        self._gated &= ~(1 << group)
        ready = now_ns + exit_latency_ns(PowerState.DEEP_POWER_DOWN)
        self._wake_ready_at_ns[group] = ready
        return ready

    # --- status ----------------------------------------------------------------

    def is_gated(self, group: int) -> bool:
        self._check(group)
        return bool(self._gated >> group & 1)

    def is_ready(self, group: int, now_ns: float) -> bool:
        """The ready bit the OS polls before calling ``online_pages()``."""
        self._check(group)
        if self.is_gated(group):
            return False
        ready_at = self._wake_ready_at_ns.get(group)
        if ready_at is None:
            return True
        if now_ns >= ready_at:
            del self._wake_ready_at_ns[group]
            return True
        return False

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
