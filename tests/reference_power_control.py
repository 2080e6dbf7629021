"""The per-group power control and control register, kept as a reference
model.

:class:`repro.core.power_control.GreenDIMMPowerControl` keeps its
eligibility as a bit mask derived from per-group coverage and drives the
register with one mask operation per event.  This copy keeps the older
layout: an eligible set and a pending set beside the coverage counts,
walked group by group, over a register whose gate, un-gate and ready
poll take one group per call.  ``tests/test_power_control_oracle.py``
drives both through the same events and demands the same returned
groups and waits, register value, wake map, mode-register mask and
command count, coverage and eligibility after every one of them.

The mode-register file is shared with ``src/``: it takes one mask per
broadcast in both layouts.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.mapping import PowerBlockMap
from repro.errors import AddressError, ConfigurationError, PowerStateError
from repro.memctrl.moderegister import ModeRegisterFile
from repro.power.states import PowerState, exit_latency_ns


class ReferenceControlRegister:
    """The gate/ready bit pair for each sub-array group, one group per
    call."""

    def __init__(self, num_groups: int = 64):
        if num_groups <= 0:
            raise ConfigurationError("need at least one group")
        self.num_groups = num_groups
        self._gated = 0  # bit i set -> group i in deep power-down
        self._wake_ready_at_ns: Dict[int, float] = {}

    def _check(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise ConfigurationError(f"group {group} out of range")

    def gate(self, group: int) -> None:
        self._check(group)
        if group in self._wake_ready_at_ns:
            raise PowerStateError(f"group {group} is mid-wake-up")
        self._gated |= 1 << group

    def ungate(self, group: int, now_ns: float) -> float:
        self._check(group)
        if not self.is_gated(group):
            raise PowerStateError(f"group {group} is not gated")
        self._gated &= ~(1 << group)
        ready = now_ns + exit_latency_ns(PowerState.DEEP_POWER_DOWN)
        self._wake_ready_at_ns[group] = ready
        return ready

    def is_gated(self, group: int) -> bool:
        self._check(group)
        return bool(self._gated >> group & 1)

    def is_ready(self, group: int, now_ns: float) -> bool:
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

    def raw_value(self) -> int:
        return self._gated


class ReferencePowerControl:
    """Eligible and pending sets re-derived group by group per event."""

    def __init__(self, block_map: PowerBlockMap, pair_gating: bool = True):
        self.block_map = block_map
        self.register = ReferenceControlRegister(
            num_groups=block_map.num_groups)
        self.pair_gating = pair_gating
        self.mode_registers = ModeRegisterFile(
            total_ranks=block_map.mapping.organization.total_ranks,
            mask_bits=max(64, block_map.num_groups))
        self._offline_blocks: Set[int] = set()
        self._cover: List[int] = [0] * block_map.num_groups
        self._eligible_set: Set[int] = set()
        self._pending: Set[int] = set()
        self.wakeup_wait_s = 0.0

    def _groups_of(self, block: int) -> Tuple[int, ...]:
        if not 0 <= block < self.block_map.num_blocks:
            raise AddressError(f"block {block} out of range")
        return self.block_map.block_groups[block]

    def _sync_mode_registers(self) -> None:
        self.mode_registers.broadcast_gate_mask(self.register.raw_value())

    def _qualifies(self, group: int) -> bool:
        cover = self._cover
        full = self.block_map.blocks_per_group
        if cover[group] != full:
            return False
        if not self.pair_gating:
            return True
        partner = group ^ 1
        return partner < len(cover) and cover[partner] == full

    def _decided_by(self, group: int) -> Tuple[int, ...]:
        partner = group ^ 1
        if self.pair_gating and partner < len(self._cover):
            return group, partner
        return group,

    def block_offlined(self, block: int, now_s: float = 0.0) -> List[int]:
        pending = self._pending
        if block not in self._offline_blocks:
            self._offline_blocks.add(block)
            cover = self._cover
            full = self.block_map.blocks_per_group
            for group in self._groups_of(block):
                cover[group] += 1
                if cover[group] == full:
                    for g in self._decided_by(group):
                        if self._qualifies(g):
                            self._eligible_set.add(g)
                            pending.add(g)
        if not pending:
            return []
        register = self.register
        now_ns = now_s * 1e9
        newly = [g for g in sorted(pending) if register.is_ready(g, now_ns)]
        for group in newly:
            register.gate(group)
            pending.discard(group)
        if newly:
            self._sync_mode_registers()
        return newly

    def prepare_online(self, block: int, now_s: float = 0.0) -> float:
        now_ns = now_s * 1e9
        ready_ns = now_ns
        ungated_any = False
        for group in self._groups_of(block):
            if self.register.is_gated(group):
                ready_ns = max(ready_ns,
                               self.register.ungate(group, now_ns))
                self._pending.add(group)
                ungated_any = True
        if ungated_any:
            self._sync_mode_registers()
        wait_s = max(0.0, (ready_ns - now_ns) * 1e-9)
        self.wakeup_wait_s += wait_s
        return wait_s

    def block_onlined(self, block: int, now_s: float = 0.0) -> List[int]:
        if block not in self._offline_blocks:
            return []
        self._offline_blocks.remove(block)
        cover = self._cover
        full = self.block_map.blocks_per_group
        eligible = self._eligible_set
        gated = self.register.raw_value()
        broken = []
        for group in self._groups_of(block):
            cover[group] -= 1
            if cover[group] == full - 1:
                for g in self._decided_by(group):
                    if g in eligible:
                        eligible.remove(g)
                        if gated >> g & 1:
                            broken.append(g)
                        else:
                            self._pending.discard(g)
        if broken:
            broken.sort()
            now_ns = now_s * 1e9
            for group in broken:
                self.register.ungate(group, now_ns)
            self._sync_mode_registers()
        return broken
