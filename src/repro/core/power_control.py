"""Deep power-down orchestration (Section 4.3).

After a successful off-lining the daemon updates the controller's
sub-array-group register; any group that is now fully covered by
off-lined blocks (and satisfies the sense-amp pairing constraint) enters
deep power-down.  Before on-lining a block the daemon un-gates the
affected groups and polls the ready bit; the exit latency is bounded by
the 18 ns power-down exit and — because it happens before
``online_pages()`` returns the block to the allocator — never sits on
any demand access's critical path.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.core.mapping import PowerBlockMap
from repro.memctrl.moderegister import TMRD_NS, ModeRegisterFile
from repro.obs.tracer import GLOBAL_TRACER as TRACER
from repro.memctrl.registers import GreenDIMMControlRegister


class GreenDIMMPowerControl:
    """Keeps the gating register consistent with the offline block set.

    Eligibility is tracked incrementally.  ``_cover`` counts, per group,
    the off-lined blocks among those covering it; a group is *eligible*
    when that count reaches ``blocks_per_group`` and, with pair gating,
    its partner's does too.  ``_eligible_set`` holds the eligible groups
    and ``_pending`` the eligible groups the register does not gate.
    Every gated group is eligible, so an offline or online event
    re-derives eligibility only for its block's groups and their
    partners: an offline gates the ready groups of ``_pending``, and an
    online un-gates the gated groups that lost eligibility in it.  The
    sorted eligible view (:meth:`_eligible`) is identical — ascending,
    same membership — to the reference
    :meth:`~repro.core.mapping.PowerBlockMap.gateable_groups` rescan.
    """

    def __init__(self, block_map: PowerBlockMap, pair_gating: bool = True):
        self.block_map = block_map
        self.register = GreenDIMMControlRegister(
            num_groups=block_map.num_groups)
        self.pair_gating = pair_gating
        self.mode_registers = ModeRegisterFile(
            total_ranks=block_map.mapping.organization.total_ranks,
            mask_bits=max(64, block_map.num_groups))
        self._offline_blocks: Set[int] = set()
        #: Per group, how many of its covering blocks are off-lined.
        self._cover: List[int] = [0] * block_map.num_groups
        #: Groups that may be gated now.
        self._eligible_set: Set[int] = set()
        #: Eligible groups the register does not gate.
        self._pending: Set[int] = set()
        self.wakeup_wait_s = 0.0

    def _sync_mode_registers(self) -> None:
        """Broadcast the control register to the ranks' MRs (MRS path)."""
        self.mode_registers.broadcast_gate_mask(self.register.raw_value())

    @property
    def mrs_time_ns(self) -> float:
        """MRS command time of every gating update so far.

        Each broadcast costs its changed-slice count times tMRD, and the
        ranks share the count, so this is exactly the sum of the
        latencies the broadcasts returned.
        """
        registers = self.mode_registers
        return registers.commands // registers.total_ranks * TMRD_NS

    def _qualifies(self, group: int) -> bool:
        """Every covering block of *group* is off-lined; with pair gating,
        every covering block of its sense-amp partner (``g ^ 1``) too."""
        cover = self._cover
        full = self.block_map.blocks_per_group
        if cover[group] != full:
            return False
        if not self.pair_gating:
            return True
        partner = group ^ 1
        return partner < len(cover) and cover[partner] == full

    def _decided_by(self, group: int) -> Tuple[int, ...]:
        """The groups whose eligibility *group*'s coverage decides."""
        partner = group ^ 1
        if self.pair_gating and partner < len(self._cover):
            return group, partner
        return group,

    def _eligible(self) -> List[int]:
        """Groups that may be gated now, ascending."""
        return sorted(self._eligible_set)

    # --- events from the daemon ------------------------------------------

    def block_offlined(self, block: int, now_s: float = 0.0) -> List[int]:
        """Record an off-lining; gate the pending groups that are ready.

        Returns the groups gated by this event.  A block already offline
        leaves the coverage counts as they are.
        """
        pending = self._pending
        if block not in self._offline_blocks:
            self._offline_blocks.add(block)
            cover = self._cover
            full = self.block_map.blocks_per_group
            for group in self.block_map.groups_of_block(block):
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
            if TRACER.enabled:
                TRACER.event("power.gate", t_s=now_s, block=block,
                             groups=newly)
        return newly

    def prepare_online(self, block: int, now_s: float = 0.0) -> float:
        """Un-gate the groups *block* touches and wait for readiness.

        Returns the wake-up wait in seconds (the poll loop of Section
        4.2); the caller performs ``online_pages()`` only after this.
        An un-gated group stays eligible until the block is on-lined, so
        it goes back to pending: should the on-lining fail, the next
        offline event of any block re-gates it.
        """
        now_ns = now_s * 1e9
        ready_ns = now_ns
        ungated_any = False
        for group in self.block_map.groups_of_block(block):
            if self.register.is_gated(group):
                ready_ns = max(ready_ns,
                               self.register.ungate(group, now_ns))
                self._pending.add(group)
                ungated_any = True
        if ungated_any:
            self._sync_mode_registers()
            if TRACER.enabled:
                TRACER.event("power.ungate", t_s=now_s, block=block)
        wait_s = max(0.0, (ready_ns - now_ns) * 1e-9)
        self.wakeup_wait_s += wait_s
        return wait_s

    def block_onlined(self, block: int, now_s: float = 0.0) -> List[int]:
        """Record the completed on-lining; re-gate partner-broken groups.

        On-lining one block may break the pairing constraint for a
        neighbouring gated group; those groups are woken too (they are
        still fully offline but can no longer be held gated).  Returns
        the groups that had to be un-gated.  A block already online
        leaves the coverage counts as they are.
        """
        if block not in self._offline_blocks:
            return []
        self._offline_blocks.remove(block)
        cover = self._cover
        full = self.block_map.blocks_per_group
        eligible = self._eligible_set
        gated = self.register.raw_value()
        broken = []
        for group in self.block_map.groups_of_block(block):
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
            if TRACER.enabled:
                TRACER.event("power.ungate_broken", t_s=now_s, block=block,
                             groups=broken)
        return broken

    # --- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> dict:
        return {"register": self.register.state_dict(),
                "mode_registers": self.mode_registers.state_dict(),
                "offline_blocks": self._offline_blocks,
                "cover": self._cover,
                "wakeup_wait_s": self.wakeup_wait_s}

    def load_state_dict(self, state: dict) -> None:
        self.register.load_state_dict(state["register"])
        self.mode_registers.load_state_dict(state["mode_registers"])
        self._offline_blocks = state["offline_blocks"]
        self._cover = state["cover"]
        self.wakeup_wait_s = state["wakeup_wait_s"]
        self._eligible_set = {g for g in range(len(self._cover))
                              if self._qualifies(g)}
        gated = self.register.raw_value()
        self._pending = {g for g in self._eligible_set if not gated >> g & 1}

    # --- power accounting --------------------------------------------------

    @property
    def offline_blocks(self) -> Set[int]:
        return set(self._offline_blocks)

    def gated_capacity_fraction(self) -> float:
        """Fraction of DRAM capacity sitting in deep power-down.

        This is the ``dpd_fraction`` the power model consumes: gated
        groups shed their background and refresh power.
        """
        return self.register.gated_fraction()
