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

from typing import List, Set

from repro.core.mapping import PowerBlockMap
from repro.errors import AddressError
from repro.memctrl.moderegister import TMRD_NS, ModeRegisterFile
from repro.obs.tracer import GLOBAL_TRACER as TRACER
from repro.memctrl.registers import GreenDIMMControlRegister


def _groups(mask: int) -> List[int]:
    """The groups of a group *mask*, ascending."""
    groups = []
    while mask:
        low = mask & -mask
        groups.append(low.bit_length() - 1)
        mask ^= low
    return groups


class GreenDIMMPowerControl:
    """Keeps the gating register consistent with the offline block set.

    Eligibility is a group mask kept incrementally.  ``_cover`` counts,
    per group, the off-lined blocks among those covering it; ``_full``
    has a bit for each group whose count reached ``blocks_per_group``,
    and ``_eligible`` is ``_full`` less, under pair gating, every group
    whose sense-amp partner (``g ^ 1``) is not full.  Every gated group
    is eligible, so the *pending* groups — eligible, not gated — are
    ``_eligible & ~register``.  An event touches only its block's
    precomputed group tuple and mask: an offline gates the ready pending
    groups, an online un-gates the gated groups that lost eligibility in
    it, each with one register operation and one MRS broadcast.  The
    eligible mask holds exactly the groups of the reference
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
        self._block_groups = block_map.block_groups
        self._block_masks = block_map.block_masks
        #: The even groups (0b...0101), whose partners are the odd ones
        #: above them.
        self._even = int("01" * ((block_map.num_groups + 1) // 2), 2)
        self._offline_blocks: Set[int] = set()
        #: Per group, how many of its covering blocks are off-lined.
        self._cover: List[int] = [0] * block_map.num_groups
        #: Groups all of whose covering blocks are off-lined.
        self._full = 0
        #: Groups that may be gated now.
        self._eligible = 0
        self.wakeup_wait_s = 0.0

    @property
    def mrs_time_ns(self) -> float:
        """MRS command time of every gating update so far.

        Each broadcast costs its changed-slice count times tMRD, and the
        ranks share the count, so this is exactly the sum of the
        latencies the broadcasts returned.
        """
        registers = self.mode_registers
        return registers.commands // registers.total_ranks * TMRD_NS

    def _eligible_of(self, full: int) -> int:
        """The eligible groups when *full* holds the fully covered ones."""
        if not self.pair_gating:
            return full
        even = self._even
        return full & (((full & even) << 1) | ((full >> 1) & even))

    # --- events from the daemon ------------------------------------------

    def block_offlined(self, block: int, now_s: float = 0.0) -> List[int]:
        """Record an off-lining; gate the pending groups that are ready.

        Returns the groups gated by this event.  A block already offline
        leaves the coverage counts as they are.
        """
        offline = self._offline_blocks
        if block not in offline:
            if not 0 <= block < len(self._block_masks):
                raise AddressError(f"block {block} out of range")
            offline.add(block)
            cover = self._cover
            groups = self._block_groups[block]
            for group in groups:
                cover[group] += 1
            # A block covers whole groups or a slice of one, so its
            # groups fill together.
            if cover[groups[0]] == self.block_map.blocks_per_group:
                self._full |= self._block_masks[block]
                self._eligible = self._eligible_of(self._full)
        register = self.register
        raw = register.raw_value()
        pending = self._eligible & ~raw
        if not pending:
            return []
        newly = register.ready_groups(pending, now_s * 1e9)
        if not newly:
            return []
        register.gate_groups(newly)
        self.mode_registers.broadcast_gate_mask(raw | newly)
        # Mostly exactly the block's own groups: copy their tuple.
        gated = (list(self._block_groups[block])
                 if newly == self._block_masks[block] else _groups(newly))
        if TRACER.enabled:
            TRACER.event("power.gate", t_s=now_s, block=block, groups=gated)
        return gated

    def prepare_online(self, block: int, now_s: float = 0.0) -> float:
        """Un-gate the groups *block* touches and wait for readiness.

        Returns the wake-up wait in seconds (the poll loop of Section
        4.2); the caller performs ``online_pages()`` only after this.
        An un-gated group stays eligible until the block is on-lined, so
        it goes back to pending: should the on-lining fail, the next
        offline event of any block re-gates it.
        """
        masks = self._block_masks
        if not 0 <= block < len(masks):
            raise AddressError(f"block {block} out of range")
        register = self.register
        raw = register.raw_value()
        gated = masks[block] & raw
        if not gated:
            return 0.0
        now_ns = now_s * 1e9
        ready_ns = register.ungate_groups(gated, now_ns)
        self.mode_registers.broadcast_gate_mask(raw ^ gated)
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
        offline = self._offline_blocks
        if block not in offline:
            return []
        offline.remove(block)
        cover = self._cover
        groups = self._block_groups[block]
        was_full = cover[groups[0]] == self.block_map.blocks_per_group
        for group in groups:
            cover[group] -= 1
        if not was_full:
            return []
        self._full &= ~self._block_masks[block]
        lost = self._eligible
        self._eligible = self._eligible_of(self._full)
        register = self.register
        raw = register.raw_value()
        broken = lost & ~self._eligible & raw
        if not broken:
            return []
        register.ungate_groups(broken, now_s * 1e9)
        self.mode_registers.broadcast_gate_mask(raw ^ broken)
        broken_groups = _groups(broken)
        if TRACER.enabled:
            TRACER.event("power.ungate_broken", t_s=now_s, block=block,
                         groups=broken_groups)
        return broken_groups

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
        full = self.block_map.blocks_per_group
        self._full = sum(1 << g for g, count in enumerate(self._cover)
                         if count == full)
        self._eligible = self._eligible_of(self._full)

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
